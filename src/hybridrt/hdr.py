"""Inverse camera response recovery and HDR merging from exposure brackets.

The response solve is the classic log-domain least squares: hat-weighted
data terms g(z) - ln E - ln dt, a second-difference smoothness term, and
the gauge g(128) = 0, solved per channel, then projected to a monotone
table. The per-sample log exposures ln E are projected out in closed form
(variable projection), so each channel's solve has the 256 unknowns of g
only. Samples that share a code tuple share their rows, so the solve runs
over distinct tuples with sqrt(count) weights and without the all-zero rows
of rail codes: about distinct tuples x exposures + 255 rows per channel.
Merging averages the per-exposure log-radiance estimates with the same hat
weights.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .images import HdrImage, encode_ppm_raw, read_ppm


class HdrError(ValueError):
    pass


@dataclass
class ExposureBracket:
    """Aligned 8-bit exposures of one view, strictly increasing times."""

    images: list  # uint8 arrays (h, w, 3)
    exposure_times: list

    def __post_init__(self):
        if len(self.images) < 3:
            raise HdrError(f"bracket needs >= 3 images, got {len(self.images)}")
        if len(self.images) != len(self.exposure_times):
            raise HdrError("image/time count mismatch")
        shape = self.images[0].shape
        self.images = [np.asarray(im, dtype=np.uint8) for im in self.images]
        if any(im.shape != shape or im.ndim != 3 or im.shape[2] != 3 for im in self.images):
            raise HdrError("bracket images must share one (h, w, 3) shape")
        t = [float(x) for x in self.exposure_times]
        if (not all(map(math.isfinite, t)) or t[0] <= 0
                or any(b <= a for a, b in zip(t, t[1:]))):
            raise HdrError("exposure times must be finite, positive and strictly increasing")
        self.exposure_times = t


@dataclass
class CrfTable:
    """Per-channel inverse response: g[z] is log radiance for code z."""

    g: np.ndarray  # (256, 3)

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=np.float64).reshape(256, 3)


def hat_weights(z: np.ndarray) -> np.ndarray:
    """w(z) = z for z <= 127 else 255 - z; zero at both rails."""
    z = np.asarray(z, dtype=np.float64)
    return np.where(z <= 127, z, 255.0 - z)


def _monotone_projection(g: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: nearest non-decreasing sequence."""
    values = list(g.astype(np.float64))
    counts = [1] * len(values)
    out_v, out_c = [], []
    for v, c in zip(values, counts):
        out_v.append(v)
        out_c.append(c)
        while len(out_v) > 1 and out_v[-2] > out_v[-1]:
            v2, c2 = out_v.pop(), out_c.pop()
            v1, c1 = out_v.pop(), out_c.pop()
            out_v.append((v1 * c1 + v2 * c2) / (c1 + c2))
            out_c.append(c1 + c2)
    res = np.empty(len(values))
    i = 0
    for v, c in zip(out_v, out_c):
        res[i:i + c] = v
        i += c
    return res


def _sample_grid(w: int, h: int, n_samples: int):
    """Pixel positions on a uniform spatial lattice, about n_samples; from
    max(w, h) points per axis on, the lattice holds every pixel."""
    k = max(2, min(math.isqrt(n_samples - 1) + 1, max(w, h)))
    xs = np.unique(np.linspace(0, w - 1, k).round().astype(np.int64))
    ys = np.unique(np.linspace(0, h - 1, k).round().astype(np.int64))
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


def recover_crf(bracket: ExposureBracket, lam: float = 50.0,
                n_samples: int = 200) -> CrfTable:
    """Solve for the 256-entry log response per channel.

    Sample pixels are a uniform grid over one representative image (the
    middle exposure); the system must stay overdetermined, i.e.
    n_samples * (images - 1) >= 256.

    A sample's log exposure ln E appears only in that sample's own data
    rows, with the sample's hat weights w as its column, so it is
    eliminated in closed form (variable projection): multiplying those
    rows and their right-hand side by I - w~ w~^T, with w~ = w / |w|, is
    an exact orthogonal projection that leaves the least-squares g
    unchanged. What is solved is 256 columns per channel: the projected
    data rows, the smoothness rows and the gauge row.

    The projected rows and right-hand side of a sample are a function of
    its code tuple alone, so c samples with one tuple contribute the same
    block c times. That block is built once and scaled by sqrt(c), and the
    rows of rail codes, whose weight is 0 and which are exactly zero, are
    dropped. A^T A, A^T b and the residual stay those of the per-sample
    system, so the answer is the same up to rounding, at about (distinct
    tuples x exposures + 255) rows per channel. Most of the gain comes from
    duplicates, which a flat-panel target such as the hdr-bracket preset has
    many of (16 tuples in 225 samples); a noisy photograph has few, and only
    the dropped rail rows are left (390 of the preset's 1,125 data rows).
    The smoothness rows come first: with the weighted data rows first, the
    SVD solve's error against the per-sample system grew up to 250-fold on
    some brackets of a few tuples at small lam.

    The rank test is lstsq's own, rcond=None: singular values below
    eps * max(M, N) * sigma_max count as zero, with N = 256 and M the
    reduced row count, so the cut sits lower than for the per-sample system.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise HdrError(f"smoothness lambda must be finite and >= 0, got {lam}")
    if not n_samples >= 1:
        raise HdrError(f"n_samples must be >= 1, got {n_samples}")
    j_count = len(bracket.images)
    h, w = bracket.images[0].shape[:2]
    xs, ys = _sample_grid(w, h, n_samples)
    p = len(xs)
    if p * (j_count - 1) < 256:
        raise HdrError(
            f"underdetermined response solve: {p} samples x {j_count} images "
            f"(need n_samples * (images - 1) >= 256)"
        )
    ln_t = np.log(np.array(bracket.exposure_times))

    # Smoothness rows lam * w(z) * g''(z) for z = 1..254, then g(128) = 0.
    zmid = np.arange(1, 255)
    wz = lam * hat_weights(zmid)
    prior = np.zeros((255, 256))
    prior[zmid - 1, zmid - 1] = wz
    prior[zmid - 1, zmid] = -2.0 * wz
    prior[zmid - 1, zmid + 1] = wz
    prior[254, 128] = 1.0

    g = np.empty((256, 3))
    for c in range(3):
        # (samples, images) codes and weights.
        z_all = np.stack([im[ys, xs, c] for im in bracket.images], axis=1).astype(np.int64)
        wgt = hat_weights(z_all)
        # Samples clipped to a rail in every exposure carry no data rows and
        # would leave their log-exposure unknown floating.
        usable = wgt.sum(axis=1) > 0
        pc = int(usable.sum())
        if pc * (j_count - 1) < 256:
            raise HdrError(
                f"too few usable samples for channel {c}: {pc} after dropping "
                "fully saturated pixels"
            )
        # A sample's projected rows depend on its code tuple alone: one block
        # per distinct tuple, scaled by sqrt(count), stands for all its copies.
        z_all, count = np.unique(z_all[usable], axis=0, return_counts=True)
        wgt = hat_weights(z_all)
        k = len(z_all)
        # Tuple i's rows: wgt[i, j] * (g[z[i, j]] - ln E_i) = wgt[i, j] * ln t_j.
        data = np.zeros((k, j_count, 256))
        data[np.arange(k)[:, None], np.arange(j_count), z_all] = wgt
        rhs = wgt * ln_t
        unit = wgt / np.linalg.norm(wgt, axis=1, keepdims=True)
        data -= unit[:, :, None] * (unit[:, None, :] @ data)
        rhs -= unit * np.sum(unit * rhs, axis=1, keepdims=True)
        scale = np.sqrt(count)[:, None]
        # A rail code's row has weight 0 and stays exactly zero.
        live = wgt > 0
        a = np.concatenate([prior, (data * scale[:, :, None])[live]])
        b = np.concatenate([np.zeros(255), (rhs * scale)[live]])
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < 256:
            raise HdrError(
                f"rank-deficient response system for channel {c} "
                f"(rank {rank} of 256); add samples or exposures"
            )
        gc = _monotone_projection(sol)
        g[:, c] = gc - gc[128]
    return CrfTable(g=g)


def merge_hdr(bracket: ExposureBracket, crf: CrfTable) -> HdrImage:
    """Weighted log-average of per-exposure radiance estimates.

    A pixel channel with zero weight in every exposure has a rail code,
    0 or 255, in each; it falls back to the shortest exposure's estimate,
    or to zero radiance where that exposure reads 0.
    """
    h, w = bracket.images[0].shape[:2]
    ln_t = np.log(np.array(bracket.exposure_times))
    num = np.zeros((h, w, 3))
    den = np.zeros((h, w, 3))
    chan = np.arange(3)
    for j, im in enumerate(bracket.images):
        z = im.astype(np.int64)
        wgt = hat_weights(z)
        num += wgt * (crf.g[z, chan] - ln_t[j])  # per-channel table lookup
        den += wgt
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_e = num / den
    fall = den == 0.0
    z0 = bracket.images[0].astype(np.int64)
    ln_e = np.where(fall, crf.g[z0, chan] - ln_t[0], ln_e)
    e = np.where(fall & (z0 == 0), 0.0, np.exp(ln_e))
    return HdrImage(e)


def normalize_radiance(img: HdrImage) -> HdrImage:
    """Scale so the maximum channel value is 255; ratios are untouched.

    All-zero images come back unchanged.
    """
    peak = float(img.pixels.max())
    if peak <= 0.0:
        return HdrImage(img.pixels.copy())
    return HdrImage(img.pixels * (255.0 / peak))


def box_downsample(img: HdrImage, factor: int = 4) -> HdrImage:
    """Box-filter downsample; trailing rows/columns that do not fill a full
    box are dropped."""
    if min(img.w, img.h) < factor:
        raise ValueError(f"a {factor}x box downsample needs at least {factor}x{factor} px, "
                         f"got a {img.w}x{img.h} image")
    h = (img.h // factor) * factor
    w = (img.w // factor) * factor
    p = img.pixels[:h, :w]
    p = p.reshape(h // factor, factor, w // factor, factor, 3).mean(axis=(1, 3))
    return HdrImage(p)


# -- synthetic cameras (test and asset generation) ---------------------------


def gamma_camera_codes(linear: np.ndarray, exposure_time: float, gamma: float = 2.2) -> np.ndarray:
    """8-bit codes for a gamma-response camera: round(255 * (E*t)^(1/g))."""
    x = np.clip(np.asarray(linear, dtype=np.float64) * exposure_time, 0.0, None)
    v = np.clip(255.0 * np.power(x, 1.0 / gamma), 0.0, 255.0)
    return np.floor(v + 0.5).astype(np.uint8)


def synthesize_bracket(img: HdrImage, exposure_times, gamma: float = 2.2) -> ExposureBracket:
    codes = [gamma_camera_codes(img.pixels, t, gamma) for t in exposure_times]
    return ExposureBracket(codes, list(exposure_times))


# -- bracket and table files ---------------------------------------------------


def save_bracket(dir_path: str, bracket: ExposureBracket, name: str = "bracket") -> str:
    """Numbered PPMs plus a JSON manifest of exposure times."""
    os.makedirs(dir_path, exist_ok=True)
    entries = []
    for j, (codes, t) in enumerate(zip(bracket.images, bracket.exposure_times)):
        fname = f"{name}_{j:02d}.ppm"
        with open(os.path.join(dir_path, fname), "wb") as f:
            f.write(encode_ppm_raw(codes))
        entries.append({"path": fname, "time": t})
    manifest = os.path.join(dir_path, f"{name}.json")
    with open(manifest, "w") as f:
        json.dump({"images": entries}, f, indent=2)
    return manifest


def load_bracket(manifest_path: str) -> ExposureBracket:
    try:
        with open(manifest_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise HdrError(f"cannot read bracket manifest {manifest_path}: {e}") from e
    entries = doc.get("images") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise HdrError(f"{manifest_path}: manifest needs an 'images' list")
    base = os.path.dirname(os.path.abspath(manifest_path))
    images, times = [], []
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and isinstance(e.get("path"), str)
                and isinstance(e.get("time"), (int, float))
                and not isinstance(e["time"], bool)):
            raise HdrError(f"{manifest_path}: images[{i}] needs a 'path' string "
                           "and a numeric 'time'")
        images.append(read_ppm(os.path.join(base, e["path"])))
        times.append(float(e["time"]))
    return ExposureBracket(images, times)


def save_crf_csv(path, crf: CrfTable) -> None:
    lines = ["code,g_r,g_g,g_b"]
    for z in range(256):
        lines.append(f"{z},{crf.g[z,0]:.9g},{crf.g[z,1]:.9g},{crf.g[z,2]:.9g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_crf_csv(path) -> CrfTable:
    """Read the table save_crf_csv writes: a header line, then codes 0..255,
    each exactly once, with three finite values each."""
    g = np.zeros((256, 3))
    seen = np.zeros(256, dtype=bool)
    with open(path) as f:
        lines = [(n, ln.strip()) for n, ln in enumerate(f, start=1) if ln.strip()]
    if not lines or lines[0][1].split(",")[0].strip() != "code":
        raise HdrError(f"{path}: CRF CSV needs a 'code,g_r,g_g,g_b' header line")
    for n, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != 4:
                raise ValueError(f"{len(parts)} fields, need 4")
            z = int(parts[0])
            vals = [float(v) for v in parts[1:]]
        except ValueError as e:
            raise HdrError(f"{path}:{n}: bad CRF row {ln!r}: {e}") from e
        if not 0 <= z <= 255 or seen[z]:
            raise HdrError(f"{path}:{n}: code {z} out of range or repeated")
        if not np.all(np.isfinite(vals)):
            raise HdrError(f"{path}:{n}: non-finite value for code {z}")
        g[z] = vals
        seen[z] = True
    if not seen.all():
        missing = np.nonzero(~seen)[0]
        raise HdrError(f"{path}: CRF table lacks {len(missing)} of 256 codes "
                       f"(first missing: {missing[0]})")
    return CrfTable(g=g)
