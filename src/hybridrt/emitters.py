"""Per-face emission estimation by inverse rendering.

Light transport is linear in the emission vector when path trajectories
are fixed. The transport build runs the renderer's own bounce loop
(`render._trace_paths`) from the same seeds, with a scatter accumulator in
place of stored emission: each front-facing hit adds its path throughput
to its pixel's bin for the hit face. That yields a dense transport
operator A with image = A @ E exactly. The estimate then minimizes mean
squared image error plus an L1 sparsity term by projected gradient
descent, with a fixed periodic clip-low/boost-high schedule, and finally
prunes the mesh down to the surviving emissive faces. Only the sparsity
weight, the brightness threshold and the epoch count are settable.

The descent runs in face space. Per pose and channel, the Gram matrix
G = A^T A (faces x faces) and A^T b are formed once, so a step costs a
faces x faces product instead of two passes over the image rows; the
step size is always 1/L, from the largest eigenvalue of the same blocks. The
loss recorded after every epoch is exact: it is computed from the image
residual A E - b, not expanded through G, which would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import luminance
from .render import EmitterSet, _primary_batches, _trace_paths
from .surface import Lambertian

TRANSPORT_BYTE_CAP = 1_500_000_000

# The descent's fixed schedule: every CLIP_PERIOD_EPOCHS epochs faces below
# the brightness threshold are zeroed and those at or above it are scaled
# by BOOST_FACTOR; every face starts at INIT_EMISSION in every channel.
CLIP_PERIOD_EPOCHS = 2
BOOST_FACTOR = 1.5
INIT_EMISSION = 0.01


class EstimationError(ValueError):
    pass


@dataclass
class EstimatorConfig:
    alpha: float = 1e-4
    brightness_threshold: float = 0.2
    epochs: int = 400

    def __post_init__(self):
        # Written so that NaN fails every check.
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise EstimationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.brightness_threshold) and self.brightness_threshold >= 0):
            raise EstimationError("brightness_threshold must be finite and >= 0, "
                                  f"got {self.brightness_threshold}")
        if self.epochs < 0:
            raise EstimationError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class TransportOperator:
    """Dense per-channel transport: image_c = A[..., c] @ E[:, c]."""

    a: np.ndarray            # (poses*h*w, faces, 3)
    n_poses: int
    resolution: tuple        # (w, h)
    n_faces: int


def build_transport(scene, poses, max_depth: int = 3) -> TransportOperator:
    """Transport columns for every face of every scene mesh.

    `poses` is a list of Camera objects; the renderer depth is capped at
    max_depth surface interactions (3 = directly visible emitters plus two
    bounces). Estimation scenes must be Lambertian-only and field-free.
    """
    for m in scene.meshes:
        if not isinstance(m.bsdf, Lambertian):
            raise EstimationError(
                f"estimation requires Lambertian surfaces; mesh '{m.name}' is not"
            )
    if scene.field is not None:
        raise EstimationError("estimation scenes must not contain a radiance field")
    n_faces = scene.bvh.n_faces
    if not poses:
        raise EstimationError("at least one pose required")
    w, h = poses[0].resolution
    rows = len(poses) * h * w
    need = rows * n_faces * 3 * 8
    if need > TRANSPORT_BYTE_CAP:
        raise EstimationError(
            f"dense transport operator would need {need / 1e9:.1f} GB "
            f"({rows} rows x {n_faces} faces); reduce faces/resolution or "
            "use finite-difference gradients"
        )

    a = np.zeros((rows, n_faces, 3))
    spp = scene.render.spp
    seed = scene.render.seed
    inv_spp = 1.0 / spp
    npix = w * h
    for pi, cam in enumerate(poses):
        if cam.resolution != (w, h):
            raise EstimationError("all poses must share one resolution")
        acc = a[pi * npix:(pi + 1) * npix]
        for pix, smp, o, d in _primary_batches(cam, spp, seed, np.arange(npix)):
            def scatter(ids, faces, T_spec):
                np.add.at(acc, (pix[ids], faces), T_spec * inv_spp)

            _trace_paths(scene, o, d, pix, smp, seed, int(max_depth), scatter)
    return TransportOperator(a=a, n_poses=len(poses), resolution=(w, h), n_faces=n_faces)


def _lipschitz_step(gram: np.ndarray, n_img: int) -> float:
    """1 / L for the worst per-pose data term: L = 2 * max eigenvalue of the
    per-pose, per-channel Gram blocks over the pose's image size."""
    worst = float(np.linalg.eigvalsh(gram)[..., -1].max())
    if worst <= 0.0:
        raise EstimationError("transport operator is all zero")
    return 1.0 / (2.0 * worst / n_img)


def clip_low(emission: np.ndarray, threshold: float) -> np.ndarray:
    out = emission.copy()
    out[out < threshold] = 0.0
    return out


def boost_high(emission: np.ndarray, threshold: float, factor: float) -> np.ndarray:
    out = emission.copy()
    out[out >= threshold] *= factor
    return out


def optimize_emission(config: EstimatorConfig, op: TransportOperator, gt_flat: np.ndarray):
    """Projected gradient descent with the periodic clip/boost schedule.

    One epoch takes one step per pose against that pose's image term (so
    the clip/boost cadence sees poses-many descent steps per epoch). With
    A and b one pose's transport and image in one channel, a step's
    gradient 2 A^T (A e - b) / n is taken as 2 (G e - A^T b) / n. The loss
    is the mean squared image error plus the scaled mean absolute
    emission. Returns (emission, loss_history); aborts when the loss
    turns non-finite or explodes past ten times its initial value.
    """
    w, h = op.resolution
    rpp = w * h
    n_img = rpp * 3
    # Channel-major copies: (3, rows, faces) transport and (3, rows) images,
    # viewed per pose as (poses, 3, rpp, faces) and (poses, 3, rpp).
    a_cm = np.ascontiguousarray(op.a.transpose(2, 0, 1))
    b_cm = np.ascontiguousarray(np.asarray(gt_flat, dtype=np.float64).T)
    pose_a = a_cm.reshape(3, op.n_poses, rpp, op.n_faces).swapaxes(0, 1)
    pose_b = b_cm.reshape(3, op.n_poses, rpp).swapaxes(0, 1)
    pose_at = pose_a.swapaxes(2, 3)
    gram = pose_at @ pose_a                      # (poses, 3, faces, faces)
    atb = (pose_at @ pose_b[..., None])[..., 0]  # (poses, 3, faces)
    step = _lipschitz_step(gram, n_img)

    def loss(et):
        res = (a_cm @ et[:, :, None])[:, :, 0] - b_cm
        return float(np.mean(res * res)) + config.alpha * float(np.mean(np.abs(et)))

    et = np.full((3, op.n_faces), INIT_EMISSION)  # emission, channel-major
    m_tex = et.size
    history = [loss(et)]
    initial = history[0]
    for epoch in range(1, config.epochs + 1):
        for g, g_b in zip(gram, atb):
            grad = 2.0 * ((g @ et[:, :, None])[:, :, 0] - g_b) / n_img
            grad += config.alpha * np.sign(et) / m_tex
            et = np.maximum(et - step * grad, 0.0)
        if epoch % CLIP_PERIOD_EPOCHS == 0 and epoch < config.epochs:
            et = boost_high(clip_low(et, config.brightness_threshold),
                            config.brightness_threshold, BOOST_FACTOR)
        current = loss(et)
        history.append(current)
        if not math.isfinite(current) or (initial > 0 and current > 10.0 * initial):
            raise RuntimeError(
                f"emission optimization diverged at epoch {epoch}: "
                f"loss {current:.4g} against initial {initial:.4g} "
                f"(step {step:.3g}, alpha {config.alpha:.3g})"
            )
    et = clip_low(et, config.brightness_threshold)
    history.append(loss(et))
    return np.ascontiguousarray(et.T), history


def prune_emitters(tri_verts: np.ndarray, emission: np.ndarray,
                   threshold: float) -> EmitterSet:
    """Faces whose peak channel reaches the threshold become area lights;
    intensity is luminance relative to the brightest kept face."""
    tri_verts = np.asarray(tri_verts, dtype=np.float64).reshape(-1, 3, 3)
    emission = np.asarray(emission, dtype=np.float64).reshape(-1, 3)
    keep = emission.max(axis=1) >= threshold
    if not np.any(keep):
        return EmitterSet(np.zeros((0, 3, 3)), np.zeros(0))
    kept_e = emission[keep]
    lums = np.array([luminance(e) for e in kept_e])
    peak = lums.max()
    r_src = np.clip(lums / peak, 0.0, 1.0) if peak > 0 else np.zeros_like(lums)
    return EmitterSet(tri_verts[keep], r_src)


def save_emitters_json(path, emitters: EmitterSet) -> None:
    import json
    doc = [{"triangle": emitters.triangles[i].tolist(),
            "r_src": float(emitters.r_src[i])}
           for i in range(len(emitters))]
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


def save_loss_csv(path, history) -> None:
    with open(path, "w") as f:
        f.write("epoch,loss\n")
        for i, v in enumerate(history):
            f.write(f"{i},{v:.9g}\n")
