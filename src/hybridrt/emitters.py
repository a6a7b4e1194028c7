"""Per-face emission estimation by inverse rendering.

Light transport is linear in the emission vector when path trajectories
are fixed. The transport build runs the renderer's own bounce loop
(`render.trace_paths`) from the same seeds, with a scatter accumulator in
place of stored emission: each front-facing hit adds its path throughput
to its pixel's bin for the hit face. That yields a dense transport
operator A with image = A @ E exactly. The estimate then minimizes mean
squared image error plus an L1 sparsity term by projected gradient
descent, with a fixed periodic clip-low/boost-high schedule, and finally
prunes the mesh down to the surviving emissive faces. `estimate` runs
those three steps. Only the sparsity weight, the brightness threshold and
the epoch count are settable.

The descent runs in face space on one summary of the operator. Per pose
and channel, the triangular factor R = [R11 r; 0 rho] of [A | b] is formed
once; since [A | b] = Q R with Q orthonormal, G = A^T A = R11^T R11 and
A^T b = R11^T r. The step size is 1/L, from the largest eigenvalue of the
G blocks, and is folded with the constants of a step into K = (2 step / n) G
and c = (2 step / n) A^T b, so a step costs one faces x faces product. The
loss recorded after every epoch is exact without a pass over the image
rows: the squared residual is the sum over poses of ||R11 E - r||^2 + rho^2.
R holds the residual itself, rotated, so this does not cancel as the
expansion E^T G E - 2 E^T A^T b + b^T b through G would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import luminance
from .render import BATCH_RAYS, EmitterSet, primary_batches, trace_paths
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
    if max_depth < 1:
        raise EstimationError(f"max_depth must be >= 1, got {max_depth}")
    n_faces = scene.bvh.n_faces
    if not poses:
        raise EstimationError("at least one pose required")
    w, h = poses[0].resolution
    rows = len(poses) * h * w
    need = rows * n_faces * 3 * 8
    if need > TRANSPORT_BYTE_CAP:
        raise EstimationError(
            f"dense transport operator would need {need / 1e9:.1f} GB "
            f"({rows} rows x {n_faces} faces); use fewer faces, a lower "
            "resolution or fewer poses"
        )

    a = np.zeros((rows, n_faces, 3))
    spp = scene.render.spp
    seed = scene.render.seed
    inv_spp = 1.0 / spp
    npix = w * h
    span = max(1, BATCH_RAYS // spp)  # pixels per batch, as a render cuts its tiles
    for pi, cam in enumerate(poses):
        if cam.resolution != (w, h):
            raise EstimationError("all poses must share one resolution")
        acc = a[pi * npix:(pi + 1) * npix]
        for p0 in range(0, npix, span):
            pixels = np.arange(p0, min(p0 + span, npix))
            for pix, smp, o, d in primary_batches(cam, spp, seed, pixels):
                def scatter(ids, faces, T_spec):
                    np.add.at(acc, (pix[ids], faces), T_spec * inv_spp)

                trace_paths(scene, o, d, pix, smp, seed, int(max_depth), scatter)
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
    # Per pose and channel R of [A | b]: (poses, 3, k, faces + 1).
    pose_ab = np.concatenate([
        op.a.reshape(op.n_poses, rpp, op.n_faces, 3).transpose(0, 3, 1, 2),
        np.asarray(gt_flat, dtype=np.float64).reshape(op.n_poses, rpp, 3, 1).transpose(0, 2, 1, 3),
    ], axis=3)
    r = np.linalg.qr(pose_ab, mode="r")
    r11, r_b = r[..., :-1], r[..., -1:]
    gram = r11.swapaxes(2, 3) @ r11              # (poses, 3, faces, faces)
    step = _lipschitz_step(gram, n_img)
    # One step, e - step * (2 (G e - A^T b) / n + alpha sign(e) / m), folded.
    k_mat = (2.0 * step / n_img) * gram
    c_vec = (2.0 * step / n_img) * (r11.swapaxes(2, 3) @ r_b)
    s_l1 = step * config.alpha / (3 * op.n_faces)
    n_res = op.n_poses * n_img

    def loss(et):
        res = r11 @ et - r_b  # R [e; -1], rho's row included
        return float(np.sum(res * res)) / n_res + config.alpha * float(np.mean(np.abs(et)))

    et = np.full((3, op.n_faces, 1), INIT_EMISSION)  # emission, channel-major columns
    history = [loss(et)]
    initial = history[0]
    for epoch in range(1, config.epochs + 1):
        for k_p, c_p in zip(k_mat, c_vec):
            et = np.maximum(et - k_p @ et + c_p - s_l1 * np.sign(et), 0.0)
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
    return np.ascontiguousarray(et[:, :, 0].T), history


def prune_emitters(tri_verts: np.ndarray, emission: np.ndarray,
                   threshold: float) -> EmitterSet:
    """Faces whose peak channel reaches the threshold become area lights;
    intensity is luminance relative to the brightest kept face."""
    tri_verts = np.asarray(tri_verts, dtype=np.float64).reshape(-1, 3, 3)
    emission = np.asarray(emission, dtype=np.float64).reshape(-1, 3)
    keep = emission.max(axis=1) >= threshold
    if not np.any(keep):
        return EmitterSet(np.zeros((0, 3, 3)), np.zeros(0))
    lums = luminance(emission[keep])
    peak = lums.max()
    r_src = np.clip(lums / peak, 0.0, 1.0) if peak > 0 else np.zeros_like(lums)
    return EmitterSet(tri_verts[keep], r_src)


def estimate(scene, poses, gt_flat: np.ndarray, config: EstimatorConfig,
             max_depth: int = 3):
    """Emitters from ground-truth images: the transport of `poses`, the
    descent against gt_flat (every pose's pixels, (poses*h*w, 3), in pose
    order), then pruning at the config's brightness threshold. Returns
    (EmitterSet, emission, loss_history)."""
    op = build_transport(scene, poses, max_depth=max_depth)
    emission, history = optimize_emission(config, op, gt_flat)
    return (prune_emitters(scene.bvh.tri, emission, config.brightness_threshold),
            emission, history)


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
