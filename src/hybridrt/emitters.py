"""Per-face emission estimation by inverse rendering.

Light transport is linear in the emission vector when path trajectories
are fixed. The transport build runs the renderer's own bounce loop
(`render._trace_paths`) from the same seeds, with a scatter accumulator in
place of stored emission: each front-facing hit adds its path throughput
to its pixel's bin for the hit face. That yields a dense transport
operator A with image = A @ E exactly. The estimate then minimizes mean
squared image error plus an L1 sparsity term by projected gradient
descent, with the periodic clip-low/boost-high schedule, and finally
prunes the mesh down to the surviving emissive faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import luminance
from .images import HdrImage
from .render import EmitterSet, _primary_batches, _trace_paths
from .surface import Lambertian

TRANSPORT_BYTE_CAP = 1_500_000_000


class EstimationError(ValueError):
    pass


@dataclass
class EstimatorConfig:
    alpha: float = 1e-4
    brightness_threshold: float = 0.2
    clip_period_epochs: int = 2
    boost_factor: float = 1.5
    step_size: float = None  # None = 1/Lipschitz from the operator
    epochs: int = 400

    def __post_init__(self):
        if self.brightness_threshold < 0:
            raise EstimationError("brightness_threshold must be >= 0")
        if self.boost_factor < 1.0:
            raise EstimationError("boost_factor must be >= 1")
        if self.clip_period_epochs < 1:
            raise EstimationError("clip_period_epochs must be >= 1")


@dataclass
class TransportOperator:
    """Dense per-channel transport: image_c = A[..., c] @ E[:, c]."""

    a: np.ndarray            # (poses*h*w, faces, 3)
    n_poses: int
    resolution: tuple        # (w, h)
    n_faces: int
    spp: int
    seed: int

    def apply(self, emission: np.ndarray) -> np.ndarray:
        """Images (poses*h*w, 3) for a per-face emission (faces, 3)."""
        return np.einsum("rfc,fc->rc", self.a, emission)

    def images(self, emission: np.ndarray) -> list:
        w, h = self.resolution
        flat = self.apply(emission)
        return [HdrImage(flat[i * h * w:(i + 1) * h * w].reshape(h, w, 3))
                for i in range(self.n_poses)]


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
    return TransportOperator(a=a, n_poses=len(poses), resolution=(w, h),
                             n_faces=n_faces, spp=spp, seed=seed)


def loss(emission: np.ndarray, gt_flat: np.ndarray, op: TransportOperator,
         alpha: float) -> float:
    """Mean squared image error (averaged over poses) plus the scaled mean
    absolute emission."""
    res = op.apply(emission) - gt_flat
    data = float(np.mean(res * res))
    reg = alpha * float(np.mean(np.abs(emission)))
    return data + reg


def _lipschitz_step(op: TransportOperator) -> float:
    """1 / L for the worst per-pose data term, by power iteration."""
    w, h = op.resolution
    rows_per_pose = w * h
    worst = 0.0
    for pi in range(op.n_poses):
        block = op.a[pi * rows_per_pose:(pi + 1) * rows_per_pose]
        for c in range(3):
            a = block[:, :, c]
            v = np.full(op.n_faces, 1.0 / np.sqrt(op.n_faces))
            for _ in range(30):
                u = a @ v
                v = a.T @ u
                nv = np.linalg.norm(v)
                if nv == 0.0:
                    break
                v /= nv
            s2 = float(v @ (a.T @ (a @ v)))
            worst = max(worst, s2)
    if worst == 0.0:
        raise EstimationError("transport operator is all zero")
    lip = 2.0 * worst / (rows_per_pose * 3)
    return 1.0 / lip


def clip_low(emission: np.ndarray, threshold: float) -> np.ndarray:
    out = emission.copy()
    out[out < threshold] = 0.0
    return out


def boost_high(emission: np.ndarray, threshold: float, factor: float) -> np.ndarray:
    out = emission.copy()
    out[out >= threshold] *= factor
    return out


def optimize_emission(config: EstimatorConfig, op: TransportOperator,
                      gt_flat: np.ndarray, init: float = 0.01):
    """Projected gradient descent with the periodic clip/boost schedule.

    One epoch takes one step per pose against that pose's image term (so
    the clip/boost cadence sees poses-many descent steps per epoch).
    Returns (emission, loss_history); aborts when the loss explodes past
    ten times its initial value.
    """
    e = np.full((op.n_faces, 3), float(init))
    step = config.step_size if config.step_size is not None else _lipschitz_step(op)
    w, h = op.resolution
    rpp = w * h
    pose_a = [op.a[pi * rpp:(pi + 1) * rpp] for pi in range(op.n_poses)]
    pose_gt = [gt_flat[pi * rpp:(pi + 1) * rpp] for pi in range(op.n_poses)]
    n_img = rpp * 3
    m_tex = e.size

    history = [loss(e, gt_flat, op, config.alpha)]
    initial = history[0]
    for epoch in range(1, config.epochs + 1):
        for a, gt in zip(pose_a, pose_gt):
            res = np.einsum("rfc,fc->rc", a, e) - gt
            grad = 2.0 * np.einsum("rfc,rc->fc", a, res) / n_img
            grad += config.alpha * np.sign(e) / m_tex
            e = np.maximum(e - step * grad, 0.0)
        if epoch % config.clip_period_epochs == 0 and epoch < config.epochs:
            e = boost_high(clip_low(e, config.brightness_threshold),
                           config.brightness_threshold, config.boost_factor)
        current = loss(e, gt_flat, op, config.alpha)
        history.append(current)
        if initial > 0 and current > 10.0 * initial:
            raise RuntimeError(
                f"emission optimization diverged at epoch {epoch}: "
                f"loss {current:.4g} > 10 x initial {initial:.4g} "
                f"(step {step:.3g}, alpha {config.alpha:.3g})"
            )
    e = clip_low(e, config.brightness_threshold)
    history.append(loss(e, gt_flat, op, config.alpha))
    return e, history


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
