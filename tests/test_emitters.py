import hashlib

import numpy as np
import pytest

from hybridrt import assets, emitters
from hybridrt.images import read_pfm
from hybridrt.render import BATCH_RAYS, Camera, render
from hybridrt.scene import load_poses, load_scene

# SHA-256 of the float64 transport operator of the estimation room (eight
# poses, 24x24, 8 spp, seed 5, depth 3). Pinned with numpy 2.4 on x86-64,
# like the render checksums in test_render.py.
ESTIMATION_TRANSPORT_SHA = "2265d229ffefb2955f4ee45770237535fa46b801b7cd7f53b595b0c200a50b3f"


@pytest.fixture(scope="module")
def estimation(estimation_dir):
    scene = load_scene(str(estimation_dir / "room.json"))
    poses = load_poses(estimation_dir / "poses.json")
    return scene, poses, emitters.build_transport(scene, poses, 3)


def apply(op, emission):
    """Images (poses*h*w, 3) for a per-face emission (faces, 3)."""
    return np.einsum("rfc,fc->rc", op.a, emission)


def true_emission(n_faces):
    e = np.zeros((n_faces, 3))
    e[list(assets.ESTIMATION_GT_FACES)] = assets.ESTIMATION_GT_VALUE
    return e


def test_transport_checksum_pinned(estimation):
    _, _, op = estimation
    assert op.a.dtype == np.float64
    assert hashlib.sha256(op.a.tobytes()).hexdigest() == ESTIMATION_TRANSPORT_SHA


def test_transport_batches_keep_the_ray_budget(estimation_dir, monkeypatch):
    # 160x160 px at 2 spp is 51,200 rays: ranges of BATCH_RAYS // 2 pixels
    # trace every sample of a pixel in one batch of at most BATCH_RAYS rays.
    scene = load_scene(str(estimation_dir / "room.json"))
    scene.render.spp = 2
    pose = Camera(pose=load_poses(estimation_dir / "poses.json")[0].pose, fov=1.0,
                  resolution=(160, 160))
    batches = []
    monkeypatch.setattr(emitters, "trace_paths", lambda scene, o, d, pix, *a: batches.append(pix))
    emitters.build_transport(scene, [pose], 3)
    assert [len(pix) for pix in batches] == [BATCH_RAYS, BATCH_RAYS, BATCH_RAYS, 2048]
    assert np.array_equal(np.concatenate(batches), np.repeat(np.arange(160 * 160), 2))


def test_transport_is_linear_in_emission(estimation):
    # A @ E_true equals the forward render with E_true installed: transport
    # and render build the same paths from the same seeds, so only the
    # order of the sums differs.
    scene, poses, op = estimation
    e = true_emission(scene.bvh.n_faces)
    scene.meshes[0].emission = e
    scene.rebuild_bvh()
    try:
        want = np.concatenate([render(scene, camera=cam).pixels.reshape(-1, 3)
                               for cam in poses])
    finally:
        scene.meshes[0].emission = np.zeros_like(e)
        scene.rebuild_bvh()
    assert want.max() > 0.1
    np.testing.assert_allclose(apply(op, e), want, rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module")
def gt_flat(estimation, estimation_dir):
    _, poses, _ = estimation
    return np.concatenate([read_pfm(str(estimation_dir / f"gt_{i:04d}.pfm"))
                           .pixels.reshape(-1, 3) for i in range(len(poses))])


def test_estimate_recovers_true_faces(estimation, gt_flat):
    scene, poses, _ = estimation
    config = emitters.EstimatorConfig()
    kept, emission, _ = emitters.estimate(scene, poses, gt_flat, config)
    faces = np.flatnonzero(emission.max(axis=1) >= config.brightness_threshold)
    assert faces.tolist() == sorted(assets.ESTIMATION_GT_FACES)
    assert np.array_equal(kept.triangles, scene.bvh.tri[faces])


# -- reference: the descent as it ran over the full operator ----------------
# Every step contracts the whole (rows, faces, 3) pose block twice, the loss
# goes through the full operator, and the step comes from a power iteration
# unless one is given. The schedule constants are spelled out here so that
# a change to the module's constants shows.


def _reference_loss(emission, gt_flat, op, alpha):
    res = apply(op, emission) - gt_flat
    return float(np.mean(res * res)) + alpha * float(np.mean(np.abs(emission)))


def _reference_lipschitz_step(op):
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
    return 1.0 / (2.0 * worst / (rows_per_pose * 3))


def _reference_optimize(config, op, gt_flat, step, init=0.01, clip_period=2, boost=1.5):
    e = np.full((op.n_faces, 3), init)
    w, h = op.resolution
    rpp = w * h
    pose_a = [op.a[pi * rpp:(pi + 1) * rpp] for pi in range(op.n_poses)]
    pose_gt = [gt_flat[pi * rpp:(pi + 1) * rpp] for pi in range(op.n_poses)]
    n_img = rpp * 3
    history = [_reference_loss(e, gt_flat, op, config.alpha)]
    for epoch in range(1, config.epochs + 1):
        for a, gt in zip(pose_a, pose_gt):
            res = np.einsum("rfc,fc->rc", a, e) - gt
            grad = 2.0 * np.einsum("rfc,rc->fc", a, res) / n_img
            grad += config.alpha * np.sign(e) / e.size
            e = np.maximum(e - step * grad, 0.0)
        if epoch % clip_period == 0 and epoch < config.epochs:
            e = emitters.boost_high(emitters.clip_low(e, config.brightness_threshold),
                                    config.brightness_threshold, boost)
        history.append(_reference_loss(e, gt_flat, op, config.alpha))
    e = emitters.clip_low(e, config.brightness_threshold)
    history.append(_reference_loss(e, gt_flat, op, config.alpha))
    return e, history


@pytest.mark.parametrize("kwargs", [{}, {"alpha": 1e-2, "epochs": 40},
                                    {"step": 0.5, "epochs": 40}])
def test_face_space_descent_matches_reference(estimation, gt_flat, kwargs, monkeypatch):
    # Face-space steps and the channel-major loss reorder sums only. A
    # given step replaces the 1/L step on both sides.
    _, _, op = estimation
    kwargs = dict(kwargs)
    step = kwargs.pop("step", None)
    if step is not None:
        monkeypatch.setattr(emitters, "_lipschitz_step", lambda gram, n_img: step)
    else:
        step = _reference_lipschitz_step(op)
    config = emitters.EstimatorConfig(**kwargs)
    emission, history = emitters.optimize_emission(config, op, gt_flat)
    ref_e, ref_history = _reference_optimize(config, op, gt_flat, step)
    assert np.abs(emission - ref_e).max() <= 1e-12 * np.abs(ref_e).max()
    assert np.array_equal(emission.max(axis=1) >= config.brightness_threshold,
                          ref_e.max(axis=1) >= config.brightness_threshold)
    assert len(history) == len(ref_history) == config.epochs + 2
    np.testing.assert_allclose(history, ref_history, rtol=1e-10, atol=0.0)


def test_r_factor_loss_is_the_dense_mean_square(estimation, gt_flat):
    # The descent's data term, ||R [e; -1]||^2 / n from the R factor of
    # [A | b], is the dense mean((A e - b)^2) at e = 0 (no epochs, then the
    # clip), at INIT_EMISSION and at the returned emission.
    _, _, op = estimation
    config = emitters.EstimatorConfig()
    zero, (_, at_zero) = emitters.optimize_emission(
        emitters.EstimatorConfig(epochs=0), op, gt_flat)
    assert not zero.any()
    emission, history = emitters.optimize_emission(config, op, gt_flat)
    init = np.full_like(emission, emitters.INIT_EMISSION)
    for e, loss in ((zero, at_zero), (init, history[0]), (emission, history[-1])):
        res = apply(op, e) - gt_flat
        dense = float(np.mean(res * res))
        data = loss - config.alpha * float(np.mean(np.abs(e)))
        assert abs(data - dense) <= 1e-12 * dense


def test_eigvalsh_step_matches_power_iteration(estimation, gt_flat):
    _, _, op = estimation
    a = op.a.reshape(op.n_poses, -1, op.n_faces, 3).transpose(0, 3, 1, 2)
    gram = a.transpose(0, 1, 3, 2) @ a
    step = emitters._lipschitz_step(gram, a.shape[2] * 3)
    assert step == pytest.approx(_reference_lipschitz_step(op), rel=1e-12)


def test_all_zero_transport_is_rejected(estimation, gt_flat):
    _, _, op = estimation
    zero = emitters.TransportOperator(np.zeros_like(op.a), op.n_poses, op.resolution,
                                      op.n_faces)
    with pytest.raises(emitters.EstimationError, match="all zero"):
        emitters.optimize_emission(emitters.EstimatorConfig(epochs=1), zero, gt_flat)


def test_non_finite_loss_counts_as_divergence(estimation, gt_flat):
    # NaN compares false with anything, so "10 x initial" alone never fires.
    _, _, op = estimation
    bad = gt_flat.copy()
    bad[7, 1] = np.nan
    with pytest.raises(RuntimeError, match="diverged at epoch 1"):
        emitters.optimize_emission(emitters.EstimatorConfig(epochs=3), op, bad)


@pytest.mark.parametrize("field, value", [
    ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", -1e-4),
    ("brightness_threshold", float("nan")), ("brightness_threshold", float("inf")),
    ("brightness_threshold", -0.1), ("epochs", -1),
])
def test_estimator_config_rejects_bad_values(field, value):
    with pytest.raises(emitters.EstimationError, match=field):
        emitters.EstimatorConfig(**{field: value})
