import hashlib

import numpy as np
import pytest

from hybridrt import assets, emitters
from hybridrt.images import read_pfm
from hybridrt.render import render
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


def true_emission(n_faces):
    e = np.zeros((n_faces, 3))
    e[list(assets.ESTIMATION_GT_FACES)] = assets.ESTIMATION_GT_VALUE
    return e


def test_transport_checksum_pinned(estimation):
    _, _, op = estimation
    assert op.a.dtype == np.float64
    assert hashlib.sha256(op.a.tobytes()).hexdigest() == ESTIMATION_TRANSPORT_SHA


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
        scene.meshes[0].emission = None
        scene.rebuild_bvh()
    assert want.max() > 0.1
    np.testing.assert_allclose(op.apply(e), want, rtol=1e-12, atol=0.0)


def test_estimate_recovers_true_faces(estimation, estimation_dir):
    scene, poses, op = estimation
    gt_flat = np.concatenate([read_pfm(str(estimation_dir / f"gt_{i:04d}.pfm"))
                              .pixels.reshape(-1, 3) for i in range(len(poses))])
    config = emitters.EstimatorConfig()
    emission, _ = emitters.optimize_emission(config, op, gt_flat)
    kept = emitters.prune_emitters(scene.bvh.tri, emission, config.brightness_threshold)
    faces = np.flatnonzero(emission.max(axis=1) >= config.brightness_threshold)
    assert faces.tolist() == sorted(assets.ESTIMATION_GT_FACES)
    assert np.array_equal(kept.triangles, scene.bvh.tri[faces])
