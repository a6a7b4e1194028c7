import json

import numpy as np
import pytest

from hybridrt import assets, cli, sim
from hybridrt.field import RadianceGrid, save_rfgrid
from hybridrt.scene import load_scene
from hybridrt.surface import save_obj


def write_cloth_scene(d, cloths):
    """Scene with one cloth mesh per (name, dynamic) pair, side by side."""
    save_rfgrid(d / "f.rfgrid", RadianceGrid.constant((0, 0, 0), (1, 1, 1), 0.1, (1, 1, 1)))
    meshes = []
    for k, (name, dynamic) in enumerate(cloths):
        v, f = assets.cloth_grid(3, 3, (2.0 * k, 0, 1), (1, 0, 0), (0, 1, 0))
        save_obj(d / f"{name}.obj", v, f)
        meshes.append({"path": f"{name}.obj", "dynamic": dict(type="cloth", **dynamic)})
    doc = {"field": {"path": "f.rfgrid"}, "meshes": meshes,
           "camera": {"position": [0, 0, 3], "look_at": [0, 0, 0], "resolution": [8, 8]}}
    path = d / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def run_frames(scene_path, frames):
    scene = load_scene(scene_path)
    world, binding = sim.build_world(scene)
    cfg = scene.config.sim
    for _ in range(frames):
        sim.step(world, cfg.dt, cfg.substeps, cfg.iterations)
    return world, binding


def test_field_hit_conserves_momentum_with_scene_restitution(field_hit_dir):
    # Ball (mass 1, +3 m/s) meets the field blob (mass 2, at rest) head on:
    # 1 * 3 = 1 * -0.6 + 2 * 1.8, and the relative velocity 3 reverses with
    # the scene's restitution 0.8.
    world, binding = run_frames(field_hit_dir / "field_hit.json", 40)
    ball, blob = world.bodies[0], world.bodies[binding.field_body]
    assert ball.lin_vel[0] == pytest.approx(-0.6, abs=1e-6)
    assert blob.lin_vel[0] == pytest.approx(1.8, abs=1e-6)
    momentum = ball.mass * ball.lin_vel + blob.mass * blob.lin_vel
    np.testing.assert_allclose(momentum, [3.0, 0.0, 0.0], rtol=0, atol=1e-6)
    assert (blob.lin_vel[0] - ball.lin_vel[0]) / 3.0 == pytest.approx(0.8, abs=1e-6)


def test_drop_comes_to_rest_on_the_plane(tmp_path):
    assets.gen_drop(str(tmp_path))
    world, _ = run_frames(tmp_path / "drop.json", 60)
    (ball,) = world.bodies
    assert ball.com[2] == pytest.approx(0.5, abs=1e-9)
    assert np.linalg.norm(ball.lin_vel) < 1e-9


def test_each_cloth_keeps_its_own_compliance(tmp_path):
    path = write_cloth_scene(tmp_path, [("stiff", {"compliance": 0.0}),
                                        ("soft", {"compliance": 0.25})])
    scene = load_scene(path)
    world, binding = sim.build_world(scene)
    (_, stiff), _ = binding.cloth_meshes
    got = {(stiff.start <= c.i < stiff.stop, c.compliance) for c in world.constraints}
    assert got == {(True, 0.0), (False, 0.25)}

def test_add_cloth_per_edge_compliance():
    world = sim.World()
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0]])
    world.add_cloth(pos, np.ones(3), [(0, 1), (1, 2)], [1.0, 1.0], compliance=[0.1, 0.2])
    assert [c.compliance for c in world.constraints] == [0.1, 0.2]
    with pytest.raises(ValueError, match="2 edges"):
        sim.World().add_cloth(pos, np.ones(3), [(0, 1), (1, 2)], [1.0, 1.0],
                              compliance=[0.1])


@pytest.mark.parametrize("pin", [9, -1])
def test_out_of_range_pin_names_mesh_and_index(tmp_path, pin):
    path = write_cloth_scene(tmp_path, [("sheet", {"pinned": [0, pin]})])
    scene = load_scene(path)
    with pytest.raises(ValueError, match=rf"'sheet'.*{pin}"):
        sim.build_world(scene)


def test_simulate_out_of_range_pin_exits_2(tmp_path, capsys):
    path = write_cloth_scene(tmp_path, [("sheet", {"pinned": [42]})])
    code = cli.main(["simulate", "--scene", str(path), "--frames", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: simulate: ") and "42" in err
