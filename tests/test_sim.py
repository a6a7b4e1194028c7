import hashlib
import json

import numpy as np
import pytest

from hybridrt import assets, cli, sim
from hybridrt.field import (RadianceGrid, save_rfgrid, save_sdfgrid, sdf_from_density,
                            sdf_from_function)
from hybridrt.scene import load_scene
from hybridrt.surface import save_obj


# Per-frame simulation state digests (state_digest below); a change to the
# solver that moves any bit of any frame changes them.
FIELD_HIT_STATES = "db9f269278b03d29d0e5df1aa480fb1ecb62abcab415cca9b117461bd7875eb7"
DROP_STATES = "dd53e084dc646ea4e793e6eddcf8b8e84d16f8ea802a89f98d44291595540698"
CLOTH_STATES = "b203036ae7cf84fb1ec8d54bc0ed14813c8ad50392a891dbcd1418396c6a899b"


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


def write_blob_scene(d, sheet, sim_cfg, pinned=(), ball=False, plane=False):
    """A 5x5 cloth sheet, given as (corner, edge_u, edge_v), and the
    field-hit blob as a free rigid body; optionally a rigid ball flying at
    the blob and a plane collider 0.4 below it."""
    save_rfgrid(d / "blob.rfgrid", assets.gaussian_blob_field(
        (-0.8,) * 3, (0.8,) * 3, (0, 0, 0), 0.28, 8.0, (1.5, 1.2, 0.7), res=(16, 16, 16)))
    v, f = assets.cloth_grid(5, 5, *sheet)
    save_obj(d / "sheet.obj", v, f)
    meshes = [{"path": "sheet.obj",
               "dynamic": {"type": "cloth", "mass": 0.5, "pinned": list(pinned)}}]
    if ball:
        save_obj(d / "ball.obj", *assets.uv_sphere(0.2, rings=6, segments=8))
        meshes.append({"path": "ball.obj", "transform": {"translate": [-1.0, 0.0, 0.0]},
                       "dynamic": {"type": "rigid", "mass": 1.0, "velocity": [3.0, 0.0, 0.0]}})
    doc = {"field": {"path": "blob.rfgrid", "dynamic": {"type": "rigid", "mass": 2.0}},
           "meshes": meshes, "sim": sim_cfg,
           "camera": {"position": [0, -3, 0], "look_at": [0, 0, 0], "up": [0, 0, 1],
                      "resolution": [8, 8]}}
    if plane:
        save_sdfgrid(d / "plane.sdfgrid", assets.plane_sdf())
        doc["colliders"] = [{"sdf": "plane.sdfgrid", "transform": {"translate": [0, 0, -0.4]}}]
    path = d / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def throw_sheet(world, velocity):
    """Free particles start at `velocity`, set on the world itself."""
    ps = world.particles
    ps.vel[ps.inv_mass > 0] = velocity


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


def state_digest(scene_path, frames, setup=lambda world: None):
    """SHA-256 over every frame's particle and body state and field transform."""
    scene = load_scene(scene_path)
    world, binding = sim.build_world(scene)
    setup(world)
    cfg = scene.config.sim
    h = hashlib.sha256()
    for _ in range(frames):
        sim.step(world, cfg.dt, cfg.substeps, cfg.iterations)
        sim.sync_to_renderer(world, scene, binding)
        if world.particles is not None:
            h.update(world.particles.pos.tobytes())
            h.update(world.particles.vel.tobytes())
        for b in world.bodies:
            h.update(np.concatenate([b.com, b.q, b.lin_vel, b.ang_vel]).tobytes())
        h.update(scene.field.world_from_field.m.tobytes())
    return h.hexdigest()


def test_field_hit_states_pinned(field_hit_dir):
    assert state_digest(field_hit_dir / "field_hit.json", 40) == FIELD_HIT_STATES


def test_drop_states_pinned(tmp_path):
    assets.gen_drop(str(tmp_path))
    assert state_digest(tmp_path / "drop.json", 60) == DROP_STATES


def test_cloth_contact_states_pinned(tmp_path):
    # Covers every contact pairing: particle-static, particle-body,
    # body-body (ball on blob) and body-static (both bodies on the plane).
    path = write_blob_scene(
        tmp_path, ((-0.5, -0.5, 0.2), (1, 0, 0), (0, 1, 0)),
        {"gravity": [0, 0, -9.81], "friction": 0.3, "restitution": 0.3},
        pinned=[0], ball=True, plane=True)
    digest = state_digest(path, 40, lambda world: throw_sheet(world, (0.0, 0.0, -2.0)))
    assert digest == CLOTH_STATES


@pytest.mark.parametrize("friction", [0.0, 0.3])
def test_cloth_on_field_blob_conserves_momentum(tmp_path, friction):
    path = write_blob_scene(
        tmp_path, ((-0.6, -0.5, -0.5), (0, 1, 0), (0, 0, 1)),
        {"gravity": [0, 0, 0], "friction": friction, "restitution": 0.3})
    scene = load_scene(path)
    world, binding = sim.build_world(scene)
    throw_sheet(world, (2.0, 0.0, 0.0))
    ps, blob = world.particles, world.bodies[binding.field_body]

    def momentum():
        return (ps.vel / ps.inv_mass[:, None]).sum(axis=0) + blob.mass * blob.lin_vel

    before = momentum()
    cfg = scene.config.sim
    contacts = 0
    for _ in range(40):
        sim.step(world, cfg.dt, cfg.substeps, cfg.iterations)
        contacts += len(sim.detect_contacts(world))
    assert contacts > 0
    np.testing.assert_allclose(momentum(), before, rtol=0, atol=1e-9)


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


def test_cloth_starts_at_its_declared_velocity_with_pins_at_rest(tmp_path):
    path = write_cloth_scene(tmp_path, [("sheet", {"velocity": [3.0, 0.0, 0.0], "pinned": [4]})])
    scene = load_scene(path)
    world, _ = sim.build_world(scene)
    ps = world.particles
    free = np.arange(len(ps)) != 4
    np.testing.assert_array_equal(ps.vel[free], np.tile([3.0, 0.0, 0.0], (8, 1)))
    np.testing.assert_array_equal(ps.vel[4], 0.0)
    pin = ps.pos[4].copy()
    cfg = scene.config.sim
    sim.step(world, cfg.dt, cfg.substeps, cfg.iterations)
    np.testing.assert_array_equal(ps.pos[4], pin)


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


def test_field_body_needs_density():
    # With a precomputed SDF, an all-zero field used to count every node
    # as occupied and put the body at the centre of its box.
    grid = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 0.0, (1, 1, 1), res=(4, 4, 4))
    sdf = sdf_from_function(lambda p: p[:, 0] - 0.5, (0, 0, 0), (1, 1, 1), (4, 4, 4))
    with pytest.raises(ValueError, match="all zero"):
        sim.make_field_body(grid, sdf, 1.0)
    with pytest.raises(ValueError, match="all zero"):
        sdf_from_density(grid)


def test_field_body_takes_collision_vertices_from_its_own_sdf_grid():
    # A precomputed SDF on other nodes than the density grid's used to
    # raise IndexError while picking the near-surface nodes.
    grid = assets.gaussian_blob_field((-0.8,) * 3, (0.8,) * 3, (0, 0, 0), 0.28, 8.0,
                                      (1, 1, 1), res=(12, 12, 12))
    sdf = assets.sphere_sdf(0.3, pad=0.2, res=(9, 9, 9))
    body, origin = sim.make_field_body(grid, sdf, 1.0)
    phi = sdf.query_batch(body.verts + origin)[0]
    assert len(phi) and np.all(np.abs(phi) <= 0.75 * np.max(sdf.cell_size()) + 1e-6)
