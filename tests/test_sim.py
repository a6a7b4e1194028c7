import collections
import functools
import hashlib
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridrt import assets, cli, field, sim
from hybridrt.core import Transform, quat_to_matrix
from hybridrt.field import (RadianceGrid, SdfGrid, grid_points, occupancy, save_rfgrid,
                            sdf_from_density)
from hybridrt.images import read_pfm
from hybridrt.scene import FieldDynamicConfig, RigidConfig, TransformConfig, load_scene
from hybridrt.surface import Bvh, Lambertian, TriangleMesh, load_obj, save_obj

from conftest import analytic_sdf, turn


# Per-frame simulation state digests (state_digest below); a change to the
# solver that moves any bit of any frame changes them.
FIELD_HIT_STATES = "db9f269278b03d29d0e5df1aa480fb1ecb62abcab415cca9b117461bd7875eb7"
DROP_STATES = "59ac08996bbec2c6396621a05c48a6c7846008445968aab425060c1a345fe5f6"
CLOTH_STATES = "4c309e8b415519aba0b54c483079023a8cf0cf172f842db7c307c450385d2b3c"


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


def write_blob_scene(d, sheet, sim_cfg, pinned=(), ball=False, slab=False):
    """A 5x5 cloth sheet, given as (corner, edge_u, edge_v), and the
    field-hit blob as a free rigid body; optionally a rigid ball flying at
    the blob and a 0.25-thick collider slab whose top is 0.4 below it."""
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
    if slab:
        save_obj(d / "slab.obj", *assets.box((-4, -4, -0.65), (4, 4, -0.4)))
        meshes.append({"path": "slab.obj", "dynamic": {"type": "collider"}})
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
    h = hashlib.sha256()
    for _ in sim.run(world, scene, binding, frames):
        if world.particles is not None:
            h.update(world.particles.pos.tobytes())
            h.update(world.particles.vel.tobytes())
        for b in world.bodies:
            h.update(np.concatenate([b.com, b.q, b.lin_vel, b.ang_vel]).tobytes())
        h.update(scene.field.world_from_field.m.tobytes())
    return h.hexdigest()


@settings(max_examples=100, deadline=None)
@given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 0.1),
       deg=st.floats(-180.0, 180.0),
       shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
def test_a_collider_is_posed_by_its_transform_quaternion(axis, deg, shift):
    # A scene transform and the pose of the collider it places are the
    # same bits. Its rotation keeps the axis and turns a vector
    # perpendicular to it by the angle; at 0 degrees it is exactly the
    # identity, about any axis.
    cfg = TransformConfig(translate=shift, rotate_axis=axis, rotate_deg=deg)
    t = cfg.build()
    v, f = assets.box((-1, -2, -0.5), (1, 2, 0))
    mesh = TriangleMesh(v, f, Lambertian((0.5, 0.5, 0.5)), world_from_object=t, name="slab")
    pose = sim.make_collider_body(mesh, cfg).world_from_body()
    assert pose.m.tobytes() == t.m.tobytes() and pose.m_inv.tobytes() == t.m_inv.tobytes()
    a = np.asarray(axis) / np.linalg.norm(axis)
    u = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    angle = np.radians(deg)
    np.testing.assert_allclose(t.direction(a), a, rtol=0, atol=1e-15)
    np.testing.assert_allclose(t.direction(u), np.cos(angle) * u + np.sin(angle) * np.cross(a, u),
                               rtol=0, atol=1e-15)
    for still in (TransformConfig(shift, axis, 0.0), TransformConfig(shift, (0, 0, 0), 0.0)):
        assert still.build().m[:3, :3].tobytes() == np.eye(3).tobytes()


def placed_field_hit(out_dir, placement):
    """The field-hit scene under one rigid placement, given as a transform
    config: the field, the ball and the ball's velocity all move with it."""
    assets.gen_field_hit(str(out_dir))
    path = out_dir / "field_hit.json"
    doc = json.loads(path.read_text())
    t = TransformConfig(**placement).build()
    ball = doc["meshes"][0]
    doc["field"]["transform"] = placement
    ball["transform"] = {**placement, "translate": t.point(ball["transform"]["translate"]).tolist()}
    ball["dynamic"]["velocity"] = t.direction(ball["dynamic"]["velocity"]).tolist()
    path.write_text(json.dumps(doc))
    return path


def trajectory(scene_path, frames):
    """Per frame, 0 included: every body's com and velocity, and the
    field's world_from_field matrix."""
    scene = load_scene(scene_path)
    world, binding = sim.build_world(scene)
    states = []
    for _ in itertools.chain([0], sim.run(world, scene, binding, frames)):
        states.append(([(b.com.copy(), b.lin_vel.copy()) for b in world.bodies],
                       scene.field.world_from_field.m))
    return states


@pytest.mark.parametrize("placement", [
    {"translate": [0.0, 0.0, 5.0]},
    {"translate": [0.4, -1.2, 2.5], "rotate_axis": [0.3, -0.5, 0.8], "rotate_deg": 37.0}])
def test_placed_field_hit_is_the_placed_trajectory(field_hit_dir, tmp_path, placement):
    # A dynamic field used to drop its scene transform: its body started
    # at the field-frame centroid, and the first sync put the field back
    # at the origin. Placed under T, every frame is T of the unplaced one.
    t = TransformConfig(**placement).build()
    frames = zip(trajectory(field_hit_dir / "field_hit.json", 40),
                 trajectory(placed_field_hit(tmp_path, placement), 40))
    for (bodies, field_m), (placed_bodies, placed_field_m) in frames:
        for (com, vel), (p_com, p_vel) in zip(bodies, placed_bodies):
            np.testing.assert_allclose(p_com, t.point(com), rtol=0, atol=1e-12)
            np.testing.assert_allclose(p_vel, t.direction(vel), rtol=0, atol=1e-12)
        np.testing.assert_allclose(placed_field_m, t.m @ field_m, rtol=0, atol=1e-12)


def test_field_hit_states_pinned(field_hit_dir):
    assert state_digest(field_hit_dir / "field_hit.json", 40) == FIELD_HIT_STATES


def test_drop_states_pinned(tmp_path):
    assets.gen_drop(str(tmp_path))
    assert state_digest(tmp_path / "drop.json", 60) == DROP_STATES


def test_collider_is_the_solid_whichever_way_it_is_wound(tmp_path):
    # The floor slab wound inward bakes the same SDF, so drop keeps its
    # states.
    assets.gen_drop(str(tmp_path))
    save_obj(tmp_path / "floor.obj", *assets.box((-3, -3, -3), (3, 3, 0), inward=True))
    assert state_digest(tmp_path / "drop.json", 60) == DROP_STATES


def count_bakes(monkeypatch):
    """The calls of bake_sdf_from_mesh, through any module that holds it."""
    calls = []
    bake = field.bake_sdf_from_mesh

    def counted(*args, **kwargs):
        calls.append(args)
        return bake(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hybridrt" and getattr(module, "bake_sdf_from_mesh", None) is bake:
            monkeypatch.setattr(module, "bake_sdf_from_mesh", counted)
    return calls


def test_only_a_collider_bakes(field_hit_dir, tmp_path, monkeypatch):
    # Field-hit has no collider, so loading it and building its world
    # bakes nothing; a bake of its ball would add 6-28 ms to a 16 ms
    # set-up. Drop bakes its floor once.
    calls = count_bakes(monkeypatch)
    sim.build_world(load_scene(field_hit_dir / "field_hit.json"))
    assert len(calls) == 0
    assets.gen_drop(str(tmp_path))
    sim.build_world(load_scene(tmp_path / "drop.json"))
    assert len(calls) == 1


def slab_drop(out_dir, depth):
    """The drop scene with its floor slab `depth` deep, top still at z = 0."""
    assets.gen_drop(str(out_dir))
    save_obj(out_dir / "floor.obj", *assets.box((-3, -3, -depth), (3, 3, 0)))
    return out_dir / "drop.json"


def placed_drop(out_dir, placement, depth):
    """slab_drop under one rigid placement, given as a transform config:
    the ball, the floor slab and gravity all move with it."""
    path = slab_drop(out_dir, depth)
    doc = json.loads(path.read_text())
    t = TransformConfig(**placement).build()
    ball, floor = doc["meshes"]
    ball["transform"] = {**placement, "translate": t.point(ball["transform"]["translate"]).tolist()}
    floor["transform"] = placement
    doc["sim"]["gravity"] = t.direction(doc["sim"]["gravity"]).tolist()
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def drop_trajectories(tmp_path_factory):
    """The unplaced slab_drop's trajectory over 40 frames, by slab depth."""
    return {depth: trajectory(slab_drop(tmp_path_factory.mktemp("drop"), depth), 40)
            for depth in (0.5, 3.0)}


@settings(max_examples=8, deadline=None)
@given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 0.1),
       deg=st.floats(-180.0, 180.0),
       shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3) | st.just((0.0, 0.0, 0.0)),
       depth=st.sampled_from([0.5, 3.0]))
def test_placed_drop_is_the_placed_trajectory(drop_trajectories, tmp_path_factory, axis, deg,
                                              shift, depth):
    # The ball's com and velocity on a placed slab are the placed ones of
    # the unplaced drop on that slab over 40 frames, within 1e-11 per unit
    # of the largest shift component plus one. Measured: at most 2.4e-12
    # per unit over 64 placements, 32 at each depth, with shifts up to 3
    # and up to 1e3. The floor collides through the SDF baked in its
    # mesh's own frame and posed by its body, so the grid turns with the
    # slab and a thin slab keeps its cells across its thickness. The
    # 0.5-deep slab is the case a grid fixed to world axes gets wrong: a
    # rotated one was off by up to 6e-3 per unit.
    placement = {"translate": list(shift), "rotate_axis": list(axis), "rotate_deg": deg}
    t = TransformConfig(**placement).build()
    placed = trajectory(placed_drop(tmp_path_factory.mktemp("placed"), placement, depth), 40)
    atol = 1e-11 * (1.0 + max(map(abs, shift)))
    for (bodies, _), (placed_bodies, _) in zip(drop_trajectories[depth], placed):
        (com, vel), (p_com, p_vel) = bodies[0], placed_bodies[0]
        np.testing.assert_allclose(p_com, t.point(com), rtol=0, atol=atol)
        np.testing.assert_allclose(p_vel, t.direction(vel), rtol=0, atol=atol)


def cloth_contact_digest(d):
    path = write_blob_scene(
        d, ((-0.5, -0.5, 0.2), (1, 0, 0), (0, 1, 0)),
        {"gravity": [0, 0, -9.81], "friction": 0.3, "restitution": 0.3},
        pinned=[0], ball=True, slab=True)
    return state_digest(path, 40, lambda world: throw_sheet(world, (0.0, 0.0, -2.0)))


def test_cloth_contact_states_pinned(tmp_path):
    # Covers every contact pairing: particle-collider, particle-body,
    # body-body (ball on blob) and body-collider (both bodies on the slab).
    assert cloth_contact_digest(tmp_path) == CLOTH_STATES


@pytest.fixture
def position_solves(monkeypatch):
    """Per substep, what each of its position-solve iterations returned."""
    calls = []
    detect, solve = sim.detect_contacts, sim._solve_contacts_position

    def detect_spy(world):
        calls.append([])
        return detect(world)

    def solve_spy(contacts):
        calls[-1].append(solve(contacts))
        return calls[-1][-1]

    monkeypatch.setattr(sim, "detect_contacts", detect_spy)
    monkeypatch.setattr(sim, "_solve_contacts_position", solve_spy)
    return calls


def test_drop_skips_the_iterations_after_a_no_op_one(tmp_path, position_solves):
    # Drop has no distance constraints: a substep's iterations stop at the
    # first that shifts nothing, and the states stay the pinned ones.
    assets.gen_drop(str(tmp_path))
    assert state_digest(tmp_path / "drop.json", 60) == DROP_STATES
    cfg = load_scene(tmp_path / "drop.json").config.sim
    assert len(position_solves) == 60 * cfg.substeps
    for solves in position_solves:
        assert (solves == [True] * len(solves) if len(solves) == cfg.iterations
                else solves == [True] * (len(solves) - 1) + [False])
    assert sum(solves[0] and len(solves) < cfg.iterations for solves in position_solves) > 10


def test_cloth_runs_every_iteration(tmp_path, position_solves):
    # A cloth's distance constraints move particles in every iteration, so
    # none is skipped, and the states stay the pinned ones.
    assert cloth_contact_digest(tmp_path) == CLOTH_STATES
    assert len(position_solves) == 40 * 4
    assert all(len(solves) == 8 for solves in position_solves)
    assert any(not all(solves) for solves in position_solves)


def fresh_pose(body):
    """world_from_body and inv_inertia_world built anew from q and com."""
    r = quat_to_matrix(body.q)
    return Transform.from_quaternion(body.q, origin=body.com), r @ body.inv_inertia @ r.T


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.sampled_from(["integrate", "shift", "push", "velocity_update",
                                       "q_in_place", "com_in_place"]), max_size=12))
def test_cached_pose_is_bitwise_a_fresh_build(seed, edits):
    # After every kind of move, with the cache read before each, the
    # cached pose and world inverse inertia are those built anew.
    rng = np.random.default_rng(seed)
    world = sim.World()
    verts, _ = assets.uv_sphere(0.3, rings=4, segments=6)
    body = sim.RigidBody(com=rng.uniform(-1, 1, 3), mass=rng.uniform(0.5, 2.0),
                         collision_vertices=verts * rng.uniform(0.5, 1.5, 3))
    body.ang_vel = rng.normal(size=3)
    world.bodies = [body]
    h = 1e-3
    for edit in edits:
        body.world_from_body(), body.inv_inertia_world()
        p = body.com + rng.normal(scale=0.3, size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        if edit == "integrate":
            sim._integrate(world, h)
        elif edit == "shift":
            body.shift(rng.uniform(-0.01, 0.01), n, p)
        elif edit == "push":
            body.push(rng.normal(scale=0.1, size=3), p)
        elif edit == "velocity_update":
            sim._velocity_update(world, h)
        elif edit == "q_in_place":
            body.q[:] = rng.normal(size=4)
            body.q /= np.linalg.norm(body.q)
        else:
            body.com[rng.integers(3)] += rng.normal()
        t, inv_i = fresh_pose(body)
        cached = body.world_from_body()
        assert cached.m.tobytes() == t.m.tobytes()
        assert cached.m_inv.tobytes() == t.m_inv.tobytes()
        assert body.inv_inertia_world().tobytes() == inv_i.tobytes()


def test_field_hit_pays_only_for_what_moved(field_hit_dir, monkeypatch):
    # Loading field-hit and running its 40 frames takes at most 22 SDF
    # lookups, 132 pose builds and one median split; each runs in every
    # substep or frame (169, 419 and 41) without the contact cull, the
    # pose cache and the BVH refit.
    counts = collections.Counter()

    def count(owner, name, wrap=lambda f: f):
        f = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrap(counted))

    count(SdfGrid, "phi_batch")
    count(Transform, "from_quaternion", staticmethod)
    count(Bvh, "_split")
    scene = load_scene(field_hit_dir / "field_hit.json")
    world, binding = sim.build_world(scene)
    for _ in sim.run(world, scene, binding, 40):
        pass
    assert counts["phi_batch"] <= 22
    assert counts["from_quaternion"] <= 132
    assert counts["_split"] <= 1


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


def test_simulate_hands_off_what_the_world_computed(field_hit_dir, tmp_path, capsys):
    # What `simulate --render-frames --hdr` writes, read back: body states
    # bitwise equal to an in-process run (JSON round-trips floats), the
    # ball's OBJ to its %.9g precision, finite non-negative frames, and
    # the impact's momentum held from the first file to the last.
    frames = 40
    scene_path = field_hit_dir / "field_hit.json"
    out = tmp_path / "out"
    code = cli.main(["simulate", "--scene", str(scene_path), "--frames", str(frames),
                     "--out", str(out), "--render-frames", "--hdr",
                     "--width", "6", "--height", "5", "--spp", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)

    scene = load_scene(scene_path)
    world, binding = sim.build_world(scene)
    (ball_mesh, ball_index), = binding.rigid_meshes
    docs = []
    for k in itertools.chain([0], sim.run(world, scene, binding, frames)):
        doc = json.loads((out / f"frame_{k:04d}_transforms.json").read_text())
        assert doc["frame"] == k
        assert [b["name"] for b in doc["bodies"]] == [b.name for b in world.bodies]
        for got, b in zip(doc["bodies"], world.bodies):
            for key, want in (("com", b.com), ("orientation", b.q), ("lin_vel", b.lin_vel)):
                assert np.array(got[key]).tobytes() == want.tobytes(), (k, b.name, key)
        obj = load_obj(str(out / f"frame_{k:04d}_{ball_mesh.name}.obj"), bsdf=ball_mesh.bsdf)
        np.testing.assert_allclose(obj.vertices, world.bodies[ball_index].world_verts(),
                                   rtol=0, atol=1e-8)
        img = read_pfm(out / f"frame_{k:04d}.pfm")
        assert img.pixels.shape == (5, 6, 3)
        assert np.all(np.isfinite(img.pixels)) and np.all(img.pixels >= 0.0)
        docs.append(doc)
    assert len(docs) == frames + 1

    def momentum(doc):
        return sum(b.mass * np.array(d["lin_vel"]) for b, d in zip(world.bodies, doc["bodies"]))

    np.testing.assert_allclose(momentum(docs[-1]), momentum(docs[0]), rtol=0, atol=1e-6)
    assert docs[-1]["bodies"][ball_index]["lin_vel"][0] < 0.0  # the ball bounced back


def test_drop_comes_to_rest_on_the_plane(tmp_path):
    assets.gen_drop(str(tmp_path))
    world, _ = run_frames(tmp_path / "drop.json", 60)
    ball = next(b for b in world.bodies if b.name == "ball")
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


def loop_point_mass_inertia(verts_body, mass):
    """sim.point_mass_inertia as a loop over vertices, the reference."""
    if np.isinf(mass) or len(verts_body) == 0:
        return np.eye(3)
    m = mass / len(verts_body)
    i = np.zeros((3, 3))
    for r in verts_body:
        i += m * (float(r @ r) * np.eye(3) - np.outer(r, r))
    return i


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
       scale=st.floats(1e-3, 1e3), mass=st.sampled_from([0.5, 2.0, 7.3, np.inf]),
       flat_axis=st.sampled_from([None, 0, 1, 2]))
def test_point_mass_inertia_equals_loop_bitwise(seed, n, scale, mass, flat_axis):
    verts = np.random.default_rng(seed).normal(size=(n, 3)) * scale
    if flat_axis is not None:
        verts[:, flat_axis] = 0.0
    assert (sim.point_mass_inertia(verts, mass).tobytes()
            == loop_point_mass_inertia(verts, mass).tobytes())


def test_a_light_body_can_spin(field_hit_dir):
    # Field-hit's ball at mass 0.001 has an inertia determinant near 2e-14,
    # which an absolute singularity test took for zero.
    ball = load_scene(field_hit_dir / "field_hit.json").meshes[0]
    verts = ball.vertices - ball.vertices.mean(axis=0)
    body = sim.RigidBody(com=np.zeros(3), mass=0.001, collision_vertices=verts)
    assert abs(np.linalg.det(body.inertia)) < 1e-12
    np.testing.assert_array_equal(body.inv_inertia, np.linalg.inv(body.inertia))


@pytest.mark.parametrize("verts", [[[0.3, -0.1, 0.2]],
                                   np.outer([-1.0, 0.25, 0.75], [0.3, -0.2, 0.5])],
                         ids=["one vertex", "collinear"])
@pytest.mark.parametrize("mass", [1e-3, 1.0, 1e3])
def test_points_on_a_line_cannot_spin(verts, mass):
    body = sim.RigidBody(com=np.zeros(3), mass=mass, collision_vertices=verts)
    np.testing.assert_array_equal(body.inv_inertia, np.zeros((3, 3)))


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


@pytest.mark.parametrize("where", ["ball", "field", "cloth"])
def test_mass_with_an_infinite_inverse_exits_2(tmp_path, capfd, where):
    # 1 / 5e-324 is inf, and so is 9 / 1e-310 over the 3x3 cloth's
    # particles; either used to reach the solver and crash it.
    if where == "cloth":
        path = write_cloth_scene(tmp_path, [("sheet", {"mass": 1e-310})])
    else:
        assets.gen_field_hit(str(tmp_path))
        path = tmp_path / "field_hit.json"
        doc = json.loads(path.read_text())
        (doc["meshes"][0] if where == "ball" else doc["field"])["dynamic"]["mass"] = 5e-324
        path.write_text(json.dumps(doc))
    code = cli.main(["simulate", "--scene", str(path), "--out", str(tmp_path / "out"),
                     "--frames", "40"])
    lines = capfd.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: simulate: ")
    assert "mass" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cls", [RigidConfig, FieldDynamicConfig])
def test_rigid_mass_needs_a_finite_inverse_and_may_be_infinite(cls):
    # A scene file holds finite numbers only; built directly, an infinite
    # mass is still a kinematic body.
    with pytest.raises(ValueError, match="^mass: must be > 0 with a finite inverse"):
        cls(mass=5e-324)
    assert cls(mass=float("inf")).mass == float("inf")


@pytest.mark.parametrize("body", [0, 1], ids=["ball", "field"])
def test_nan_velocity_raises_the_stability_error(field_hit_dir, body):
    # A NaN speed is the worst whichever body has it, and a spin that is
    # not finite fails too; both before the step integrates, so contact
    # detection never looks up a NaN point.
    scene = load_scene(field_hit_dir / "field_hit.json")
    cfg = scene.config.sim
    for attr, value, match in [
        ("lin_vel", np.nan, r"\|v\|=nan exceeds cap"),
        ("ang_vel", np.nan, r"body '{}' has angular velocity \[nan, nan, nan\]"),
        ("ang_vel", np.inf, r"body '{}' has angular velocity \[inf, inf, inf\]"),
    ]:
        world, _ = sim.build_world(scene)
        b = world.bodies[body]
        getattr(b, attr)[:] = value
        with pytest.raises(RuntimeError, match="simulation unstable: " + match.format(b.name)):
            sim.step(world, cfg.dt, cfg.substeps, cfg.iterations)


def test_field_body_needs_density():
    # An all-zero field has no occupied node to put a body on.
    grid = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 0.0, (1, 1, 1), res=(4, 4, 4))
    with pytest.raises(ValueError, match="all zero"):
        sim.make_field_body(grid, 1.0)
    with pytest.raises(ValueError, match="all zero"):
        sdf_from_density(grid)


def test_density_sdf_needs_a_free_node():
    # With no free node, the distance transform used to read as if one lay
    # a node before x = 0: phi -1/3, -2/3, -1, -4/3 along the first row.
    grid = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 2.0, (1, 1, 1), res=(4, 4, 4))
    with pytest.raises(ValueError, match="occupied at every node, so it has no surface"):
        sdf_from_density(grid)


def occupied_nodes(grid):
    """The grid's nodes at or above half its peak density, x-fastest."""
    return grid_points(grid.bbox_lo, grid.bbox_hi, grid.res)[
        occupancy(grid, 0.5).ravel(order="F")]


def test_field_hit_body_keeps_every_second_occupied_node(field_hit_dir):
    # 480 occupied nodes, so a stride of 480 // 200 = 2.
    scene = load_scene(field_hit_dir / "field_hit.json")
    world, binding = sim.build_world(scene)
    nodes = occupied_nodes(scene.field)
    assert len(nodes) == 480
    body = world.bodies[binding.field_body]
    assert len(body.verts) == 240
    np.testing.assert_array_equal(body.verts, nodes[::2] - nodes.mean(axis=0))


def test_field_body_on_anisotropic_cells_collides_from_inside():
    # On 24 x 24 x 12 nodes a pick of near-surface nodes, |phi| <= 0.75 of
    # the longest cell edge, once fired and took 288 nodes for the 240
    # occupied ones, 160 of them outside the body.
    grid = assets.gaussian_blob_field((-0.8,) * 3, (0.8,) * 3, (0, 0, 0), 0.28, 8.0,
                                      (1, 1, 1), res=(24, 24, 12))
    body, body_from_field = sim.make_field_body(grid, 1.0)
    assert len(body.verts) == len(occupied_nodes(grid)) == 240
    phi = sdf_from_density(grid).phi_batch(body_from_field.point(body.verts, inverse=True))
    assert np.all(phi <= 0.0)


def reference_detect_contacts(world):
    """detect_contacts without the phi gate: every owner's full query over
    every source's points."""
    ps = world.particles
    sources = [(None, ps.pos, lambda k: (sim.Particle(ps, k), 0))] if len(ps) else []
    sources += [(b, b.world_verts(), lambda k, b=b: (b, k)) for b in world.bodies if len(b.verts)]
    owners = [b for b in world.bodies if b.sdf is not None]
    contacts = []
    for body, pts, participant in sources:
        for owner in owners:
            if owner is body:
                continue
            phi, n, valid = owner.query(pts)
            for k in np.nonzero(phi < 0.0)[0]:
                if valid[k]:
                    contacts.append(sim.Contact(*participant(int(k)), owner, n[k].copy()))
    return contacts


def contact_key(c):
    """What identifies a contact: its source and point, its owner and its
    normal's bits."""
    src = (c.src.ps, c.src.k) if isinstance(c.src, sim.Particle) else c.src
    return src, c.vert, c.owner, c.normal.tobytes()


def ball_sdf():
    """|p| - 0.3 on [-0.4, 0.4]^3, 9 nodes a side."""
    return analytic_sdf(lambda p: np.linalg.norm(p, axis=1) - 0.3, (-0.4,) * 3, (0.4,) * 3,
                        (9, 9, 9))


def static_plane(q, com):
    """A kinematic body at pose (q, com) without collision vertices whose
    SDF is phi = z on [-1.5, 1.5]^2 x [-0.5, 0.5]."""
    sdf = analytic_sdf(lambda p: p[:, 2], (-1.5, -1.5, -0.5), (1.5, 1.5, 0.5), (5, 5, 5))
    return sim.RigidBody(com=com, q=q, mass=np.inf, collision_vertices=np.zeros((0, 3)),
                         sdf=sdf, name="plane")


def small_turn(rng):
    """The quaternion of a turn by up to 0.3 radians about a random axis."""
    return turn(rng.normal(size=3), rng.uniform(-0.3, 0.3))


@functools.lru_cache(maxsize=1)
def small_blob():
    return assets.gaussian_blob_field((-0.8,) * 3, (0.8,) * 3, (0, 0, 0), 0.28, 8.0,
                                      (1, 1, 1), res=(12, 12, 12))


def boundary_points(owner, origin, rng, count):
    """Pairs of points on either side of owner's phi = 0, adjacent floats
    apart along a ray from origin (inside) outwards, each moved by up to
    3 ulps per coordinate."""
    out = []
    for _ in range(count):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        inside, outside = 0.0, 2.0
        while (mid := 0.5 * (inside + outside)) not in (inside, outside):
            if owner.query((origin + mid * d)[None])[0][0] < 0.0:
                inside = mid
            else:
                outside = mid
        for s in (inside, outside):
            p = origin + s * d
            out += [p, p + rng.integers(-3, 4, 3) * np.spacing(p)]
    return out


def face_points(box_lo, box_hi, to_world, rng, count):
    """Points on the faces of the box [box_lo, box_hi], mapped to world."""
    q = rng.uniform(box_lo, box_hi, (count, 3))
    ax = rng.integers(3, size=count)
    q[np.arange(count), ax] = np.where(rng.random(count) < 0.5, box_lo[ax], box_hi[ax])
    return list(to_world(q))


def one_inside_each(pts, owners):
    """Indices of pts, in order, that leave each owner at most one point
    inside: a point is dropped when an owner it lies in has one already."""
    inside = np.array([o.phi(pts) < 0.0 for o in owners])
    taken = np.zeros(len(owners), dtype=bool)
    keep = []
    for k, col in enumerate(inside.T):
        if not (col & taken).any():
            taken |= col
            keep.append(k)
    return keep


def negative_box(sdf):
    """The box of the nodes with phi < 0, grown by one cell on every side
    and clipped to the grid's box."""
    nodes = grid_points(sdf.bbox_lo, sdf.bbox_hi, sdf.res)[sdf.phi.ravel(order="F") < 0.0]
    h = sdf.cell_size()
    return (np.maximum(nodes.min(axis=0) - h, sdf.bbox_lo),
            np.minimum(nodes.max(axis=0) + h, sdf.bbox_hi))


def probe_near_negative_box(owner, rng):
    """(probe, owner, misses): a rigid probe without an SDF whose bounding
    sphere lies off one face of owner's negative_box, missing it by up to
    one cell when misses and overlapping it by as much otherwise, with
    collision vertices on the sphere, one of them nearest the box."""
    sdf = owner.sdf
    lo, hi = negative_box(sdf)
    ax, side = rng.integers(3), rng.integers(2)
    misses = bool(rng.integers(2))
    gap = rng.uniform(0.01, 1.0) * sdf.cell_size()[ax] * (1 if misses else -1)
    r = rng.uniform(0.05, 0.3)
    c = rng.uniform(lo, hi)
    out = np.zeros(3)
    out[ax] = 1.0 if side else -1.0
    c[ax] = (hi if side else lo)[ax] + out[ax] * (gap + r)
    world_from_body = owner.world_from_body()
    dirs = np.concatenate([-out[None], rng.normal(size=(5, 3))])
    c, dirs = world_from_body.point(c), world_from_body.direction(dirs)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    probe = sim.RigidBody(com=c, mass=1.0, collision_vertices=r * dirs, name="probe")
    return probe, owner, misses


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spin=st.booleans(), lone=st.booleans())
def test_gated_detect_contacts_equals_ungated(seed, spin, lone):
    # Cloth particles, a rigid ball with an SDF, the field body and a
    # kinematic plane, all rotated when spin, with points on and within a few
    # ulps of every owner's phi = 0 and on every SDF's box faces: the same
    # contacts, in the same order, with the same normal bits; when lone,
    # with at most one point of each source inside each owner. The
    # position solve's one-row query of a contact's point, at the pose
    # detection saw, reads the phi and normal that detection read. A probe
    # body's bounding sphere misses one owner's negative_box by less than
    # one cell, which culls the pair, or overlaps it by as much.
    rng = np.random.default_rng(seed)
    world = sim.World()
    blob, _ = sim.make_field_body(small_blob(), 2.0)
    ball_v, _ = assets.uv_sphere(0.3, rings=4, segments=6)
    ball = sim.RigidBody(com=rng.uniform(-0.6, 0.6, 3), mass=1.0,
                         collision_vertices=ball_v, sdf=ball_sdf(), name="ball")
    blob.com = rng.uniform(-0.2, 0.2, 3)
    if spin:
        for b in (ball, blob):
            q = rng.normal(size=4)
            b.q = q / np.linalg.norm(q)
    plane = static_plane(small_turn(rng) if spin else (1.0, 0.0, 0.0, 0.0),
                         rng.uniform(-0.5, 0.5, 3))
    frame = plane.world_from_body()
    world.bodies = [plane, ball, blob]

    on_plane = frame.point(np.column_stack([rng.uniform(-1.5, 1.5, (6, 2)), np.zeros(6)]))
    pts = list(on_plane) + list(on_plane + rng.integers(-3, 4, (6, 3)) * np.spacing(on_plane))
    pts.append(frame.point((0.0, 0.0, -0.1)))  # inside the plane, so never contact-free
    for body in (ball, blob):
        pts += boundary_points(body, body.com, rng, 3)
        pts += face_points(body.sdf.bbox_lo, body.sdf.bbox_hi, body.world_from_body().point,
                           rng, 6)
    pts += face_points(plane.sdf.bbox_lo, plane.sdf.bbox_hi, frame.point, rng, 6)
    pts = np.array(pts)
    pts = np.concatenate([pts, rng.uniform(-1.0, 1.0, (20, 3))])
    owners = [plane, ball, blob]
    probe, _, _ = probe_near_negative_box(owners[rng.integers(3)], rng)
    world.bodies.append(probe)
    if lone:
        pts = pts[one_inside_each(pts, owners)]
    world.add_cloth(pts, np.where(rng.random(len(pts)) < 0.2, 0.0, 1.0), [], [], [])
    # Half of the ball's collision points are special points too.
    extra = ball.world_from_body().point(pts[rng.random(len(pts)) < 0.5], inverse=True)
    ball.verts = np.concatenate([ball.verts, extra])
    if lone:
        for body in (ball, blob, probe):
            body.verts = body.verts[one_inside_each(body.world_verts(),
                                                    [o for o in owners if o is not body])]

    ref = reference_detect_contacts(world)
    got = sim.detect_contacts(world)
    assert ref
    assert [contact_key(c) for c in got] == [contact_key(c) for c in ref]
    pairs = [(getattr(c.src, "ps", c.src), contact_key(c)[2]) for c in got]
    assert not lone or len(set(pairs)) == len(pairs)
    for c in got:
        p = c.point()
        if isinstance(c.src, sim.Particle):
            src_pts, k = world.particles.pos, c.src.k
        else:
            src_pts, k = c.src.world_verts(), c.vert
            assert p.tobytes() == src_pts[k].tobytes()
        phi, n, valid = c.owner.query(p[None])
        assert valid[0] and phi.tobytes() == c.owner.phi(src_pts)[k:k + 1].tobytes()
        assert n[0].tobytes() == c.normal.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spin=st.booleans())
def test_cull_drops_a_sphere_off_the_negative_box_and_keeps_one_on_it(seed, spin):
    # The probe of the test above, off a kinematic plane, a rigid ball or the
    # field body, each rotated when spin: culled exactly when it misses.
    rng = np.random.default_rng(seed)
    blob, _ = sim.make_field_body(small_blob(), 2.0)
    ball = sim.RigidBody(com=rng.uniform(-0.6, 0.6, 3), mass=1.0, collision_vertices=[[0, 0, 0]],
                         sdf=ball_sdf())
    plane = static_plane((1.0, 0.0, 0.0, 0.0), rng.uniform(-0.5, 0.5, 3))
    if spin:
        for b in (ball, blob):
            q = rng.normal(size=4)
            b.q = q / np.linalg.norm(q)
        plane.q = small_turn(rng)
    probe, owner, misses = probe_near_negative_box([plane, ball, blob][rng.integers(3)], rng)
    np.testing.assert_allclose(owner.sdf.negative_box, negative_box(owner.sdf),
                               rtol=0, atol=1e-12)
    assert owner.reaches(probe.com, probe.radius) != misses
