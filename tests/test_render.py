import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridrt import assets
from hybridrt import rng as hrng
from hybridrt.core import Transform
from hybridrt.field import RadianceGrid
from hybridrt.images import decode_ppm, encode_pfm, encode_ppm
from hybridrt.render import (
    Camera,
    EmitterSet,
    trace_paths,
    render,
    shadow_mask_batch,
)
from hybridrt.scene import RenderConfig, Scene, SceneConfig, CameraConfig, scene_diagonal
from hybridrt.surface import Bvh, Lambertian, Mirror, TriangleMesh


NO_LIGHTS = EmitterSet(np.zeros((0, 3, 3)), np.zeros(0))


def make_scene(field=None, meshes=(), emitters=NO_LIGHTS, camera=None, **render_kw):
    meshes = list(meshes)
    camera = camera or Camera(pose=Transform.look_at([0, 0, 3], [0, 0, 0]),
                              fov=math.radians(30), resolution=(8, 8))
    cfg = SceneConfig(camera=CameraConfig(position=[0, 0, 3], look_at=[0, 0, 0],
                                          resolution=list(camera.resolution)))
    rc = RenderConfig(**render_kw) if render_kw else RenderConfig()
    return Scene(config=cfg, camera=camera, render=rc, field=field, meshes=meshes,
                 bvh=Bvh(meshes), emitters=emitters,
                 spawn_eps=1e-4 * scene_diagonal(field, meshes))


def emissive_quad_mesh(emission=(2.0, 2.0, 2.0), z=0.0, half=4.0):
    v, f = assets.quad((-half, -half, z), (2 * half, 0, 0), (0, 2 * half, 0))
    return TriangleMesh(v, f, Lambertian(np.zeros(3)), emission=np.array(emission))


# ----------------------------------------------------------- trace_paths


def trace_one(scene, o, d, seed=1):
    """Radiance of the path of pixel 0, sample 0 from ray (o, d)."""
    L = trace_paths(scene, np.array([o], dtype=float), np.array([d], dtype=float),
                     np.array([0]), np.array([0]), seed, scene.render.n_bounces)
    return L[0]


def test_vacuum_emissive_quad_direct():
    scene = make_scene(meshes=[emissive_quad_mesh()])
    L = trace_one(scene, [0, 0, 3], [0, 0, -1])
    assert np.array_equal(L, [2.0, 2.0, 2.0])


def test_homogeneous_slab_path():
    field = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 1.0, (1, 1, 1))
    scene = make_scene(field=field, march_step=1e-3)
    L = trace_one(scene, [0.5, 0.5, -1.0], [0, 0, 1])
    assert np.allclose(L, 1.0 - math.exp(-1.0), rtol=1e-2)


def test_mirror_behind_slab_two_segment_form():
    # camera -> slab (length 1) -> mirror -> slab (length 1) -> escape:
    # L = r(1 - 1/e) + (1/e) * rho * r(1 - 1/e)
    rho = 0.8
    r_val = 0.6
    field = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 1.0, (r_val, r_val, r_val))
    v, f = assets.quad((-2, -2, 1.0), (4, 0, 0), (0, 4, 0))
    mirror = TriangleMesh(v, f, Mirror(np.full(3, rho)))
    scene = make_scene(field=field, meshes=[mirror], march_step=1e-3)
    L = trace_one(scene, [0.5, 0.5, -1.0], [0, 0, 1])
    seg = r_val * (1.0 - math.exp(-1.0))
    expect = seg + math.exp(-1.0) * rho * seg
    assert np.allclose(L, expect, rtol=2e-2)


def test_path_terminates_on_bounce_limit():
    # two parallel mirrors; path must stop at n_bounces without error
    v1, f1 = assets.quad((-2, -2, 0.0), (4, 0, 0), (0, 4, 0))
    v2, f2 = assets.quad((-2, -2, 2.0), (0, 4, 0), (4, 0, 0))
    m1 = TriangleMesh(v1, f1, Mirror(np.ones(3)))
    m2 = TriangleMesh(v2, f2, Mirror(np.ones(3)))
    scene = make_scene(meshes=[m1, m2], n_bounces=5)
    L = trace_one(scene, [0, 0, 1.0], [0, 0, -1])
    assert np.array_equal(L, np.zeros(3))


def test_throughput_threshold_terminates():
    field = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 40.0, (1, 1, 1))
    scene = make_scene(field=field, march_step=1e-2, threshold=1e-3)
    L = trace_one(scene, [0.5, 0.5, -1.0], [0, 0, 1])
    assert np.allclose(L, 1.0, rtol=1e-2)  # optically thick: all energy absorbed


def count_samples(monkeypatch):
    """Counters of the rows render samples cosine directions for, of the
    uniforms drawn and of the rays given to nearest-hit queries."""
    render_mod = importlib.import_module("hybridrt.render")
    counts = {"bsdf": 0, "draws": 0, "rays": 0}
    cosine, uniform, intersect = render_mod.cosine_sample_batch, hrng.uniform, Bvh.intersect_batch

    def spy_cosine(n, u1, u2):
        counts["bsdf"] += len(n)
        return cosine(n, u1, u2)

    def spy_uniform(*keys, **kw):
        u = uniform(*keys, **kw)
        counts["draws"] += u.size
        return u

    def spy_intersect(self, o, d, *args, **kw):
        counts["rays"] += len(o)
        return intersect(self, o, d, *args, **kw)

    monkeypatch.setattr(render_mod, "cosine_sample_batch", spy_cosine)
    monkeypatch.setattr(hrng, "uniform", spy_uniform)
    monkeypatch.setattr(Bvh, "intersect_batch", spy_intersect)
    return counts


def test_paths_that_stop_draw_nothing(monkeypatch):
    # hdr-bracket's target in small: a black emitter fills the view, so
    # every path stops at its first hit and only the pixel jitter is drawn.
    scene = make_scene(meshes=[emissive_quad_mesh()], n_bounces=2)
    counts = count_samples(monkeypatch)
    img = render(scene, spp=1, seed=1)
    assert np.all(img.pixels == 2.0)
    assert counts["bsdf"] == 0
    assert counts["draws"] == 2 * img.pixels.shape[0] * img.pixels.shape[1]


@pytest.mark.parametrize("max_depth", [1, 3])
def test_transport_samples_only_paths_that_go_on(estimation_dir, monkeypatch, max_depth):
    from hybridrt import emitters
    from hybridrt.scene import load_poses, load_scene
    scene = load_scene(str(estimation_dir / "room.json"))
    poses = load_poses(estimation_dir / "poses.json")[:2]
    counts = count_samples(monkeypatch)
    emitters.build_transport(scene, poses, max_depth)
    w, h = poses[0].resolution
    primary = len(poses) * w * h * scene.render.spp
    # A path that goes on from a hit casts one ray at the next bounce, so
    # the rays past the primary ones count the hits of bounces 1 to
    # max_depth - 1 that go on. Each draws two uniforms; a primary ray
    # draws its pixel jitter.
    went_on = counts["rays"] - primary
    assert went_on == 0 if max_depth == 1 else went_on > primary
    assert counts["bsdf"] == went_on
    assert counts["draws"] == 2 * primary + 2 * went_on


# ------------------------------------------------------------ shadow masks


def light_draws(seed):
    """Light-sample uniforms (u_pick, u1, u2) of pixel 0, sample 0,
    bounce 0, substep 0, each an array of one."""
    return [hrng.uniform(seed, 0, 0, 0, purpose, np.zeros(1, dtype=np.int64))
            for purpose in (hrng.LIGHT_PICK, hrng.LIGHT_U, hrng.LIGHT_V)]


ORIGIN = np.zeros((1, 3))


def test_shadow_mask_no_emitters_is_one():
    bvh = make_scene().bvh
    assert shadow_mask_batch(ORIGIN, NO_LIGHTS, bvh, *light_draws(1), 1e-6).tolist() == [1.0]


def test_shadow_mask_unblocked_is_one():
    em = EmitterSet([[[0, 0, 5], [1, 0, 5], [0, 1, 5]]], [0.7])
    bvh = Bvh([])
    assert shadow_mask_batch(ORIGIN, em, bvh, *light_draws(3), 1e-6).tolist() == [1.0]


def test_shadow_mask_blocked_is_one_minus_rsrc():
    em = EmitterSet([[[-1, -1, 5], [1, -1, 5], [0, 1, 5]]], [0.7])
    v, f = assets.quad((-3, -3, 2.0), (6, 0, 0), (0, 6, 0))
    blocker = Bvh([TriangleMesh(v, f, Lambertian(np.full(3, 0.5)))])
    m = shadow_mask_batch(ORIGIN, em, blocker, *light_draws(3), 1e-6)
    assert m[0] == pytest.approx(1.0 - 0.7, abs=1e-12)


def test_shadow_mask_floor_clamp():
    em = EmitterSet([[[-1, -1, 5], [1, -1, 5], [0, 1, 5]]], [1.0])
    v, f = assets.quad((-3, -3, 2.0), (6, 0, 0), (0, 6, 0))
    blocker = Bvh([TriangleMesh(v, f, Lambertian(np.full(3, 0.5)))])
    m = shadow_mask_batch(ORIGIN, em, blocker, *light_draws(3), 1e-6)
    assert m[0] == 0.02  # 1 - r_src clamped to the documented floor


@pytest.mark.parametrize("r_src", [0.7, 1.0])
def test_emissive_mesh_casts_no_shadow(r_src):
    # A quad between the march points and the emitters blocks their light
    # unless it emits itself: both its cull and its shadow rays run through
    # the one scene BVH, whose `blocks` leaves out an emissive mesh's faces.
    em = EmitterSet([[[-1, -1, 5], [1, -1, 5], [0, 1, 5]]], [r_src])
    v, f = assets.quad((-3, -3, 2.0), (6, 0, 0), (0, 6, 0))
    wall = TriangleMesh(*assets.quad((5, -1, -1), (0, 2, 0), (0, 0, 2)), Lambertian(np.ones(3)))
    xy = np.linspace(-0.5, 0.5, 4)
    points = np.array([[x, y, z] for x in xy for y in xy for z in (-1.0, 0.0)])
    lane = np.arange(len(points))
    draws = [hrng.uniform(3, 0, 0, 0, purpose, lane)
             for purpose in (hrng.LIGHT_PICK, hrng.LIGHT_U, hrng.LIGHT_V)]
    for emission, want in ((0.0, np.clip(1.0 - r_src, 0.02, 1.0)), (2.0, 1.0)):
        quad = TriangleMesh(v, f, Lambertian(np.full(3, 0.5)), emission=np.full(3, emission))
        scene = make_scene(meshes=[wall, quad], emitters=em)
        cand = scene.bvh.shadow_candidates(points, em.lo, em.hi, scene.spawn_eps)
        assert cand.tolist() == [emission == 0.0] * len(points)
        m = shadow_mask_batch(points, em, scene.bvh, *draws, scene.spawn_eps)
        assert m.tolist() == [want] * len(points)


def shadow_scene(r_src):
    field = RadianceGrid.constant((-1, -1, -1), (1, 1, 1), 1.0, (1, 1, 1))
    v, f = assets.quad((-4, -4, 3.0), (8, 0, 0), (0, 8, 0))  # blocks the sky emitter
    blocker = TriangleMesh(v, f, Lambertian(np.full(3, 0.5)))
    em = NO_LIGHTS
    if r_src is not None:
        em = EmitterSet([[[-1, -1, 6], [1, -1, 6], [0, 1, 6]]], [r_src])
    cam = Camera(pose=Transform.look_at([0, 0, -3], [0, 0, 0]),
                 fov=math.radians(25), resolution=(8, 8))
    return make_scene(field=field, meshes=[blocker], emitters=em, camera=cam,
                      march_step=0.02, spp=4, seed=9)


def test_blocked_contribution_scaled_by_exactly_one_minus_rsrc():
    img_blocked = render(shadow_scene(0.7))
    img_open = render(shadow_scene(0.0))
    assert np.allclose(img_blocked.pixels, 0.3 * img_open.pixels, rtol=1e-12)


def test_rsrc_zero_bit_equals_shadow_free():
    img_r0 = render(shadow_scene(0.0))
    img_free = render(shadow_scene(None))
    assert np.array_equal(img_r0.pixels, img_free.pixels)


# ------------------------------------------------------- shadow culling


def axis_triangles(rng, n, lo=-2.0, hi=2.0, planes=None):
    """Right triangles lying in axis planes, as room walls do; `planes`
    optionally fixes (axis, coordinate) per triangle."""
    if planes is None:
        planes = list(zip(rng.integers(0, 3, n), rng.uniform(lo, hi, n)))
    tris = []
    for axis, c in planes:
        a, b = [k for k in range(3) if k != axis]
        corner = rng.uniform(lo, hi, 2)
        ext = rng.uniform(0.05, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
        t = np.full((3, 3), float(c))
        t[:, a] = corner[0]
        t[:, b] = corner[1]
        t[1, a] += ext[0]
        t[2, b] += ext[1]
        tris.append(t)
    return np.array(tris)


def cull_case(rng, n_tris, layout, m=40):
    """A blocker soup, an emitter set, a pad and 3m march points that probe
    the cull: points scattered at random, points within a few pads of a
    face box, and points on lines through emitter vertices. In the "axis"
    layout the emitters lie in (or a hair off) the plane of one blocker
    face k, so do those lines, and half the near-box points lie in that
    plane beside face k: their rays graze it."""
    if layout == "soup":
        base = rng.uniform(-2, 2, (n_tris, 3))
        tri = base[:, None, :] + rng.uniform(-0.4, 0.4, (n_tris, 3, 3))
        em_tri = rng.uniform(-3, 3, (1, 1, 3)) + rng.uniform(-0.3, 0.3, (rng.integers(1, 4), 3, 3))
    else:
        tri = axis_triangles(rng, n_tris)
        k = int(rng.integers(0, n_tris))
        plane_axis = int(np.argmin(np.ptp(tri[k], axis=0)))
        plane = tri[k, 0, plane_axis]
        offset = rng.choice([0.0, 1e-9, 1e-6, -1e-6, 1e-3, 0.5])
        em_tri = axis_triangles(rng, int(rng.integers(1, 4)), -3, 3,
                                planes=[(plane_axis, plane + offset)] * 3)
    bvh = Bvh([TriangleMesh(tri.reshape(-1, 3), np.arange(3 * len(tri)).reshape(-1, 3),
                            Lambertian(np.full(3, 0.5)))])
    em = EmitterSet(em_tri, np.ones(len(em_tri)))
    allv = np.concatenate([tri.reshape(-1, 3), em_tri.reshape(-1, 3)])
    pad = 1e-4 * float(np.linalg.norm(np.ptp(allv, axis=0)))

    scattered = rng.uniform(-3.5, 3.5, (m, 3))

    f = rng.integers(0, n_tris, m)
    in_plane = np.zeros(m, dtype=bool)
    if layout == "axis":
        in_plane = rng.random(m) < 0.5
        f[in_plane] = k
    lo, hi = bvh.face_lo[f], bvh.face_hi[f]
    near = rng.uniform(lo - 0.2, hi + 0.2)
    axis = rng.integers(0, 3, m)
    if layout == "axis":
        axis[in_plane] = (plane_axis + rng.integers(1, 3, in_plane.sum())) % 3
        near[in_plane, plane_axis] = plane + rng.choice([0.0, 1e-13, -1e-10, 1e-7],
                                                        in_plane.sum())
    gap = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0], m) * pad
    rows = np.arange(m)
    near[rows, axis] = np.where(rng.random(m) < 0.5, lo[rows, axis] - gap,
                                hi[rows, axis] + gap)

    q = em.triangles[rng.integers(0, len(em), m), rng.integers(0, 3, m)]
    along = em.triangles[:, 1].mean(axis=0) - q
    jitter = rng.choice([0.0, 1e-9, 1e-6, 1e-3], (m, 1)) * rng.normal(size=(m, 3))
    on_lines = q - rng.uniform(0.5, 4.0, (m, 1)) * along + jitter
    return bvh, em, np.concatenate([scattered, near, on_lines]), pad


def boxes_meet_reference(points, em, bvh, pad):
    """Per point: does box(p and every emitter vertex) meet any padded face box."""
    out = np.zeros(len(points), dtype=bool)
    for i, p in enumerate(points):
        b_lo = np.minimum(p, em.lo)
        b_hi = np.maximum(p, em.hi)
        out[i] = np.any(np.all((bvh.face_lo - pad <= b_hi) & (bvh.face_hi + pad >= b_lo),
                               axis=1))
    return out


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tris=st.integers(1, 30),
       layout=st.sampled_from(["soup", "axis"]),
       chunk=st.sampled_from([1, 7, 1 << 15]))
def test_shadow_cull_never_drops_a_blocked_ray(seed, n_tris, layout, chunk):
    surface = importlib.import_module("hybridrt.surface")
    rng = np.random.default_rng(seed)
    bvh, em, pts, pad = cull_case(rng, n_tris, layout)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "CHUNK_PAIRS", chunk)
        cand = bvh.shadow_candidates(pts, em.lo, em.hi, pad)
    assert np.array_equal(cand, bvh.shadow_candidates(pts, em.lo, em.hi, pad))
    ref = boxes_meet_reference(pts, em, bvh, pad)
    assert np.array_equal(cand, ref)
    # Emitter corners and edges (u1, u2 in {0, 1}) and interior points.
    grid = np.array([0.0, 1.0, 0.5, rng.random()])
    u1, u2 = (g.ravel() for g in np.meshgrid(grid, grid))
    s = len(u1)
    u_pick = rng.random(len(pts) * s)
    mask = shadow_mask_batch(np.repeat(pts, s, axis=0), em, bvh, u_pick,
                             np.tile(u1, len(pts)), np.tile(u2, len(pts)), pad)
    blocked = (mask < 1.0).reshape(len(pts), s).any(axis=1)
    assert not np.any(blocked & ~cand)


def test_shadow_candidates_edge_cases():
    em = EmitterSet([[[-0.2, -0.2, 6], [0.2, -0.2, 6], [0, 0.2, 6]]], [0.5])
    pts = np.array([[0.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    assert not Bvh([]).shadow_candidates(pts, em.lo, em.hi, 1e-4).any()
    assert Bvh([]).shadow_candidates(np.zeros((0, 3)), em.lo, em.hi, 1e-4).shape == (0,)
    # A blocker face whose box meets the emitters' own box culls nothing.
    v, f = assets.quad((-4, -4, 6), (8, 0, 0), (0, 8, 0))
    ceiling = Bvh([TriangleMesh(v, f, Lambertian(np.full(3, 0.5)))])
    assert ceiling.shadow_candidates(pts, em.lo, em.hi, 1e-4).all()
    # A half-plane blocker off to one side only reaches points beside it.
    v, f = assets.quad((-6, -4, 3), (5.5, 0, 0), (0, 8, 0))
    half = Bvh([TriangleMesh(v, f, Lambertian(np.full(3, 0.5)))])
    assert half.shadow_candidates(pts, em.lo, em.hi, 1e-4).tolist() == [False, True]


def half_shadow_scene():
    """Field below a blocker that covers x <= -0.5 and an emitter above the
    origin: points with x > -0.5 are culled, and rays from the far left of
    the field are blocked."""
    field = RadianceGrid.constant((-3, -1, -1), (1, 1, 1), 0.8, (1.0, 0.8, 0.6))
    v, f = assets.quad((-6, -4, 3.0), (5.5, 0, 0), (0, 8, 0))
    blocker = TriangleMesh(v, f, Lambertian(np.full(3, 0.5)))
    em = EmitterSet([[[-0.2, -0.2, 6], [0.2, -0.2, 6], [0, 0.2, 6]]], [0.7])
    cam = Camera(pose=Transform.look_at([-1, 0, -6], [-1, 0, 0]),
                 fov=math.radians(45), resolution=(12, 12))
    return make_scene(field=field, meshes=[blocker], emitters=em, camera=cam,
                      march_step=0.05, spp=2, seed=4)


def count_shadow_work(monkeypatch, scene, cull=True, **kw):
    """Render, counting points culled, shadow rays fired and rays blocked."""
    render_mod = importlib.import_module("hybridrt.render")
    counts = {"culled": 0, "rays": 0, "blocked": 0}
    cull_fn = Bvh.shadow_candidates
    mask_fn = render_mod.shadow_mask_batch

    def candidates(bvh, p, *a):
        c = cull_fn(bvh, p, *a) if cull else np.ones(len(p), dtype=bool)
        counts["culled"] += int(np.count_nonzero(~c))
        return c

    def mask(p, *a):
        m = mask_fn(p, *a)
        counts["rays"] += len(p)
        counts["blocked"] += int(np.count_nonzero(m < 1.0))
        return m

    monkeypatch.setattr(Bvh, "shadow_candidates", candidates)
    monkeypatch.setattr(render_mod, "shadow_mask_batch", mask)
    img = render(scene, **kw)
    monkeypatch.undo()
    return img, counts


def test_shadow_cull_is_bit_identical(monkeypatch):
    culled, on = count_shadow_work(monkeypatch, half_shadow_scene())
    full, off = count_shadow_work(monkeypatch, half_shadow_scene(), cull=False)
    assert on["culled"] > 0 and on["blocked"] > 0
    assert off["culled"] == 0 and on["rays"] + on["culled"] == off["rays"]
    assert on["blocked"] == off["blocked"]
    assert np.array_equal(culled.pixels, full.pixels)


# Shadow rays of a 16x16, 1 spp, seed-1 two-room render: every march point
# before the cull, and after it (the blocker faces never reach the segment
# boxes toward the ceiling emitters).
TWO_ROOM_16PX_SHADOW_RAYS_UNCULLED = 6277
TWO_ROOM_16PX_SHADOW_RAYS_CULLED = 0


def test_two_room_cull_removes_shadow_rays(two_room_dir, monkeypatch):
    from hybridrt.scene import load_scene
    scene = at_16px(load_scene(str(two_room_dir / "two_room.json")))
    img_on, on = count_shadow_work(monkeypatch, scene, spp=1, seed=1)
    img_off, off = count_shadow_work(monkeypatch, scene, cull=False, spp=1, seed=1)
    assert off["rays"] == TWO_ROOM_16PX_SHADOW_RAYS_UNCULLED
    assert on["rays"] == TWO_ROOM_16PX_SHADOW_RAYS_CULLED
    assert on["rays"] <= 0.01 * off["rays"]
    assert np.array_equal(img_on.pixels, img_off.pixels)


# ------------------------------------------------- degeneracy equivalences


def surface_test_scene(sigma):
    field = RadianceGrid.constant((-2, -2, -2), (2, 2, 2), sigma, (0.0, 0.0, 0.0)) \
        if sigma is not None else None
    v, f = assets.box((-2, -2, -2), (2, 2, 2), inward=True)
    room = TriangleMesh(v, f, Lambertian(np.full(3, 0.6)))
    quad_mesh = emissive_quad_mesh(emission=(3.0, 2.0, 1.0), z=-1.9, half=1.0)
    cam = Camera(pose=Transform.look_at([0, 0, 1.5], [0, 0, -1]),
                 fov=math.radians(60), resolution=(64, 64))
    return make_scene(field=field, meshes=[room, quad_mesh], camera=cam,
                      spp=16, seed=5, n_bounces=6)


def test_degeneracy_a_zero_sigma_matches_pure_surface():
    hybrid = render(surface_test_scene(sigma=0.0))
    reference = render(surface_test_scene(sigma=None))
    assert np.array_equal(hybrid.pixels, reference.pixels)
    assert hybrid.pixels.mean() > 0.01  # scene is actually lit


def quadrature_paths(scene, o, d, pix, smp, seed, n_bounces, on_hit=None, records=None):
    """Reference for the bounce loop: one full-field march per camera ray,
    no surfaces at all."""
    render_mod = importlib.import_module("hybridrt.render")
    n = len(o)
    L, T_spec = np.zeros((n, 3)), np.ones((n, 3))
    render_mod._march_field(scene, o, d, np.full(n, np.inf), 1,
                            hrng.hash_keys(seed, pix, smp), L, T_spec)
    return L


def test_degeneracy_b_mesh_free_matches_pure_quadrature(slab_dir, monkeypatch):
    from hybridrt.scene import load_scene
    scene = load_scene(str(slab_dir / "slab.json"))
    hybrid = render(scene, spp=16, seed=3)
    monkeypatch.setattr(importlib.import_module("hybridrt.render"), "trace_paths",
                        quadrature_paths)
    reference = render(scene, spp=16, seed=3)
    assert np.array_equal(hybrid.pixels, reference.pixels)
    assert hybrid.pixels.mean() > 0.05


# ------------------------------------------------------------------ render


def test_single_pixel_emitter_exact_at_any_spp():
    scene = make_scene(meshes=[emissive_quad_mesh()],
                       camera=Camera(pose=Transform.look_at([0, 0, 3], [0, 0, 0]),
                                     fov=math.radians(20), resolution=(1, 1)))
    for spp in (1, 2, 7):
        img = render(scene, spp=spp, seed=1)
        assert np.array_equal(img.pixels[0, 0], [2.0, 2.0, 2.0])


def test_render_deterministic_rerun(two_room_dir):
    from hybridrt.scene import load_scene
    scene = load_scene(str(two_room_dir / "two_room.json"))
    a = render(scene, spp=2, seed=11)
    b = render(scene, spp=2, seed=11)
    assert np.array_equal(a.pixels, b.pixels)


def test_render_thread_count_invariant(two_room_dir, monkeypatch):
    # At 64 px and 2 spp a budget of 1,024 rays gives eight 8-row tiles,
    # so threads=4 runs four workers.
    from hybridrt.scene import load_scene
    monkeypatch.setattr(importlib.import_module("hybridrt.render"), "BATCH_RAYS", 1024)
    scene = load_scene(str(two_room_dir / "two_room.json"))
    a = render(scene, spp=2, seed=11, threads=1)
    b = render(scene, spp=2, seed=11, threads=4)
    assert np.array_equal(a.pixels, b.pixels)


@pytest.mark.parametrize("preset", ["two_room", "field_hit"])
def test_render_bits_do_not_depend_on_batching(preset, request, monkeypatch):
    # Each pixel adds its samples in sample order. So at 24 px and 4 spp
    # the bits of one 24-row tile hold for a budget of 96 rays (one-row
    # tiles), of 480 (5-row tiles) and of 50 (one-row tiles whose 4
    # samples split over two batches), on 1 and 2 threads.
    from hybridrt.scene import load_scene
    render_mod = importlib.import_module("hybridrt.render")
    scene = load_scene(str(request.getfixturevalue(f"{preset}_dir") / f"{preset}.json"))
    cam = scene.camera
    scene.camera = Camera(pose=cam.pose, fov=cam.fov, resolution=(24, 24))
    want = render(scene, spp=4, seed=3).pixels
    for budget in (96, 480, 50):
        with monkeypatch.context() as m:
            m.setattr(render_mod, "BATCH_RAYS", budget)
            for threads in (1, 2):
                got = render(scene, spp=4, seed=3, threads=threads).pixels
                assert np.array_equal(got, want), (budget, threads)


@pytest.mark.parametrize("resolution, spp, tiles", [
    ((32, 32), 1, 1), ((16, 16), 4, 1),  # the benchmark's two-room and field-hit
    ((64, 64), 16, 4),                    # the two-room preset
])
def test_render_tiles_by_ray_budget(two_room_dir, monkeypatch, resolution, spp, tiles):
    # A tile is max(1, BATCH_RAYS // (w spp)) rows, and the pool has no
    # more workers than tiles: a lone tile runs on the calling thread.
    from hybridrt.scene import load_scene
    render_mod = importlib.import_module("hybridrt.render")
    scene = load_scene(str(two_room_dir / "two_room.json"))
    cam = scene.camera
    scene.camera = Camera(pose=cam.pose, fov=cam.fov, resolution=resolution)
    seen = []

    def fake_tile(scene, camera, spp, seed, rows, records):
        seen.append((rows, threading.current_thread() is threading.main_thread()))
        return np.zeros((rows[1] - rows[0], camera.resolution[0], 3))

    monkeypatch.setattr(render_mod, "_render_tile", fake_tile)
    render(scene, spp=spp, seed=1, threads=2)
    h = resolution[1]
    assert sorted(rows for rows, _ in seen) == [
        (r, min(r + h // tiles, h)) for r in range(0, h, h // tiles)]
    assert all(main for _, main in seen) == (tiles == 1)


@pytest.mark.parametrize("threads", [0, -3])
def test_render_rejects_thread_count_below_one(two_room_dir, threads):
    from hybridrt.scene import load_scene
    scene = load_scene(str(two_room_dir / "two_room.json"))
    with pytest.raises(ValueError, match="threads must be >= 1"):
        render(scene, spp=1, threads=threads)


def test_render_seed_changes_image(two_room_dir):
    from hybridrt.scene import load_scene
    scene = load_scene(str(two_room_dir / "two_room.json"))
    a = render(scene, spp=2, seed=1)
    b = render(scene, spp=2, seed=2)
    assert not np.array_equal(a.pixels, b.pixels)


def test_render_rejects_bad_spp(two_room_dir):
    from hybridrt.scene import load_scene
    scene = load_scene(str(two_room_dir / "two_room.json"))
    with pytest.raises(ValueError):
        render(scene, spp=0)


# ---------------------------------------------------------- output encoding


def test_finalize_ldr_quantization():
    from hybridrt.images import HdrImage
    img = HdrImage(np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]]))
    codes = decode_ppm(encode_ppm(img))
    assert tuple(codes[0, 0]) == (0, 0, 0)
    assert tuple(codes[0, 1]) == (255, 255, 255)
    assert tuple(codes[0, 2]) == (188, 188, 188)


def test_finalize_hdr_is_pfm():
    from hybridrt.images import HdrImage, decode_pfm
    img = HdrImage(np.full((2, 2, 3), 1.5))
    out = encode_pfm(img)
    assert out.startswith(b"PF\n2 2\n-1.0\n")
    assert np.allclose(decode_pfm(out).pixels, 1.5)


# ------------------------------------------------------------- invariants


def test_throughput_multipliers_never_exceed_one(rng):
    # Both per-step factors that scale T_spec stay in [0, 1]: medium
    # absorption keep = exp(-sigma dt), and BSDF sample weights.
    sigma = rng.uniform(0.0, 50.0, 100_000)
    dt = rng.uniform(1e-4, 0.5, 100_000)
    keep = np.exp(-sigma * dt)
    assert np.all((keep > 0.0) & (keep <= 1.0))

    from hybridrt.surface import cosine_sample_batch, dielectric_sample_batch, reflect_batch
    n = np.zeros((100_000, 3))
    n[:, 2] = 1.0
    u1 = rng.uniform(0, 1, 100_000)
    u2 = rng.uniform(0, 1, 100_000)
    d = cosine_sample_batch(n, u1, u2)
    assert np.all(np.abs(np.linalg.norm(d, axis=1) - 1.0) < 1e-9)
    albedo = rng.uniform(0, 1, (100_000, 3))
    assert np.all(albedo <= 1.0)


def test_furnace_small_scale(furnace_dir):
    # quick furnace sanity (the full 1024 spp run lives in acceptance)
    from hybridrt.scene import load_scene
    scene = load_scene(str(furnace_dir / "furnace.json"))
    img = render(scene, spp=16, seed=7)
    center = img.pixels[28:36, 28:36].mean()
    assert abs(center - assets.FURNACE_R_ENV) / assets.FURNACE_R_ENV < 0.05


# ------------------------------------------------------ pinned checksums
#
# SHA-256 of the float64 pixel buffers, recorded before the flat any-hit
# and the block-batched march went in (the furnace before the heap BVH):
# speed-ups must leave every bit of these images as it was. Pinned with
# numpy 2.4 on x86-64; another numpy or libm may round exp/pow differently
# and legitimately change them.

TWO_ROOM_16PX_SHA = "b1ab2e12c0f4bf9a1e8c7d78a8a7560f0941b91ef44341b8df07c80be649c3c0"
FURNACE_16PX_SHA = "12947ed8e5beb018b30ec36602ee826c8e746165a3ce2ee730a3415504dc0156"
FIELD_HIT_FRAME_SHA = {
    1: "4c0c0524730667f2330e77f20b1c9f3c46805b0e831b2f9cecd5020b59e8ca36",
    12: "8cd9de6f2e75df75f755a1f3507be226f220bf4770889ff734d3eed27e9bb3da",
    24: "944a23d1e03583df7b373ad97a81d920cde45caeaaf2b13fd918d17b16f5de9d",
}


def pixel_sha(img):
    return hashlib.sha256(np.ascontiguousarray(img.pixels, dtype=np.float64).tobytes()).hexdigest()


def at_res(scene, res):
    cam = scene.camera
    scene.camera = Camera(pose=cam.pose, fov=cam.fov, resolution=res)
    return scene


def at_16px(scene):
    return at_res(scene, (16, 16))


def test_two_room_checksum_pinned(two_room_dir):
    from hybridrt.scene import load_scene
    scene = at_16px(load_scene(str(two_room_dir / "two_room.json")))
    assert pixel_sha(render(scene, spp=1, seed=1)) == TWO_ROOM_16PX_SHA


def test_furnace_checksum_pinned(furnace_dir):
    # The only preset whose mesh (320 faces) takes the BVH traversal with
    # dense hits: a third of its primary rays hit the sphere.
    from hybridrt.scene import load_scene
    scene = at_16px(load_scene(str(furnace_dir / "furnace.json")))
    assert pixel_sha(render(scene, spp=4, seed=7)) == FURNACE_16PX_SHA


def test_field_hit_frame_checksums_pinned(field_hit_dir):
    # Frames before, at and after the ball meets the blob (impact is near
    # frame 22), so the field is sampled through a moved transform too.
    from hybridrt import sim
    from hybridrt.scene import load_scene
    scene = at_16px(load_scene(str(field_hit_dir / "field_hit.json")))
    world, binding = sim.build_world(scene)
    got = {}
    for k in sim.run(world, scene, binding, max(FIELD_HIT_FRAME_SHA)):
        if k in FIELD_HIT_FRAME_SHA:
            got[k] = pixel_sha(render(scene, spp=2, seed=1))
    assert got == FIELD_HIT_FRAME_SHA


# ------------------------------------------------------- march records
#
# A render reuses its field's last bounce-1 marches (see render.py). Its
# reference is a render of the same scene with a copy of the field that
# holds no records (`record_free`).


def record_free(scene):
    """The scene with a copy of its field that holds no march records."""
    f = scene.field
    copy = RadianceGrid(f.bbox_lo, f.bbox_hi, f.sigma, f.radiance, f.world_from_field)
    return dataclasses.replace(scene, field=copy)


def count_marched(monkeypatch):
    """Rays handed to march_arrays, one entry per call."""
    render_mod = importlib.import_module("hybridrt.render")
    counts = []
    march = render_mod.march_arrays

    def counting(grid, o, *args, **kwargs):
        counts.append(len(o))
        return march(grid, o, *args, **kwargs)

    monkeypatch.setattr(render_mod, "march_arrays", counting)
    return counts


def still_rotated_field_hit(d):
    """field-hit with the blob held still under a fixed rotation; the ball
    flies through it. At a march step of 1.0 a ray takes one to three
    substeps, so in some frame the ball moves the segment end of a lone
    one-substep ray, whose re-march is a one-row field query."""
    assets.gen_field_hit(str(d))
    path = d / "field_hit.json"
    doc = json.loads(path.read_text())
    doc["field"] = {"path": "blob.rfgrid",
                    "transform": {"rotate_axis": [0.3, 1.0, -0.2], "rotate_deg": 20.0}}
    doc["render"]["march_step"] = 1.0
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("preset", ["field_hit", "drop", "still_rotated"])
def test_march_records_match_record_free_renders(preset, tmp_path, monkeypatch):
    from hybridrt import sim
    from hybridrt.scene import load_scene
    if preset == "still_rotated":
        path = still_rotated_field_hit(tmp_path)
    else:
        assets.PRESETS[preset.replace("_", "-")](str(tmp_path))
        path = tmp_path / f"{preset}.json"
    scene = at_res(load_scene(str(path)), (24, 24))
    world, binding = sim.build_world(scene)
    counts = count_marched(monkeypatch)
    queries = []
    sample = RadianceGrid.sample_batch
    monkeypatch.setattr(RadianceGrid, "sample_batch",
                        lambda grid, p: queries.append(len(p)) or sample(grid, p))
    with_records = without = 0
    lone = False
    for k in sim.run(world, scene, binding, 40):
        n0 = sum(counts)
        queries.clear()
        got = render(scene, spp=2, seed=1).pixels
        lone |= 1 in queries
        n1 = sum(counts)
        want = render(record_free(scene), spp=2, seed=1).pixels
        with_records += n1 - n0
        without += sum(counts) - n1
        assert np.array_equal(got, want), k
    # The records were used, so the frames above compared both paths.
    assert with_records < without
    assert lone or preset != "still_rotated"


@pytest.mark.parametrize("change", ["pose", "march_step", "seed", "camera"])
def test_march_records_are_not_read_after_a_change(change, field_hit_dir, monkeypatch):
    from hybridrt.scene import load_scene
    scene = at_res(load_scene(str(field_hit_dir / "field_hit.json")), (16, 16))
    render(scene, spp=2, seed=1)
    counts = count_marched(monkeypatch)
    render(scene, spp=2, seed=1)
    unchanged = sum(counts)
    seed = 1
    if change == "pose":
        f = scene.field
        f.world_from_field = Transform.translate([0.01, 0.0, 0.0]).compose(f.world_from_field)
    elif change == "march_step":
        scene.render.march_step *= 1.5
    elif change == "seed":
        seed = 2
    else:
        cam = scene.camera
        scene.camera = Camera(pose=Transform.look_at([0.01, -3.0, 0.6], [0.0, 0.0, 0.0],
                                                     [0.0, 0.0, 1.0]),
                              fov=cam.fov, resolution=cam.resolution)
    counts.clear()
    got = render(scene, spp=2, seed=seed).pixels
    changed = sum(counts)
    counts.clear()
    want = render(record_free(scene), spp=2, seed=seed).pixels
    assert changed == sum(counts) > unchanged
    assert np.array_equal(got, want)


def test_scene_with_emitters_keeps_no_march_record(two_room_dir):
    from hybridrt.scene import load_scene
    scene = at_16px(load_scene(str(two_room_dir / "two_room.json")))
    assert len(scene.emitters) > 0
    render(scene, spp=1, seed=1)
    assert scene.field.march_records == {}


def test_march_records_hold_the_last_render_only(field_hit_dir):
    from hybridrt.scene import load_scene
    scene = at_res(load_scene(str(field_hit_dir / "field_hit.json")), (24, 24))
    render(scene, spp=2, seed=1)
    assert sum(len(r[0]) for r in scene.field.march_records.values()) == 24 * 24 * 2
    at_res(scene, (16, 16))
    render(scene, spp=2, seed=1)
    records = scene.field.march_records
    # One 16-row tile, one batch: its segment ends and (L, T) rows.
    assert len(records) == 1
    (s1, L, T), = records.values()
    assert s1.shape == (16 * 16 * 2,) and L.shape == T.shape == (16 * 16 * 2, 3)


# ------------------------------------------------------- runtime guards


def test_nan_radiance_raises_floating_point_error(monkeypatch):
    render_mod = importlib.import_module("hybridrt.render")
    scene = make_scene()

    def nan_paths(scene, o, d, pix, smp, seed, n_bounces, on_hit=None, records=None):
        return np.full((len(o), 3), np.nan)

    monkeypatch.setattr(render_mod, "trace_paths", nan_paths)
    with pytest.raises(FloatingPointError, match="non-finite"):
        render(scene, spp=1, seed=0)
    with pytest.raises(FloatingPointError, match="NaN radiance"):
        render_mod._check_radiance(np.array([[0.0, np.nan, 0.0]]))


def test_guards_survive_python_O():
    # `python -O` strips asserts; the guards must still raise.
    import hybridrt
    code = ("import numpy as np\n"
            "from hybridrt.core import tone_map\n"
            "from hybridrt.render import _check_radiance\n"
            "for f, x in ((tone_map, np.array([np.nan, 0, 0])),\n"
            "             (_check_radiance, np.array([[np.nan, 0, 0]]))):\n"
            "    try:\n"
            "        f(x)\n"
            "    except FloatingPointError:\n"
            "        continue\n"
            "    raise SystemExit(f'{f.__name__} did not raise')\n")
    src = os.path.dirname(os.path.dirname(hybridrt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr + proc.stdout


# ------------------------------------------------------------- public API

# Single-ray wrappers and references that only tests reached; the batched
# calls above replace them.
REMOVED_NAMES = {
    "trace_path", "shadow_mask", "march_segment", "march_result", "transmittance",
    "PathState", "MarchResult", "sample_field", "sdf_query", "sample_bsdf",
    "BsdfSample", "intersect", "Intersection", "eval_emission", "Ray",
    "transform_point", "build_bvh", "finalize", "render_surface_only",
    "render_volume_only",
}


def test_render_name_is_the_module():
    import hybridrt
    import hybridrt.render as m
    assert inspect.ismodule(m) and m is hybridrt.render
    assert m.render is render
    public = {name for module in pkgutil.iter_modules(hybridrt.__path__)
              for name in dir(importlib.import_module(f"hybridrt.{module.name}"))
              if not name.startswith("_")}
    assert "Scene" in public and not REMOVED_NAMES & public
