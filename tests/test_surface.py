import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridrt import assets, surface
from hybridrt import rng as hrng
from hybridrt.core import Transform
from hybridrt.render import _sample_bsdf_groups, trace_paths
from hybridrt.scene import RenderConfig
from hybridrt.surface import (
    Bvh,
    Dielectric,
    Lambertian,
    Mirror,
    TriangleMesh,
    cosine_sample_batch,
    load_obj,
    schlick_r0,
)

from conftest import rotation


def make_mesh(verts, faces, bsdf=None, **kw):
    return TriangleMesh(verts, faces, bsdf or Lambertian(np.array([0.8, 0.8, 0.8])), **kw)


def soup_mesh(rng, n_tris=1000, spread=4.0):
    base = rng.uniform(-spread, spread, (n_tris, 3))
    verts = (base[:, None, :] + rng.uniform(-0.4, 0.4, (n_tris, 3, 3))).reshape(-1, 3)
    faces = np.arange(3 * n_tris).reshape(-1, 3)
    return make_mesh(verts, faces)


# ----------------------------------------------------------------- obj I/O


def obj_file(tmp_path, text):
    path = tmp_path / "mesh.obj"
    path.write_text(text)
    return path


def test_load_obj_text(tmp_path):
    mesh = load_obj(obj_file(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
                    bsdf=Lambertian(np.array([0.5, 0.5, 0.5])))
    assert len(mesh.vertices) == 3 and len(mesh.indices) == 1
    assert np.allclose(mesh.face_normals[0], [0, 0, 1])


def test_load_obj_slash_indices_and_comments(tmp_path):
    text = "# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n"
    mesh = load_obj(obj_file(tmp_path, text), bsdf=Lambertian(np.array([0.5, 0.5, 0.5])))
    assert len(mesh.indices) == 1


def test_load_obj_rejects_quads_and_empty(tmp_path):
    with pytest.raises(ValueError):
        load_obj(obj_file(tmp_path, "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"),
                 bsdf=Lambertian(np.array([0.5, 0.5, 0.5])))
    with pytest.raises(ValueError):
        load_obj(obj_file(tmp_path, "v 0 0 0\n"), bsdf=Lambertian(np.array([0.5, 0.5, 0.5])))


def test_obj_round_trip(tmp_path, rng):
    v, f = assets.icosphere(1.0, 1)
    path = tmp_path / "s.obj"
    from hybridrt.surface import save_obj
    save_obj(path, v, f)
    mesh = load_obj(str(path), bsdf=Lambertian(np.array([1.0, 1.0, 1.0])))
    assert np.allclose(mesh.vertices, v, atol=1e-7)
    assert np.array_equal(mesh.indices, f)


def test_mesh_rejects_degenerate_faces():
    with pytest.raises(ValueError):
        make_mesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])


def test_mesh_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        make_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 5]])


def test_mesh_transform_applied():
    mesh = make_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]],
                     world_from_object=Transform.translate([0, 0, 3]))
    assert np.allclose(mesh.vertices[0], [0, 0, 3])


# --------------------------------------------------------------------- BVH


def test_single_triangle_bvh_is_leaf():
    mesh = make_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    bvh = Bvh([mesh])
    assert len(bvh.node_lo) == 1
    assert np.array_equal(bvh.leaf_faces, [[0, -1, -1, -1]])


def median_split_leaves(bvh, ids, depth):
    """Reference build: the longest-axis median split, recursively, down
    to `depth`; returns the leaves' face lists left to right."""
    if depth == 0:
        return [list(ids)]
    extent = bvh.face_hi[ids].max(axis=0) - bvh.face_lo[ids].min(axis=0)
    axis = int(np.argmax(extent))
    center = 0.5 * (bvh.face_lo[ids, axis] + bvh.face_hi[ids, axis])
    part = ids[np.argsort(center, kind="stable")]
    mid = len(ids) // 2
    return (median_split_leaves(bvh, part[:mid], depth - 1)
            + median_split_leaves(bvh, part[mid:], depth - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tris=st.integers(1, 300))
def test_bvh_is_a_complete_median_split_heap(seed, n_tris):
    rng = np.random.default_rng(seed)
    bvh = Bvh([soup_mesh(rng, n_tris=n_tris, spread=2.0)])
    faces, leaves = bvh.leaf_faces, len(bvh.leaf_faces)
    # 2^D leaves after 2^D - 1 inner nodes, so every leaf sits at depth D,
    # the smallest depth that leaves at most LEAF_SIZE faces per leaf.
    depth = leaves.bit_length() - 1
    assert leaves == 1 << depth and len(bvh.node_lo) == 2 * leaves - 1
    assert n_tris <= Bvh.LEAF_SIZE * leaves
    assert depth == 0 or n_tris > Bvh.LEAF_SIZE * leaves // 2
    assert np.array_equal(np.sort(faces[faces >= 0]), np.arange(n_tris))
    assert [list(row[row >= 0]) for row in faces] == median_split_leaves(
        bvh, np.arange(n_tris), depth)
    # Leaf boxes strictly contain their faces' boxes (the padding), and
    # every inner box contains its children's.
    real = (faces >= 0)[:, :, None]
    leaf_lo, leaf_hi = bvh.node_lo[leaves - 1:, None], bvh.node_hi[leaves - 1:, None]
    assert np.all((leaf_lo < bvh.face_lo[faces]) | ~real)
    assert np.all((leaf_hi > bvh.face_hi[faces]) | ~real)
    k = np.arange(leaves - 1)
    for child in (2 * k + 1, 2 * k + 2):
        assert np.all(bvh.node_lo[k] <= bvh.node_lo[child])
        assert np.all(bvh.node_hi[k] >= bvh.node_hi[child])


def test_empty_scene_misses():
    t, face = Bvh([]).intersect_batch(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
    assert face[0] == -1 and t[0] == np.inf


def test_bvh_equals_brute_force_on_soup(rng):
    mesh = soup_mesh(rng, n_tris=1000)
    bvh = Bvh([mesh])
    n = 10_000
    o = rng.uniform(-6, 6, (n, 3))
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    t_b, f_b = bvh.intersect_batch(o, d)
    t_r, f_r = bvh.brute_force_batch(o, d)
    assert np.array_equal(f_b, f_r)
    assert np.array_equal(t_b, t_r)
    assert (f_b >= 0).sum() > 100


def test_bvh_scalar_matches_batch(rng):
    mesh = soup_mesh(rng, n_tris=200)
    bvh = Bvh([mesh])
    for _ in range(50):
        o = rng.uniform(-6, 6, (1, 3))
        d = rng.normal(size=(1, 3))
        d /= np.linalg.norm(d)
        t_b, f_b = bvh.intersect_batch(o, d)
        t, f = bvh.brute_force_batch(o, d)
        assert f_b[0] == f[0]
        if f[0] >= 0:
            assert t_b[0] == pytest.approx(t[0], abs=1e-9)


def any_hit_rays(rng, bvh, n):
    """Rays that probe the slab test's edge cases: zero direction
    components, origins on the planes of the node boxes, finite and open
    segments."""
    o = rng.uniform(-6, 6, (n, 3))
    d = rng.normal(size=(n, 3))
    d[rng.random((n, 3)) < 0.2] = 0.0
    on_plane = rng.random((n, 3)) < 0.2
    planes = np.concatenate([bvh.node_lo, bvh.node_hi])
    o[on_plane] = planes[rng.integers(len(planes), size=(n, 3)), np.arange(3)][on_plane]
    t_min = np.where(rng.random(n) < 0.5, 0.0, 1e-4)
    t_max = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.0, 8.0, n))
    return o, d, t_min, t_max


# Face counts for the walk's oracles: up to 45 faces (tree depth up to 4,
# where the walk takes one step) and up to about 600 (depth 5 to 8, where
# it takes two or three).
walk_sizes = st.one_of(st.integers(1, 45), st.integers(46, 600))
# Face counts for the sweep's and the kernel's oracles: soups of up to 128
# faces and grids of side 1 to 9, up to 162 faces.
sweep_sizes = st.integers(1, 128)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["soup", "grid", "bumpy"]),
       size=walk_sizes, chunk=st.sampled_from([1, 5, 64, surface.CHUNK_PAIRS]))
def test_any_hit_equals_brute_force(seed, layout, size, chunk):
    bvh, (o, d, t_min, t_max) = oracle_case(np.random.default_rng(seed), layout, size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "CHUNK_PAIRS", chunk)
        blocked = bvh.any_hit_batch(o, d, t_min, t_max)
    assert np.array_equal(blocked, bvh.brute_force_batch(o, d, t_min, t_max)[1] >= 0)


def grid_mesh(rng, size, bumpy):
    """k x k unit quads of two triangles each, k = 1 + isqrt(size // 2), so
    about size faces, neighbouring faces sharing edges. Flat and
    axis-aligned, or with random heights and a random rotation."""
    k = 1 + math.isqrt(size // 2)
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    z = rng.uniform(-0.3, 0.3, i.shape) if bumpy else np.zeros(i.shape)
    verts = np.stack([i, j, z], axis=-1).reshape(-1, 3).astype(float)
    v = (i * (k + 1) + j)[:-1, :-1].ravel()
    faces = np.concatenate([np.stack([v, v + k + 1, v + k + 2], axis=1),
                            np.stack([v, v + k + 2, v + 1], axis=1)])
    pose = rotation(rng.normal(size=3), rng.uniform(0.0, 6.0)) if bumpy else None
    return make_mesh(verts, faces, world_from_object=pose)


def shared_edge_rays(rng, mesh, n):
    """Tilted rays through vertices, edge midpoints and the corners of the
    region Moller-Trumbore accepts, where faces tie or nearly tie and the
    rays graze the edges and corners of boxes; a fifth of the direction
    components are zero."""
    tri = mesh.triangle_vertices()
    face, corner = rng.integers(len(tri), size=n), rng.integers(3, size=n)
    a, b = tri[face, corner], tri[face, (corner + 1) % 3]
    # Barycentric (u, v) just inside the 1e-7 slack at a corner: up to
    # 3e-7 edges outside the face's box.
    s = 0.99e-7
    uv = np.array([[-s, -s], [1 + 2 * s, -s], [-s, 1 + 2 * s]])[corner]
    slack = (tri[face, 0] + uv[:, :1] * (tri[face, 1] - tri[face, 0])
             + uv[:, 1:] * (tri[face, 2] - tri[face, 0]))
    pick = rng.integers(3, size=n)[:, None]
    target = np.where(pick == 0, a, np.where(pick == 1, slack, 0.5 * (a + b)))
    d = rng.normal(size=(n, 3))
    d[rng.random((n, 3)) < 0.2] = 0.0
    t_min = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    t_max = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.0, 4.0, n))
    return target - 2.0 * d, d, t_min, t_max


def oracle_case(rng, layout, size):
    """A BVH and 200 rays for the brute-force oracles: a triangle soup
    probed at its box planes, or a flat or bumpy grid probed through
    vertices and edges."""
    if layout == "soup":
        bvh = Bvh([soup_mesh(rng, n_tris=size, spread=2.0)])
        o, d, t_min, t_max = any_hit_rays(rng, bvh, 200)
        t_min = np.where(rng.random(200) < 0.3, rng.uniform(0.0, 4.0, 200), t_min)
        return bvh, (o, d, t_min, t_max)
    mesh = grid_mesh(rng, size, layout == "bumpy")
    return Bvh([mesh]), shared_edge_rays(rng, mesh, 200)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["soup", "grid", "bumpy"]),
       size=walk_sizes, chunk=st.sampled_from([1, 7, surface.CHUNK_PAIRS]))
def test_nearest_hit_equals_brute_force(seed, layout, size, chunk):
    bvh, (o, d, t_min, t_max) = oracle_case(np.random.default_rng(seed), layout, size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Bvh, "BRUTE_FORCE_FACES", 0)
        mp.setattr(surface, "CHUNK_PAIRS", chunk)
        t, face = bvh.intersect_batch(o, d, t_min, t_max)
    t_ref, face_ref = bvh.brute_force_batch(o, d, t_min, t_max)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(face, face_ref)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), motion=st.sampled_from(["rigid", "cloth"]),
       size=walk_sizes)
def test_refit_bvh_equals_brute_force_and_a_new_build(seed, motion, size):
    # A triangle soup moved rigidly, or a bumpy grid whose vertices each
    # move on their own as a cloth's do, three times over: the refit tree
    # keeps its leaves, reads what a new build reads, and its nearest hits
    # and any-hits are bitwise those of brute force and of a new build.
    rng = np.random.default_rng(seed)
    mesh = (soup_mesh(rng, n_tris=size, spread=2.0) if motion == "rigid"
            else grid_mesh(rng, size, True))
    bvh = Bvh([mesh])
    leaves = bvh.leaf_faces.copy()
    for _ in range(3):
        if motion == "rigid":
            pose = Transform.translate(rng.uniform(-1.0, 1.0, 3)).compose(
                rotation(rng.normal(size=3), rng.uniform(0.0, 6.0)))
            mesh.vertices = pose.point(mesh.vertices)
        else:
            mesh.vertices = mesh.vertices + rng.normal(scale=0.15, size=mesh.vertices.shape)
        mesh.recompute_normals()
        bvh.refit()
        new = Bvh([mesh])
        assert np.array_equal(bvh.leaf_faces, leaves)
        for name in ("tri", "planes", "face_normal", "face_emission", "face_lo", "face_hi"):
            assert getattr(bvh, name).tobytes() == getattr(new, name).tobytes()
        rays = [np.concatenate(parts) for parts in zip(shared_edge_rays(rng, mesh, 100),
                                                       any_hit_rays(rng, bvh, 100))]
        t_ref, f_ref = bvh.brute_force_batch(*rays)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Bvh, "BRUTE_FORCE_FACES", 0)
            for tree in (bvh, new):
                t, face = tree.intersect_batch(*rays)
                assert t.tobytes() == t_ref.tobytes() and np.array_equal(face, f_ref)
                assert np.array_equal(tree.any_hit_batch(*rays), f_ref >= 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["soup", "grid", "bumpy"]),
       size=sweep_sizes, chunk=st.sampled_from([1, 7, 1 << 15]))
def test_brute_force_sweep_is_independent_of_its_chunks(seed, layout, size, chunk):
    # Each ray's row of the dense sweep is its own, so any pair cap gives
    # the bits of one chunk holding every (ray, face) pair.
    bvh, (o, d, t_min, t_max) = oracle_case(np.random.default_rng(seed), layout, size)
    kernel, calls = surface._moller_trumbore, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_moller_trumbore", lambda *args: calls.append(0) or kernel(*args))
        mp.setattr(surface, "CHUNK_PAIRS", len(o) * bvh.n_faces)
        t_ref, face_ref = bvh.brute_force_batch(o, d, t_min, t_max)
        mp.setattr(surface, "CHUNK_PAIRS", chunk)
        t, face = bvh.brute_force_batch(o, d, t_min, t_max)
    # The patched cap is the one the sweep reads: it sets the chunk count.
    assert len(calls) == 1 + -(-len(o) // max(1, chunk // bvh.n_faces))
    assert t.tobytes() == t_ref.tobytes()
    assert np.array_equal(face, face_ref)


def reference_moller_trumbore(o, d, a, e1, e2, t_min, t_max):
    """The kernel as it was over (..., 3) arrays, one fresh temporary per
    operation: the bitwise reference for `surface._moller_trumbore`."""
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    e1x, e1y, e1z = e1[..., 0], e1[..., 1], e1[..., 2]
    e2x, e2y, e2z = e2[..., 0], e2[..., 1], e2[..., 2]
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.where(np.abs(det) > 1e-12, det, 1.0)
    tx = o[..., 0] - a[..., 0]
    ty = o[..., 1] - a[..., 1]
    tz = o[..., 2] - a[..., 2]
    u = (tx * px + ty * py + tz * pz) * inv
    qx = ty * e1z - tz * e1y
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv
    t = (e2x * qx + e2y * qy + e2z * qz) * inv
    ok = ((np.abs(det) > 1e-12) & (u >= -1e-7) & (v >= -1e-7) & (u + v <= 1.0 + 1e-7)
          & (t > t_min) & (t <= t_max))
    return np.where(ok, t, np.inf)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["soup", "grid", "bumpy"]),
       size=sweep_sizes, chunk=st.sampled_from([1, 7, 1 << 15]))
def test_moller_trumbore_is_the_reference_bitwise(seed, layout, size, chunk):
    # Both call shapes, face-major (F, 1) planes against (R,) rays and flat
    # (ray, face) pairs, give the reference's distances bit for bit, and so
    # do the nearest hits of the sweep and of the traversal at any cap.
    rng = np.random.default_rng(seed)
    bvh, (o, d, t_min, t_max) = oracle_case(rng, layout, size)
    tri = bvh.tri
    ref = reference_moller_trumbore(o[:, None], d[:, None], tri[:, 0], tri[:, 1] - tri[:, 0],
                                    tri[:, 2] - tri[:, 0], t_min[:, None], t_max[:, None])
    oc, dc = o.T.copy(), d.T.copy()
    dense = surface._moller_trumbore(oc, dc, bvh.planes[:, :, None], t_min, t_max)
    assert np.array_equal(dense.T.view(np.uint64), ref.view(np.uint64))
    ray, face = rng.integers(len(o), size=500), rng.integers(bvh.n_faces, size=500)
    flat = surface._moller_trumbore(oc[:, ray], dc[:, ray], bvh.planes[:, face],
                                    t_min[ray], t_max[ray])
    assert np.array_equal(flat.view(np.uint64), ref[ray, face].view(np.uint64))

    k = np.argmin(ref, axis=1)  # first minimum = smallest face id
    t_ref = ref[np.arange(len(o)), k]
    face_ref = np.where(np.isfinite(t_ref), k, -1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "CHUNK_PAIRS", chunk)
        swept = bvh.brute_force_batch(o, d, t_min, t_max)
        mp.setattr(Bvh, "BRUTE_FORCE_FACES", 0)
        walked = bvh.intersect_batch(o, d, t_min, t_max)
    for t, f in (swept, walked):
        assert np.array_equal(t.view(np.uint64), t_ref.view(np.uint64))
        assert np.array_equal(f, face_ref)


def test_nearest_hit_ties_break_toward_smaller_face(monkeypatch):
    # Rays along -z through the midpoint of every edge two faces share hit
    # both faces at exactly t = 1; the smaller face id must win.
    mesh = grid_mesh(np.random.default_rng(0), 50, bumpy=False)
    edges = {}
    for f, tri in enumerate(mesh.indices):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.setdefault((min(a, b), max(a, b)), []).append(f)
    shared = {e: fs for e, fs in edges.items() if len(fs) == 2}
    mid = np.array([0.5 * (mesh.vertices[a] + mesh.vertices[b]) for a, b in shared])
    o = mid + [0.0, 0.0, 1.0]
    d = np.tile([0.0, 0.0, -1.0], (len(o), 1))
    monkeypatch.setattr(Bvh, "BRUTE_FORCE_FACES", 0)
    t, face = Bvh([mesh]).intersect_batch(o, d)
    assert np.all(t == 1.0)
    assert np.array_equal(face, [min(fs) for fs in shared.values()])


def test_any_hit_leaf_table_pads_short_leaves(rng):
    bvh = Bvh([soup_mesh(rng, n_tris=10)])
    faces = bvh.leaf_faces
    assert faces.shape[1] == Bvh.LEAF_SIZE and np.any(faces < 0)
    assert np.array_equal(np.sort(faces[faces >= 0]), np.arange(10))


def test_any_hit_soup_blocks_some_rays(rng):
    bvh = Bvh([soup_mesh(rng, n_tris=300)])
    o, d, t_min, t_max = any_hit_rays(rng, bvh, 5000)
    blocked = bvh.any_hit_batch(o, d, t_min, t_max)
    assert 0 < blocked.sum() < len(blocked)
    assert np.array_equal(blocked, bvh.brute_force_batch(o, d, t_min, t_max)[1] >= 0)


def test_any_hit_empty_bvh():
    blocked = Bvh([]).any_hit_batch(np.zeros((3, 3)), np.eye(3), 0.0, np.inf)
    assert blocked.shape == (3,) and not blocked.any()


def test_intersect_sphere_distance():
    v, f = assets.icosphere(1.0, 3)
    bvh = Bvh([make_mesh(v, f)])
    t, face = bvh.intersect_batch(np.array([[0.0, 0.0, -5.0]]), np.array([[0.0, 0.0, 1.0]]))
    assert face[0] >= 0
    # analytic first hit at t = 4; tessellation chord error below 1%
    assert abs(t[0] - 4.0) / 4.0 < 0.01


def test_ray_parallel_to_plane_misses():
    v, f = assets.quad((-1, -1, 0), (2, 0, 0), (0, 2, 0))
    bvh = Bvh([make_mesh(v, f)])
    _, face = bvh.intersect_batch(np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]))
    assert face[0] == -1


def test_inside_closed_box_normals_oppose_ray(rng):
    # Every ray from inside the outward-facing box hits a face from behind,
    # so the bounce loop shades with the flipped normal, which opposes it.
    v, f = assets.box((-1, -1, -1), (1, 1, 1))
    bvh = Bvh([make_mesh(v, f)])
    for _ in range(50):
        d = rng.normal(size=(1, 3))
        d /= np.linalg.norm(d)
        _, face = bvh.intersect_batch(np.zeros((1, 3)), d)
        assert face[0] >= 0
        assert float(np.dot(bvh.face_normal[face[0]], d[0])) > 0.0


# ------------------------------------------------------------------- BSDFs


def one_face_bvh(bsdf):
    v, f = assets.quad((-1, -1, 0), (2, 0, 0), (0, 2, 0))
    return Bvh([make_mesh(v, f[:1], bsdf)])


def sample_groups(bvh, wo, seed, front=True, normal=(0.0, 0.0, 1.0)):
    """The bounce loop's BSDF step for one hit on face 0 of pixel 0,
    sample 0, bounce 0: returns the (1,3) direction and weight arrays."""
    faces = np.array([0])
    d = _sample_bsdf_groups(bvh, faces, np.asarray(wo, float).reshape(1, 3),
                            np.array([normal]), np.array([front]),
                            hrng.hash_keys(seed, np.array([0]), np.array([0])), 0)
    return d, bvh.face_weight[faces]


def test_lambertian_weight_is_albedo():
    d, w = sample_groups(one_face_bvh(Lambertian(np.array([0.5, 0.5, 0.5]))), [0, 0, 1.0], 1)
    assert np.array_equal(w[0], [0.5, 0.5, 0.5])
    assert d[0, 2] > 0.0  # upper hemisphere


def test_mirror_reflection_law():
    wo = np.array([math.sin(math.radians(30)), 0.0, math.cos(math.radians(30))])
    d, w = sample_groups(one_face_bvh(Mirror(np.array([0.9, 0.9, 0.9]))), wo, 1)
    expect = np.array([-wo[0], 0.0, wo[2]])
    assert np.allclose(d[0], expect, atol=1e-12)
    assert np.array_equal(w[0], [0.9, 0.9, 0.9])


def test_dielectric_snell_angle():
    # entering ior 1.5 at 45 degrees: refracted angle asin(sin45/1.5)
    inc = math.radians(45.0)
    wo = np.array([math.sin(inc), 0.0, math.cos(inc)])
    bvh = one_face_bvh(Dielectric(1.5))
    expect = math.degrees(math.asin(math.sin(inc) / 1.5))
    got = None
    for seed in range(64):
        d, _ = sample_groups(bvh, wo, seed)
        if d[0, 2] < 0.0:  # refracted into the surface
            got = math.degrees(math.acos(-d[0, 2]))
            break
    assert got is not None, "refraction branch never sampled"
    assert got == pytest.approx(28.1255, abs=1e-4)
    assert abs(expect - 28.1255) < 1e-3


def test_dielectric_total_internal_reflection():
    # exiting (back face) at 60 degrees, past the 41.8-degree critical angle
    crit = math.degrees(math.asin(1.0 / 1.5))
    assert crit < 60.0
    inc = math.radians(60.0)
    wo = np.array([math.sin(inc), 0.0, math.cos(inc)])
    bvh = one_face_bvh(Dielectric(1.5))
    for seed in range(40):
        d, _ = sample_groups(bvh, wo, seed, front=False)
        assert d[0, 2] > 0.0  # always reflected back


def test_schlick_normal_incidence():
    assert schlick_r0(1.5) == pytest.approx(0.04, abs=1e-6)


def test_bsdf_weights_never_exceed_one(rng):
    # energy conservation fuzz across variants and directions
    bvhs = [one_face_bvh(b) for b in (
        Lambertian(rng.uniform(0, 1, 3)), Mirror(rng.uniform(0, 1, 3)),
        Dielectric(rng.uniform(1.05, 2.5), rng.uniform(0, 1, 3)))]
    for k in range(300):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        if d[2] < 0:
            d = -d
        d_in, w = sample_groups(bvhs[k % 3], d, k, front=bool(k % 2))
        assert np.all(w <= 1.0 + 1e-12)
        assert np.all(w >= 0.0)
        assert abs(np.linalg.norm(d_in) - 1.0) < 1e-9


def test_cosine_sampling_distribution_chi2():
    # dot(dir, normal)^2 should be uniform for a cosine-weighted density
    # (pdf over theta is 2 sin(theta) cos(theta)). Chi-square against 64
    # equal-probability bins; critical value chi2(0.99, 63) = 92.01.
    n = 1_000_000
    u1 = hrng.uniform(11, np.arange(n), 0, 0, hrng.BSDF_U, 0)
    u2 = hrng.uniform(11, np.arange(n), 0, 0, hrng.BSDF_V, 0)
    normal = np.zeros((n, 3))
    normal[:, 2] = 1.0
    dirs = cosine_sample_batch(normal, u1, u2)
    cos = dirs[:, 2]
    assert np.all(cos > 0.0)
    bins = np.floor(np.clip(cos * cos, 0, 1 - 1e-12) * 64).astype(int)
    counts = np.bincount(bins, minlength=64)
    expected = n / 64.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 92.01


# ---------------------------------------------------------------- emission


def emission_radiance(from_front, **mesh_kw):
    """Radiance of one path that hits a black quad in z = 0 (front side +z)
    and traces no further bounce."""
    v, f = assets.quad((-1, -1, 0), (2, 0, 0), (0, 2, 0))
    mesh = make_mesh(v, f, Lambertian(np.zeros(3)), **mesh_kw)
    scene = SimpleNamespace(bvh=Bvh([mesh]), field=None, render=RenderConfig(),
                            spawn_eps=1e-6)
    z = 1.0 if from_front else -1.0
    L = trace_paths(scene, np.array([[0.1, 0.2, z]]), np.array([[0.0, 0.0, -z]]),
                     np.array([0]), np.array([0]), 1, 1)
    return L[0]


def test_emission_defaults_to_black():
    assert np.array_equal(emission_radiance(from_front=True), np.zeros(3))


def test_emission_front_side_returns_value():
    assert np.array_equal(emission_radiance(emission=np.array([2.0, 2.0, 2.0]), from_front=True),
                          [2.0, 2.0, 2.0])


def test_emission_back_side_is_black():
    assert np.array_equal(emission_radiance(emission=np.array([2.0, 2.0, 2.0]), from_front=False),
                          np.zeros(3))


def test_bsdf_parameter_validation():
    with pytest.raises(ValueError):
        Lambertian(np.array([1.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Mirror(np.array([-0.1, 0.5, 0.5]))
    with pytest.raises(ValueError):
        Dielectric(0.0)
