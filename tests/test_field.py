import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridrt import field as field_mod
from hybridrt.core import Transform
from hybridrt.field import (
    RadianceGrid,
    SdfGrid,
    bake_sdf_from_mesh,
    oriented_edge_ids,
    grid_points,
    load_rfgrid,
    march_arrays,
    mesh_edges,
    save_rfgrid,
    sdf_from_density,
)
from hybridrt import assets, surface

from conftest import analytic_sdf, rotation


def unit_sphere_sdf(res=(65, 65, 65)):
    """|p| - 1 on [-1.5, 1.5]^3. Odd node counts put a node exactly on the
    center cusp, where trilinear interpolation of |p| - 1 is at its worst
    otherwise."""
    return analytic_sdf(lambda p: np.linalg.norm(p, axis=1) - 1.0, (-1.5,) * 3, (1.5,) * 3, res)


def unit_grid(sigma=2.0, radiance=(1.0, 0.0, 0.0)):
    return RadianceGrid.constant((0, 0, 0), (1, 1, 1), sigma, radiance)


# The +z ray through the middle of the unit box, as a batch of one.
Z_O = np.array([[0.5, 0.5, -1.0]])
Z_D = np.array([[0.0, 0.0, 1.0]])


# ---------------------------------------------------------------- sampling


def test_sample_outside_bbox_is_vacuum():
    g = unit_grid()
    s, r = g.sample_batch(np.array([[2.0, 2.0, 2.0]]))
    assert s[0] == 0.0 and np.array_equal(r[0], np.zeros(3))


def test_sample_constant_grid_interior():
    g = unit_grid(sigma=2.0, radiance=(1.0, 0.0, 0.0))
    s, r = g.sample_batch(np.array([[0.3, 0.7, 0.5]]))
    assert s[0] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(r[0], [1.0, 0.0, 0.0])


def test_sample_linear_profile_midpoint_mean():
    # sigma linear in x between nodes: midpoint query returns the mean.
    sig = np.zeros((3, 2, 2))
    sig[0] = 1.0
    sig[1] = 3.0
    sig[2] = 5.0
    rad = np.zeros((3, 2, 2, 3))
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, rad)
    # node x-positions are 0, 0.5, 1; midpoint of first two nodes is 0.25
    s, _ = g.sample_batch(np.array([[0.25, 0.5, 0.5]]))
    assert s[0] == pytest.approx((1.0 + 3.0) / 2.0, abs=1e-12)


def test_sample_respects_world_transform():
    g = unit_grid()
    g.world_from_field = Transform.translate([5.0, 0.0, 0.0])
    s, _ = g.sample_batch(np.array([[5.5, 0.5, 0.5], [0.5, 0.5, 0.5]]))
    assert s[0] == pytest.approx(2.0) and s[1] == 0.0


def test_field_rotation_invariance(rng):
    # Rotating the placement and rotating the query gives the original
    # sample up to interpolation error (exact here: rigid motion of points).
    pts = rng.uniform(0.05, 0.95, (50, 3))
    sig = rng.uniform(0.5, 2.0, (8, 8, 8))
    rad = rng.uniform(0.0, 1.0, (8, 8, 8, 3))
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, rad)
    s0, r0 = g.sample_batch(pts)
    rot = rotation([0.3, 1.0, -0.2], 1.1)
    g.world_from_field = rot
    s1, r1 = g.sample_batch(rot.point(pts))
    assert np.allclose(s1, s0, rtol=0.0, atol=1e-9)
    assert np.allclose(r1, r0, atol=1e-9)


def _trilinear_8_gathers(values, lo, res, p, scale):
    """Reference: the 8-gather kernel that one-gather _trilinear replaced,
    on grid-shaped values (nx,ny,nz) or (nx,ny,nz,C); returns (N,) or (N,C)."""
    g = (p - lo) * scale
    nx, ny, nz = res
    hi_idx = np.maximum(np.array(res, dtype=np.float64) - 1.0, 0.0)
    gc = np.clip(g, 0.0, np.maximum(hi_idx - 1e-9, 0.0))
    i0 = np.floor(gc).astype(np.int64)
    f = gc - i0
    i1 = np.minimum(i0 + 1, [nx - 1, ny - 1, nz - 1])

    flat = values.reshape(nx * ny * nz, -1)
    stride_x, stride_y = ny * nz, nz
    base = i0[:, 0] * stride_x + i0[:, 1] * stride_y + i0[:, 2]
    dx = (i1[:, 0] - i0[:, 0]) * stride_x
    dy = (i1[:, 1] - i0[:, 1]) * stride_y
    dz = i1[:, 2] - i0[:, 2]

    fx, fy, fz = f[:, 0:1], f[:, 1:2], f[:, 2:3]
    c000 = flat[base]
    c100 = flat[base + dx]
    c010 = flat[base + dy]
    c110 = flat[base + dx + dy]
    c001 = flat[base + dz]
    c101 = flat[base + dx + dz]
    c011 = flat[base + dy + dz]
    c111 = flat[base + dx + dy + dz]

    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz
    return out if values.ndim == 4 else out[:, 0]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       res=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
       channels=st.sampled_from([1, 3, 4]))
def test_trilinear_matches_8_gather_reference_bitwise(seed, res, channels):
    # Points inside, outside (clamped) and exactly on the box's faces and
    # upper corner; axes with a single node reduce to that node.
    rng = np.random.default_rng(seed)
    lo, hi = np.array([-1.0, 0.0, 0.5]), np.array([1.0, 0.25, 3.0])
    values = rng.uniform(-2.0, 2.0, res + ((channels,) if channels > 1 else ()))
    values[rng.random(res) < 0.2] = 0.0
    p = rng.uniform(lo - 0.5, hi + 0.5, (300, 3))
    p[:20] = hi
    p[20:40] = np.where(rng.random((20, 3)) < 0.5, lo, hi)
    ax = rng.integers(3)
    p[40:60, ax] = hi[ax]
    scale = field_mod._grid_scale(lo, hi, res)
    want = _trilinear_8_gathers(values, lo, res, p, scale)
    got = field_mod._trilinear(values.reshape(-1, channels), res, lo, scale, p)
    got = got[:, 0] if channels == 1 else got
    assert want.shape == got.shape
    assert np.array_equal(want.view(np.uint64), np.ascontiguousarray(got).view(np.uint64))


@pytest.mark.parametrize("const", ["sigma", "radiance"])
def test_sample_keeps_homogeneous_part_exact(rng, const):
    # One packed lookup serves both parts; the constant one stays exact.
    sig = rng.uniform(0.5, 2.0, (4, 3, 5))
    rad = rng.uniform(0.0, 1.0, (4, 3, 5, 3))
    if const == "sigma":
        sig[:] = 0.7
    else:
        rad[:] = (0.1, 0.2, 0.3)
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, rad)
    p = rng.uniform(-0.2, 1.2, (400, 3))
    inside = np.all((p >= 0.0) & (p <= 1.0), axis=1)
    sigma, radiance = g.sample_batch(p)
    scale = field_mod._grid_scale(g.bbox_lo, g.bbox_hi, g.res)
    want_s = np.where(inside, _trilinear_8_gathers(sig, g.bbox_lo, g.res, p, scale), 0.0)
    want_r = np.where(inside[:, None], _trilinear_8_gathers(rad, g.bbox_lo, g.res, p, scale), 0.0)
    if const == "sigma":
        want_s = np.where(inside, 0.7, 0.0)
    else:
        want_r = np.where(inside[:, None], [0.1, 0.2, 0.3], 0.0)
    assert np.array_equal(sigma, want_s) and np.array_equal(radiance, want_r)


@pytest.mark.parametrize("const", [False, True], ids=["trilinear", "constant"])
def test_sample_all_inside_equals_masked_sample_bitwise(rng, const):
    # A batch wholly inside the box skips the vacuum mask, and a constant
    # grid broadcasts its one row. Each point keeps the bits it has in a
    # batch that also holds outside points, which takes the mask: points
    # strictly inside, on each of the six faces, and one ulp outside them.
    lo, hi = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0])
    if const:
        g = RadianceGrid.constant(lo, hi, 1.3, (0.2, 0.4, 0.6), res=(3, 4, 5))
    else:
        g = RadianceGrid(lo, hi, rng.uniform(0.1, 2.0, (5, 4, 6)),
                         rng.uniform(0.0, 1.0, (5, 4, 6, 3)))
    k = np.arange(60)
    ax, upper = k % 3, (k // 3) % 2 == 1
    on_face = rng.uniform(lo, hi, (60, 3))
    on_face[k, ax] = np.where(upper, hi[ax], lo[ax])
    outside = on_face.copy()
    outside[k, ax] = np.nextafter(on_face[k, ax], np.where(upper, np.inf, -np.inf))
    pts = np.vstack([rng.uniform(lo, hi, (40, 3)), on_face])

    sigma, radiance = g.sample_batch(pts)
    s_mix, r_mix = g.sample_batch(np.vstack([pts, outside]))
    assert sigma.tobytes() == s_mix[:100].tobytes()
    assert np.ascontiguousarray(radiance).tobytes() == np.ascontiguousarray(r_mix[:100]).tobytes()
    assert sigma.min() > 0.0
    assert not s_mix[100:].any() and not r_mix[100:].any()
    s_out, r_out = g.sample_batch(outside)
    assert not s_out.any() and not r_out.any()
    if const:
        assert np.all(sigma == 1.3) and np.all(radiance == (0.2, 0.4, 0.6))


def test_radiance_grid_values_are_read_only(rng):
    # A render reuses marches through a grid, so its values may not change.
    g = RadianceGrid((0, 0, 0), (1, 1, 1), rng.uniform(0.0, 1.0, (3, 3, 3)),
                     rng.uniform(0.0, 1.0, (3, 3, 3, 3)))
    with pytest.raises(ValueError, match="read-only"):
        g.sigma[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        g.radiance[0, 0, 0] = (1.0, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       res=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
def test_sample_under_rigid_motion_matches_reference_bitwise(seed, res):
    # A rotated and translated field, as in field-hit after the impact.
    # The box is read off the field-frame images of the first four points,
    # so point 0 is exactly its upper corner and point 1 + ax lies exactly
    # on its lower face ax; points near the other faces, on the corners and
    # outside come from targets in a nominal unit box.
    rng = np.random.default_rng(seed)
    wff = Transform.from_quaternion(rng.normal(size=4), rng.uniform(-3.0, 3.0, 3))
    q = rng.uniform(-0.5, 1.5, (300, 3))
    q[0] = 1.0
    for ax in range(3):
        q[1 + ax] = rng.uniform(0.1, 0.9, 3)
        q[1 + ax, ax] = 0.0
    q[4:40] = np.where(rng.random((36, 3)) < 0.5, 0.0, 1.0)
    face = np.arange(40, 100) % 3
    q[40:100] = rng.uniform(0.0, 1.0, (60, 3))
    q[40:100][np.arange(60), face] = np.where(rng.random(60) < 0.5, 0.0, 1.0)
    p = wff.point(q)
    pf = wff.point(p, inverse=True)
    lo, hi = np.diag(pf[1:4]).copy(), pf[0].copy()
    sig = rng.uniform(0.0, 2.0, res)
    rad = rng.uniform(0.0, 1.0, res + (3,))
    g = RadianceGrid(lo, hi, sig, rad, world_from_field=wff)
    sigma, radiance = g.sample_batch(p)

    inside = np.all((pf >= lo) & (pf <= hi), axis=1)
    assert inside[:4].all() and not inside.all()
    scale = field_mod._grid_scale(lo, hi, res)
    want_s = np.where(inside, _trilinear_8_gathers(sig, lo, res, pf, scale), 0.0)
    want_r = np.where(inside[:, None], _trilinear_8_gathers(rad, lo, res, pf, scale), 0.0)
    assert np.array_equal(want_s.view(np.uint64), np.ascontiguousarray(sigma).view(np.uint64))
    assert np.array_equal(want_r.view(np.uint64), np.ascontiguousarray(radiance).view(np.uint64))


# ------------------------------------------------------------ transmittance
#
# The march carries transmittance in the channel throughput T_spec: a path
# that enters with T_spec = 1 leaves with exp(-int sigma) in every channel.


def test_transmittance_vacuum_is_one():
    g = unit_grid(sigma=0.0)
    L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
    march_arrays(g, Z_O, Z_D, np.array([0.0]), np.array([3.0]), 1e-2, L, T_spec)
    assert np.array_equal(T_spec, np.ones((1, 3)))


def test_transmittance_homogeneous_closed_form():
    g = unit_grid(sigma=1.0)
    L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), 1e-3, L, T_spec)
    assert np.allclose(T_spec, math.exp(-1.0), rtol=1e-2, atol=0.0)


def test_transmittance_multiplicative_split():
    g = RadianceGrid.constant((0, 0, 0), (2, 2, 2), 1.0, (1, 0, 0))
    # inside the medium for t in [1, 3]
    full, split = np.ones((1, 3)), np.ones((1, 3))
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([3.0]), 0.25, np.zeros((1, 3)), full)
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), 0.25, np.zeros((1, 3)), split)
    t_a = split.copy()
    march_arrays(g, Z_O, Z_D, np.array([2.0]), np.array([3.0]), 0.25, np.zeros((1, 3)), split)
    # substep boundaries align: 8 = 4 + 4 steps of width 0.25
    assert np.allclose(full, split, rtol=0.0, atol=1e-6)
    # homogeneous medium: length-2 equals the square of length-1
    assert np.allclose(full, t_a * t_a, rtol=0.0, atol=1e-12)


# ----------------------------------------------------------------- marching


def test_march_vacuum_keeps_state():
    g = unit_grid(sigma=0.0)
    T_spec0, L0 = np.array([[0.7, 0.5, 0.3]]), np.array([[0.1, 0.2, 0.3]])
    L, T_spec = L0.copy(), T_spec0.copy()
    march_arrays(g, Z_O, Z_D, np.array([0.5]), np.array([2.5]), 1e-2, L, T_spec)
    assert np.array_equal(T_spec, T_spec0)
    assert np.array_equal(L, L0)


@pytest.mark.parametrize("dt", [1e-300, 5e-324, 2.0 / 2**63])
def test_march_substep_count_beyond_int64_raises(dt):
    # Cast to int64, such a count once wrapped to INT64_MIN, and the march
    # took one substep per segment instead, with a warning.
    L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
    with pytest.raises(ValueError, match="more than int64 holds"):
        march_arrays(unit_grid(sigma=1.0), Z_O, Z_D, np.array([0.0]), np.array([2.0]), dt,
                     L, T_spec)
    assert not L.any() and (T_spec == 1.0).all()


def test_march_homogeneous_slab_closed_form():
    g = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 1.0, (1, 1, 1))
    L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), 1e-3, L, T_spec)
    expect = 1.0 - math.exp(-1.0)
    assert np.allclose(L, expect, rtol=1e-2)
    assert np.allclose(T_spec, math.exp(-1.0), rtol=1e-2, atol=0.0)


def test_march_zero_mask_kills_radiance_not_absorption():
    g = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 1.0, (1, 1, 1))
    L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), 1e-3, L, T_spec,
                 shadow_fn=lambda p, k, ids: np.zeros(len(p)))
    assert np.array_equal(L, np.zeros((1, 3)))
    assert np.allclose(T_spec, math.exp(-1.0), rtol=1e-2, atol=0.0)


def test_march_scalar_mask_scales_contribution_exactly():
    g = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 1.0, (1, 1, 1))
    full, masked = np.zeros((1, 3)), np.zeros((1, 3))
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), 1e-2, full, np.ones((1, 3)))
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), 1e-2, masked, np.ones((1, 3)),
                 shadow_fn=lambda p, k, ids: np.full(len(p), 0.3))
    assert np.allclose(masked, 0.3 * full, rtol=1e-12)


def test_march_final_t_matches_transmittance(rng):
    # Identity between the march throughput and the product over midpoint
    # substeps of exp(-sigma_i * delta_i), independent of radiance values.
    sig = rng.uniform(0.0, 3.0, (6, 6, 6))
    rad = rng.uniform(0.0, 5.0, (6, 6, 6, 3))
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, rad)
    n, delta = 120, 1.2 / 120  # ceil((1.4 - 0.2) / 0.01) substeps
    t_mid = 0.2 + (np.arange(n) + 0.5) * delta
    for _ in range(10):
        o = rng.uniform(-0.5, 0.0, 3)
        d = rng.uniform(0.2, 1.0, 3)
        d /= np.linalg.norm(d)
        L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
        march_arrays(g, o[None], d[None], np.array([0.2]), np.array([1.4]), 0.01, L, T_spec)
        sigma, _ = g.sample_batch(o + t_mid[:, None] * d)
        assert np.allclose(T_spec, np.prod(np.exp(-sigma * delta)), rtol=0.0, atol=1e-9)


def test_march_monotonicity(rng):
    sig = rng.uniform(0.0, 3.0, (6, 6, 6))
    rad = rng.uniform(0.0, 5.0, (6, 6, 6, 3))
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, rad)
    o = np.array([[-0.2, 0.1, 0.3]])
    d = np.array([[1.0, 0.3, 0.2]]) / np.linalg.norm([1.0, 0.3, 0.2])
    L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
    prev_t, prev_l = T_spec.copy(), L.copy()
    for k in range(8):
        march_arrays(g, o, d, np.array([0.2 * k]), np.array([0.2 * (k + 1)]), 0.02, L, T_spec)
        assert np.all(T_spec <= prev_t)
        assert np.all(L >= prev_l)
        prev_t, prev_l = T_spec.copy(), L.copy()


def test_march_step_refinement_converges(rng):
    # Shrinking the step reduces the quadrature error on a heterogeneous
    # medium (a diagonal ray, so sigma really varies within substeps; the
    # rule is exact on homogeneous slabs by construction).
    sig = rng.uniform(0.2, 3.0, (8, 8, 8))
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, np.ones((8, 8, 8, 3)))
    o = np.array([[-0.1, -0.05, -0.02]])
    d = np.array([[0.8, 0.55, 0.6]]) / np.linalg.norm([0.8, 0.55, 0.6])
    s0, s1 = np.array([0.1]), np.array([1.2])
    ref = np.zeros((1, 3))
    march_arrays(g, o, d, s0, s1, 1e-5, ref, np.ones((1, 3)))
    errs = []
    for dt in (0.2, 0.05, 0.0125):
        L = np.zeros((1, 3))
        march_arrays(g, o, d, s0, s1, dt, L, np.ones((1, 3)))
        errs.append(abs(L[0, 0] - ref[0, 0]))
    assert errs[0] > errs[1] > errs[2]


def test_march_result_reports_early_termination():
    # Optically thick: the throughput drops below a 1e-3 path threshold
    # within the segment, and nearly all of the radiance is picked up.
    g = RadianceGrid.constant((0, 0, 0), (1, 1, 1), 50.0, (1, 1, 1))
    L, T_spec = np.zeros((1, 3)), np.ones((1, 3))
    march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), 1e-2, L, T_spec)
    assert np.max(T_spec) < 1e-3
    assert 0.0 < T_spec[0, 0] < 1e-3
    assert L[0, 0] == pytest.approx(1.0, rel=1e-2)


def march_one_substep_at_a_time(grid, o, d, s0, s1, dt, L, T_spec, shadow_fn=None):
    """Reference march: one field sample and one shadow_fn call per substep."""
    seg = np.maximum(s1 - s0, 0.0)
    n = field_mod._substep_counts(seg, dt)
    all_idx = np.arange(len(n))
    for k in range(int(n.max()) if len(n) else 0):
        ids = all_idx[k < n]
        delta = seg[ids] / n[ids]
        t_mid = s0[ids] + (k + 0.5) * delta
        p = o[ids] + t_mid[:, None] * d[ids]
        sigma, rad = grid.sample_batch(p)
        a = 1.0 - np.exp(-sigma * delta)
        m = 1.0
        if shadow_fn is not None:
            need = (a > 0.0) & (rad.max(axis=1) > 0.0)
            if np.any(need):
                m = np.ones(len(a))
                m[need] = shadow_fn(p[need], np.full(need.sum(), k), ids[need])
        L[ids] += T_spec[ids] * (a * m)[:, None] * rad
        keep = 1.0 - a
        T_spec[ids] *= keep[:, None]


@pytest.mark.parametrize("block", [1, 7, 50, 4096])
def test_march_blocks_match_per_substep_march_bitwise(rng, monkeypatch, block):
    # Rotated heterogeneous grid with black and empty voxels, so the shadow
    # skip and the trilinear path both run; rays of very different lengths,
    # some empty, so blocks end in the middle of rays.
    sig = rng.uniform(0.0, 3.0, (7, 6, 5))
    sig[sig < 0.6] = 0.0
    rad = rng.uniform(0.0, 2.0, (7, 6, 5, 3))
    rad[rng.random((7, 6, 5)) < 0.2] = 0.0
    pose = Transform.translate([0.1, -0.2, 0.05]).compose(rotation([1, 2, 3], 0.4))
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, rad, world_from_field=pose)
    n = 40
    o = rng.uniform(-0.3, 0.3, (n, 3))
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    s0 = rng.uniform(0.0, 0.5, n)
    s1 = s0 + rng.uniform(-0.2, 1.5, n)
    s1[:3] = s0[:3]
    init = rng.uniform(0.1, 1.0, (n, 6))

    def run(march):
        calls = []

        def shadow_fn(p, k, ids):
            calls.extend(zip(map(bytes, p), k.tolist(), ids.tolist()))
            return ((k * 7 + ids * 3) % 5) / 4.0

        L, T_spec = init[:, :3].copy(), init[:, 3:].copy()
        march(g, o, d, s0, s1, 0.03, L, T_spec, shadow_fn)
        return L, T_spec, calls

    ref = run(march_one_substep_at_a_time)
    monkeypatch.setattr(field_mod, "MARCH_BLOCK_POINTS", block)
    got = run(march_arrays)
    for want, have in zip(ref[:2], got[:2]):
        assert np.array_equal(want, have)
    assert sorted(got[2]) == sorted(ref[2])
    assert len(ref[2]) > 100


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_march_bits_of_a_ray_do_not_depend_on_its_batch(seed, data):
    # What a render's march records rest on: a ray's marched (L, T) has the
    # same bits whichever rays share its march_arrays call, under a rotated
    # pose, down to a lone ray with one substep, whose one sample makes a
    # one-row field query.
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.0, 3.0, (6, 5, 7))
    rad = rng.uniform(0.0, 2.0, (6, 5, 7, 3))
    pose = Transform.from_quaternion(rng.normal(size=4), rng.uniform(-2.0, 2.0, 3))
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, rad, world_from_field=pose)
    n, dt = 30, 0.04
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    o = pose.point(rng.uniform(0.1, 0.9, (n, 3))) - 2.0 * d
    t0, s1 = g.ray_bounds(o, d)
    s0 = np.maximum(t0, 0.0)
    short = rng.random(n) < 0.4
    s1[short] = s0[short] + dt * rng.uniform(0.05, 0.95, short.sum())

    def march(idx):
        L, T = np.zeros((len(idx), 3)), np.ones((len(idx), 3))
        march_arrays(g, o[idx], d[idx], s0[idx], s1[idx], dt, L, T)
        return L, T

    L, T = march(np.arange(n))
    subset = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                         unique=True)))
    for idx in [subset] + [np.array([i]) for i in range(n)]:
        Ls, Ts = march(idx)
        assert L[idx].tobytes() == Ls.tobytes() and T[idx].tobytes() == Ts.tobytes(), idx


def test_march_rejects_bad_interval():
    # A reversed segment is empty and leaves the state alone; a step that
    # is not positive is an error.
    g = unit_grid()
    L, T_spec = np.full((1, 3), 0.1), np.full((1, 3), 0.5)
    march_arrays(g, Z_O, Z_D, np.array([2.0]), np.array([1.0]), 1e-2, L, T_spec)
    assert np.array_equal(L, np.full((1, 3), 0.1))
    assert np.array_equal(T_spec, np.full((1, 3), 0.5))
    for dt in (0.0, -1e-2):
        with pytest.raises(ValueError, match="march step"):
            march_arrays(g, Z_O, Z_D, np.array([1.0]), np.array([2.0]), dt, L, T_spec)


# -------------------------------------------------------------------- SDF


def test_sdf_analytic_sphere_query():
    sdf = unit_sphere_sdf()
    phi, n, ok = sdf.query_batch(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert ok[0]
    assert phi[0] == pytest.approx(1.0, rel=0.02)
    assert np.allclose(n[0], [1, 0, 0], atol=0.02)
    assert phi[1] == pytest.approx(-1.0, rel=0.02)


def test_sdf_plane_exact_on_aligned_grid():
    # phi = p.z is linear, so the grid reproduces it exactly.
    sdf = analytic_sdf(lambda p: p[:, 2], (-4, -4, -2), (4, 4, 2), (9, 9, 9))
    phi, n, ok = sdf.query_batch(np.array([[0.7, -1.3, -0.3]]))
    assert ok[0]
    assert phi[0] == pytest.approx(-0.3, abs=1e-12)
    assert np.allclose(n[0], [0, 0, 1], atol=1e-9)


def test_sdf_exterior_nonnegative(rng):
    sdf = unit_sphere_sdf(res=(32, 32, 32))
    pts = rng.uniform(2.0, 6.0, (50, 3)) * rng.choice([-1.0, 1.0], (50, 3))
    phi, _, _ = sdf.query_batch(pts)
    assert np.all(phi >= 0.0)


def test_sdf_eikonal_interior(rng):
    # |grad phi| close to 1 away from the boundary of the grid.
    sdf = unit_sphere_sdf(res=(48, 48, 48))
    pts = rng.uniform(-1.0, 1.0, (200, 3))
    h = sdf.cell_size()
    grad = np.empty((len(pts), 3))
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h[ax]
        grad[:, ax] = (sdf.phi_batch(pts + e) - sdf.phi_batch(pts - e)) / (2 * h[ax])
    norms = np.linalg.norm(grad, axis=1)
    keep = np.linalg.norm(pts, axis=1) > 0.2  # skip the center singularity
    assert np.all(np.abs(norms[keep] - 1.0) < 0.2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       res=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
       n=st.integers(1, 300))
def test_phi_batch_equals_query_phi_bitwise(seed, res, n):
    # Queried inside, outside, on the box's faces and at points a few ulps
    # off them: the gate lookup gives query's phi bits.
    rng = np.random.default_rng(seed)
    lo, hi = np.array([-0.5, 0.0, 0.25]), np.array([0.5, 0.75, 1.0])
    sdf = SdfGrid(lo, hi, rng.uniform(-1.0, 1.0, res))
    q = rng.uniform(lo - 0.3, hi + 0.3, (n, 3))
    face = rng.random(n) < 0.4
    ax = rng.integers(3, size=n)
    q[face, ax[face]] = np.where(rng.random(n) < 0.5, lo[ax], hi[ax])[face]
    ulps = rng.integers(-3, 4, (n, 3))
    q = q + ulps * np.spacing(q)
    assert sdf.phi_batch(q).tobytes() == sdf.query_batch(q)[0].tobytes()


def test_sdf_degenerate_gradient_flagged():
    sdf = SdfGrid((0, 0, 0), (1, 1, 1), np.full((3, 3, 3), 0.5))
    _, _, ok = sdf.query_batch(np.array([[0.5, 0.5, 0.5]]))
    assert not ok[0]


# ------------------------------------------------------------------- baking


def test_bake_unit_cube_center_and_outside():
    v, f = assets.box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    sdf = bake_sdf_from_mesh(v, f, (-1, -1, -1), (1, 1, 1), (33, 33, 33))
    voxel_diag = float(np.linalg.norm(sdf.cell_size()))
    phi, _, _ = sdf.query_batch(np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]]))
    assert abs(phi[0] - (-0.5)) < voxel_diag
    assert abs(phi[1] - 0.4) < voxel_diag


def test_bake_icosphere_matches_analytic(icosphere_sdf64, rng):
    # 5% of the unit radius covers both the grid error and the icosphere's
    # own tessellation sag below the analytic sphere.
    sdf, _, _ = icosphere_sdf64
    pts = rng.uniform(-1.3, 1.3, (300, 3))
    phi, _, _ = sdf.query_batch(pts)
    truth = np.linalg.norm(pts, axis=1) - 1.0
    assert np.max(np.abs(phi - truth)) < 0.05


def test_bake_open_mesh_raises():
    v, f = assets.quad((-1, -1, 0), (2, 0, 0), (0, 2, 0))
    assert oriented_edge_ids(f) is None
    with pytest.raises(ValueError, match="not closed"):
        bake_sdf_from_mesh(v, f, (-2, -2, -1), (2, 2, 1), (17, 17, 9))


def test_bake_inconsistent_orientation_raises():
    # One face turned over: the box stays closed, but each of that face's
    # edges is traversed the same way by both of its faces.
    v, f = assets.box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    for faces in (f, f[:, ::-1]):
        np.testing.assert_array_equal(oriented_edge_ids(faces), mesh_edges(faces)[2])
    f[0] = f[0][::-1]
    assert oriented_edge_ids(f) is None
    with pytest.raises(ValueError, match="consistently oriented"):
        bake_sdf_from_mesh(v, f, (-1, -1, -1), (1, 1, 1), (17, 17, 17))


def test_bake_inward_winding_bakes_the_same_phi():
    # The box's coordinates and the nodes are dyadic, so every distance is
    # exact and both windings give the same bits.
    lo, hi, res = (-1, -1, -1), (1, 1, 1), (33, 33, 33)
    out = bake_sdf_from_mesh(*assets.box((-0.5,) * 3, (0.5,) * 3), lo, hi, res)
    inward = bake_sdf_from_mesh(*assets.box((-0.5,) * 3, (0.5,) * 3, inward=True), lo, hi, res)
    assert inward.phi.tobytes() == out.phi.tobytes()
    assert 0 < np.count_nonzero(out.phi < 0) < out.phi.size
    # On the icosphere, turning each face over reorders the closest-point
    # arithmetic, so only the signs are the same bits.
    v, f = assets.icosphere(1.0, 2)
    out = bake_sdf_from_mesh(v, f, (-1.5,) * 3, (1.5,) * 3, (16, 16, 16))
    inward = bake_sdf_from_mesh(v, f[:, ::-1], (-1.5,) * 3, (1.5,) * 3, (16, 16, 16))
    assert np.array_equal(inward.phi < 0, out.phi < 0)


@pytest.mark.parametrize("first", [False, True], ids=["appended", "first"])
def test_bake_zero_area_face_keeps_phi_finite_and_signs_right(first):
    # Split the box edge from a = 1 to b = 0 at its midpoint m on the side
    # of face (0, 1, 5) only, and close the T-junction with the zero-area
    # face (a, m, b): the mesh stays closed and consistently oriented.
    v, f = assets.box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    v = np.vstack([v, (v[0] + v[1]) / 2])
    f = np.delete(f, np.flatnonzero((f == [0, 1, 5]).all(axis=1)), axis=0)
    split, zero = [[0, 8, 5], [8, 1, 5]], [[1, 8, 0]]
    f = np.vstack([zero, f, split] if first else [f, split, zero])
    sdf = bake_sdf_from_mesh(v, f, (-1, -1, -1), (1, 1, 1), (33, 33, 33))
    assert np.all(np.isfinite(sdf.phi))
    assert _assert_signs_match_winding(sdf, v[f]) > 0


def _edge_counts_dict(faces):
    """Reference: the edge -> face count dict of the old watertight check."""
    edges = {}
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return edges


def _sorted_edge_set(faces):
    """Reference: the old cloth constraint pairs, sorted(set)."""
    es = set()
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            es.add((min(a, b), max(a, b)))
    return sorted(es)


_TETRA = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]


@settings(max_examples=200, deadline=None)
@given(extra=st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3), max_size=12),
       closed=st.booleans(), repeats=st.integers(0, 3))
def test_mesh_edges_match_dict_and_set_references(extra, closed, repeats):
    # Open meshes, a closed tetrahedron, and faces given more than once.
    faces = (_TETRA if closed else []) + extra
    faces = faces + faces[:repeats]
    edges, counts, inverse = mesh_edges(np.array(faces, dtype=np.int64).reshape(-1, 3))
    ref = _edge_counts_dict(faces)
    assert [tuple(e) for e in edges.tolist()] == sorted(ref) == _sorted_edge_set(faces)
    assert counts.tolist() == [ref[k] for k in sorted(ref)]
    sides = [(min(a, b), max(a, b)) for t in faces for a, b in ((t[0], t[1]), (t[1], t[2]),
                                                               (t[2], t[0]))]
    assert [tuple(e) for e in edges[inverse].reshape(-1, 2).tolist()] == sides
    assert bool(np.all(counts == 2)) == all(c == 2 for c in ref.values())


def _point_triangle_dist_sq_reference(p, a, b, c):
    """Reference: the broadcasting closest-point kernel the bake used before
    its (3, P) form. Squared distances for points (n,1,3) against triangles
    (1,m,3); every 3-term sum is np.sum over the last axis."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.sum(ab * ap, axis=-1)
    d2 = np.sum(ac * ap, axis=-1)
    bp = p - b
    d3 = np.sum(ab * bp, axis=-1)
    d4 = np.sum(ac * bp, axis=-1)
    cp = p - c
    d5 = np.sum(ab * cp, axis=-1)
    d6 = np.sum(ac * cp, axis=-1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / np.where(d1 - d3 != 0, d1 - d3, 1.0)
        w_ac = d2 / np.where(d2 - d6 != 0, d2 - d6, 1.0)
        t_bc = (d4 - d3) / np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) + (d5 - d6), 1.0)
        denom = va + vb + vc
        denom = np.where(denom != 0, denom, 1.0)
        v_in = vb / denom
        w_in = vc / denom

    closest = a + v_in[..., None] * ab + w_in[..., None] * ac
    region = np.zeros(closest.shape[:-1], dtype=np.int8)
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    closest = np.where(on_bc[..., None], b + np.clip(t_bc, 0, 1)[..., None] * (c - b), closest)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    closest = np.where(on_ac[..., None], a + np.clip(w_ac, 0, 1)[..., None] * ac, closest)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    closest = np.where(on_ab[..., None], a + np.clip(v_ab, 0, 1)[..., None] * ab, closest)
    at_c = (d6 >= 0) & (d5 <= d6)
    closest = np.where(at_c[..., None], c, closest)
    at_b = (d3 >= 0) & (d4 <= d3)
    closest = np.where(at_b[..., None], b, closest)
    at_a = (d1 <= 0) & (d2 <= 0)
    closest = np.where(at_a[..., None], a, closest)
    for code, mask in enumerate((on_bc, on_ac, on_ab, at_c, at_b, at_a), 1):
        region[mask] = code
    diff = p - closest
    return np.sum(diff * diff, axis=-1), region


def _brute_unsigned_distance(points, tri_verts, chunk=2_000_000):
    """Reference: min point-triangle distance at each point over all faces."""
    m = len(tri_verts)
    a = tri_verts[None, :, 0, :]
    b = tri_verts[None, :, 1, :]
    c = tri_verts[None, :, 2, :]
    out = np.empty(len(points))
    rows = max(1, chunk // max(m, 1))
    for i in range(0, len(points), rows):
        p = points[i:i + rows, None, :]
        d2, _ = _point_triangle_dist_sq_reference(p, a, b, c)
        out[i:i + rows] = np.sqrt(d2.min(axis=1))
    return out


def _culled_and_brute(vertices, indices, lo, hi, res):
    tri = np.asarray(vertices, dtype=np.float64)[np.asarray(indices)]
    axes = field_mod._grid_axes(np.asarray(lo, dtype=np.float64),
                                np.asarray(hi, dtype=np.float64), res)
    dist, _ = field_mod._unsigned_distance(axes, tri, np.zeros((len(tri), 7, 3)))
    return dist, _brute_unsigned_distance(grid_points(lo, hi, res), tri)


def _soup(rng, layout, n_tris, lo, hi, res):
    if layout == "lattice":
        # Vertices on grid nodes: nodes then lie on vertices, on edges and
        # in face planes.
        axes = field_mod._grid_axes(lo, hi, res)
        v = np.stack([rng.choice(ax, 3 * n_tris + 2) for ax in axes], axis=1)
    else:
        v = rng.uniform(-1.2, 1.2, (3 * n_tris + 2, 3))
    # The last two vertices are referenced by no face.
    f = rng.permutation(3 * n_tris).reshape(n_tris, 3)
    if layout == "degenerate":
        for i, tri in enumerate(f):
            kind = i % 4
            if kind == 0:
                f[i, 1] = tri[0]                        # repeated vertex
            elif kind == 1:
                f[i] = tri[0]                           # a point
            elif kind == 2:                             # collinear, zero area
                v[tri[2]] = v[tri[0]] + rng.choice([-0.5, 0.5, 2.0]) * (v[tri[1]] - v[tri[0]])
    if layout == "outside":
        v = v + rng.choice([-1.0, 1.0]) * 4.0 * np.eye(3)[rng.integers(3)]
    return v, f


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tris=st.integers(1, 12),
       layout=st.sampled_from(["soup", "degenerate", "lattice", "outside"]),
       res=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
       chunk=st.sampled_from([1, 7, 2**15, field_mod.BAKE_CHUNK_PAIRS]))
def test_culled_distance_matches_brute_force_bitwise(seed, n_tris, layout, res, chunk):
    rng = np.random.default_rng(seed)
    lo, hi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 0.5, 1.5])
    v, f = _soup(rng, layout, n_tris, lo, hi, res)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field_mod, "BAKE_CHUNK_PAIRS", chunk)
        culled, brute = _culled_and_brute(v, f, lo, hi, res)
    assert np.array_equal(culled, brute)


def test_culled_distance_bitwise_with_nodes_on_box_features():
    # At 33^3 over [-1, 1]^3 the half-unit box's vertices, edges and face
    # planes all pass through grid nodes.
    v, f = assets.box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    culled, brute = _culled_and_brute(v, f, (-1, -1, -1), (1, 1, 1), (33, 33, 33))
    assert np.array_equal(culled, brute)


def _signed_zeros(rng, x, share=0.2):
    """A copy of x with a share of its components set to 0.0 or -0.0."""
    x = np.array(x, dtype=np.float64)
    pick = rng.random(x.shape) < share
    x[pick] = rng.choice([0.0, -0.0], int(pick.sum()))
    return x


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tris=st.integers(1, 12),
       layout=st.sampled_from(["soup", "degenerate", "lattice", "outside"]),
       res=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)))
def test_closest_point_kernel_matches_reference_bitwise(seed, n_tris, layout, res):
    rng = np.random.default_rng(seed)
    lo, hi = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 0.5, 1.5])
    v, f = _soup(rng, layout, n_tris, lo, hi, res)
    tri = _signed_zeros(rng, v)[f]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    s, t = rng.uniform(-0.5, 1.5, (2, n_tris, 1))
    # Grid nodes, the vertices, points on the edges' lines and in the face
    # planes, and all of them again with signed zero components.
    pts = np.concatenate([grid_points(lo, hi, res), tri.reshape(-1, 3), a + s * (b - a),
                          b + s * (c - b), c + s * (a - c), a + s * (b - a) + t * (c - a)])
    pts = np.concatenate([pts, _signed_zeros(rng, pts, 0.4)])
    ref, region = _point_triangle_dist_sq_reference(pts[:, None], a[None], b[None], c[None])
    node, face = (i.ravel() for i in np.indices(ref.shape))
    new, feature, diff = field_mod._point_triangle_dist_sq(pts[node].T, a[face].T,
                                                           b[face].T, c[face].T)
    assert np.array_equal(new.view(np.uint64), ref.ravel().view(np.uint64))
    assert np.array_equal(feature, region.ravel())
    assert np.array_equal(np.sum(diff * diff, axis=0), ref.ravel())


def test_bake_evaluates_few_pairs(monkeypatch):
    v, f = assets.icosphere(1.0, 2)
    sizes = []
    real = field_mod._point_triangle_dist_sq

    def counting(p, a, b, c):
        sizes.append(p.shape[-1])
        return real(p, a, b, c)

    monkeypatch.setattr(field_mod, "_point_triangle_dist_sq", counting)
    bake_sdf_from_mesh(v, f, (-1.5,) * 3, (1.5,) * 3, (16, 16, 16))
    # Every node evaluates at least its nearest face.
    assert 16**3 <= sum(sizes) <= 0.10 * 16**3 * len(f)


# SHA-256 of baked phi. |phi| is the brute-force minimum over all (node,
# face) pairs bit for bit, and the signs agree with the winding number (see
# the winding tests below).
SPHERE16_PHI = "ef15bc5d20b1b088b7c5acf512dd6fc93cc94fd60f941915e6be3dab437a1955"
ICOSPHERE64_PHI = "f956f813839849524d23d0fad8075006f6e19aa08edf106227f498cf521648f9"


def _sphere_preset_mesh(tmp_path):
    # The sphere preset goes through its OBJ file, whose text round trip
    # moves vertex bits, exactly as the sdf-bake benchmark workload loads it.
    assets.generate("sphere", str(tmp_path), res=16)
    mesh = surface.load_obj(str(tmp_path / "sphere.obj"),
                            bsdf=surface.Lambertian((0.5, 0.5, 0.5)))
    return mesh.vertices, mesh.indices


def test_bake_sphere_preset_16_digest(tmp_path):
    sdf = bake_sdf_from_mesh(*_sphere_preset_mesh(tmp_path), (-1.5,) * 3, (1.5,) * 3,
                             (16, 16, 16))
    assert hashlib.sha256(sdf.phi.tobytes()).hexdigest() == SPHERE16_PHI


def test_bake_icosphere64_digest(icosphere_sdf64):
    sdf, _, _ = icosphere_sdf64
    assert hashlib.sha256(sdf.phi.tobytes()).hexdigest() == ICOSPHERE64_PHI


def test_bake_ignores_jitter_seed():
    v, f = assets.icosphere(1.0, 2)
    one, two = (bake_sdf_from_mesh(v, f, (-1.5,) * 3, (1.5,) * 3, (16, 16, 16),
                                   jitter_seed=seed) for seed in (1, 2))
    assert one.phi.tobytes() == two.phi.tobytes()


def _winding_number(points, tri_verts, chunk=1 << 16):
    """Reference: the generalised winding number of a triangle mesh at each
    point (Jacobson, Kavan & Sorkine-Hornung, SIGGRAPH 2013), the faces'
    solid angles (Van Oosterom & Strackee) summed over 4 pi. It is near 1
    inside a closed, outward-wound mesh and near 0 outside."""
    out = np.empty(len(points))
    rows = max(1, chunk // len(tri_verts))
    for i in range(0, len(points), rows):
        p = points[i:i + rows, :, None]
        # (3, points, faces) per corner, one row per component.
        a, b, c = (np.moveaxis(tri_verts[None, :, k, :].transpose(0, 2, 1) - p, 1, 0)
                   for k in range(3))
        la, lb, lc = (np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) for x in (a, b, c))
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        den = (la * lb * lc + (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) * lc
               + (b[0] * c[0] + b[1] * c[1] + b[2] * c[2]) * la
               + (c[0] * a[0] + c[1] * a[1] + c[2] * a[2]) * lb)
        out[i:i + rows] = np.arctan2(det, den).sum(axis=1) / (2.0 * np.pi)
    return out


def _assert_signs_match_winding(sdf, tri_verts, within=np.inf):
    """Checks the nodes within `within` cells of the surface: where the
    winding number w lies farther than 1/4 from 1/2, phi < 0 exactly when
    w > 1/2, and |phi| is the brute-force distance bit for bit. A node on
    the surface (phi 0) has no side, and rounding sends its w anywhere, so
    its sign is not checked. Returns the number of nodes whose sign was."""
    phi = sdf.phi.ravel(order="F")
    pts = grid_points(sdf.bbox_lo, sdf.bbox_hi, sdf.res)
    near = np.abs(phi) <= within * np.max(sdf.cell_size())
    w = _winding_number(pts[near], tri_verts)
    sure = (np.abs(w - 0.5) > 0.25) & (phi[near] != 0)
    assert np.array_equal(phi[near][sure] < 0, w[sure] > 0.5)
    assert np.array_equal(np.abs(phi[near]), _brute_unsigned_distance(pts[near], tri_verts))
    return int(np.count_nonzero(sure))


def test_bake_signs_match_winding_number_sphere_preset_16(tmp_path):
    v, f = _sphere_preset_mesh(tmp_path)
    sdf = bake_sdf_from_mesh(v, f, (-1.5,) * 3, (1.5,) * 3, (16, 16, 16))
    assert _assert_signs_match_winding(sdf, v[f]) == 16**3


def test_bake_signs_match_winding_number_icosphere64(icosphere_sdf64):
    # Within two cells of the surface, where a sign is hardest to get right;
    # the winding number at all 64^3 nodes would take seconds.
    sdf, v, f = icosphere_sdf64
    assert _assert_signs_match_winding(sdf, v[f], within=2) == 21_712


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       res=st.tuples(st.integers(4, 14), st.integers(4, 14), st.integers(4, 14)))
def test_bake_signs_match_winding_number_under_rigid_motion(seed, res):
    rng = np.random.default_rng(seed)
    v, f = assets.icosphere(1.0, 2)
    v = Transform.from_quaternion(rng.normal(size=4), rng.uniform(-0.4, 0.4, 3)).point(v)
    sdf = bake_sdf_from_mesh(v, f, (-1.5,) * 3, (1.5,) * 3, res)
    assert _assert_signs_match_winding(sdf, v[f]) > 0


_TET_V = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_TET_F = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


@pytest.mark.parametrize("vertices, indices, match", [
    (_TET_V, [[0, 1, -1]], "face index -1 out of range"),
    (_TET_V, [[0, 1, 4]], "face index 4 out of range"),
    (_TET_V, np.zeros((0, 3), dtype=np.int64), "no faces"),
    (np.where(np.arange(4)[:, None] == 2, np.nan, _TET_V), _TET_F, "finite"),
    (_TET_V, [[0, 1, 2, 3]], r"shape \(m, 3\)"),
], ids=["negative-index", "index-past-end", "no-faces", "nan-vertex", "not-triangles"])
def test_bake_rejects_bad_mesh(vertices, indices, match):
    with pytest.raises(ValueError, match=match):
        bake_sdf_from_mesh(vertices, indices, (-1, -1, -1), (1, 1, 1), (5, 5, 5))


def test_sdf_from_density_blob_radius():
    g = assets.gaussian_blob_field((-1, -1, -1), (1, 1, 1), (0, 0, 0), 0.3,
                                   8.0, (1, 1, 1), res=(32, 32, 32))
    sdf = sdf_from_density(g, 0.5)
    # Occupancy boundary where the profile crosses half max:
    # r = width * sqrt(2 ln 2)
    r_half = 0.3 * math.sqrt(2.0 * math.log(2.0))
    phi, _, _ = sdf.query_batch(np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]]))
    assert phi[0] == pytest.approx(-r_half, abs=0.1)
    assert phi[1] > 0.0


def brute_edt_sq(feature, h):
    """Squared distance from each node to every feature node, in the order
    scipy.ndimage.distance_transform_edt sums it, minimised over all."""
    nodes = np.argwhere(np.ones(feature.shape, dtype=bool))
    d = (nodes[:, None, :] - np.argwhere(feature)[None]).astype(np.float64) * h
    d *= d
    return ((d[..., 0] + d[..., 1]) + d[..., 2]).min(axis=1).reshape(feature.shape)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(*[st.integers(1, 8)] * 3),
       density=st.sampled_from([0.02, 0.1, 0.3, 0.7, 0.95]),
       single=st.booleans(),
       spacing=st.sampled_from(["iso", "aniso"]))
def test_edt_equals_brute_force_bitwise(seed, shape, density, single, spacing):
    rng = np.random.default_rng(seed)
    if single:
        feature = np.zeros(shape, dtype=bool)
        feature[tuple(rng.integers(0, shape))] = True
    else:
        feature = rng.random(shape) < density
        feature.flat[rng.integers(feature.size)] = True
    h = np.full(3, 2.0 / 23.0) if spacing == "iso" else rng.uniform(0.01, 3.0, 3)
    got = field_mod._edt_sq(feature, h)
    assert got.tobytes() == brute_edt_sq(feature, h).tobytes()


def edt_cases():
    """(feature, h) pairs: both sides of two blob occupancies, one of them
    with features that tie, and sparse random masks, some anisotropic."""
    for res, width in (((24, 24, 24), 0.28), ((48, 48, 48), 0.35)):
        g = assets.gaussian_blob_field((-0.8,) * 3, (0.8,) * 3, (0, 0, 0), width, 8.0,
                                       (1, 1, 1), res=res)
        mask = field_mod.occupancy(g, 0.5)
        h = field_mod._cell_size(g.bbox_lo, g.bbox_hi, g.res)
        yield mask, h
        yield ~mask, h
    rng = np.random.default_rng(5)
    for k in range(6):
        feature = rng.random(tuple(rng.integers(5, 33, 3))) < (0.002, 0.05)[k % 2]
        feature.flat[0] = True
        yield feature, (np.full(3, 0.1) if k < 3 else rng.uniform(0.05, 1.0, 3))


def test_edt_within_an_ulp_below_scipy():
    ndimage = pytest.importorskip("scipy.ndimage")
    for feature, h in edt_cases():
        ref = ndimage.distance_transform_edt(~feature, sampling=h)
        got = np.sqrt(field_mod._edt_sq(feature, h))
        # A float minimum is at most scipy's value at the feature it picked.
        assert np.all(got <= ref)
        assert np.all(got >= np.nextafter(ref, 0.0))


# SHA-256 of the field-hit preset's density SDF as scipy's
# distance_transform_edt computed it.
FIELD_HIT_DENSITY_PHI = "cb3d614866c455a7a6d1fe857d812409f79c4cb395b6125f493176234e3aa40b"


def test_field_hit_density_sdf_pinned(field_hit_dir):
    sdf = sdf_from_density(load_rfgrid(field_hit_dir / "blob.rfgrid"), 0.5)
    assert hashlib.sha256(sdf.phi.tobytes()).hexdigest() == FIELD_HIT_DENSITY_PHI


# ---------------------------------------------------------------- file I/O


def test_rfgrid_round_trip(tmp_path, rng):
    sig = rng.uniform(0, 2, (4, 5, 6)).astype(np.float32).astype(np.float64)
    rad = rng.uniform(0, 1, (4, 5, 6, 3)).astype(np.float32).astype(np.float64)
    g = RadianceGrid((-1, 0, 2), (1, 3, 4), sig, rad)
    p = tmp_path / "g.rfgrid"
    save_rfgrid(p, g)
    back = load_rfgrid(p)
    assert back.res == (4, 5, 6)
    assert np.allclose(back.bbox_lo, [-1, 0, 2], atol=1e-6)
    assert np.array_equal(back.sigma, g.sigma)
    assert np.array_equal(back.radiance, g.radiance)


def test_rfgrid_layout_is_x_fastest(tmp_path):
    sig = np.zeros((2, 2, 2))
    sig[1, 0, 0] = 7.0  # x-neighbor of the origin sample
    g = RadianceGrid((0, 0, 0), (1, 1, 1), sig, np.zeros((2, 2, 2, 3)))
    p = tmp_path / "g.rfgrid"
    save_rfgrid(p, g)
    raw = np.fromfile(p, dtype="<f4", offset=12 + 24)
    assert raw[1] == 7.0  # second sample in the file is (ix=1, iy=0, iz=0)


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        RadianceGrid((0, 0, 0), (1, 1, 1), -np.ones((2, 2, 2)), np.zeros((2, 2, 2, 3)))
    with pytest.raises(ValueError):
        RadianceGrid((1, 0, 0), (0, 1, 1), np.ones((2, 2, 2)), np.zeros((2, 2, 2, 3)))
    with pytest.raises(ValueError):
        SdfGrid((0, 0, 0), (1, 1, 1), np.full((2, 2, 2), np.nan))
