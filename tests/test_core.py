import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridrt.core import (Transform, cross3, luminance, max3, min3, slab_interval, sum3,
                           tone_map, unit, vec3)

from conftest import rotation


def test_tone_map_fixed_points():
    assert np.array_equal(tone_map(np.zeros(3)), np.zeros(3))
    assert np.array_equal(tone_map(np.ones(3)), np.ones(3))


def test_tone_map_breakpoint():
    # Both branches evaluated at the sRGB cut 0.0031308:
    # 12.92 * 0.0031308 = 0.040449..., 1.055 * x^(1/2.4) - 0.055 agrees to 6 places.
    out = tone_map(np.array([0.0031308, 0.0031308, 0.0031308]))
    assert abs(out[0] - 0.04045) < 1e-6
    lo = 12.92 * 0.0031308
    hi = 1.055 * 0.0031308 ** (1 / 2.4) - 0.055
    assert abs(lo - hi) < 1e-6


def test_tone_map_monotone_and_bounded(rng):
    x = np.sort(rng.uniform(0.0, 3.0, 500))
    y = tone_map(np.stack([x, x, x], axis=-1))[:, 0]
    assert np.all(np.diff(y) >= 0.0)
    assert y.min() >= 0.0 and y.max() <= 1.0


def test_tone_map_idempotent_only_at_rails(rng):
    x = rng.uniform(0.05, 0.95, 100)
    once = tone_map(np.stack([x, x, x], axis=-1))
    twice = tone_map(once)
    assert np.all(np.abs(once - twice)[:, 0] > 1e-6)


def test_transform_identity_point():
    t = Transform.identity()
    assert np.allclose(t.point([1, 2, 3]), [1, 2, 3])


def test_transform_translation_inverse():
    t = Transform.translate([1, 0, 0])
    assert np.allclose(t.point([0, 0, 0], inverse=True), [-1, 0, 0])
    # The inverse offset is exactly -t, signed zeros included.
    t = Transform.translate([0.0, -0.0, 2.0])
    assert np.array_equal(t.m_inv[:3, 3], [-0.0, 0.0, -2.0])
    assert np.array_equal(np.signbit(t.m_inv[:3, 3]), [True, False, True])


def test_transform_rotation_90deg():
    t = rotation([0, 0, 1], math.pi / 2)
    assert np.allclose(t.point([1, 0, 0]), [0, 1, 0], atol=1e-6)


def test_transform_round_trip_random_points(rng):
    # forward then inverse recovers the input to 1e-5 over 1000 trials
    t = Transform.translate([0.3, -2.0, 1.5]).compose(rotation([1, 2, 3], 0.7))
    p = rng.uniform(-10, 10, (1000, 3))
    q = t.point(t.point(p), inverse=True)
    assert np.max(np.abs(q - p)) < 1e-5


def rigid_factories(rng):
    """One transform from each rigid factory, with random inputs, and the
    composition of two of them."""
    ts = [
        Transform.translate(rng.uniform(-10, 10, 3)),
        rotation(rng.normal(size=3), rng.uniform(-7, 7)),
        Transform.from_quaternion(rng.normal(size=4), rng.uniform(-10, 10, 3)),
        Transform.look_at(rng.uniform(-10, 10, 3), rng.uniform(-10, 10, 3), rng.normal(size=3)),
    ]
    a, b = rng.choice(len(ts), 2)
    return ts + [ts[a].compose(ts[b])]


def test_rigid_factories_carry_their_inverse(rng):
    # Every way to build a Transform gives a rigid frame and its inverse.
    for _ in range(200):
        for t in rigid_factories(rng):
            assert np.array_equal(t.m[3], [0.0, 0.0, 0.0, 1.0])
            assert np.array_equal(t.m_inv[3], [0.0, 0.0, 0.0, 1.0])
            assert np.max(np.abs(t.m @ t.m_inv - np.eye(4))) <= 1e-12
            r = t.m[:3, :3]
            assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-12


def test_compose_is_the_two_products(rng):
    # compose takes both products as they are, without re-deriving either.
    for _ in range(50):
        ts = rigid_factories(rng)
        for a in ts:
            for b in ts:
                c = a.compose(b)
                assert np.array_equal(c.m, a.m @ b.m)
                assert np.array_equal(c.m_inv, b.m_inv @ a.m_inv)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.integers(0, 4), n=st.integers(1, 300),
       inverse=st.booleans())
def test_transform_gives_a_row_its_bits_in_any_batch(seed, kind, n, inverse):
    # A lone row, as (3,) or (1, 3), and every prefix of a batch get the
    # same bits as in the whole batch, for points and directions of every
    # rigid factory's frames and their compositions.
    rng = np.random.default_rng(seed)
    t = rigid_factories(rng)[kind]
    p = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    for f in (t.point, t.direction):
        full = f(p, inverse=inverse)
        assert full.shape == (n, 3)
        for i in range(n):
            row, lone = f(p[i:i + 1], inverse=inverse), f(p[i], inverse=inverse)
            assert row.shape == (1, 3) and lone.shape == (3,)
            assert full[i].tobytes() == row.tobytes() == lone.tobytes(), i
            assert f(p[:i + 1], inverse=inverse).tobytes() == full[:i + 1].tobytes(), i
        assert f(np.zeros((0, 3)), inverse=inverse).shape == (0, 3)


def test_compose_rejects_nonfinite():
    big = Transform.translate([1e308, 0.0, 0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        big.compose(big)


@pytest.mark.parametrize("q, origin", [
    ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([np.nan, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),
    ([1.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0]),
])
def test_from_quaternion_rejects_nonfinite(q, origin):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):  # 0 / 0
        Transform.from_quaternion(q, origin)


_floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(a=st.lists(_floats, min_size=3, max_size=3),
       b=st.lists(st.lists(_floats, min_size=3, max_size=3), min_size=1, max_size=5),
       scale=st.sampled_from([1.0, 1e-200, 1e150]))
def test_cross3_equals_np_cross_bitwise(a, b, scale):
    # Signed zeros and mixed magnitudes: the same bits as np.cross, for a
    # single vector against rows, rows against rows and vector by vector.
    a = np.array(a)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        b = np.array(b) * scale
        for x, y in ((a, b), (b, a), (b, b[::-1]), (a, b[0]), (b[0], a)):
            got, ref = cross3(x, y), np.cross(x, y)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_look_at_convention():
    t = Transform.look_at([0, 0, 5], [0, 0, 0], [0, 1, 0])
    fwd = t.direction([0, 0, -1.0])
    assert np.allclose(fwd, [0, 0, -1])
    assert np.allclose(t.m[:3, 3], [0, 0, 5])


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        unit([0, 0, 0])


def test_vec3_rejects_nonfinite():
    with pytest.raises(ValueError):
        vec3([np.nan, 0, 0])


def test_luminance_weights():
    assert abs(luminance([1.0, 1.0, 1.0]) - 1.0) < 1e-12
    assert abs(luminance([1.0, 0.0, 0.0]) - 0.2126) < 1e-12


def test_batched_luminance_is_the_per_row_luminance(rng):
    c = rng.uniform(0.0, 50.0, (257, 3))
    batched = luminance(c)
    assert batched.shape == (257,)
    assert batched.tobytes() == np.array([luminance(row) for row in c]).tobytes()
    assert luminance(c.reshape(257, 1, 3)).shape == (257, 1)


def slab_reference(lo, hi, o, d):
    """Ray/box [t0, t1] with every zero direction component handled
    explicitly: its axis is unbounded inside the slab, empty outside."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        ta = (lo - o) * inv
        tb = (hi - o) * inv
    zero = d == 0.0
    out_slab = (o < lo) | (o > hi)
    tlo = np.where(zero, np.where(out_slab, np.inf, -np.inf), np.minimum(ta, tb))
    thi = np.where(zero, np.where(out_slab, -np.inf, np.inf), np.maximum(ta, tb))
    return tlo.max(axis=-1), thi.min(axis=-1)


def test_slab_interval_matches_explicit_zero_handling(rng):
    # Zero (and negative-zero) direction components, all-zero directions
    # and origins on the box planes: the same empty set, and every
    # non-empty interval bitwise equal.
    n = 100_000
    lo = rng.uniform(-2.0, 0.0, (n, 3))
    hi = lo + rng.uniform(0.1, 2.0, (n, 3))
    o = rng.uniform(-3.0, 3.0, (n, 3))
    on_plane = rng.random((n, 3)) < 0.3
    o[on_plane] = np.where(rng.random((n, 3)) < 0.5, lo, hi)[on_plane]
    d = rng.normal(size=(n, 3))
    d[rng.random((n, 3)) < 0.4] = 0.0
    d[rng.random((n, 3)) < 0.1] = -0.0
    assert (~d.any(axis=1)).sum() > 1000
    with np.errstate(divide="ignore"):
        t0, t1 = slab_interval(lo, hi, o, 1.0 / d)
    r0, r1 = slab_reference(lo, hi, o, d)
    hit = r0 <= r1
    assert np.array_equal(t0 <= t1, hit)
    assert np.array_equal(t0[hit], r0[hit]) and np.array_equal(t1[hit], r1[hit])


def slab_by_reduction(lo, hi, o, inv_d, t_min, t_max):
    """slab_interval as it was written with max and min reductions over
    the last axis: the reference for the chained elementwise form."""
    with np.errstate(invalid="ignore"):
        ta = (lo - o) * inv_d
        tb = (hi - o) * inv_d
    near = np.minimum(ta, tb)
    far = np.maximum(ta, tb)
    near = np.where(np.isnan(near), -np.inf, near)
    far = np.where(np.isnan(far), np.inf, far)
    t0 = np.maximum(near.max(axis=-1), t_min)
    t1 = np.minimum(far.min(axis=-1), t_max)
    stuck = np.isinf(t0) & (t0 == t1)
    return np.where(stuck, np.inf, t0), np.where(stuck, -np.inf, t1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([1, 7, 4096]))
def test_length_3_chains_equal_the_reductions_bitwise(seed, rows):
    # Rows of NaN, +-0, +-inf and values of mixed magnitude. max3 and min3
    # give the reductions' bits; sum3 gives them except that a zero sum
    # may differ in sign, which a test `< 0.0` cannot see.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-8, 9, (rows, 3))
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])
    pick = rng.random((rows, 3)) < 0.4
    a[pick] = rng.choice(special, size=pick.sum())
    a[rng.random(rows) < 0.1] = -0.0
    a = np.concatenate([a, [[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0],
                            [np.nan, 1.0, -0.0], [-0.0, np.nan, 0.0], [1.0, -1.0, -0.0]]])
    for view in (a, np.asfortranarray(a)):
        assert max3(view).tobytes() == view.max(axis=-1).tobytes()
        assert min3(view).tobytes() == view.min(axis=-1).tobytes()
        with np.errstate(invalid="ignore"):  # inf - inf
            got, want = sum3(view), view.sum(axis=-1)
        assert np.array_equal(got < 0.0, want < 0.0)
        assert np.array_equal(got, want, equal_nan=True)
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
    assert np.signbit(sum3(np.full((1, 3), -0.0)))


slab_bounds = st.sampled_from([-np.inf, np.inf, 0.0, -0.0, 1e-4, 1.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([1, 7, 1024, 2944]),
       t_min=slab_bounds, t_max=slab_bounds)
def test_slab_interval_equals_the_reduction_form_bitwise(seed, rows, t_min, t_max):
    # Zero and -0 direction components, origins on slab planes and t_min,
    # t_max of +-inf, +-0, 1e-4 and 1: both bounds bitwise equal, signed
    # zeros included, per ray and against one box shared by all.
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, (rows, 3))
    hi = lo + rng.uniform(0.0, 2.0, (rows, 3))
    o = rng.uniform(-3.0, 3.0, (rows, 3))
    pick = rng.random((rows, 3))
    o = np.where(pick < 0.2, lo, np.where(pick < 0.4, hi, o))
    o[rng.random((rows, 3)) < 0.1] = -0.0
    d = rng.normal(size=(rows, 3))
    d[rng.random((rows, 3)) < 0.3] = 0.0
    d[rng.random((rows, 3)) < 0.15] = -0.0
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / d
    for box in ((lo, hi), (lo[0], hi[0])):
        got = slab_interval(*box, o, inv_d, t_min, t_max)
        want = slab_by_reduction(*box, o, inv_d, t_min, t_max)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
