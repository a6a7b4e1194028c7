import math

import numpy as np
import pytest

from hybridrt.core import Transform, luminance, slab_interval, tone_map, unit, vec3


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
    t = Transform.rotate([0, 0, 1], math.pi / 2)
    assert np.allclose(t.point([1, 0, 0]), [0, 1, 0], atol=1e-6)


def test_transform_round_trip_random_points(rng):
    # forward then inverse recovers the input to 1e-5 over 1000 trials
    t = Transform.translate([0.3, -2.0, 1.5]).compose(Transform.rotate([1, 2, 3], 0.7))
    p = rng.uniform(-10, 10, (1000, 3))
    q = t.point(t.point(p), inverse=True)
    assert np.max(np.abs(q - p)) < 1e-5


def test_transform_rejects_singular():
    m = np.eye(4)
    m[0, 0] = 0.0
    m[1, 1] = 0.0
    with pytest.raises(ValueError):
        Transform(m)


def test_transform_rejects_bad_bottom_row():
    m = np.eye(4)
    m[3, 0] = 1.0
    with pytest.raises(ValueError):
        Transform(m)


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
