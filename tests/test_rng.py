import numpy as np

from hybridrt import rng


def test_same_keys_same_values():
    a = rng.uniform(7, np.arange(100), 3, 1, rng.BSDF_U, 0)
    b = rng.uniform(7, np.arange(100), 3, 1, rng.BSDF_U, 0)
    assert np.array_equal(a, b)


def test_any_key_change_decorrelates():
    base = rng.uniform(7, 5, 3, 1, rng.BSDF_U, 0)
    assert base != rng.uniform(8, 5, 3, 1, rng.BSDF_U, 0)
    assert base != rng.uniform(7, 6, 3, 1, rng.BSDF_U, 0)
    assert base != rng.uniform(7, 5, 4, 1, rng.BSDF_U, 0)
    assert base != rng.uniform(7, 5, 3, 2, rng.BSDF_U, 0)
    assert base != rng.uniform(7, 5, 3, 1, rng.BSDF_V, 0)
    assert base != rng.uniform(7, 5, 3, 1, rng.BSDF_U, 1)


def test_key_order_matters():
    assert rng.uniform(1, 2, 0, 0, 0, 0) != rng.uniform(2, 1, 0, 0, 0, 0)


def test_uniform_range_and_moments():
    u = rng.uniform(0, np.arange(200_000), 0, 0, rng.BSDF_U, 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.var() - 1.0 / 12.0) < 2e-3


def test_broadcasting_matches_scalars():
    pix = np.arange(10)
    batch = rng.uniform(3, pix, 2, 1, rng.LIGHT_U, 5)
    singles = np.array([rng.uniform(3, int(p), 2, 1, rng.LIGHT_U, 5) for p in pix])
    assert np.array_equal(batch, singles)
