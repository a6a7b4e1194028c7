import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


@st.composite
def split_keys(draw):
    """Integer keys of mutually broadcastable shapes, scalars among them,
    and a split point."""
    n = draw(st.integers(1, 6))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=n, max_dims=2, max_side=4))
    keys = []
    for shape in shapes.input_shapes:
        if not shape and draw(st.booleans()):
            keys.append(draw(st.integers(-2**63, 2**63 - 1)))
        else:
            keys.append(draw(hnp.arrays(np.int64, shape)))
    return keys, draw(st.integers(0, n))


@settings(max_examples=200, deadline=None)
@given(split_keys())
def test_prefix_hash_continues_the_fold(case):
    keys, k = case
    head, tail = keys[:k], keys[k:]
    whole = rng.uniform(*keys)
    chained = rng.uniform(*tail, h=rng.hash_keys(*head))
    assert chained.shape == whole.shape
    assert chained.tobytes() == whole.tobytes()


def test_prefix_hash_must_be_uint64():
    with pytest.raises(TypeError, match="uint64"):
        rng.uniform(1, h=np.int64(5))
