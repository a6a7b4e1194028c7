import math

import numpy as np
import pytest

from hybridrt import assets
from hybridrt.core import Transform, unit
from hybridrt.field import SdfGrid, bake_sdf_from_mesh, grid_points


def analytic_sdf(fn, lo, hi, res) -> SdfGrid:
    """A reference SDF: fn, a function of (N, 3) points, sampled at the
    nodes of the box [lo, hi] with res nodes per axis."""
    phi = fn(grid_points(lo, hi, res)).reshape(res, order="F")
    return SdfGrid(lo, hi, phi)


def turn(axis, angle) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a turn by angle radians about axis,
    which need not be unit."""
    return np.array([math.cos(0.5 * angle), *(math.sin(0.5 * angle) * unit(axis))])


def rotation(axis, angle) -> Transform:
    """The rotation by angle radians about axis, through the origin."""
    return Transform.from_quaternion(turn(axis, angle), (0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def slab_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("slab")
    assets.gen_smoke_slab(str(d))
    return d


@pytest.fixture(scope="session")
def two_room_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("two_room")
    assets.gen_two_room(str(d))
    return d


@pytest.fixture(scope="session")
def field_hit_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("field_hit")
    assets.gen_field_hit(str(d))
    return d


@pytest.fixture(scope="session")
def furnace_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("furnace")
    assets.gen_furnace(str(d))
    return d


@pytest.fixture(scope="session")
def estimation_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("estimation")
    assets.gen_estimation_room(str(d))
    return d


@pytest.fixture(scope="session")
def hdr_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hdr")
    assets.gen_hdr_bracket(str(d))
    return d


@pytest.fixture(scope="session")
def icosphere_sdf64():
    """Baked 64^3 SDF of the unit icosphere; shared, it is the slow bake."""
    v, f = assets.icosphere(1.0, 2)
    return bake_sdf_from_mesh(v, f, (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), (64, 64, 64)), v, f


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
