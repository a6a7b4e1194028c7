"""Shared math and color primitives.

Points, directions, and radiance triples are plain float64 numpy arrays of
shape (3,) (or (N, 3) in batched code); these helpers add the few
invariant-enforcing constructors the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

_SRGB_CUT = 0.0031308


# A point, direction or RGB triple as a config file holds it.
Vec3 = tuple[float, float, float]


def vec3(x) -> np.ndarray:
    """Build a (3,) float64 vector from any 3-sequence."""
    v = np.asarray(x, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite vector components: {v}")
    return v


def unit(v) -> np.ndarray:
    """Normalize to unit length; rejects near-zero vectors and those whose
    length overflows (beyond about 1e154) or is non-finite."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if not np.isfinite(n) or n < 1e-12:
        raise ValueError(f"cannot normalize vector {v} of length {n}")
    return v / n


def max3(a) -> np.ndarray:
    """a.max(axis=-1) over a last axis of 3, bitwise, NaN and signed
    zeros included: chained elementwise maxima of the component views, x
    then y then z, the order in which the reduction takes them. numpy
    reduces so short an axis one row at a time, at many times the cost of
    the arithmetic: at 4,096 rows 211 us against 5.5 us."""
    return np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])


def min3(a) -> np.ndarray:
    """a.min(axis=-1) over a last axis of 3, bitwise, as `max3`."""
    return np.minimum(np.minimum(a[..., 0], a[..., 1]), a[..., 2])


def sum3(a) -> np.ndarray:
    """a.sum(axis=-1) over a last axis of 3 as (x + y) + z, the order of
    the reduction, so bitwise but for the sign of a zero sum: the
    reduction starts from +0.0, and three -0.0 sum to +0.0 there and to
    -0.0 here."""
    return (a[..., 0] + a[..., 1]) + a[..., 2]


def slab_interval(lo, hi, o, inv_d, t_min=-np.inf, t_max=np.inf):
    """[t0, t1] of rays o + t d inside boxes [lo, hi], clipped to
    [t_min, t_max], given inv_d = 1 / d; broadcasts over leading axes, the
    last axis is xyz. Empty overlaps have t0 > t1.

    A zero direction component leaves its axis unbounded when o lies in
    the slab, on a plane included, and empty otherwise; an all-zero
    direction outside the box comes out empty too. The bounds over the
    three axes are `max3` and `min3`, the bits of the reductions.

    Every step is elementwise, so the bits do not depend on memory
    order: a caller with component-major (3, N) arrays passes their
    transposes, and the ufuncs keep that order, so each component view
    stays contiguous.
    """
    with np.errstate(invalid="ignore"):  # 0 * inf: o on a plane, d zero
        ta = (lo - o) * inv_d
        tb = (hi - o) * inv_d
    near = np.minimum(ta, tb)
    far = np.maximum(ta, tb)
    near = np.where(np.isnan(near), -np.inf, near)
    far = np.where(np.isnan(far), np.inf, far)
    t0 = np.maximum(max3(near), t_min)
    t1 = np.minimum(min3(far), t_max)
    # Only an all-zero direction outside the box ends at [inf, inf] or
    # [-inf, -inf]: any nonzero component makes the other bound finite.
    stuck = np.isinf(t0) & (t0 == t1)
    return np.where(stuck, np.inf, t0), np.where(stuck, -np.inf, t1)


def widen_f32(a: np.ndarray) -> np.ndarray:
    """float64 copy of a float32 payload read from a file. A signalling NaN
    raises the invalid flag in the cast; it stays NaN, without a warning,
    so the reader's finiteness check rejects it."""
    with np.errstate(invalid="ignore"):
        return a.astype(np.float64)


def luminance(c) -> np.ndarray:
    """Rec. 709 luminance of linear RGB triples, over a last axis of 3."""
    c = np.asarray(c, dtype=np.float64)
    return c[..., 0] * 0.2126 + c[..., 1] * 0.7152 + c[..., 2] * 0.0722


def tone_map(c: np.ndarray) -> np.ndarray:
    """Linear RGB to sRGB-encoded values clamped to [0, 1].

    Per channel: 12.92*x for x <= 0.0031308, else 1.055*x^(1/2.4) - 0.055.
    Accepts any (..., 3) array.
    """
    c = np.asarray(c, dtype=np.float64)
    if not np.all(np.isfinite(c)):
        raise FloatingPointError("tone_map requires finite input")
    lo = 12.92 * c
    hi = 1.055 * np.power(np.maximum(c, _SRGB_CUT), 1.0 / 2.4) - 0.055
    out = np.where(c <= _SRGB_CUT, lo, hi)
    # 1.055 - 0.055 lands one ulp under 1, so pin the upper rail exactly.
    out = np.where(c >= 1.0, 1.0, out)
    return np.clip(out, 0.0, 1.0)


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over a last axis of length 3, broadcast over the leading axes.

    Bitwise equal to np.cross, which forms each component from the same
    two products and one difference, without its axis handling, which
    costs more than the arithmetic on small batches.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class Transform:
    """Rigid homogeneous 4x4 transform [r | t] with its exact inverse
    [r^T | -r^T t].

    Rigid by construction: the one constructor takes an orthonormal
    rotation block r (None for none) and a translation t (None for none),
    so the bottom row is (0, 0, 0, 1) and m_inv inverts m up to rounding.
    Distances and ray parameters are the same in both frames, which
    ray marching and SDF normals rely on. Only a non-finite entry (a zero
    or NaN quaternion, say) is rejected.

    point and direction give a row the same bits in any batch. A matmul
    rounds a lone row (BLAS's matrix-vector kernel) differently from rows
    among others (its matrix kernel), so a lone row goes as a pair.
    """

    __slots__ = ("m", "m_inv")

    def __init__(self, r=None, t=None):
        m = np.eye(4)
        m_inv = np.eye(4)
        if r is not None:
            m[:3, :3] = r
            m_inv[:3, :3] = r.T
        if t is not None:
            # Without r the inverse translation is -t itself, signed zeros
            # included.
            m[:3, 3] = t
            m_inv[:3, 3] = -t if r is None else -r.T @ t
        self._set(m, m_inv)

    def _set(self, m, m_inv) -> "Transform":
        if not (np.isfinite(m).all() and np.isfinite(m_inv).all()):
            raise ValueError("rigid transform has non-finite entries")
        self.m = m
        self.m_inv = m_inv
        return self

    @staticmethod
    def identity() -> "Transform":
        return Transform()

    @staticmethod
    def translate(t) -> "Transform":
        return Transform(t=vec3(t))

    @staticmethod
    def from_quaternion(q, origin) -> "Transform":
        """Rotation from a quaternion (w, x, y, z), normalized here, then a
        translation to origin.

        The one factory for a rotation: a scene transform
        (`TransformConfig.build`) and a rigid body's pose
        (`RigidBody.world_from_body`) are both built here, so a body placed
        at a scene transform's quaternion and translation has its bits."""
        q = np.asarray(q, dtype=np.float64)
        return Transform(quat_to_matrix(q / np.linalg.norm(q)), vec3(origin))

    @staticmethod
    def look_at(position, target, up=(0.0, 1.0, 0.0)) -> "Transform":
        """Camera-to-world pose: camera looks down its local -z axis."""
        position = vec3(position)
        fwd = unit(np.asarray(target, dtype=np.float64) - position)
        right = unit(cross3(fwd, unit(up)))
        true_up = cross3(right, fwd)
        return Transform(np.stack([right, true_up, -fwd], axis=1), position)

    def compose(self, other: "Transform") -> "Transform":
        """self applied after other: (self.compose(other))(p) = self(other(p)).

        The product of two rigid frames is rigid, and other.m_inv @
        self.m_inv is its inverse, so both are taken as they are.
        """
        return object.__new__(Transform)._set(self.m @ other.m, other.m_inv @ self.m_inv)

    def point(self, p, inverse: bool = False) -> np.ndarray:
        """Transform a point (3,) or points (..., 3)."""
        m = self.m_inv if inverse else self.m
        return self._rotate(p, m) + m[:3, 3]

    def direction(self, d, inverse: bool = False) -> np.ndarray:
        """Transform a direction (3,) or directions (..., 3): no translation."""
        return self._rotate(d, self.m_inv if inverse else self.m)

    @staticmethod
    def _rotate(v, m: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        rows = v.reshape(-1, 3)
        lone = len(rows) == 1
        out = (np.repeat(rows, 2, axis=0) if lone else rows) @ m[:3, :3].T
        return (out[:1] if lone else out).reshape(v.shape)

    def __repr__(self):
        return f"Transform({self.m.tolist()})"
