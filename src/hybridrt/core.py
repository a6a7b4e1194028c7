"""Shared math and color primitives.

Points, directions, and radiance triples are plain float64 numpy arrays of
shape (3,) (or (N, 3) in batched code); these helpers add the few
invariant-enforcing constructors the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

_SRGB_CUT = 0.0031308


def vec3(x, y=None, z=None) -> np.ndarray:
    """Build a (3,) float64 vector from components or any 3-sequence."""
    if y is None:
        v = np.asarray(x, dtype=np.float64).reshape(3)
    else:
        v = np.array([x, y, z], dtype=np.float64)
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


def slab_interval(lo, hi, o, inv_d, t_min=-np.inf, t_max=np.inf):
    """[t0, t1] of rays o + t d inside boxes [lo, hi], clipped to
    [t_min, t_max], given inv_d = 1 / d; broadcasts over leading axes, the
    last axis is xyz. Empty overlaps have t0 > t1.

    A zero direction component leaves its axis unbounded when o lies in
    the slab, on a plane included, and empty otherwise; an all-zero
    direction outside the box comes out empty too.
    """
    with np.errstate(invalid="ignore"):  # 0 * inf: o on a plane, d zero
        ta = (lo - o) * inv_d
        tb = (hi - o) * inv_d
    near = np.minimum(ta, tb)
    far = np.maximum(ta, tb)
    near = np.where(np.isnan(near), -np.inf, near)
    far = np.where(np.isnan(far), np.inf, far)
    t0 = np.maximum(near.max(axis=-1), t_min)
    t1 = np.minimum(far.min(axis=-1), t_max)
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


def luminance(c) -> float:
    """Rec. 709 luminance of a linear RGB triple."""
    c = np.asarray(c, dtype=np.float64)
    return float(c[..., 0] * 0.2126 + c[..., 1] * 0.7152 + c[..., 2] * 0.0722)


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


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class Transform:
    """Invertible homogeneous 4x4 transform with a cached inverse.

    The bottom row must be (0, 0, 0, 1). Construction fails on
    non-invertible matrices; rigid factory methods keep the rotation block
    orthonormal, which dynamic field objects rely on.
    """

    __slots__ = ("m", "m_inv")

    def __init__(self, m, m_inv=None):
        m = np.asarray(m, dtype=np.float64).reshape(4, 4)
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
            raise ValueError(f"transform bottom row must be (0,0,0,1), got {m[3]}")
        if m_inv is None:
            try:
                m_inv = np.linalg.inv(m)
            except np.linalg.LinAlgError as e:
                raise ValueError("transform matrix is not invertible") from e
        m_inv = np.asarray(m_inv, dtype=np.float64).reshape(4, 4)
        if not np.allclose(m @ m_inv, np.eye(4), atol=1e-6):
            raise ValueError("transform inverse check failed (m @ m_inv != I)")
        self.m = m
        self.m_inv = m_inv

    @staticmethod
    def identity() -> "Transform":
        return Transform(np.eye(4), np.eye(4))

    @staticmethod
    def _rigid(r, t) -> "Transform":
        """[r | t] with its exact inverse [r^T | -r^T t], for an orthonormal
        r. Without r the inverse translation is -t itself, and without t
        both translations stay zero."""
        m = np.eye(4)
        m_inv = np.eye(4)
        if r is not None:
            m[:3, :3] = r
            m_inv[:3, :3] = r.T
        if t is not None:
            m[:3, 3] = t
            m_inv[:3, 3] = -t if r is None else -r.T @ t
        return Transform(m, m_inv)

    @staticmethod
    def translate(t) -> "Transform":
        return Transform._rigid(None, vec3(t))

    @staticmethod
    def rotate(axis, angle_rad: float) -> "Transform":
        """Rotation about a (not necessarily unit) axis through the origin."""
        a = unit(axis)
        c, s = np.cos(angle_rad), np.sin(angle_rad)
        x, y, z = a
        r = np.array(
            [
                [c + x * x * (1 - c), x * y * (1 - c) - z * s, x * z * (1 - c) + y * s],
                [y * x * (1 - c) + z * s, c + y * y * (1 - c), y * z * (1 - c) - x * s],
                [z * x * (1 - c) - y * s, z * y * (1 - c) + x * s, c + z * z * (1 - c)],
            ]
        )
        return Transform._rigid(r, None)

    @staticmethod
    def from_quaternion(q, origin) -> "Transform":
        """Rotation from a quaternion (w, x, y, z), normalized here, then a
        translation to origin."""
        q = np.asarray(q, dtype=np.float64)
        return Transform._rigid(quat_to_matrix(q / np.linalg.norm(q)), vec3(origin))

    @staticmethod
    def look_at(position, target, up=(0.0, 1.0, 0.0)) -> "Transform":
        """Camera-to-world pose: camera looks down its local -z axis."""
        position = vec3(position)
        fwd = unit(np.asarray(target, dtype=np.float64) - position)
        right = unit(np.cross(fwd, unit(up)))
        true_up = np.cross(right, fwd)
        return Transform._rigid(np.stack([right, true_up, -fwd], axis=1), position)

    def compose(self, other: "Transform") -> "Transform":
        """self applied after other: (self.compose(other))(p) = self(other(p))."""
        return Transform(self.m @ other.m, other.m_inv @ self.m_inv)

    def point(self, p, inverse: bool = False) -> np.ndarray:
        """Transform a point (or an (N,3) batch of points)."""
        m = self.m_inv if inverse else self.m
        p = np.asarray(p, dtype=np.float64)
        return p @ m[:3, :3].T + m[:3, 3]

    def direction(self, d, inverse: bool = False) -> np.ndarray:
        """Transform a direction (no translation)."""
        m = self.m_inv if inverse else self.m
        d = np.asarray(d, dtype=np.float64)
        return d @ m[:3, :3].T

    def __eq__(self, other):
        return isinstance(other, Transform) and np.array_equal(self.m, other.m)

    def __repr__(self):
        return f"Transform({self.m.tolist()})"
