"""Counter-based random numbers.

Every random draw in the renderer is a pure function of an integer key
tuple (seed, pixel, sample, bounce, purpose, lane), so images are
independent of tile scheduling and worker count. The mixer is a chained
splitmix64 finalizer; statistical quality is plenty for Monte Carlo
sampling and each key tuple maps to one fixed double in [0, 1).
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_GOLDEN = _U(0x9E3779B97F4A7C15)
_MIX_A = _U(0xBF58476D1CE4E5B9)
_MIX_B = _U(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)

# Purpose tags for the draws a path consumes. Keys differ in at least one
# component, so adding a draw never shifts any other stream.
PIXEL_X = 0
PIXEL_Y = 1
BSDF_LOBE = 2
BSDF_U = 3
BSDF_V = 4
LIGHT_PICK = 5
LIGHT_U = 6
LIGHT_V = 7


def _mix(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> _U(30))
    h = h * _MIX_A
    h = h ^ (h >> _U(27))
    h = h * _MIX_B
    return h ^ (h >> _U(31))


def hash_keys(*keys) -> np.ndarray:
    """Hash integer keys (scalars or broadcastable arrays) to uint64."""
    with np.errstate(over="ignore"):
        h = np.asarray(_GOLDEN)
        for k in keys:
            k = np.asarray(k)
            if k.dtype.kind not in "ui":
                raise TypeError(f"rng keys must be integers, got {k.dtype}")
            k = k.astype(np.int64).view(np.uint64)
            h = _mix((h + _GOLDEN) ^ (k * _MIX_B + _GOLDEN))
    return h


def uniform(*keys) -> np.ndarray:
    """Deterministic uniforms in [0, 1), one per broadcast key tuple."""
    h = hash_keys(*keys)
    return (h >> _U(11)).astype(np.float64) * _INV_2_53
