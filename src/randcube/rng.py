"""Counter-based random streams keyed by (seed, tags, per-variable keys).

Every random draw in the samplers is a pure function of the master seed, a
few integer tags (model kind, trial index, axis), and the integer key of the
variable (cube coordinates or lattice point).  No generator state is carried
anywhere, so trials parallelize freely, identical cubes get identical marks
in every window that contains them, and distinct blocks sharing no cubes are
automatically independent.

The mixer is the splitmix64 finalizer (xor-shift-multiply avalanche).  The
seed and the tags are folded once in Python integers masked to 64 bits; the
key columns are then folded by the same mixer vectorized over numpy uint64
arrays, so both folds do the same arithmetic modulo 2^64.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA_INT, _M1_INT, _M2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA, _M1, _M2 = np.uint64(_GAMMA_INT), np.uint64(_M1_INT), np.uint64(_M2_INT)
_U53 = float(2.0**-53)

# fold tags for the independent purposes a sampler draws for
TAG_CUBE_MARK = 0x63756265  # per-cube marks of the upper/lower models
TAG_LATTICE_POINT = 0x706F696E  # per-lattice-point perturbations


def _mix(x: np.ndarray) -> np.ndarray:
    # numpy's uint64 array arithmetic wraps modulo 2^64 without a warning,
    # which is the intended arithmetic; the first step makes the array that
    # the later steps update in place
    x = x + _GAMMA
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def _mix_int(x: int) -> int:
    """``_mix`` of one value in [0, 2^64), in Python integers."""
    x = (x + _GAMMA_INT) & _MASK
    x ^= x >> 30
    x = (x * _M1_INT) & _MASK
    x ^= x >> 27
    x = (x * _M2_INT) & _MASK
    return x ^ (x >> 31)


def stream_uniform(seed: int, tags: tuple[int, ...], keys: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates, one per row of ``keys``.

    ``keys`` is an (N, k) integer array with k >= 1; each row is the
    identity of one variable.  Signed entries, the seed and the tags are
    folded via their two's-complement bits.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2 or keys.shape[1] == 0:
        raise ValueError(f"keys must be an (N, k) array with k >= 1, "
                         f"not of shape {keys.shape}")
    state = seed & _MASK
    for tag in tags:
        state = _mix_int(state ^ (tag & _MASK))
    h = np.full(keys.shape[0], state, dtype=np.uint64)
    for col in range(keys.shape[1]):
        h = _mix(h ^ keys[:, col].view(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * _U53
