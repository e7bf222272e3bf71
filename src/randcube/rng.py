"""Counter-based random streams keyed by (seed, tags, per-variable keys).

Every random draw in the samplers is a pure function of the master seed, a
few integer tags (model kind, trial index, axis), and the integer key of the
variable (cube coordinates or lattice point).  No generator state is carried
anywhere, so trials parallelize freely, identical cubes get identical marks
in every window that contains them, and distinct blocks sharing no cubes are
automatically independent.

The mixer is the splitmix64 finalizer (xor-shift-multiply avalanche), folded
over the key columns; it vectorizes over numpy uint64 arrays.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U53 = float(2.0**-53)

# fold tags for the independent purposes a sampler draws for
TAG_CUBE_MARK = 0x63756265  # per-cube marks of the upper/lower models
TAG_LATTICE_POINT = 0x706F696E  # per-lattice-point perturbations


def _mix(x: np.ndarray) -> np.ndarray:
    # modulo-2^64 wraparound is the intended arithmetic here
    with np.errstate(over="ignore"):
        x = x + _GAMMA
        x = x ^ (x >> np.uint64(30))
        x = x * _M1
        x = x ^ (x >> np.uint64(27))
        x = x * _M2
        return x ^ (x >> np.uint64(31))


def _to_u64(value: int) -> np.ndarray:
    return np.asarray(value & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)


def stream_uniform(seed: int, tags: tuple[int, ...], keys: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates, one per row of ``keys``.

    ``keys`` is an (N, k) integer array; each row is the identity of one
    variable.  Signed entries are folded via their two's-complement bits.
    """
    keys = np.atleast_2d(np.asarray(keys, dtype=np.int64))
    state = _to_u64(seed)
    for tag in tags:
        state = _mix(state ^ _to_u64(tag))
    h = np.full(keys.shape[0], state, dtype=np.uint64)
    for col in range(keys.shape[1]):
        h = _mix(h ^ keys[:, col].view(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * _U53

