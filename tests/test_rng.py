"""The counter-based stream against its numpy-only reference.

``stream_uniform`` folds the seed and the tags in Python integers and only
the key columns in numpy uint64 arrays; the reference below folds all of
them with the numpy mixer, as the stream was first written, so every draw
must agree bit for bit.
"""

import re

import numpy as np
import pytest

from randcube.rng import _U53, _mix, _mix_int, stream_uniform

MASK = 2**64 - 1


def _to_u64(value):
    return np.asarray(value & MASK, dtype=np.uint64)


def stream_reference(seed, tags, keys):
    """Every fold in numpy uint64 arithmetic, one 0-d array per tag."""
    keys = np.asarray(keys, dtype=np.int64)
    state = _to_u64(seed)
    with np.errstate(over="ignore"):  # numpy scalars warn where arrays wrap
        for tag in tags:
            state = _mix(state ^ _to_u64(tag))
    h = np.full(keys.shape[0], state, dtype=np.uint64)
    for col in range(keys.shape[1]):
        h = _mix(h ^ keys[:, col].view(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * _U53


def test_mix_int_equals_numpy_mix():
    rng = np.random.default_rng(2014)
    values = [0, 1, 2**63, 2**64 - 1] + rng.integers(0, 2**64, 200, dtype=np.uint64).tolist()
    expected = _mix(np.array(values, dtype=np.uint64)).tolist()
    assert [_mix_int(v) for v in values] == expected


@pytest.mark.parametrize("seed, tags", [
    (0, ()), (1, (2, 0x63756265, 0)), (-1, (1,)), (-(2**63), (-5, 2**64 - 1, 7)),
    (2**64 - 1, (-1, -1)), (123456789, (4, 0x706F696E, 3, 2)), (-987654321, (2**63,)),
])
def test_stream_equals_numpy_reference(seed, tags):
    rng = np.random.default_rng(abs(seed) % 1000)
    keys = rng.integers(-(2**62), 2**62, (50, 3))
    keys[:4] = [[0, 0, 0], [-1, -1, -1], [2**63 - 1, -(2**63), 0], [1, 2, 3]]
    got = stream_uniform(seed, tags, keys)
    assert got.tobytes() == stream_reference(seed, tags, keys).tobytes()
    assert got.shape == (50,) and ((0 <= got) & (got < 1)).all()


@pytest.mark.parametrize("shape", [(5,), (5, 0), (0, 0), (), (2, 3, 1)])
def test_stream_rejects_keys_that_are_not_rows(shape):
    # a 1-D array was once read as one variable, an (N, 0) array as N equal ones
    message = f"keys must be an (N, k) array with k >= 1, not of shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stream_uniform(1, (2,), np.zeros(shape, dtype=np.int64))


def test_stream_takes_one_variate_per_row():
    assert stream_uniform(1, (2,), np.arange(5)[:, None]).shape == (5,)
    assert stream_uniform(1, (2,), np.zeros((0, 2), dtype=np.int64)).shape == (0,)
