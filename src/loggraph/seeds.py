"""Deterministic seeded hashing for randomized vertex programs.

The same (seed, superstep, vertex, ...) tuple always maps to the same value
on every platform, which is what makes seeded runs reproducible and lets an
oracle replay the engine's random choices. `chain_hash_many`,
`unit_float_many` and `pick_index_many` are the column forms batch programs
use: splitmix64 on uint64 arrays, whose wrapping multiplies give the same
bits as `& _M64`.
"""

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def chain_hash(seed: int, *vals: int) -> int:
    x = mix64(seed ^ _GOLDEN)
    for v in vals:
        x = mix64(x ^ (v & _M64))
    return x


def unit_float(seed: int, *vals: int) -> float:
    """Uniform-looking float in [0, 1)."""
    return chain_hash(seed, *vals) / 2.0**64


def pick_index(seed: int, n: int, *vals: int) -> int:
    return chain_hash(seed, *vals) % n


def _mix64_many(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x = x * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _column(v) -> np.ndarray:
    """v as uint64 holding the bits of v & _M64."""
    if isinstance(v, int):
        return np.array(v & _M64, np.uint64)
    v = np.asarray(v)
    return v.astype(np.int64).view(np.uint64) if v.dtype.kind == "i" else v.astype(np.uint64)


def chain_hash_many(seed: int, *cols) -> np.ndarray:
    """chain_hash(seed, *row) for every row of the columns, as uint64; a
    Python int column is broadcast."""
    x = np.array([mix64(seed ^ _GOLDEN)], np.uint64)
    for col in cols:
        x = _mix64_many(x ^ _column(col))
    return x


def unit_float_many(seed: int, *cols) -> np.ndarray:
    """unit_float(seed, *row i) for every row, as float64: the hash rounded
    to the nearest double, as Python's int-to-float conversion rounds it."""
    return chain_hash_many(seed, *cols).astype(np.float64) / 2.0**64


def pick_index_many(seed: int, n: np.ndarray, *cols) -> np.ndarray:
    """pick_index(seed, n[i], *row i) for every row, as int64; every n must
    be positive."""
    return (chain_hash_many(seed, *cols) % np.asarray(n).astype(np.uint64)).astype(np.int64)
