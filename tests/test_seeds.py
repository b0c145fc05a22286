"""The column hashes batch programs use equal the scalar ones row by row."""

import numpy as np
import pytest

from loggraph import seeds
from loggraph.seeds import chain_hash, chain_hash_many, pick_index, pick_index_many, unit_float, unit_float_many

EDGE_SEEDS = [0, 5, -1, -(2**63), 2**63, 2**64 - 1, 2**70 + 3]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_chain_hash_many_matches_the_scalar_hash(seed):
    rng = np.random.default_rng(abs(seed) % 1000)
    v = np.concatenate([rng.integers(0, 2**32, 200), [0, 2**32 - 1]]).astype(np.uint32)
    j = np.concatenate([rng.integers(0, 2**62, 200), [0, 2**63 - 1]])
    neg = rng.integers(-(2**63), 0, len(v))
    for superstep in (0, 7, 2**40):
        got = chain_hash_many(seed, superstep, v, j, neg)
        want = [chain_hash(seed, superstep, int(a), int(b), int(c)) for a, b, c in zip(v, j, neg)]
        assert got.dtype == np.uint64
        assert got.tolist() == want


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_pick_index_many_matches_the_scalar_pick(seed):
    rng = np.random.default_rng(abs(seed) % 997)
    v = rng.integers(0, 2**32, 300)
    j = rng.integers(0, 2**20, 300)
    n = np.concatenate([np.ones(100, np.int64), rng.integers(1, 2**33, 200)])
    got = pick_index_many(seed, n, 3, v, j)
    want = [pick_index(seed, int(c), 3, int(a), int(b)) for a, b, c in zip(v, j, n)]
    assert got.tolist() == want
    assert (got[:100] == 0).all()  # n = 1


def test_scalar_columns_broadcast():
    assert chain_hash_many(9, 1, 2, 3).tolist() == [chain_hash(9, 1, 2, 3)]
    assert chain_hash_many(9, np.zeros(0, np.int64)).tolist() == []


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_unit_float_many_matches_the_scalar_float(seed):
    rng = np.random.default_rng(abs(seed) % 991)
    v = np.concatenate([rng.integers(0, 2**32, 300), [0, 2**32 - 1]])
    neg = rng.integers(-(2**63), 0, len(v))
    for superstep in (0, 1, 2**40):
        got = unit_float_many(seed, superstep, v, neg)
        want = [unit_float(seed, superstep, int(a), int(b)) for a, b in zip(v, neg)]
        assert got.dtype == np.float64
        assert got.tolist() == want


def test_unit_float_many_rounds_every_hash_as_the_scalar_float(monkeypatch):
    # the hash values at both ends and at rounding ties of the float64
    # conversion: 2**64 - 1 rounds up to 2**64, so both give 1.0
    hashes = [0, 1, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 2**10, 2**63 + 3 * 2**10, 2**64 - 2**10, 2**64 - 1]
    hashes += np.random.default_rng(0).integers(0, 2**64, 500, dtype=np.uint64).tolist()
    monkeypatch.setattr(seeds, "chain_hash", lambda seed, h: h)
    monkeypatch.setattr(seeds, "chain_hash_many", lambda seed, h: np.asarray(h, np.uint64))
    got = unit_float_many(0, hashes)
    assert got.tolist() == [unit_float(0, h) for h in hashes]
    assert got[0] == 0.0 and got[9] == 1.0
