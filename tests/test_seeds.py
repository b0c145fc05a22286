"""The column hashes batch programs use equal the scalar ones row by row."""

import numpy as np
import pytest

from loggraph.seeds import chain_hash, chain_hash_many, pick_index, pick_index_many

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
