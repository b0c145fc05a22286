"""Storage knobs must not change results.

The batch apps (PageRank with combine on and off, BFS) and k-core through
the per-vertex adapter give identical final states, superstep counts and
message counts at every page size, with the edge log on and off, and still
match their oracles. Only page counts may differ.
"""

import numpy as np
import pytest

from loggraph.apps import Bfs, KCore, PageRank
from loggraph.engine import EngineConfig, run_app

import oracles
from util import adjacency_lists, build_graph, random_graph

N = 400
KNOBS = [(page_size, edge_log) for page_size in (256, 4096) for edge_log in (False, True)]


def run_all_knobs(tmp_path, src, dst, make_program, **cfg):
    results = []
    for page_size, edge_log in KNOBS:
        d = tmp_path / f"p{page_size}_e{int(edge_log)}"
        g = build_graph(d, src, dst, N, page_size=page_size)
        config = EngineConfig(memory_budget=1 << 20, page_size=page_size, edge_log=edge_log, **cfg)
        results.append(run_app(g, make_program(), config, str(d / "run")))
    return results


def assert_knob_invariant(results):
    first = results[0]
    for res in results[1:]:
        assert res.states.tobytes() == first.states.tobytes()
        assert res.num_supersteps == first.num_supersteps
        assert [st.messages_sent for st in res.stats] == [st.messages_sent for st in first.stats]


@pytest.mark.parametrize("use_combine", [True, False])
def test_pagerank_invariant_across_storage_knobs(tmp_path, use_combine):
    src, dst = random_graph(N, 6, seed=41)
    results = run_all_knobs(tmp_path, src, dst, lambda: PageRank(use_combine=use_combine), max_supersteps=12)
    assert_knob_invariant(results)
    want = oracles.oracle_pagerank(src, dst, N, 0.85, 12)
    assert np.allclose(results[0].states["rank"], want, atol=1e-9)


def test_bfs_invariant_across_storage_knobs(tmp_path):
    src, dst = random_graph(N, 3, seed=42)
    results = run_all_knobs(tmp_path, src, dst, lambda: Bfs(0), max_supersteps=100)
    assert_knob_invariant(results)
    assert results[0].states["level"].tolist() == oracles.oracle_bfs(adjacency_lists(src, dst, N), 0)


def test_kcore_through_the_adapter_invariant_with_overlay(tmp_path):
    # the default merge threshold is never reached here, so every deletion
    # after the first superstep is served through the structural overlay
    src, dst = random_graph(N, 5, seed=43)
    results = run_all_knobs(tmp_path, src, dst, lambda: KCore(k=4), max_supersteps=500)
    assert_knob_invariant(results)
    assert sum(st.messages_sent for st in results[0].stats) > 0
    want = oracles.oracle_kcore(adjacency_lists(src, dst, N), 4)
    assert np.array_equal(results[0].states["alive"].astype(bool), want)
