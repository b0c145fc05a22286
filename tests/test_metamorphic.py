"""Storage knobs must not change results.

Every app gives identical final states, superstep counts, message counts
and structural warnings at every page size, with the edge log on and off,
and under a memory budget so tight that the multi-log evicts and a sorted
log takes several passes, and still matches its oracle. K-core also gives
them at every merge threshold, from merging each superstep to serving every
deletion through the overlay. Only page counts may differ.
"""

import numpy as np
import pytest

from loggraph.apps import Bfs, Coloring, Community, KCore, Mis, PageRank, RandomWalk
from loggraph.engine import EngineConfig, run_app

import oracles
from util import adjacency_lists, build_graph, random_graph, small_world, spy_pressure

N = 400
# a sort budget of 409 bytes and a multi-log budget of 2 KiB on 256-byte pages
TIGHT = dict(page_size=256, edge_log=False, memory_budget=40 << 10, sort_frac=0.01)
KNOBS = [dict(page_size=page_size, edge_log=edge_log) for page_size in (256, 4096) for edge_log in (False, True)] + [
    TIGHT
]


def run_all_knobs(tmp_path, src, dst, make_program, knobs=KNOBS, **cfg):
    results = []
    for i, knob in enumerate(knobs):
        d = tmp_path / f"knob{i}"
        g = build_graph(d, src, dst, N, page_size=knob["page_size"])
        config = EngineConfig(**{"memory_budget": 1 << 20, **knob}, **cfg)
        results.append(run_app(g, make_program(), config, str(d / "run")))
    return results


def assert_knob_invariant(results):
    first = results[0]
    for res in results[1:]:
        assert res.states.tobytes() == first.states.tobytes()
        assert res.num_supersteps == first.num_supersteps
        assert [st.messages_sent for st in res.stats] == [st.messages_sent for st in first.stats]
        assert res.structural_warnings == first.structural_warnings


def test_tight_knob_evicts_and_sorts_in_passes(tmp_path, monkeypatch):
    src, dst = random_graph(N, 6, seed=45)
    pressure = spy_pressure(monkeypatch)
    run_all_knobs(tmp_path, src, dst, Community, [TIGHT], max_supersteps=3)
    assert pressure["multi_pass"] > 0 and pressure["evicted"] > 0


def test_community_invariant_across_storage_knobs(tmp_path):
    src, dst = random_graph(N, 6, seed=45)
    results = run_all_knobs(tmp_path, src, dst, Community, max_supersteps=15)
    assert_knob_invariant(results)
    labels, steps = oracles.oracle_community(adjacency_lists(src, dst, N), 15)
    assert results[0].states["label"].tolist() == labels
    assert results[0].num_supersteps == steps


def test_coloring_invariant_across_storage_knobs(tmp_path):
    src, dst = random_graph(N, 6, seed=46)
    results = run_all_knobs(tmp_path, src, dst, Coloring, max_supersteps=15)
    assert_knob_invariant(results)
    colors, steps = oracles.oracle_coloring(adjacency_lists(src, dst, N), 15)
    assert results[0].states["color"].tolist() == colors
    assert results[0].num_supersteps == steps


def test_mis_invariant_across_storage_knobs(tmp_path):
    src, dst = random_graph(N, 6, seed=47)
    results = run_all_knobs(tmp_path, src, dst, lambda: Mis(seed=13), max_supersteps=30)
    assert_knob_invariant(results)
    status, steps = oracles.oracle_mis(adjacency_lists(src, dst, N), 13, 30)
    assert results[0].states["status"].tolist() == status
    assert results[0].num_supersteps == steps


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


def test_randomwalk_invariant_across_storage_knobs(tmp_path):
    src, dst = random_graph(N, 4, seed=44)
    results = run_all_knobs(tmp_path, src, dst, lambda: RandomWalk(steps=12, stride=3, seed=3), max_supersteps=40)
    assert_knob_invariant(results)
    # walkers revisit vertices, so the edge log serves some adjacency
    assert all(sum(st.edgelog_served for st in res.stats) > 0 for res in results[1::2])
    visits, steps = oracles.oracle_randomwalk(adjacency_lists(src, dst, N), N, 12, 3, 3, 40)
    assert results[0].states["visits"].tolist() == visits
    assert results[0].num_supersteps == steps


def test_kcore_invariant_across_storage_knobs_with_overlay(tmp_path):
    # the default merge threshold is never reached here, so every deletion
    # after the first superstep is served through the structural overlay
    src, dst = random_graph(N, 5, seed=43)
    results = run_all_knobs(tmp_path, src, dst, lambda: KCore(k=4), max_supersteps=500)
    assert_knob_invariant(results)
    assert sum(st.messages_sent for st in results[0].stats) > 0
    want = oracles.oracle_kcore(adjacency_lists(src, dst, N), 4)
    assert np.array_equal(results[0].states["alive"].astype(bool), want)


def test_kcore_invariant_across_merge_thresholds(tmp_path):
    # the rewired lattice peels over several supersteps, and a vertex told
    # of a second dead neighbor must already see the edge it deleted for
    # the first: merged at threshold 1, through the overlay at 10**9
    src, dst = small_world(N, 4, 0.3, seed=1)
    knobs = [
        dict(page_size=256, edge_log=edge_log, merge_threshold=threshold)
        for threshold in (1, 4096, 10**9)
        for edge_log in (False, True)
    ]
    results = run_all_knobs(tmp_path, src, dst, lambda: KCore(k=3), knobs, max_supersteps=500)
    assert_knob_invariant(results)
    want = oracles.oracle_kcore(adjacency_lists(src, dst, N), 3)
    assert np.array_equal(results[0].states["alive"].astype(bool), want)
