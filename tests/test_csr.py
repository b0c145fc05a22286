import json
import os

import numpy as np
import pytest

from loggraph import csr
from loggraph.errors import ConfigError, ContractViolation, IngestError, OversizedVertexError
from loggraph.pager import page_capacity

import oracles
from util import build_graph, op_rows, ring_graph, random_graph


def test_partition_exact_packing():
    bounds, sums = csr.partition_vertices(np.array([1, 1, 1, 1]), 16, 32)
    assert bounds == [0, 2, 4]
    assert sums == [2, 2]


def test_partition_oversized_vertex_names_culprit():
    with pytest.raises(OversizedVertexError) as err:
        csr.partition_vertices(np.array([3, 1]), 16, 32)
    assert err.value.vertex == 0


def test_partition_ring_by_prefix_sum_oracle():
    # independent oracle: greedy over prefix sums of max(indeg,1)*record
    indeg = np.full(6, 2)
    record, budget = 16, 96
    expect = [0]
    acc = 0
    for v, d in enumerate(indeg):
        w = max(int(d), 1) * record
        if acc + w > budget:
            expect.append(v)
            acc = w
        else:
            acc += w
    expect.append(6)
    bounds, _ = csr.partition_vertices(indeg, record, budget)
    assert bounds == expect == [0, 3, 6]


def test_partition_zero_degree_consumes_slack():
    # 3 isolated vertices, one record each: budget of 2 records -> 2 intervals
    bounds, _ = csr.partition_vertices(np.zeros(3, int), 16, 32)
    assert bounds == [0, 2, 3]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_build_single_edge(tmp_path):
    # budget of one record per vertex puts the lone source in its own interval
    g = build_graph(tmp_path, np.array([0]), np.array([1]), 2, page_size=256, sort_budget=16, record_size=16)
    part = g.partitions[0]
    assert (part.lo, part.hi) == (0, 1)
    assert part.full_rowptr().tolist() == [0, 1]
    assert part.full_colidx().tolist() == [1]


def test_build_ring_adjacency_sorted_by_destination(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    views, _ = csr.load_adjacency(g, np.array([2]))
    assert views[2].neighbors.tolist() == [1, 3]


def test_build_duplicate_edges_preserved(tmp_path):
    g = build_graph(tmp_path, np.array([0, 0]), np.array([1, 1]), 2, page_size=256)
    assert g.partitions[0].full_colidx().tolist() == [1, 1]


def test_build_out_of_range_rejected(tmp_path):
    meta = csr.GraphMeta(2, 1, [0, 2], [1], 256)
    from loggraph.pager import StoreRegistry

    with pytest.raises(IngestError):
        csr.build_partitions(np.array([0]), np.array([5]), meta, StoreRegistry(256), str(tmp_path))


def test_load_empty_active_reads_nothing(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    before = g.registry.totals()["csr"]
    views, stats = csr.load_adjacency(g, np.array([], np.int64))
    assert len(views) == 0 and stats == {}
    assert g.registry.totals()["csr"] == before


def test_load_all_active_reads_every_page_once(tmp_path):
    src, dst = random_graph(50, 6, seed=1)
    g = build_graph(tmp_path, src, dst, 50, page_size=256)
    total_pages = sum(p.rowptr.num_pages + p.colidx.num_pages for p in g.partitions)
    before = g.registry.totals()["csr"][0]
    csr.load_adjacency(g, np.arange(50))
    assert g.registry.totals()["csr"][0] - before == total_pages


def test_load_single_vertex_page_span(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    before = g.registry.totals()["csr"][0]
    views, stats = csr.load_adjacency(g, np.array([2]))
    # adjacency fits one colidx page; rowptr entries 2,3 share one page
    assert g.registry.totals()["csr"][0] - before == 2
    assert sum(stats.values()) == 2 * 4  # two useful neighbor entries


def test_load_unsorted_input_rejected(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    with pytest.raises(ContractViolation):
        csr.load_adjacency(g, np.array([3, 1]))


def test_page_monotonicity_and_minimality(tmp_path):
    src, dst = random_graph(80, 5, seed=3)
    g = build_graph(tmp_path, src, dst, 80, page_size=256)

    def pages_for(active):
        before = g.registry.totals()["csr"][0]
        csr.load_adjacency(g, np.asarray(active, np.int64))
        return g.registry.totals()["csr"][0] - before

    rng = np.random.default_rng(0)
    a = np.unique(rng.integers(0, 80, 10))
    b = np.union1d(a, np.unique(rng.integers(0, 80, 20)))
    all_v = np.arange(80)
    pa, pb, pall = pages_for(a), pages_for(b), pages_for(all_v)
    assert pa <= pb <= pall
    assert pages_for([]) == 0


def test_reconstruction_matches_input_multiset(tmp_path):
    src, dst = random_graph(60, 4, seed=5)
    g = build_graph(tmp_path, src, dst, 60, page_size=512)
    s2, d2 = g.all_edges()
    want = np.lexsort((dst, src))
    got = np.lexsort((d2, s2))
    assert np.array_equal(src[want], s2[got])
    assert np.array_equal(dst[want], d2[got])


def test_merge_delete_edge(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    k = g.meta.interval_of(2)
    warn = csr.merge_structural_updates(g, k, op_rows(("del_edge", 2, 3)))
    assert warn == 0
    views, _ = csr.load_adjacency(g, np.array([2]))
    assert views[2].neighbors.tolist() == [1]


def test_merge_empty_batch_identity(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    before = [(p.full_rowptr().tolist(), p.full_colidx().tolist()) for p in g.partitions]
    for k in range(g.meta.num_intervals):
        csr.merge_structural_updates(g, k, op_rows())
    after = [(p.full_rowptr().tolist(), p.full_colidx().tolist()) for p in g.partitions]
    assert before == after


def test_merge_insert_then_delete_is_identity(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    k = g.meta.interval_of(0)
    before = g.partitions[k].full_colidx().tolist()
    warn = csr.merge_structural_updates(g, k, op_rows(("add_edge", 0, 3), ("del_edge", 0, 3)))
    assert warn == 0
    assert g.partitions[k].full_colidx().tolist() == before


def test_merge_missing_delete_warns(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    k = g.meta.interval_of(0)
    assert csr.merge_structural_updates(g, k, op_rows(("del_edge", 0, 4))) == 1


def test_merge_edge_count_invariant(tmp_path):
    src, dst = random_graph(30, 4, seed=8)
    g = build_graph(tmp_path, src, dst, 30, page_size=256)
    k = 0
    lo, hi = g.meta.interval_range(k)
    old = len(g.partitions[k].full_colidx())
    ops = [("add_edge", lo, (lo + 7) % 30), ("add_edge", lo, (lo + 11) % 30)]
    dels = [("del_edge", int(s), int(d)) for s, d in zip(src, dst) if lo <= s < hi][:3]
    warn = csr.merge_structural_updates(g, k, op_rows(*ops, *dels))
    rp = g.partitions[k].full_rowptr()
    assert np.all(np.diff(rp) >= 0)
    applied = len(dels) - warn
    assert len(g.partitions[k].full_colidx()) == old + len(ops) - applied


def test_merge_rejects_out_of_range_insert(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    with pytest.raises(IngestError):
        csr.merge_structural_updates(g, 0, op_rows(("add_edge", 0, 99)))


@pytest.mark.parametrize("seed", range(40))
def test_apply_ops_matches_the_list_reference(seed):
    # few distinct neighbors, so rows carry multigraph copies and many
    # deletions miss; no op follows a removal of its vertex but another
    # removal, as in the engine's buffer
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(40, size=int(rng.integers(1, 10)), replace=False))
    rows = [sorted(rng.integers(0, 5, int(rng.integers(0, 6))).tolist()) for _ in ids]
    ops, removed = [], set()
    for _ in range(int(rng.integers(0, 40))):
        u, r = int(rng.choice(ids)), rng.random()
        kind = csr.ADD_EDGE if r < 0.4 else csr.DEL_EDGE if r < 0.92 else csr.DEL_VERTEX
        if u in removed and kind != csr.DEL_VERTEX:
            continue
        if kind == csr.DEL_VERTEX:
            removed.add(u)
        ops.append((kind, u, int(rng.integers(0, 5)) if kind != csr.DEL_VERTEX else -1))
    offsets = np.cumsum([0] + [len(r) for r in rows])
    nbrs = np.array([x for r in rows for x in r], csr.VID_DT)
    got_offsets, got_nbrs, got_warnings = csr.apply_ops(ids, offsets, nbrs, np.array(ops, np.int64).reshape(-1, 3))
    want, want_warnings = oracles.apply_ops_reference(ids.tolist(), rows, ops)
    assert [got_nbrs[a:b].tolist() for a, b in zip(got_offsets[:-1], got_offsets[1:])] == want
    assert got_warnings == want_warnings


def test_rowptr_uses_8_byte_and_colidx_4_byte_records(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    part = g.partitions[0]
    assert part.cap_rp == page_capacity(256, 8)
    assert part.cap_ci == page_capacity(256, 4)


@pytest.mark.parametrize(
    "change, named",
    [
        (lambda m: m.update(colour_depth=4), "colour_depth"),  # unknown key
        (lambda m: m.pop("record_size"), "record_size"),  # missing key
    ],
    ids=["unknown", "missing"],
)
def test_meta_json_key_mismatch_is_config_error(tmp_path, change, named):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    path = os.path.join(g.path, "meta.json")
    with open(path) as f:
        meta = json.load(f)
    change(meta)
    with open(path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ConfigError, match=named) as err:
        csr.GraphDir(g.path)
    assert "reconvert" in str(err.value)
