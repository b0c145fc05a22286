import dataclasses
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from loggraph import csr, pager
from loggraph.apps import Bfs
from loggraph.engine import EngineConfig, run_app
from loggraph.errors import AddressError, ConfigError, ContractViolation, CorruptPageError, IngestError, MissingStoreError, OversizedVertexError
from loggraph.ingest import convert_arrays
from loggraph.pager import PAGE_COUNT, PAGE_HEADER, page_capacity

import oracles
from util import (
    adjacency,
    adjacency_lists,
    both_directions,
    build_graph,
    colidx_capacity,
    op_rows,
    random_graph,
    ring_graph,
    rows_of,
    star_graph,
    stored_rows,
)


def test_partition_exact_packing():
    assert csr.partition_vertices(np.array([1, 1, 1, 1]), 16, 32) == [0, 2, 4]


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
    assert csr.partition_vertices(indeg, record, budget) == expect == [0, 3, 6]


def greedy_partition(in_degrees, record, budget):
    """The per-vertex loop partition_vertices replaced: a vertex whose
    weight would take the open interval past the budget opens the next."""
    bounds, used = [0], 0
    for v, d in enumerate(in_degrees.tolist()):
        w = max(d, 1) * record
        if used + w > budget:
            bounds.append(v)
            used = w
        else:
            used += w
    return bounds + [len(in_degrees)] if len(in_degrees) else [0, 0]


def test_partition_matches_the_greedy_loop():
    # random degree vectors (empty ones, zeros, one vertex filling its
    # interval) and a skewed one like an R-MAT graph's in-degrees
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(300):
        n = int(rng.integers(0, 200))
        indeg = rng.integers(0, int(rng.integers(1, 40)), n) * (rng.random(n) < rng.random())
        budget = int(rng.integers(max(indeg.max(initial=0), 1), 6 * max(indeg.max(initial=0), 1) + 1)) * 16
        cases.append((indeg, budget))
    cases.append((np.minimum(rng.zipf(1.7, 1 << 16), 5000), 3 << 20))
    for indeg, budget in cases:
        assert csr.partition_vertices(indeg, 16, budget) == greedy_partition(indeg, 16, budget)


def test_partition_zero_degree_consumes_slack():
    # 3 isolated vertices, one record each: budget of 2 records -> 2 intervals
    bounds = csr.partition_vertices(np.zeros(3, int), 16, 32)
    assert bounds == [0, 2, 3]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_build_single_edge(tmp_path):
    # budget of one record per vertex puts the lone source in its own interval
    g = build_graph(tmp_path, np.array([0]), np.array([1]), 2, page_size=256, sort_budget=16, record_size=16)
    part = g.partitions[0]
    assert (part.lo, part.hi) == (0, 1)
    rp, ci = part.full_csr()
    assert rp.tolist() == [0, 1]
    assert ci.tolist() == [1]


def test_build_ring_adjacency_sorted_by_destination(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    assert stored_rows(g, np.array([2])) == {2: [1, 3]}


def test_build_duplicate_edges_preserved(tmp_path):
    g = build_graph(tmp_path, np.array([0, 0]), np.array([1, 1]), 2, page_size=256)
    assert g.partitions[0].full_csr()[1].tolist() == [1, 1]


def test_build_out_of_range_rejected(tmp_path):
    with pytest.raises(IngestError, match="vertex id 5 outside"):
        convert_arrays(np.array([0]), np.array([5]), 2, str(tmp_path / "g"), sort_budget=1 << 20, page_size=256)
    assert not os.path.exists(tmp_path / "g")


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
    with g.registry.scope():
        csr.load_adjacency(g, np.arange(50))[0].take()
    assert g.registry.totals()["csr"][0] - before == total_pages


def test_load_single_vertex_page_span(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    before = g.registry.totals()["csr"][0]
    with g.registry.scope():
        views, stats = csr.load_adjacency(g, np.array([2]))
        views.take()
    # adjacency fits one colidx page; rowptr entries 2,3 share one page
    assert g.registry.totals()["csr"][0] - before == 2
    assert sum(stats.values()) == 2 * g.meta.colidx_width  # two useful neighbor entries


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
        with g.registry.scope():
            csr.load_adjacency(g, np.asarray(active, np.int64))[0].take()
        return g.registry.totals()["csr"][0] - before

    rng = np.random.default_rng(0)
    a = np.unique(rng.integers(0, 80, 10))
    b = np.union1d(a, np.unique(rng.integers(0, 80, 20)))
    all_v = np.arange(80)
    pa, pb, pall = pages_for(a), pages_for(b), pages_for(all_v)
    assert pa <= pb <= pall
    assert pages_for([]) == 0


def hub_graph(n, seed):
    """A sparse random graph plus a few hubs wired to half of the vertices
    each way: with 60 entries to a colIdx page a hub's row spans 3 or more
    colIdx pages and shares its end pages with its neighbors' rows."""
    src, dst = random_graph(n, 3, seed=seed)
    rng = np.random.default_rng(seed)
    hubs = rng.choice(n, 4, replace=False)
    pairs = [(int(h), int(v)) for h in hubs for v in rng.choice(n, n // 2, replace=False) if v != h]
    hs, hd = both_directions(pairs)
    return np.concatenate([src, hs]), np.concatenate([dst, hd]), hubs


def page_of_60(n):
    """The page size at which a colIdx page of a graph of n vertices holds
    60 entries, whatever its id width."""
    return PAGE_HEADER + 60 * csr.id_dtype(n).itemsize


def spy_colidx_reads(monkeypatch, g):
    """The (interval, page) of each colIdx page read, in read order."""
    reads = []
    for part in g.partitions:
        def read_page(p, part=part, read=part.colidx.read_page):
            reads.append((part.k, p))
            return read(p)

        monkeypatch.setattr(part.colidx, "read_page", read_page)
    return reads


@pytest.mark.parametrize("case", list(range(4)) + ["hubs-0", "hubs-1", "one-hub", "one-vertex", "zero-degree"])
def test_load_matches_a_per_vertex_reference(tmp_path, monkeypatch, case):
    # neighbors, per-page useful bytes and pages read on random active sets,
    # with isolated vertices and rows spanning pages; colIdx pages are read
    # once each in ascending order, which is also the order of the stats
    n = 300
    page_size = page_of_60(n)
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        src, dst = random_graph(n, 8, seed=case)
        active = np.unique(rng.integers(0, n, int(rng.integers(1, n))))
    else:
        rng = np.random.default_rng(5)
        src, dst, hubs = hub_graph(n, seed=5)
        degree = np.bincount(src, minlength=n)
        active = {
            "hubs-0": np.unique(np.append(rng.integers(0, n, 40), hubs)),
            "hubs-1": np.unique(np.append(rng.integers(0, n, 150), hubs[:2])),
            "one-hub": hubs[:1],
            "one-vertex": np.flatnonzero(degree == 3)[:1],
            "zero-degree": np.flatnonzero(degree == 0)[:5],
        }[case]
        assert len(active) and degree[hubs].min() > 2 * 60
    g = build_graph(tmp_path, src, dst, n, page_size=page_size)
    assert g.meta.num_intervals > 1 and colidx_capacity(g) == 60
    adj = adjacency_lists(src, dst, n)
    useful, rp_pages, rows_on = {}, set(), {}
    cap_rp = page_capacity(page_size, csr.ROWPTR_WIDTH)
    for v in active.tolist():
        k = g.meta.interval_of(v)
        part = g.partitions[k]
        rp = part.full_rowptr()
        local = v - part.lo
        rp_pages |= {(k, local // cap_rp), (k, (local + 1) // cap_rp)}
        for e in range(int(rp[local]), int(rp[local + 1])):
            key = (k, e // colidx_capacity(g))
            useful[key] = useful.get(key, 0) + g.meta.colidx_width
            rows_on.setdefault(key, set()).add(v)
    if str(case).startswith("hubs"):
        assert max(map(len, rows_on.values())) > 1  # active rows share a page
    before = g.registry.totals()["csr"][0]
    reads = spy_colidx_reads(monkeypatch, g)
    with g.registry.scope():
        views, stats = csr.load_adjacency(g, active)
        views.take()
        assert g.registry.totals()["csr"][0] - before == len(rp_pages) + len(useful)
        assert stats == useful
        assert reads == list(stats) == sorted(useful)
        assert rows_of(views) == {v: adj[v] for v in active.tolist()}


def test_converted_graph_holds_one_store_per_file(tmp_path):
    src, dst = random_graph(200, 6, seed=7)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    assert g.meta.num_intervals > 1
    written = sum(os.path.getsize(tmp_path / "g" / f) for f in os.listdir(tmp_path / "g") if f.startswith("part"))
    assert len(g.registry._stores["csr"]) == 2 * g.meta.num_intervals
    assert g.registry.totals()["csr"] == (0, written // 256)
    g.close()
    assert g.registry._stores["csr"] == []
    assert g.registry.totals()["csr"] == (0, written // 256)


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
    assert stored_rows(g, np.array([2])) == {2: [1]}


def test_merge_empty_batch_identity(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    before = [tuple(v.tolist() for v in p.full_csr()) for p in g.partitions]
    for k in range(g.meta.num_intervals):
        csr.merge_structural_updates(g, k, op_rows())
    after = [tuple(v.tolist() for v in p.full_csr()) for p in g.partitions]
    assert before == after


def test_merge_insert_then_delete_is_identity(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    k = g.meta.interval_of(0)
    before = g.partitions[k].full_csr()[1].tolist()
    warn = csr.merge_structural_updates(g, k, op_rows(("add_edge", 0, 3), ("del_edge", 0, 3)))
    assert warn == 0
    assert g.partitions[k].full_csr()[1].tolist() == before


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
    old = len(g.partitions[k].full_csr()[1])
    ops = [("add_edge", lo, (lo + 7) % 30), ("add_edge", lo, (lo + 11) % 30)]
    dels = [("del_edge", int(s), int(d)) for s, d in zip(src, dst) if lo <= s < hi][:3]
    warn = csr.merge_structural_updates(g, k, op_rows(*ops, *dels))
    rp = g.partitions[k].full_rowptr()
    assert np.all(np.diff(rp) >= 0)
    applied = len(dels) - warn
    assert len(g.partitions[k].full_csr()[1]) == old + len(ops) - applied


def test_merge_rejects_out_of_range_insert(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    with pytest.raises(IngestError):
        csr.merge_structural_updates(g, 0, op_rows(("add_edge", 0, 99)))


def random_apply_ops_case(seed, num_nbrs=5, row_len=6, num_ops=40):
    """Ascending ids, sorted rows drawn from num_nbrs distinct neighbors (so
    they carry multigraph copies and many deletions miss) and ops in which
    no op follows a removal of its vertex but another removal, as in the
    engine's buffer."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(40, size=int(rng.integers(1, 10)), replace=False))
    rows = [sorted(rng.integers(0, num_nbrs, int(rng.integers(0, row_len))).tolist()) for _ in ids]
    ops, removed = [], set()
    for _ in range(int(rng.integers(0, num_ops))):
        u, r = int(rng.choice(ids)), rng.random()
        kind = csr.ADD_EDGE if r < 0.4 else csr.DEL_EDGE if r < 0.92 else csr.DEL_VERTEX
        if u in removed and kind != csr.DEL_VERTEX:
            continue
        if kind == csr.DEL_VERTEX:
            removed.add(u)
        ops.append((kind, u, int(rng.integers(0, num_nbrs)) if kind != csr.DEL_VERTEX else -1))
    return ids.tolist(), rows, ops


A, D, X = csr.ADD_EDGE, csr.DEL_EDGE, csr.DEL_VERTEX
APPLY_OPS_CASES = {
    **{f"long-rows-{seed}": random_apply_ops_case(seed, num_nbrs=30, row_len=400, num_ops=600) for seed in range(4)},
    # the deletions take the stored copy and then the inserted one
    "insert-and-delete-one-edge": ([3, 7], [[1, 2], [5]], [(A, 3, 9), (D, 3, 9), (A, 7, 5), (D, 7, 5), (D, 7, 5)]),
    "deletions-beyond-the-copies": ([3, 7], [[1, 1, 2], [5]], [(D, 3, 1), (D, 3, 1), (D, 3, 1), (D, 7, 4), (A, 7, 4)]),
    # 2**32 + 1 must not match neighbor 1
    "destination-outside-uint32": ([3], [[0, 1, csr.NO_VID - 1]], [(D, 3, 1 << 32), (D, 3, (1 << 32) + 1), (D, 3, -1), (A, 3, 2)]),
    "deletions-before-a-removal": ([3, 7], [[1, 2], [2]], [(D, 3, 1), (D, 3, 1), (A, 3, 5), (X, 3, -1), (D, 7, 2)]),
    "empty-ops": ([2, 5, 9], [[1], [], [0, 0, 3]], []),
    "empty-ids": ([], [], []),
}


@pytest.mark.parametrize("case", list(range(40)) + list(APPLY_OPS_CASES))
def test_apply_ops_matches_the_list_reference(case):
    ids, rows, ops = APPLY_OPS_CASES[case] if isinstance(case, str) else random_apply_ops_case(case)
    offsets = np.cumsum([0] + [len(r) for r in rows])
    nbrs = np.array([x for r in rows for x in r], csr.VID_DT)
    got_offsets, got_nbrs, got_warnings, gone, added = csr.apply_ops(
        np.array(ids, np.int64), offsets, nbrs, np.array(ops, np.int64).reshape(-1, 3)
    )
    want, want_warnings = oracles.apply_ops_reference(ids, rows, ops)
    assert [got_nbrs[a:b].tolist() for a, b in zip(got_offsets[:-1], got_offsets[1:])] == want
    assert got_warnings == want_warnings
    # the entries removed and inserted change each neighbor's count as the
    # new rows do, which the merge's in-degrees rely on
    assert Counter(got_nbrs.tolist()) + Counter(gone.tolist()) == Counter(nbrs.tolist()) + Counter(added.tolist())


@pytest.mark.parametrize(
    "row, ops, want, warnings",
    [
        # the deletion meets no copy; the insertion after it lands
        ([1, 7], [(D, 0, 4), (A, 0, 4)], [1, 4, 7], 1),
        # the deletion removes the copy inserted before it
        ([1, 7], [(A, 0, 4), (D, 0, 4)], [1, 7], 0),
        # each deletion meets no copy, and a later insertion lands
        ([1, 7], [(D, 0, 4), (D, 0, 4), (A, 0, 4)], [1, 4, 7], 2),
        # three stored copies: two deletions leave one, the insertion adds one
        ([1, 4, 4, 4, 7], [(D, 0, 4), (D, 0, 4), (A, 0, 4)], [1, 4, 4, 7], 0),
    ],
    ids=["delete-then-insert", "insert-then-delete", "two-misses-then-insert", "stored-duplicates"],
)
def test_apply_ops_acts_in_arrival_order(row, ops, want, warnings):
    offsets, got, warned, _, _ = csr.apply_ops(np.array([0]), np.array([0, len(row)]), np.array(row, csr.VID_DT), np.array(ops))
    assert got.tolist() == want and offsets.tolist() == [0, len(want)]
    assert warned == warnings


def test_apply_ops_rejects_a_row_with_descending_neighbors():
    offsets, nbrs = np.array([0, 2, 5]), np.array([1, 4, 2, 7, 3], csr.VID_DT)
    with pytest.raises(CorruptPageError, match="vertex 6"):
        csr.apply_ops(np.array([5, 6]), offsets, nbrs, op_rows(("add_edge", 5, 0)))


def random_part(ids, rng):
    """An Adjacency over the ascending ids with random rows (some empty) and
    pages."""
    lens = rng.integers(0, 4, len(ids))
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    return csr.Adjacency(
        np.asarray(ids, np.int64),
        offsets,
        rng.integers(0, 1000, int(offsets[-1])).astype(csr.VID_DT),
        rng.integers(0, 50, (len(ids), 3)),
    )


def merge_reference(a, b):
    """Concatenate both parts, then take every row in ascending id order."""
    order = np.argsort(np.concatenate([a.ids, b.ids]), kind="stable")
    lens = np.concatenate([a.degrees, b.degrees])[order]
    starts = np.concatenate([a.offsets[:-1], b.offsets[:-1] + a.offsets[-1]])[order]
    return (
        np.concatenate([a.ids, b.ids])[order],
        np.concatenate([[0], np.cumsum(lens)]),
        np.concatenate([a.take(), b.take()])[pager.ranges(starts, lens)],
        np.concatenate([a.pages, b.pages])[order],
    )


@pytest.mark.parametrize("case", list(range(6)) + ["empty-left", "empty-right", "both-empty", "before", "after"])
def test_adjacency_merge_matches_concatenate_and_sort(case):
    rng = np.random.default_rng(case if isinstance(case, int) else len(case))
    ids = np.sort(rng.choice(200, 60, replace=False))
    split = {
        "empty-left": np.zeros(60, bool),
        "empty-right": np.ones(60, bool),
        "both-empty": np.zeros(60, bool),
        "before": np.arange(60) < 45,
        "after": np.arange(60) >= 15,
    }.get(case, rng.random(60) < rng.random())
    right = ids[~split] if case != "both-empty" else ids[:0]
    # put holds the rows of b in a: the merge of two parts
    a, b = random_part(ids[split], rng), random_part(right, rng)
    want = merge_reference(a, b)
    a.put(b)
    for field, got, want in zip(("ids", "offsets", "nbrs", "pages"), (a.ids, a.offsets, a.take(), a.pages), want):
        assert got.tolist() == want.tolist(), field


def rows_by_id(adj):
    nbrs = adj.take()
    return {int(v): nbrs[adj.offsets[i] : adj.offsets[i + 1]].tolist() for i, v in enumerate(adj.ids)}


@pytest.mark.parametrize(
    "small_ids",
    [
        [0, 1, 2],  # before every row of the larger part
        [97, 98, 99],  # after every row
        [41, 42, 43, 44],  # adjacent: one insertion point for all
        [0, 41, 42, 99],  # front, adjacent pair and end at once
        [50],
    ],
)
def test_adjacency_merge_splices_each_row_where_its_id_goes(small_ids):
    # the larger part holds every third id from 3 to 96, and its rows are
    # long, so its neighbours are cut between insertion points
    def parts():
        rng = np.random.default_rng(len(small_ids))
        big = random_part([v for v in range(3, 97, 3) if v not in small_ids], rng)
        long_rows = csr.Adjacency(big.ids, big.offsets * 5, rng.integers(0, 1000, big.offsets[-1] * 5), big.pages)
        return long_rows, random_part(small_ids, rng)

    big, small = parts()
    rows = {**rows_by_id(big), **rows_by_id(small)}
    pages = {int(v): p.tolist() for part in (big, small) for v, p in zip(part.ids, part.pages)}
    for order in ((0, 1), (1, 0)):
        got, b = (parts()[i] for i in order)
        got.put(b)
        assert got.ids.tolist() == sorted(rows)
        assert rows_by_id(got) == rows
        assert got.offsets[-1] == len(got.take()) and got.take().dtype == csr.VID_DT
        assert [p.tolist() for p in got.pages] == [pages[v] for v in sorted(rows)]


def truncated_graph(tmp_path, n, vector):
    """n vertices with 10 out-edges each in one interval of 256-byte pages,
    page 0 of its rowPtr or colIdx vector claiming only 5 records (neither
    when vector is None)."""
    src = np.repeat(np.arange(n), 10)
    dst = (src + np.tile(np.arange(1, 11), n)) % n
    g = build_graph(tmp_path, src, dst, n, page_size=256, sort_budget=20 * len(src))
    assert g.meta.num_intervals == 1
    if vector is None:
        return g
    store = getattr(g.partitions[0], vector)
    page = bytearray(store.read_page(0))
    PAGE_COUNT.pack_into(page, 0, 5)
    store.write_page(0, bytes(page))
    return g


@pytest.mark.parametrize("vector, vertex", [("rowptr", 7), ("colidx", 1)])
def test_load_adjacency_rejects_entries_past_a_page_count(tmp_path, vector, vertex):
    # rowPtr entries 7-8 and colIdx entries 10-19 lie past the 5 left on page 0
    g = truncated_graph(tmp_path, 10, vector)
    with g.registry.scope(), pytest.raises(CorruptPageError):
        csr.load_adjacency(g, np.array([vertex]))[0].take()


@pytest.mark.parametrize("count", [5, 59])
def test_load_adjacency_rejects_a_short_page_inside_a_row(tmp_path, count):
    # vertex 0's 200 neighbors are colIdx entries 0-199, pages 0-3 of 60
    # entries; page 1 claims fewer, so its last entries are past its count
    src, dst = star_graph(200)
    g = build_graph(tmp_path, src, dst, 201, page_size=page_of_60(201), sort_budget=20 * len(src))
    assert g.meta.num_intervals == 1 and colidx_capacity(g) == 60
    store = g.partitions[0].colidx
    page = bytearray(store.read_page(1))
    PAGE_COUNT.pack_into(page, 0, count)
    store.write_page(1, bytes(page))
    assert stored_rows(g, np.array([5])) == {5: [0]}  # page 3 is whole
    with g.registry.scope(), pytest.raises(CorruptPageError, match=f"page 1 holds {count} entries, entry 59 wanted"):
        csr.load_adjacency(g, np.array([0]))[0].take()


@pytest.mark.parametrize("read_first", [False, True], ids=["fresh", "page-kept"])
def test_a_pick_past_a_page_count_is_corrupt(tmp_path, read_first):
    # vertex 0's 200 neighbors are colIdx entries 0-199, 60 to a page; page
    # 1 claims 30, so entries 90-119 are past its count. The page is checked
    # when a take reads it, and again when a later take finds it kept
    src, dst = star_graph(200)
    g = build_graph(tmp_path, src, dst, 201, page_size=page_of_60(201), sort_budget=20 * len(src))
    assert colidx_capacity(g) == 60
    store = g.partitions[0].colidx
    page = bytearray(store.read_page(1))
    PAGE_COUNT.pack_into(page, 0, 30)
    store.write_page(1, bytes(page))
    with g.registry.scope():
        adj, _ = csr.load_adjacency(g, np.array([0]))
        assert adj.take(np.array([5, 130])).tolist() == [6, 131]  # pages 0 and 2 are whole
        if read_first:
            assert adj.take(np.array([89, 61])).tolist() == [90, 62]  # within page 1's count
        with pytest.raises(CorruptPageError, match="page 1 holds 30 entries, entry 40 wanted"):
            adj.take(np.array([100]))


def spy_span_reads(monkeypatch):
    """The number of StoreRegistry.read_spans calls that follow."""
    calls = [0]
    read_spans = pager.StoreRegistry.read_spans

    def spy(reg, *args):
        calls[0] += 1
        return read_spans(reg, *args)

    monkeypatch.setattr(pager.StoreRegistry, "read_spans", spy)
    return calls


@pytest.mark.parametrize("active", ["all", "some"])
def test_a_batch_makes_the_same_reads_whatever_the_interval_count(tmp_path, monkeypatch, active):
    # one graph converted into 1 interval and into 8 or more: the same batch
    # reads rowPtr in one call, a first take colIdx in one more, and a later
    # take the pages still unread in one more, whatever the intervals
    n = 400
    src, dst = random_graph(n, 8, seed=9)
    lists = adjacency_lists(src, dst, n)
    rng = np.random.default_rng(9)
    ids = np.arange(n) if active == "all" else np.unique(rng.integers(0, n, 120))
    flat = [w for v in ids.tolist() for w in lists[v]]
    picks = rng.integers(0, len(flat), 50)
    answers, reads = [], []
    for name, sort_budget in (("one", 1 << 30), ("many", 2 * len(src))):
        g = build_graph(tmp_path, src, dst, n, page_size=256, sort_budget=sort_budget, name=name)
        assert g.meta.num_intervals == 1 if name == "one" else g.meta.num_intervals >= 8
        calls = spy_span_reads(monkeypatch)
        with g.registry.scope():
            adj, _ = csr.load_adjacency(g, ids)
            answers.append((adj.take(picks).tolist(), adj.take().tolist()))
        reads.append(calls[0])
        g.close()
    assert answers[0] == answers[1] == ([flat[p] for p in picks.tolist()], flat)
    assert reads == [3, 3]


def bounded_graph(tmp_path, intervals=3):
    """20 vertices an interval, 3 out-edges each, at 60 colIdx entries to a
    page: each interval's colIdx file is one full page, so the last entry of
    one interval and the first of the next are adjacent when the files are
    laid end to end."""
    n = 20 * intervals
    src = np.repeat(np.arange(n), 3)
    dst = (src + np.tile([1, 2, 3], n)) % n
    g = build_graph(tmp_path, src, dst, n, page_size=page_of_60(n), sort_budget=20 * 3 * 20, record_size=20)
    assert g.meta.interval_bounds == list(range(0, n + 1, 20))
    assert [p.colidx.num_pages for p in g.partitions] == [1] * intervals and colidx_capacity(g) == 60
    return g, adjacency_lists(src, dst, n)


@pytest.mark.parametrize("first", [None, 40], ids=["fresh", "after-a-take"])
def test_a_run_of_entries_never_crosses_from_one_file_into_the_next(tmp_path, monkeypatch, first):
    # vertex 19's last entry ends interval 0's full colIdx page and vertex
    # 20's first starts interval 1's: one take wants both, before or after a
    # take that read another interval's page
    g, lists = bounded_graph(tmp_path)
    reads = spy_colidx_reads(monkeypatch, g)
    with g.registry.scope():
        adj, _ = csr.load_adjacency(g, np.array([19, 20, 40]))
        if first is not None:
            assert adj.take(np.array([6])).tolist() == lists[40][:1]
        assert adj.take(np.array([2, 3])).tolist() == [lists[19][-1], lists[20][0]]
        assert adj.take().tolist() == lists[19] + lists[20] + lists[40]
        assert sorted(reads) == [(0, 0), (1, 0), (2, 0)]


def damage_count(store, count=5):
    """Make page 0 of store claim only count records."""
    page = bytearray(store.read_page(0))
    PAGE_COUNT.pack_into(page, 0, count)
    store.write_page(0, bytes(page))


@pytest.mark.parametrize(
    "damage, want, error, match",
    [
        # interval 1's rowPtr page 0 keeps 5 offsets; vertex 27 needs offsets 7-8
        (lambda g: damage_count(g.partitions[1].rowptr), 27, CorruptPageError, r"part1\.rowptr: page 0 holds 5 entries"),
        # interval 2's colIdx page keeps 5 entries; vertex 43's are entries 9-11
        (lambda g: damage_count(g.partitions[2].colidx), 43, CorruptPageError, r"part2\.colidx: page 0 holds 5 entries, entry 11 wanted"),
        # vertex 21's row ends past interval 1's one colIdx page
        (lambda g: set_rowptr_entry(g, 2, 1000, k=1), 21, AddressError, r"part1\.colidx: entry 999 wanted from a store of 1 pages"),
    ],
    ids=["rowptr-count", "colidx-count", "rowptr-past-colidx"],
)
def test_a_damaged_page_past_interval_0_names_its_own_file(tmp_path, damage, want, error, match):
    g, lists = bounded_graph(tmp_path)
    damage(g)
    assert stored_rows(g, np.array([0, 20, 40])) == {v: lists[v] for v in (0, 20, 40)}
    with g.registry.scope(), pytest.raises(error, match=match):
        csr.load_adjacency(g, np.array([5, want]))[0].take()


def test_a_kept_page_past_interval_0_is_checked_against_its_own_count(tmp_path):
    # a later take finds interval 2's colIdx page kept from an earlier take,
    # which wanted only entries within its count
    g, lists = bounded_graph(tmp_path)
    damage_count(g.partitions[2].colidx)
    with g.registry.scope():
        adj, _ = csr.load_adjacency(g, np.array([5, 40, 43]))
        assert adj.take(np.array([4])).tolist() == lists[40][1:2]
        with pytest.raises(CorruptPageError, match=r"part2\.colidx: page 0 holds 5 entries, entry 10 wanted"):
            adj.take(np.array([0, 7]))


@pytest.mark.parametrize("order", ["picks-first", "all-first"])
def test_take_over_edge_log_overlaid_and_stored_rows_matches_the_flat_csr(tmp_path, order):
    # one batch holding rows read from the CSR on demand, rows overlaid in
    # memory and rows served by the edge log: positions in any order, with
    # repeats, and every row, before or after the other take
    from loggraph.edgelog import EdgeLog

    n = 300
    src, dst = random_graph(n, 8, seed=4)
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    assert g.meta.num_intervals > 1
    lists = adjacency_lists(src, dst, n)
    rng = np.random.default_rng(5)
    stored = np.unique(rng.integers(0, n, 80))
    with g.registry.scope():
        adj, _ = csr.load_adjacency(g, stored)
        overlaid = {int(v): sorted(rng.integers(0, n, int(rng.integers(0, 12))).tolist()) for v in stored[::5]}
        adj.put(adjacency(list(overlaid), list(overlaid.values())))
        el = EdgeLog(g.registry, str(tmp_path / "el"), 1 << 16)
        el.begin_superstep(0)
        logged = np.setdiff1d(np.arange(n), stored)[::11]
        for v in logged.tolist():
            assert el.maybe_log(csr.AdjacencyView(v, np.array(lists[v], csr.VID_DT)))
        el.begin_superstep(1)
        adj.put(el.fetch_batch(logged))
        el.close()

        rows = {**{v: lists[v] for v in stored.tolist()}, **overlaid, **{v: lists[v] for v in logged.tolist()}}
        assert adj.ids.tolist() == sorted(rows)
        flat = np.array([w for v in sorted(rows) for w in rows[v]], np.int64)
        assert adj.offsets[-1] == len(flat)
        at = rng.integers(0, len(flat), 400)
        takes = [lambda: adj.take(at).tolist() == flat[at].tolist(), lambda: adj.take().tolist() == flat.tolist()]
        for take in takes if order == "picks-first" else takes[::-1]:
            assert take()


def test_take_of_every_row_skips_rows_overlaid_empty(tmp_path):
    # rows held empty among stored ones hold no entry, and a take of every
    # row leaves them out
    n = 300
    src, dst = random_graph(n, 8, seed=4)
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    assert g.meta.num_intervals > 1
    lists = adjacency_lists(src, dst, n)
    stored = np.arange(0, n, 3)
    with g.registry.scope():
        adj, _ = csr.load_adjacency(g, stored)
        emptied = stored[::4]
        adj.put(adjacency(emptied, [[] for _ in emptied]))
        assert adj.take().tolist() == [w for v in stored.tolist() if v % 12 for w in lists[v]]


def test_a_take_answers_with_its_own_entries(tmp_path):
    # every row of one interval is one run of colIdx entries; writing to a
    # take's answer does not change what a later take returns
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256, sort_budget=20 * len(src))
    assert g.meta.num_intervals == 1
    with g.registry.scope():
        adj, _ = csr.load_adjacency(g, np.arange(6))
        nbrs = adj.take()
        want = [w for r in adjacency_lists(src, dst, 6) for w in r]
        assert nbrs.tolist() == want
        nbrs += 1
        assert adj.take(np.arange(len(want))).tolist() == adj.take().tolist() == want


def test_a_take_keeps_its_pinned_rows_when_a_hold_gives_their_pages_back(tmp_path, monkeypatch):
    # one batch at a tight budget: a take admits the colIdx pages it reads,
    # then a hold gives every page back; until the batch ends the take's
    # arena rows stay pinned, so later takes read none of those pages again
    src, dst = random_graph(300, 8, seed=3)
    want = adjacency_lists(src, dst, 300)
    g = build_graph(tmp_path, src, dst, 300, page_size=256)
    reg = g.registry
    reg.set_budget(16 * 256)
    reads = spy_colidx_reads(monkeypatch, g)
    active = np.arange(0, 300, 3)
    with reg.scope():
        adj, _ = csr.load_adjacency(g, active)
        half = np.arange(len(active) // 2)
        at = pager.ranges(adj.offsets[half], adj.degrees[half])
        first = adj.take(at)
        assert first.tolist() == [w for v in active[half] for w in want[v]]
        taken = set(reads)
        assert reg.resident > 0 and reg.resident <= reg.budget - reg.held
        reg.hold("sort", 16 * 256)  # the ledger has no room left: every page goes back
        assert reg.resident == 0 and sum(reg.evicted.values()) > 0
        pinned = set(np.flatnonzero(reg._pinned & (reg._admitted < 0)).tolist())
        assert pinned and not pinned & set(reg._free)
        n = len(reads)
        assert adj.take(at).tolist() == first.tolist() and len(reads) == n
        assert adj.take().tolist() == [w for v in active for w in want[v]]
        assert not set(reads[n:]) & taken  # only the other rows' pages are read
        assert reg.resident <= reg.budget - reg.held
    # the batch's scope exits: the rows its pages were given back from are free
    assert pinned <= set(reg._free) and not reg._pinned.any()
    reg.hold("sort", 0)
    used = reg._used
    with reg.scope():
        again, _ = csr.load_adjacency(g, active)
        assert again.take().tolist() == [w for v in active for w in want[v]]
    assert reg._used == used and reg.resident <= reg.budget - reg.held  # freed rows serve again
    reg.set_budget(0)



def test_adjacency_reads_in_scopes_of_their_own_at_a_budget_of_0_leave_no_row_pinned(tmp_path):
    # thirty reads outside any batch, as a tool makes them: each scope's
    # exit frees its rows and, with no budget, unmaps the arena, so no read
    # holds on to the rows of the reads before it
    src, dst = random_graph(300, 8, seed=3)
    want = adjacency_lists(src, dst, 300)
    g = build_graph(tmp_path, src, dst, 300, page_size=256)
    reg = g.registry
    rng = np.random.default_rng(3)
    held = []
    for _ in range(30):
        active = np.unique(rng.integers(0, 300, 40))
        with reg.scope():
            adj, _ = csr.load_adjacency(g, active)
            assert adj.take().tolist() == [w for v in active.tolist() for w in want[v]]
            held.append(reg._used)
        assert not reg._pinned.any() and reg._mm is None and reg.arena.shape == (0, 256)
    assert reg.rows_peak == max(held)  # no read holds more rows than it read itself

def set_rowptr_entry(g, entry, value, k=0):
    """Overwrite rowPtr entry `entry` of interval k with `value`."""
    store = g.partitions[k].rowptr
    cap = page_capacity(g.meta.page_size, csr.ROWPTR_WIDTH)
    page = bytearray(store.read_page(entry // cap))
    at = PAGE_HEADER + entry % cap * csr.ROWPTR_WIDTH
    page[at : at + csr.ROWPTR_WIDTH] = np.array(value, csr.ROWPTR_DT).tobytes()
    store.write_page(entry // cap, bytes(page))


def test_load_adjacency_rejects_a_row_past_the_colidx_store(tmp_path):
    # rowPtr entry 10 ends row 9 at entry 1000, past the 100 entries of
    # colIdx's pages
    g = truncated_graph(tmp_path, 10, None)
    pages = g.partitions[0].colidx.num_pages
    assert pages == -(-100 // colidx_capacity(g)) and 1000 > pages * colidx_capacity(g)
    set_rowptr_entry(g, 10, 1000)
    with g.registry.scope(), pytest.raises(AddressError, match=f"entry 999 wanted from a store of {pages} pages"):
        csr.load_adjacency(g, np.array([8, 9]))


@pytest.mark.parametrize("active", [[-1, 2], [2, 6]], ids=["negative", "past-the-end"])
def test_load_adjacency_rejects_an_id_outside_the_graph(tmp_path, active):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    with pytest.raises(ContractViolation, match="out of range"):
        csr.load_adjacency(g, np.array(active))


def test_take_rejects_a_position_outside_the_batch(tmp_path):
    # rows 1 and 4 of a 6-ring: [0, 2] and [3, 5], flat positions [0, 4)
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    with g.registry.scope():
        adj, _ = csr.load_adjacency(g, np.array([1, 4]))
        assert adj.take(np.array([0, 3])).tolist() == [0, 5]
        for at in ([4], [-1], [0, 4]):
            with pytest.raises(ContractViolation, match=r"outside the batch's \[0, 4\)"):
                adj.take(np.array(at))


def test_a_registry_of_another_page_size_cannot_open_the_graph(tmp_path):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    g.close()
    with pytest.raises(ContractViolation, match="registry page size 512 != graph 256"):
        csr.GraphDir(g.path, pager.StoreRegistry(512))


@pytest.mark.parametrize("active", [[3], [2, 3], [3, 4, 9]])
def test_load_adjacency_rejects_a_row_ending_before_its_start(tmp_path, active):
    # rowPtr entry 3 is 55 and entry 4 is 40, so row 3 would end before it starts
    g = truncated_graph(tmp_path, 10, None)
    set_rowptr_entry(g, 3, 55)
    with g.registry.scope(), pytest.raises(CorruptPageError, match="vertex 3 ends at 40"):
        csr.load_adjacency(g, np.array(active))


@pytest.mark.parametrize(
    "active, named",
    [([2, 4], "vertex 4 starts inside the row of vertex 2"), ([1, 2, 5], "vertex 5 starts inside the row of vertex 2")],
)
def test_load_adjacency_rejects_rows_that_overlap(tmp_path, active, named):
    # rowPtr entry 3 is 55: row 2 is entries [20, 55), past the starts of rows 4 and 5
    g = truncated_graph(tmp_path, 10, None)
    set_rowptr_entry(g, 3, 55)
    with g.registry.scope(), pytest.raises(CorruptPageError, match=named):
        csr.load_adjacency(g, np.array(active))


@pytest.mark.parametrize(
    "entry, value, named",
    [(3, 55, "offset 4 is 40, after 55"), (0, 4, "offset 0 is 4")],
    ids=["decreasing", "not-from-zero"],
)
@pytest.mark.parametrize("caller", ["all_edges", "merge"])
def test_whole_vector_reads_reject_a_bad_rowptr(tmp_path, entry, value, named, caller):
    g = truncated_graph(tmp_path, 10, None)
    set_rowptr_entry(g, entry, value)
    with pytest.raises(CorruptPageError, match=named):
        if caller == "merge":
            csr.merge_structural_updates(g, 0, op_rows(("add_edge", 0, 1)))
        else:
            getattr(g, caller)()


@pytest.mark.parametrize("vector", ["rowptr", "colidx"])
@pytest.mark.parametrize("caller", ["all_edges", "merge"])
def test_whole_vector_reads_reject_a_short_vector(tmp_path, vector, caller):
    g = truncated_graph(tmp_path, 100, vector)
    with pytest.raises(CorruptPageError):
        if caller == "merge":
            csr.merge_structural_updates(g, 0, op_rows(("add_edge", 0, 1)))
        else:
            getattr(g, caller)()


def test_rowptr_and_colidx_use_4_byte_records(tmp_path):
    # one interval of 65,537 vertices, whose largest id needs more than 16
    # bits: 65,538 rowPtr entries and 131,074 colIdx entries, each 4 bytes
    n = (1 << 16) + 1
    src, dst = ring_graph(n)
    g = build_graph(tmp_path, src, dst, n, page_size=256, sort_budget=20 * len(src))
    part = g.partitions[0]
    assert g.meta.num_intervals == 1 and g.meta.colidx_width == 4 and g.meta.rowptr_width == 4
    assert part.rowptr.num_pages == -(-(n + 1) // page_capacity(256, 4))
    assert part.colidx.num_pages == -(-2 * n // page_capacity(256, 4))
    assert colidx_capacity(g) == page_capacity(256, 4)


def rewrite_meta(g, change):
    """Apply change to the dict of g's meta.json and write it back."""
    path = os.path.join(g.path, "meta.json")
    with open(path) as f:
        meta = json.load(f)
    change(meta)
    with open(path, "w") as f:
        json.dump(meta, f)


@pytest.mark.parametrize(
    "change, named",
    [
        (lambda m: m.update(colour_depth=4), "colour_depth"),  # unknown key
        (lambda m: m.pop("dataset_hash"), "dataset_hash"),  # missing key
        # convert sizes intervals by the record size, and meta.json no longer keeps it
        (lambda m: m.update(record_size=16), "record_size"),
    ],
    ids=["unknown", "missing", "record_size"],
)
def test_meta_json_key_mismatch_is_config_error(tmp_path, change, named):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    rewrite_meta(g, change)
    with pytest.raises(ConfigError, match=named) as err:
        csr.GraphDir(g.path)
    assert "reconvert" in str(err.value)


def swap_first_bounds(m):
    b = m["interval_bounds"]
    b[1], b[2] = b[2], b[1]


@pytest.mark.parametrize(
    "damage, error, named",
    [
        (lambda m: m["interval_bounds"].__setitem__(-1, 60), ConfigError, "interval_bounds"),  # past the 50 vertices
        (swap_first_bounds, ConfigError, "interval_bounds"),
        # interval 0 takes in interval 1: its rowPtr file has too few pages
        (lambda m: m["interval_bounds"].__setitem__(1, m["interval_bounds"][2]), CorruptPageError, "part0.rowptr"),
        (lambda m: m.update(num_vertices="50"), ConfigError, "num_vertices"),
        (lambda m: m.update(page_size=32.0), ConfigError, "page_size"),
        (lambda m: m.update(page_size=16), ConfigError, "page_size"),  # holds no rowPtr offset
        ("truncated", ConfigError, "meta.json"),
        ("removed", MissingStoreError, "meta.json"),
    ],
    ids=["bound-past-n", "swapped-bounds", "moved-bound", "num_vertices", "page_size-float", "page_size-16", "truncated", "removed"],
)
def test_a_damaged_meta_json_fails_at_open_with_a_typed_error(tmp_path, damage, error, named):
    src, dst = random_graph(50, 4, seed=1)
    g = build_graph(tmp_path, src, dst, 50, page_size=32)
    g.close()
    assert g.meta.num_intervals > 2
    path = os.path.join(g.path, "meta.json")
    if damage == "removed":
        os.remove(path)
    elif damage == "truncated":
        text = Path(path).read_text()
        Path(path).write_text(text[: len(text) // 2])
    else:
        rewrite_meta(g, damage)
    reg = pager.StoreRegistry(32)
    with pytest.raises(error, match=named):
        csr.GraphDir(g.path, reg)
    assert all(reads == 0 for reads, _ in reg.totals().values())


def test_a_graph_converted_before_colidx_width_was_stored_is_config_error(tmp_path):
    # such a graph's colIdx entries are 4 bytes and its meta.json has no
    # colidx_width; read at the 1-byte width of 6 vertices, every page would
    # parse as four times the entries, so it must not open
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    old = dataclasses.replace(g.meta, colidx_width=4)
    for part in g.partitions:
        rp, ci = part.full_csr()
        g.registry.drop(part.rowptr, "csr", unlink=True)
        g.registry.drop(part.colidx, "csr", unlink=True)
        part.rowptr, part.colidx = csr.write_interval(g.registry, old, g.path, part.k, rp, ci)
    g.close()
    rewrite_meta(g, lambda m: m.pop("colidx_width"))
    with pytest.raises(ConfigError, match=r"missing keys \['colidx_width'\]; reconvert"):
        csr.GraphDir(g.path)


@pytest.mark.parametrize(
    "width", [0, 3, 8, 1, 4, "2", None, True], ids=["0", "3", "8", "too-narrow", "wider", "string", "null", "bool"]
)
def test_meta_json_colidx_width_other_than_the_narrowest_is_config_error(tmp_path, width):
    # 300 vertices need 2 bytes an id; read at 4, the 2-byte entries of a
    # page would parse as half as many other ids
    src, dst = random_graph(300, 4, seed=2)
    g = build_graph(tmp_path, src, dst, 300, page_size=256)
    assert g.meta.colidx_width == 2
    g.close()
    rewrite_meta(g, lambda m: m.update(colidx_width=width))
    with pytest.raises(ConfigError, match=f"meta.json: colidx_width {width!r} is not 2, .* 300 vertices; reconvert"):
        csr.GraphDir(g.path)


def test_a_graph_converted_before_rowptr_width_was_stored_is_config_error(tmp_path):
    # such a graph's rowPtr offsets are 8 bytes and its meta.json has no
    # rowptr_width; read at 4 bytes, each offset would parse as two, the
    # second of them 0, so it must not open
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    for part in g.partitions:
        rp = part.full_rowptr()
        g.registry.drop(part.rowptr, "csr", unlink=True)
        part.rowptr = g.registry.open(csr.part_path(g.path, part.k, "rowptr"), "csr")
        part.rowptr.append_records(rp.astype("<u8").tobytes(), 8)
    g.close()
    rewrite_meta(g, lambda m: m.pop("rowptr_width"))
    with pytest.raises(ConfigError, match=r"meta.json has .* missing keys \['rowptr_width'\]; reconvert"):
        csr.GraphDir(g.path)


@pytest.mark.parametrize("width", [0, 2, 8, "4", None, True], ids=["0", "2", "8", "string", "null", "bool"])
def test_meta_json_rowptr_width_other_than_4_is_config_error(tmp_path, width):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    assert g.meta.rowptr_width == 4
    g.close()
    rewrite_meta(g, lambda m: m.update(rowptr_width=width))
    with pytest.raises(ConfigError, match=f"meta.json: rowptr_width {width!r} is not 4, .*; reconvert"):
        csr.GraphDir(g.path)


def test_an_interval_of_2_32_entries_is_refused_before_a_file_changes(tmp_path, monkeypatch):
    # a 4-byte rowPtr offset addresses 2^32 entries at most: the offsets
    # are checked before write_interval opens a file and before a merge
    # drops the old ones, with no colIdx of that size needed
    assert csr.rowptr_offsets(np.array([0, 5, (1 << 32) - 1])).dtype == np.dtype("<u4")
    with pytest.raises(IngestError, match="4294967296 edges"):
        csr.rowptr_offsets(np.array([0, 5, 1 << 32]))
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    files = {f: (tmp_path / "g" / f).read_bytes() for f in sorted(os.listdir(tmp_path / "g"))}
    edges = [col.tolist() for col in g.all_edges()]
    huge = np.array([0, 1, 1 << 32], np.int64)
    with pytest.raises(IngestError, match="4294967296 edges"):
        csr.write_interval(g.registry, g.meta, g.path, 0, huge, np.zeros(2, np.int64))

    apply_ops = csr.apply_ops

    def grown(*args):
        offsets, *rest = apply_ops(*args)
        offsets[-1] = 1 << 32
        return (offsets, *rest)

    monkeypatch.setattr(csr, "apply_ops", grown)
    with pytest.raises(IngestError, match="4294967296 edges"):
        csr.merge_structural_updates(g, 0, op_rows(("add_edge", 0, 1)))
    g.close()
    assert {f: (tmp_path / "g" / f).read_bytes() for f in sorted(os.listdir(tmp_path / "g"))} == files
    with csr.GraphDir(g.path) as again:
        assert [col.tolist() for col in again.all_edges()] == edges


@pytest.mark.parametrize("n, width", [(256, 1), (257, 2), (1 << 16, 2), ((1 << 16) + 1, 4)])
def test_colidx_entries_take_the_narrowest_width_that_holds_every_id(tmp_path, n, width):
    # a sparse random graph with edges to and from n - 1, the largest id:
    # 255, 256, 65,535 and 65,536 are the bounds of 1, 2 and 4 bytes
    rng = np.random.default_rng(n)
    pairs = np.append(rng.integers(0, n, (n, 2)), [[0, n - 1], [n - 1, n - 2]], axis=0)
    src, dst = both_directions(pairs.tolist())
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    assert g.meta.colidx_width == width and g.meta.num_intervals > 1

    def edges(graph):
        s, d = graph.all_edges()
        return sorted(zip(s.tolist(), d.tolist()))

    def pages_at_width(graph, s):
        per_interval = np.bincount(graph.meta.interval_of(s), minlength=graph.meta.num_intervals)
        assert [part.colidx.num_pages for part in graph.partitions] == (-(-per_interval // ((256 - PAGE_HEADER) // width))).tolist()

    assert edges(g) == sorted(zip(src.tolist(), dst.tolist()))
    pages_at_width(g, src)
    # a merge into the interval of n - 1 adds an edge to it and deletes one
    k = int(g.meta.interval_of(n - 1))
    ops = op_rows(("add_edge", n - 1, n - 1), ("add_edge", n - 1, 0), ("del_edge", n - 1, n - 2))
    assert csr.merge_structural_updates(g, k, ops) == 0
    want = Counter(zip(src.tolist(), dst.tolist())) + Counter([(n - 1, n - 1), (n - 1, 0)]) - Counter([(n - 1, n - 2)])
    src, dst = (np.array(col, np.int64) for col in zip(*sorted(want.elements())))
    g.close()
    with csr.GraphDir(g.path) as again:
        assert again.meta.colidx_width == width
        assert edges(again) == sorted(want.elements())
        pages_at_width(again, src)
        res = run_app(again, Bfs(n - 1), EngineConfig(memory_budget=1 << 20, page_size=256, max_supersteps=500), str(tmp_path / "run"))
    assert res.states["level"].tolist() == oracles.oracle_bfs(adjacency_lists(src, dst, n), n - 1)
