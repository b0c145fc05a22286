import json
import os

import numpy as np
import pytest

from loggraph import csr, pager
from loggraph.errors import ConfigError, ContractViolation, CorruptPageError, IngestError, OversizedVertexError
from loggraph.pager import PAGE_COUNT, PAGE_HEADER, page_capacity

import oracles
from util import adjacency_lists, both_directions, build_graph, op_rows, random_graph, ring_graph, rows_of, star_graph


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
    rp, ci = part.full_csr()
    assert rp.tolist() == [0, 1]
    assert ci.tolist() == [1]


def test_build_ring_adjacency_sorted_by_destination(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    adj, _ = csr.load_adjacency(g, np.array([2]))
    assert rows_of(adj) == {2: [1, 3]}


def test_build_duplicate_edges_preserved(tmp_path):
    g = build_graph(tmp_path, np.array([0, 0]), np.array([1, 1]), 2, page_size=256)
    assert g.partitions[0].full_csr()[1].tolist() == [1, 1]


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


def hub_graph(n, seed):
    """A sparse random graph plus a few hubs wired to half of the vertices
    each way: with 256-byte pages a hub's row spans 3 or more
    colIdx pages and shares its end pages with its neighbors' rows."""
    src, dst = random_graph(n, 3, seed=seed)
    rng = np.random.default_rng(seed)
    hubs = rng.choice(n, 4, replace=False)
    pairs = [(int(h), int(v)) for h in hubs for v in rng.choice(n, n // 2, replace=False) if v != h]
    hs, hd = both_directions(pairs)
    return np.concatenate([src, hs]), np.concatenate([dst, hd]), hubs


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
        assert len(active) and degree[hubs].min() > 2 * page_capacity(256, csr.VID_WIDTH)
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    assert g.meta.num_intervals > 1
    adj = adjacency_lists(src, dst, n)
    useful, rp_pages, rows_on = {}, set(), {}
    for v in active.tolist():
        k = g.meta.interval_of(v)
        part = g.partitions[k]
        rp = part.full_rowptr()
        local = v - part.lo
        rp_pages |= {(k, local // part.cap_rp), (k, (local + 1) // part.cap_rp)}
        for e in range(int(rp[local]), int(rp[local + 1])):
            key = (k, e // part.cap_ci)
            useful[key] = useful.get(key, 0) + csr.VID_WIDTH
            rows_on.setdefault(key, set()).add(v)
    if str(case).startswith("hubs"):
        assert max(map(len, rows_on.values())) > 1  # active rows share a page
    before = g.registry.totals()["csr"][0]
    reads = spy_colidx_reads(monkeypatch, g)
    views, stats = csr.load_adjacency(g, active)
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
    adj, _ = csr.load_adjacency(g, np.array([2]))
    assert rows_of(adj) == {2: [1]}


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
    got_offsets, got_nbrs, got_warnings = csr.apply_ops(
        np.array(ids, np.int64), offsets, nbrs, np.array(ops, np.int64).reshape(-1, 3)
    )
    want, want_warnings = oracles.apply_ops_reference(ids, rows, ops)
    assert [got_nbrs[a:b].tolist() for a, b in zip(got_offsets[:-1], got_offsets[1:])] == want
    assert got_warnings == want_warnings


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
    starts = np.concatenate([a.offsets[:-1], b.offsets[:-1] + len(a.nbrs)])[order]
    return (
        np.concatenate([a.ids, b.ids])[order],
        np.concatenate([[0], np.cumsum(lens)]),
        np.concatenate([a.nbrs, b.nbrs])[pager.ranges(starts, lens)],
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
    a, b = random_part(ids[split], rng), random_part(right, rng)
    got = csr.Adjacency.merge(a, b)
    for field, want in zip(("ids", "offsets", "nbrs", "pages"), merge_reference(a, b)):
        assert getattr(got, field).tolist() == want.tolist(), field


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
    with pytest.raises(CorruptPageError):
        csr.load_adjacency(g, np.array([vertex]))


@pytest.mark.parametrize("count", [5, 59])
def test_load_adjacency_rejects_a_short_page_inside_a_row(tmp_path, count):
    # vertex 0's 200 neighbors are colIdx entries 0-199, pages 0-3 of 60
    # entries; page 1 claims fewer, so its last entries are past its count
    src, dst = star_graph(200)
    g = build_graph(tmp_path, src, dst, 201, page_size=256, sort_budget=20 * len(src))
    assert g.meta.num_intervals == 1 and g.partitions[0].cap_ci == 60
    store = g.partitions[0].colidx
    page = bytearray(store.read_page(1))
    PAGE_COUNT.pack_into(page, 0, count)
    store.write_page(1, bytes(page))
    assert rows_of(csr.load_adjacency(g, np.array([5]))[0]) == {5: [0]}  # page 3 is whole
    with pytest.raises(CorruptPageError, match=f"page 1 holds {count} entries, entry 59 wanted"):
        csr.load_adjacency(g, np.array([0]))


def set_rowptr_entry(g, entry, value):
    """Overwrite rowPtr entry `entry` of interval 0 with `value`."""
    store = g.partitions[0].rowptr
    cap = g.partitions[0].cap_rp
    page = bytearray(store.read_page(entry // cap))
    at = PAGE_HEADER + entry % cap * csr.ROWPTR_WIDTH
    page[at : at + csr.ROWPTR_WIDTH] = np.array(value, csr.ROWPTR_DT).tobytes()
    store.write_page(entry // cap, bytes(page))


@pytest.mark.parametrize("active", [[3], [2, 3], [3, 4, 9]])
def test_load_adjacency_rejects_a_row_ending_before_its_start(tmp_path, active):
    # rowPtr entry 3 is 55 and entry 4 is 40, so row 3 would end before it starts
    g = truncated_graph(tmp_path, 10, None)
    set_rowptr_entry(g, 3, 55)
    with pytest.raises(CorruptPageError, match="vertex 3 ends at 40"):
        csr.load_adjacency(g, np.array(active))


@pytest.mark.parametrize(
    "active, named",
    [([2, 4], "vertex 4 starts inside the row of vertex 2"), ([1, 2, 5], "vertex 5 starts inside the row of vertex 2")],
)
def test_load_adjacency_rejects_rows_that_overlap(tmp_path, active, named):
    # rowPtr entry 3 is 55: row 2 is entries [20, 55), past the starts of rows 4 and 5
    g = truncated_graph(tmp_path, 10, None)
    set_rowptr_entry(g, 3, 55)
    with pytest.raises(CorruptPageError, match=named):
        csr.load_adjacency(g, np.array(active))


@pytest.mark.parametrize(
    "entry, value, named",
    [(3, 55, "offset 4 is 40, after 55"), (0, 4, "offset 0 is 4")],
    ids=["decreasing", "not-from-zero"],
)
@pytest.mark.parametrize("caller", ["all_edges", "in_degrees", "merge"])
def test_whole_vector_reads_reject_a_bad_rowptr(tmp_path, entry, value, named, caller):
    g = truncated_graph(tmp_path, 10, None)
    set_rowptr_entry(g, entry, value)
    os.remove(os.path.join(g.path, "indeg.bin"))  # in_degrees falls back to the CSR
    with pytest.raises(CorruptPageError, match=named):
        if caller == "merge":
            csr.merge_structural_updates(g, 0, op_rows(("add_edge", 0, 1)))
        else:
            getattr(g, caller)()


@pytest.mark.parametrize("vector", ["rowptr", "colidx"])
@pytest.mark.parametrize("caller", ["all_edges", "in_degrees", "merge"])
def test_whole_vector_reads_reject_a_short_vector(tmp_path, vector, caller):
    g = truncated_graph(tmp_path, 100, vector)
    os.remove(os.path.join(g.path, "indeg.bin"))  # in_degrees falls back to the CSR
    with pytest.raises(CorruptPageError):
        if caller == "merge":
            csr.merge_structural_updates(g, 0, op_rows(("add_edge", 0, 1)))
        else:
            getattr(g, caller)()


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
