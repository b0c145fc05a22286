"""Storage knobs must not change results.

Every app gives identical final states, superstep counts, message counts
and structural warnings at every page size, with the edge log on and off,
and under a memory budget so tight that the multi-log evicts and a sorted
log takes several passes, and still matches its oracle. Structural updates
also give them at every memory budget, from one whose structural share
forces merges mid-run to one that serves every update through the overlay
until the run's end, and with the pager's resident pages on and off. Only
page counts may differ, resident pages never add a read or a write, and
the files a run leaves on disk are byte-identical with them on and off.
"""

import numpy as np
import pytest

from loggraph import csr, multilog
from loggraph.apps import Bfs, Coloring, Community, KCore, Mis, PageRank, RandomWalk
from loggraph.engine import Engine, EngineConfig, VertexProgram, run_app
from loggraph.pager import PageStore

import oracles
from util import (
    adjacency_lists,
    build_graph,
    files_under,
    ledger_off,
    random_graph,
    ring_graph,
    rows_of,
    small_world,
    spy_given_back,
    spy_ledger,
    spy_pressure,
    stored_rows,
)

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


@pytest.mark.parametrize(
    "make_program, spills",
    [
        (lambda: Bfs(0), False),
        (PageRank, True),
        (lambda: PageRank(use_combine=False), True),
        (Community, True),
        (Coloring, True),
        (lambda: Mis(seed=5), True),
        (lambda: RandomWalk(steps=8, stride=3, seed=3), False),
        (lambda: KCore(k=4), False),
    ],
    ids=["bfs", "pagerank", "pagerank-raw", "community", "coloring", "mis", "randomwalk", "kcore"],
)
def test_a_log_page_is_read_from_storage_at_most_once_at_the_tight_knob(tmp_path, monkeypatch, make_program, spills):
    # at the tight knob the multi-log spills pages to storage, and a plan's
    # log overflows the 409-byte sort budget and is cut into passes; a plan
    # loads its logs once, so no log page is read twice, and the last
    # superstep logs nothing, so every log page written is read: the reads
    # equal the writes
    src, dst = random_graph(N, 6, seed=5)
    pressure = spy_pressure(monkeypatch)
    reads = {}
    read_page = PageStore.read_page

    def spy(store, page_id):
        if store in store.registry._stores["log"]:
            reads[store.path, page_id] = reads.get((store.path, page_id), 0) + 1
        return read_page(store, page_id)

    monkeypatch.setattr(PageStore, "read_page", spy)
    (res,) = run_all_knobs(tmp_path, src, dst, make_program, [TIGHT], max_supersteps=10)
    assert max(reads.values(), default=0) <= 1
    assert sum(reads.values()) == res.reads["log"] == res.writes["log"]
    if spills:
        assert res.reads["log"] > 0 and pressure["multi_pass"] > 0


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


def test_a_superstep_that_folds_some_intervals_and_logs_others_raw_changes_no_result(tmp_path, monkeypatch):
    # at 200 KiB on 256-byte pages only some intervals' accumulators fit
    # beside a top page per interval and a full block, so the others'
    # messages are logged raw in the same superstep; its sort budget cuts
    # the sends into passes, so an interval may log raw records before it
    # turns into an accumulator. At 1 MiB every interval folds, and on
    # 4 KiB pages or at the tight budget none does
    src, dst = random_graph(N, 6, seed=41)
    mixed = dict(page_size=256, edge_log=False, memory_budget=200 << 10, sort_frac=0.01)
    seen, turned = [], []
    seal, choose = multilog.MultiLog.seal, multilog.MultiLog._choose

    def seal_spy(mlog, last=False):
        folded = [log.acc is not None for log in mlog.logs]
        raw = [log.message_count > 0 for log in mlog.logs]
        seen.append((mlog.budget, mlog.page_size, mlog.tag, folded, raw))
        return seal(mlog, last)

    def choose_spy(mlog, log, count):
        logged = log.message_count
        choose(mlog, log, count)
        if log.acc is not None and logged:
            turned.append(mlog.budget)

    monkeypatch.setattr(multilog.MultiLog, "seal", seal_spy)
    monkeypatch.setattr(multilog.MultiLog, "_choose", choose_spy)
    results = run_all_knobs(tmp_path, src, dst, PageRank, [KNOBS[0], mixed, TIGHT, KNOBS[3]], max_supersteps=12)
    assert_knob_invariant(results)
    some, roomy = (EngineConfig(memory_budget=b).multilog_budget for b in (mixed["memory_budget"], 1 << 20))
    assert any(any(folded) and any(raw) for budget, _, _, folded, raw in seen if budget == some)
    assert some in turned
    assert all(all(folded) for budget, size, tag, folded, _ in seen if (budget, size, tag) == (roomy, 256, 1))
    assert not any(any(folded) for budget, size, _, folded, _ in seen if budget != some and (budget, size) != (roomy, 256))


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
    # only the tight budget's structural share overflows mid-run; at the
    # others every deletion is served through the overlay until the run's end
    src, dst = random_graph(N, 5, seed=43)
    results = run_all_knobs(tmp_path, src, dst, lambda: KCore(k=4), max_supersteps=500)
    assert_knob_invariant(results)
    assert sum(st.messages_sent for st in results[0].stats) > 0
    want = oracles.oracle_kcore(adjacency_lists(src, dst, N), 4)
    assert np.array_equal(results[0].states["alive"].astype(bool), want)


def test_kcore_invariant_across_structural_budgets(tmp_path, monkeypatch):
    # the smallest budget whose multi-log holds a page for each of the 7
    # intervals: its structural share of 3,584 bytes overflows mid-run, and
    # a 1 MiB budget's never does
    src, dst = random_graph(N, 5, seed=43)
    tight = 7 * 256 * 20
    knobs = [
        dict(page_size=256, edge_log=edge_log, memory_budget=budget) for budget in (tight, 1 << 20) for edge_log in (False, True)
    ]
    merges = []
    merge = csr.merge_structural_updates
    monkeypatch.setattr(csr, "merge_structural_updates", lambda g, k, ops: merges.append(g.path) or merge(g, k, ops))
    results = run_all_knobs(tmp_path, src, dst, lambda: KCore(k=4), knobs, max_supersteps=500)
    assert_knob_invariant(results)
    want = oracles.oracle_kcore(adjacency_lists(src, dst, N), 4)
    assert np.array_equal(results[0].states["alive"].astype(bool), want)
    # an interval merged twice merged mid-run; the run's end merges each at most once
    per_run = [merges.count(str(tmp_path / f"knob{i}" / "g")) for i in range(len(knobs))]
    assert min(per_run[:2]) > 7 >= max(per_run[2:])


# a 1 MiB budget's ledger holds the graphs below whole; at 64 KiB the sort's
# need makes it give pages back on coloring, community, MIS and PageRank,
# appended log, state and aux pages among them
SHRINKING = dict(page_size=256, edge_log=True, memory_budget=64 << 10)
LEDGER_KNOBS = [KNOBS[0], KNOBS[3], SHRINKING]


@pytest.mark.parametrize(
    "make_program, degree, cap, knobs, gives_back",
    [
        (lambda: Bfs(0), 3, 100, LEDGER_KNOBS, False),
        (Coloring, 6, 15, LEDGER_KNOBS, True),
        (Community, 6, 15, LEDGER_KNOBS, True),
        # the tight budget also merges k-core's deletions mid-run
        (lambda: KCore(k=4), 5, 500, LEDGER_KNOBS + [TIGHT], False),
        (lambda: Mis(seed=13), 6, 30, LEDGER_KNOBS, True),
        # a combining PageRank folds only the intervals whose accumulators
        # fit beside the multi-log's pages; the rest still log raw records
        (PageRank, 6, 12, LEDGER_KNOBS, True),
        (lambda: PageRank(use_combine=False), 6, 12, LEDGER_KNOBS, True),
        (lambda: RandomWalk(steps=12, stride=3, seed=3), 4, 40, LEDGER_KNOBS, False),
    ],
    ids=["bfs", "coloring", "community", "kcore", "mis", "pagerank", "pagerank-raw", "randomwalk"],
)
def test_resident_pages_change_no_result_and_add_no_page(tmp_path, monkeypatch, make_program, degree, cap, knobs, gives_back):
    src, dst = random_graph(N, degree, seed=48)
    spy = spy_given_back(monkeypatch)
    ledger = spy_ledger(monkeypatch)  # the ledger stays inside the budget less the holds
    for i, knob in enumerate(knobs):
        runs = []
        for side in ("on", "off"):
            with monkeypatch.context() as switch:
                if side == "off":
                    ledger_off(switch)
                spy["given_back"] = 0
                runs += run_all_knobs(tmp_path / side / f"knob{i}", src, dst, make_program, [knob], max_supersteps=cap)
            if side == "on" and gives_back and knob is SHRINKING:
                assert spy["given_back"] > 0, knob
        assert_knob_invariant(runs)
        on, off = runs
        for klass in off.reads:
            assert on.reads[klass] <= off.reads[klass] and on.writes[klass] <= off.writes[klass], (knob, klass)
        assert sum(on.reads.values()) < sum(off.reads.values()), knob
        hits = [sum(h for st in run.stats for h in st.hits.values()) for run in runs]
        assert hits[0] > 0 and hits[1] == 0
        # every CSR, state and aux file a run leaves reached storage whole,
        # the appended pages the ledger kept included
        on_disk = [files_under(tmp_path / side / f"knob{i}") for side in ("on", "off")]
        assert any("aux" in path for path in on_disk[1]) == (make_program().aux_entry_dtype is not None)
        assert on_disk[0] == on_disk[1], knob
    assert ledger["calls"] > 0


class RingProbe(VertexProgram):
    """On an 8-vertex ring, vertex 0 deletes the absent edge 0->4 at
    superstep 0, padded with pairs of ops that insert and delete 0->2 in
    turn, and inserts 0->4 at superstep 1. It records its row at each
    superstep."""

    name = "ring-probe"
    payload_fields = [("x", "<u4")]
    state_dtype = np.dtype([("v", "<u4")])

    def __init__(self, pad):
        self.pad = pad
        self.rows = {}

    def init_all(self, n, indeg):
        return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(0, (0,))]

    def process_batch(self, ctx, batch):
        self.rows[ctx.superstep] = rows_of(batch.adj)[0]
        if ctx.superstep == 0:
            ctx.structural_many([(csr.DEL_EDGE, 0, 4)] + [(csr.ADD_EDGE, 0, 2), (csr.DEL_EDGE, 0, 2)] * self.pad)
        elif ctx.superstep == 1:
            ctx.structural_many([(csr.ADD_EDGE, 0, 4)])
        ctx.send_many(np.array([0]), np.array([0]), 0)


def test_a_deletion_only_cancels_copies_that_precede_it_at_every_budget(tmp_path):
    # the deletion of the absent 0->4 warns; the later insertion lands, so
    # superstep 2 and the final CSR see 0->4 whether the deletion was merged
    # after superstep 0 or both ops wait for the run's end
    src, dst = ring_graph(8)
    seen = []
    for budget in ("tight", "roomy"):
        g = build_graph(tmp_path / budget, src, dst, 8, page_size=256)
        # the smallest budget whose multi-log holds a page per interval
        tight = g.meta.num_intervals * 256 * 20
        # 18 bytes a pair: superstep 0's ops overflow the tight share
        probe = RingProbe(pad=EngineConfig(memory_budget=tight).structural_budget // 18 + 1)
        config = EngineConfig(memory_budget=tight if budget == "tight" else 1 << 20, page_size=256, max_supersteps=3)
        pending = []
        res = Engine(g, probe, config, str(tmp_path / budget / "run")).run(
            on_superstep=lambda eng, st: pending.append(int(eng._pending_bytes.sum()))
        )
        assert (pending[0] == 0) == (budget == "tight")
        seen.append((probe.rows[2], stored_rows(g, np.array([0])), res.structural_warnings))
    assert seen[0] == seen[1] == ([1, 4, 7], {0: [1, 4, 7]}, 1)


@pytest.mark.parametrize(
    "make_program",
    [
        lambda: Bfs(0),
        PageRank,
        lambda: PageRank(use_combine=False),
        Community,
        Coloring,
        lambda: Mis(seed=5),
        lambda: RandomWalk(steps=8, stride=3, seed=3),
        lambda: KCore(k=4),
    ],
    ids=["bfs", "pagerank", "pagerank-raw", "community", "coloring", "mis", "randomwalk", "kcore"],
)
def test_the_interval_count_changes_no_state_page(tmp_path, monkeypatch, make_program):
    # one graph converted into 1 interval and into several. Every
    # superstep's logs fit one plan, forced vertices included, so both run
    # the same batches; the state vector's pages are not cut at interval
    # bounds, so with the ledger off, where every checkout reads its pages
    # and every commit writes them, each superstep reads and writes the
    # same state pages
    ledger_off(monkeypatch)
    src, dst = random_graph(N, 5, seed=48)
    results, intervals = [], []
    for sort_budget in (1 << 20, 2000):
        d = tmp_path / f"sort{sort_budget}"
        g = build_graph(d, src, dst, N, page_size=256, sort_budget=sort_budget)
        intervals.append(g.meta.num_intervals)
        config = EngineConfig(memory_budget=1 << 20, page_size=256, max_supersteps=12)
        results.append(run_app(g, make_program(), config, str(d / "run")))
    assert intervals[0] == 1 and intervals[1] >= 3
    assert_knob_invariant(results)
    one, many = results
    assert [(st.reads["state"], st.writes["state"]) for st in many.stats] == [
        (st.reads["state"], st.writes["state"]) for st in one.stats
    ]
    assert (many.reads["state"], many.writes["state"]) == (one.reads["state"], one.writes["state"])
    assert one.reads["state"] > 0 and one.writes["state"] > 0
