import os
import tracemalloc

import numpy as np
import pytest

from loggraph import csr, engine, multilog, sortgroup
from loggraph.apps import Bfs, Community, KCore, Mis, PageRank
from loggraph.engine import (
    EDGE_OP,
    EDGELOG_FRAC,
    MULTILOG_FRAC,
    STRUCTURAL_FRAC,
    Engine,
    EngineConfig,
    VertexProgram,
    run_app,
)
from loggraph.errors import ConfigError, ContractViolation
from loggraph.multilog import MultiLog, read_log_records
from loggraph.pager import StoreRegistry, page_capacity

import oracles
from util import (
    PerVertex,
    adjacency_lists,
    both_directions,
    build_graph,
    clique_graph,
    colidx_capacity,
    ledger_off,
    random_graph,
    ring_graph,
    spy_ledger,
    stored_rows,
)

CFG = dict(memory_budget=1 << 20, page_size=256)


def cfg(**kw):
    base = dict(CFG)
    base.update(kw)
    return EngineConfig(**base)


class NullProgram(VertexProgram):
    """All-inactive program: nothing ever runs."""

    name = "null"
    payload_fields = [("x", "<u4")]
    state_dtype = np.dtype([("v", "<u4")])

    def init_all(self, n, indeg):
        return np.zeros(n, self.state_dtype), np.zeros(n, bool), []

    def process_batch(self, ctx, batch):
        raise AssertionError("must never run")


class Scripted(VertexProgram):
    """Vertex 0 gets one message before superstep 0; each batch is handed
    to step(ctx, batch)."""

    name = "scripted"
    payload_fields = [("x", "<u4")]
    state_dtype = np.dtype([("v", "<u4")])

    def __init__(self, step):
        self.step = step

    def init_all(self, n, indeg):
        return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(0, (0,))]

    def process_batch(self, ctx, batch):
        self.step(ctx, batch)


class EchoProgram(VertexProgram):
    """Records every (vertex, inbox) it sees; forwards nothing."""

    name = "echo"
    payload_fields = [("x", "<u4")]
    state_dtype = np.dtype([("v", "<u4")])

    def __init__(self, init_msgs, active=()):
        self.msgs = init_msgs
        self.active = list(active)
        self.seen = []

    def init_all(self, n, indeg):
        bits = np.zeros(n, bool)
        bits[self.active] = True
        return np.zeros(n, self.state_dtype), bits, self.msgs

    def process_batch(self, ctx, batch):
        for i, v in enumerate(batch.ids.tolist()):
            inbox = batch.records[batch.starts[i] : batch.ends[i]]
            self.seen.append((ctx.superstep, v, inbox["x"].tolist(), inbox["src"].tolist()))


def test_no_init_activity_runs_zero_supersteps(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    res = run_app(g, NullProgram(), cfg(), str(tmp_path / "run"))
    assert res.num_supersteps == 0


def test_bfs_ring_superstep_count_matches_oracle(tmp_path):
    # C6 from source 0: source superstep + levels 1..3 + one quiescent check
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    res = run_app(g, Bfs(0), cfg(max_supersteps=50), str(tmp_path / "run"))
    assert res.states["level"].tolist() == [0, 1, 2, 3, 2, 1]
    assert res.num_supersteps == 5


def test_pagerank_hits_superstep_cap(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    res = run_app(g, PageRank(), cfg(max_supersteps=15), str(tmp_path / "run"))
    assert res.num_supersteps == 15  # non-converging under message reactivation


def test_single_active_vertex_gets_all_messages(tmp_path):
    src, dst = ring_graph(12)
    g = build_graph(tmp_path, src, dst, 12, page_size=256)
    prog = EchoProgram([(7, (i,)) for i in range(5)])
    res = run_app(g, prog, cfg(), str(tmp_path / "run"))
    assert res.num_supersteps == 1
    assert len(prog.seen) == 1
    s, v, xs, _ = prog.seen[0]
    assert (s, v) == (0, 7)
    assert xs == [0, 1, 2, 3, 4]
    assert res.stats[0].active_vertices == 1


def test_flp_triangle_messages_preserved_individually(tmp_path):
    src, dst = clique_graph(3)
    g = build_graph(tmp_path, src, dst, 3, page_size=256)
    counts = []

    def snap(engine, st):
        counts.append(st.messages_sent)

    eng = Engine(g, Community(), cfg(max_supersteps=20), str(tmp_path / "run"))
    res = eng.run(on_superstep=snap)
    # superstep 0 seeds 6 label messages; superstep 1 delivers each individually
    assert counts[0] == 6
    assert res.stats[1].active_vertices == 3
    assert res.states["label"].tolist() == [0, 0, 0]  # clique converges to label 0


def test_message_arrival_reactivates_regardless_of_deactivate(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)

    class Pinger(VertexProgram):
        name = "pinger"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("hits", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(0, (0,))]

        def process_batch(self, ctx, batch):
            # every vertex that ran is inactive next superstep unless messaged
            batch.states["hits"] += 1
            if ctx.superstep < 3 and batch.ids[0] == 0:
                ctx.send_many(np.array([0]), np.array([0]), 1)  # a self-message reactivates

    res = run_app(g, Pinger(), cfg(max_supersteps=10), str(tmp_path / "run"))
    assert res.states["hits"][0] == 4  # supersteps 0..3


def test_structural_overlay_visible_before_merge(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    seen = {}

    class Deleter(VertexProgram):
        name = "deleter"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("v", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(2, (0,)), (2, (1,))]

        def process_batch(self, ctx, batch):
            for i, v in enumerate(batch.ids.tolist()):
                seen.setdefault(ctx.superstep, {})[v] = batch.adj.view(i).neighbors.tolist()
            if ctx.superstep == 0:
                ctx.structural_many([(csr.DEL_EDGE, 2, 3)])
                ctx.send_many(np.array([2]), np.array([2]), 9)  # run again next superstep

        # 9 bytes of pending ops fit the budget's share: the next fetch must overlay

    Engine(g, Deleter(), cfg(max_supersteps=2), str(tmp_path / "run")).run()
    assert seen[0][2] == [1, 3]
    assert seen[1][2] == [1]  # pending delete visible through the overlay


def tight_budget(g):
    """The smallest memory budget whose multi-log share holds the one page
    per interval it needs; its structural share is 512 bytes per interval."""
    return g.meta.num_intervals * 256 * 20


@pytest.mark.parametrize("tight", [True, False], ids=["tight", "roomy"])
def test_an_overflowing_structural_share_merges_at_superstep_end(tmp_path, tight):
    src, dst = ring_graph(8)
    g = build_graph(tmp_path, src, dst, 8, page_size=256)
    config = cfg(max_supersteps=2, memory_budget=tight_budget(g) if tight else 1 << 20)
    copies = cfg(memory_budget=tight_budget(g)).structural_budget // EDGE_OP.itemsize // 3 + 1

    class Adder(VertexProgram):
        name = "adder"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("v", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(0, (0,))]

        def process_batch(self, ctx, batch):
            if ctx.superstep == 0:
                # past the tight share
                ctx.structural_many([(csr.ADD_EDGE, 0, v) for v in (4, 5, 6) for _ in range(copies)])
                ctx.send_many(np.array([0]), np.array([0]), 1)

    on_disk = {}

    def snap(engine, st):
        # load_adjacency reads the CSR files, with no overlay
        on_disk[st.superstep] = stored_rows(engine.graph, np.array([0]))[0]

    Engine(g, Adder(), config, str(tmp_path / "run")).run(on_superstep=snap)
    merged = [1] + [4] * copies + [5] * copies + [6] * copies + [7]
    assert on_disk[0] == (merged if tight else [1, 7])
    assert stored_rows(g, np.array([0])) == {0: merged}  # the run's end merges the rest


def test_the_interval_with_the_most_pending_bytes_merges_first(tmp_path):
    src, dst = ring_graph(8)
    g = build_graph(tmp_path, src, dst, 8, page_size=256)
    share = cfg(memory_budget=tight_budget(g)).structural_budget
    # vertex 5's ops alone overflow the share; vertex 0's, in a lower interval, fit in it
    few, many = share // EDGE_OP.itemsize // 4, share // EDGE_OP.itemsize + 1
    assert g.meta.interval_of(0) < g.meta.interval_of(5)

    class TwoAdders(VertexProgram):
        name = "two-adders"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("v", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.isin(np.arange(n), [0, 5]), []

        def process_batch(self, ctx, batch):
            for v in batch.ids.tolist():
                ctx.structural_many([(csr.ADD_EDGE, v, 2)] * (few if v == 0 else many))

    pending = {}

    def snap(engine, st):
        pending.update((v, int(engine._pending_bytes[engine.meta.interval_of(v)])) for v in (0, 5))

    Engine(g, TwoAdders(), cfg(max_supersteps=1, memory_budget=tight_budget(g)), str(tmp_path / "run")).run(on_superstep=snap)
    assert pending == {0: few * EDGE_OP.itemsize, 5: 0}


def test_structural_share_is_a_tenth_of_the_budget():
    c = EngineConfig()
    assert c.structural_budget == int(0.10 * (1 << 30))
    # it fits beside the sort's, the multi-log's and the edge log's shares
    assert c.sort_frac + MULTILOG_FRAC + EDGELOG_FRAC + STRUCTURAL_FRAC <= 1


def test_the_budget_shares_sum_to_one(tmp_path):
    # the ledger's budget is the whole memory budget, and the sort, the
    # multi-log, the pending edge ops and the edge log hold what they report:
    # resident pages, holds and the ledger's free room make up the budget
    src, dst = random_graph(400, 6, seed=5)
    g = build_graph(tmp_path, src, dst, 400, page_size=256)
    config = cfg(edge_log=True, max_supersteps=6)
    seen = []

    def snap(eng, st):
        reg = eng.registry
        assert reg.budget == config.memory_budget and reg.held == sum(reg.holds.values())
        assert reg.resident + reg.held <= config.memory_budget
        assert reg.holds["multilog"] == eng._mlog.resident_bytes <= config.multilog_budget
        assert reg.holds.get("structural", 0) == eng._pending_bytes.sum()
        assert reg.holds["edgelog"] == 256 and reg.holds["sort"] <= config.sort_budget
        seen.append(dict(reg.holds))

    Engine(g, KCore(k=4), config, str(tmp_path / "run")).run(on_superstep=snap)
    assert all(max(h[holder] for h in seen) > 0 for holder in ("sort", "multilog", "structural"))
    assert (g.registry.resident, g.registry.budget, g.registry.held, g.registry.holds) == (0, 0, 0, {})


def test_pages_stay_resident_across_supersteps_and_are_released_at_the_end(tmp_path):
    src, dst = random_graph(200, 4, seed=17)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    csr_pages = sum(part.rowptr.num_pages + part.colidx.num_pages for part in g.partitions)
    for trial in range(2):
        res = run_app(g, PageRank(), cfg(max_supersteps=4), str(tmp_path / f"run{trial}"))
        assert (g.registry.resident, g.registry.budget) == (0, 0)
        # each run reads the graph from storage once, then from memory
        assert [st.reads["csr"] for st in res.stats] == [csr_pages, 0, 0, 0]
        assert [st.hits["csr"] for st in res.stats] == [0] + [csr_pages] * 3
        state_pages = res.stats[0].hits["state"]
        assert state_pages > 0 and [st.reads["state"] for st in res.stats] == [0] * 4
        # state pages are created in memory and each written once, at the end
        assert sum(st.writes["state"] for st in res.stats) == 0 and res.writes["state"] == state_pages


class Swell(VertexProgram):
    """Every vertex starts active, and each one that runs sends superstep + 1
    messages along each out-edge, so the message volume grows every
    superstep."""

    name = "swell"
    payload_fields = [("x", "<u4")]
    state_dtype = np.dtype([("v", "<u4")])

    def init_all(self, n, indeg):
        return np.zeros(n, self.state_dtype), np.ones(n, bool), []

    def process_batch(self, ctx, batch):
        batch.states["v"] += 1
        for _ in range(ctx.superstep + 1):
            ctx.send_many(*batch.broadcast(np.ones(len(batch), bool), ctx.superstep))


def test_the_ledger_and_the_sort_stay_inside_the_memory_budget_as_messages_grow(tmp_path, monkeypatch):
    src, dst = random_graph(400, 4, seed=5)
    g = build_graph(tmp_path, src, dst, 400, page_size=256)
    # the smallest budget whose multi-log holds a page per interval; the
    # last supersteps' logs overflow the sort budget and take several passes
    config = cfg(memory_budget=g.meta.num_intervals * 256 * 20, max_supersteps=11)
    spy = spy_ledger(monkeypatch)  # resident pages fit in the budget less the holds
    res = run_app(g, Swell(), config, str(tmp_path / "run"))
    assert np.all(np.diff([st.messages_sent for st in res.stats]) > 0) and res.num_supersteps == 11
    assert spy["calls"] > 0
    # the sort's growing need made the ledger give pages back
    assert sum(sum(st.evicted.values()) for st in res.stats) > 0 and spy["gave_back"] > 0
    assert (g.registry.resident, g.registry.budget) == (0, 0)
    # pages given back dirty mid-run were written: no ledger, same states
    ledger_off(monkeypatch)
    off = run_app(g, Swell(), config, str(tmp_path / "off"))
    assert off.states.tobytes() == res.states.tobytes()


def test_a_hold_that_gives_pages_back_keeps_the_superstep_peak(tmp_path, monkeypatch):
    src, dst = random_graph(400, 4, seed=5)
    g = build_graph(tmp_path, src, dst, 400, page_size=256)
    config = cfg(memory_budget=g.meta.num_intervals * 256 * 20, max_supersteps=11)
    before = []  # this superstep's resident bytes before each hold that gave pages back
    hold = StoreRegistry.hold

    def hold_spy(reg, holder, nbytes):
        resident = reg.resident
        hold(reg, holder, nbytes)
        if reg.resident < resident:
            before.append(resident)

    peaks = []

    def snap(eng, st):
        peaks.append((st.resident_peak, max(before, default=0)))
        before.clear()

    monkeypatch.setattr(StoreRegistry, "hold", hold_spy)
    Engine(g, Swell(), config, str(tmp_path / "run")).run(on_superstep=snap)
    assert any(gave > 0 for _, gave in peaks)
    assert all(peak >= gave for peak, gave in peaks), peaks


def test_pages_the_holders_leave_room_for_are_read_once(tmp_path):
    # 2,400 vertices and 100 edges on distinct ones: state and rowPtr pages
    # outweigh the messages, which stay in the multi-log. Graph and state
    # exceed 80% of the budget less the sort's need, the most a ledger that
    # reserved every fixed share could hold, but fit beside what the sort
    # and the multi-log hold. With 4-byte rowPtr offsets they take 53,760
    # bytes, so the budget is 64 KiB: at 72 KiB, 80% of it less the sort's
    # need was above them
    n, pairs = 2400, 100
    ids = np.random.default_rng(5).permutation(n)[: 2 * pairs].reshape(2, -1)
    src, dst = both_directions(list(zip(ids[0].tolist(), ids[1].tolist())))
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    csr_pages = sum(part.rowptr.num_pages + part.colidx.num_pages for part in g.partitions)
    config = cfg(memory_budget=64 << 10, max_supersteps=4)
    holds = []
    res = Engine(g, PageRank(), config, str(tmp_path / "run")).run(
        on_superstep=lambda eng, st: holds.append(dict(eng.registry.holds))
    )
    graph_bytes = (csr_pages + res.writes["state"]) * 256
    sort_need = max(h["sort"] for h in holds)
    assert graph_bytes > 0.80 * config.memory_budget - sort_need > 0
    assert all(graph_bytes <= config.memory_budget - sum(h.values()) for h in holds)
    assert [st.reads["csr"] for st in res.stats] == [csr_pages, 0, 0, 0]
    assert all(st.hits["csr"] > 0 for st in res.stats[1:])


@pytest.mark.parametrize("memory_budget", [200 << 10, 256 << 10, 1 << 20])
def test_accumulators_stay_inside_the_multilog_hold(tmp_path, monkeypatch, memory_budget):
    # at every fold and every hold, the multi-log's hold covers its pages
    # and the arrays its accumulators hold, and stays inside its budget;
    # and the ledger fits in the budget less the holds
    src, dst = random_graph(400, 6, seed=41)
    g = build_graph(tmp_path, src, dst, 400, page_size=256)
    ledger = spy_ledger(monkeypatch)
    mlogs, folds = [], []
    init, fold, hold = multilog.MultiLog.__init__, multilog.Accumulator.fold, StoreRegistry.hold

    def check():
        for mlog in mlogs:
            held = sum(log.acc.nbytes for log in mlog.logs if log.acc is not None)
            assert held + mlog.resident_bytes <= mlog.registry.holds.get("multilog", 0) <= mlog.budget

    def init_spy(mlog, *args):
        init(mlog, *args)
        mlogs.append(mlog)

    def fold_spy(acc, cols, index=None):
        fold(acc, cols, index)
        # apply_combine folds into accumulators of its own; count only the
        # multi-log's
        if any(log.acc is acc for mlog in mlogs for log in mlog.logs):
            folds.append(len(cols["dest"]))
            check()

    def hold_spy(reg, holder, nbytes):
        hold(reg, holder, nbytes)
        if reg.budget:
            check()

    logged, seal = [], multilog.MultiLog.seal

    def seal_spy(mlog, last=False):
        manifest = seal(mlog, last)
        logged.append(manifest.total)
        return manifest

    monkeypatch.setattr(multilog.MultiLog, "__init__", init_spy)
    monkeypatch.setattr(multilog.MultiLog, "seal", seal_spy)
    monkeypatch.setattr(multilog.Accumulator, "fold", fold_spy)
    monkeypatch.setattr(StoreRegistry, "hold", hold_spy)
    res = run_app(g, PageRank(), cfg(memory_budget=memory_budget, max_supersteps=8), str(tmp_path / "run"))
    assert folds and ledger["calls"] > 0
    # messages_sent counts sends; a log counts the records they fold into
    sent = sum(st.messages_sent for st in res.stats)
    assert sent >= sum(folds) and sum(logged) < sent


def test_an_engine_whose_page_size_is_not_the_graphs_is_rejected(tmp_path):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    with pytest.raises(ConfigError, match="engine page size 512 != converted graph page size 256"):
        Engine(g, Bfs(0), EngineConfig(page_size=512), str(tmp_path / "run"))


def test_engine_default_budget_and_splits():
    c = EngineConfig()
    assert c.memory_budget == 1 << 30
    assert c.sort_budget == int(0.75 * (1 << 30))
    assert c.multilog_budget == int(0.05 * (1 << 30))
    assert c.edgelog_budget == int(0.05 * (1 << 30))
    assert c.max_supersteps == 15
    assert c.page_size == 16384


def test_a_graph_reopened_after_merges_has_the_merged_edge_counts(tmp_path):
    # KCore deletes the edges of the vertices it peels, and the run merges
    # them into the CSR files; indeg.bin must follow, or a later run on the
    # graph sizes its tables from stale in-degrees. meta.json holds nothing
    # a merge changes, so it stays byte for byte as convert wrote it
    n = 200
    src, dst = random_graph(n, 6, seed=3)
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    meta_path = os.path.join(g.path, "meta.json")
    with open(meta_path, "rb") as f:
        meta_bytes = f.read()
    run_app(g, KCore(k=3), cfg(max_supersteps=500), str(tmp_path / "run"))
    with open(meta_path, "rb") as f:
        assert f.read() == meta_bytes
    with csr.GraphDir(g.path) as again:
        s, d = again.all_edges()
        assert 0 < len(s) < len(src)
        assert again.num_edges == g.num_edges == len(s)
        assert np.array_equal(again.in_degrees(), np.bincount(d, minlength=n))


def test_delete_vertex_permanently_inactive(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    ran = []

    class Seppuku(VertexProgram):
        name = "seppuku"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("v", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(3, (0,)), (4, (0,))]

        def process_batch(self, ctx, batch):
            ids = batch.ids.tolist()
            ran.extend((ctx.superstep, v) for v in ids)
            if ctx.superstep == 0 and 3 in ids:
                ctx.structural_many([(csr.DEL_VERTEX, 3, -1)])
            if 4 in ids:
                # messages to the deleted vertex are dropped
                dest = [3, 4] if ctx.superstep < 2 else [3]
                ctx.send_many(np.array(dest), np.full(len(dest), 4), 1)

    res = run_app(g, Seppuku(), cfg(max_supersteps=5), str(tmp_path / "run"))
    assert (0, 3) in ran
    assert all(v != 3 for s, v in ran if s > 0)
    assert res.deleted[3]
    s2, d2 = g.all_edges()
    assert 3 not in s2.tolist()  # out-edges merged away at run end


def test_deterministic_byte_identical_states(tmp_path):
    src, dst = random_graph(200, 4, seed=17)
    outs = []
    for trial in range(2):
        g = build_graph(tmp_path / str(trial), src, dst, 200, page_size=256)
        res = run_app(g, Community(), cfg(max_supersteps=15), str(tmp_path / f"r{trial}"))
        outs.append((res.states.tobytes(), [st.to_dict() for st in res.stats]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_synchronous_delivery_exactly_one_superstep_later(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    seen = []

    class TwoHop(VertexProgram):
        name = "twohop"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("v", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(0, (7,))]

        def process_batch(self, ctx, batch):
            for i, v in enumerate(batch.ids.tolist()):
                seen.append((ctx.superstep, v, batch.records["x"][batch.starts[i] : batch.ends[i]].tolist()))
            if ctx.superstep == 0:
                ctx.send_many(np.array([1]), batch.ids[:1], 8)

    run_app(g, TwoHop(), cfg(max_supersteps=5), str(tmp_path / "run"))
    assert seen == [(0, 0, [7]), (1, 1, [8])]


def test_active_accounting_matches_dests_union_forced(tmp_path):
    src, dst = random_graph(100, 4, seed=23)
    g = build_graph(tmp_path, src, dst, 100, page_size=256)
    prog = EchoProgram([(5, (1,)), (9, (2,)), (9, (3,))], active=[50, 51])
    res = run_app(g, prog, cfg(), str(tmp_path / "run"))
    assert res.stats[0].active_vertices == 4  # {5, 9} from messages + {50, 51} forced


def test_vertex_forced_and_sent_to_is_processed_once(tmp_path):
    src, dst = random_graph(100, 4, seed=23)
    g = build_graph(tmp_path, src, dst, 100, page_size=256)
    prog = EchoProgram([(5, (1,)), (9, (2,)), (9, (3,)), (50, (4,))], active=[9, 50, 51])
    res = run_app(g, prog, cfg(), str(tmp_path / "run"))
    assert res.stats[0].active_vertices == 4  # {5, 9, 50} from messages, {9, 50, 51} forced
    seen = {v: sorted(x) for s, v, x, _ in prog.seen if s == 0}
    assert sorted(v for s, v, _, _ in prog.seen if s == 0) == [5, 9, 50, 51]
    assert seen == {5: [1], 9: [2, 3], 50: [4], 51: []}


@pytest.mark.parametrize(
    "make_program",
    [PageRank, lambda: KCore(k=4), lambda: EchoProgram([(3, (1,)), (97, (2,))], active=range(100))],
    ids=["pagerank", "kcore", "echo-with-messages"],
)
def test_superstep_0_of_an_all_forced_program_runs_one_batch(tmp_path, make_program):
    # every vertex is forced at superstep 0 and every log fits the sort
    # budget, so the forced intervals, logged or not, join one plan
    src, dst = random_graph(100, 4, seed=23)
    g = build_graph(tmp_path, src, dst, 100, page_size=256)
    assert g.meta.num_intervals >= 3
    program = make_program()
    batches = []
    process_batch = program.process_batch

    def spy(ctx, batch):
        batches.append((ctx.superstep, batch.ids.tolist()))
        process_batch(ctx, batch)

    program.process_batch = spy
    run_app(g, program, cfg(max_supersteps=2), str(tmp_path / "run"))
    assert [ids for step, ids in batches if step == 0] == [list(range(100))]


def test_storage_isolation_colidx_reads_equal_active_span_pages(tmp_path):
    src, dst = random_graph(120, 5, seed=29)
    g = build_graph(tmp_path, src, dst, 120, page_size=256)
    cap_rp = page_capacity(256, csr.ROWPTR_WIDTH)

    # expected page set from an independent recount over rowptr byte ranges
    def expected_pages(active):
        total = 0
        for part in g.partitions:
            sel = [v for v in active if part.lo <= v < part.hi]
            if not sel:
                continue
            rp = part.full_rowptr()
            rp_pages, ci_pages = set(), set()
            for v in sel:
                j = v - part.lo
                rp_pages.add(j // cap_rp)
                rp_pages.add((j + 1) // cap_rp)
                a, b = int(rp[j]), int(rp[j + 1])
                for e in range(a, b):
                    ci_pages.add(e // colidx_capacity(g))
            total += len(rp_pages) + len(ci_pages)
        return total

    active = [3, 40, 77, 111]
    want = expected_pages(active)
    before = g.registry.totals()["csr"][0]
    with g.registry.scope():
        csr.load_adjacency(g, np.array(active, np.int64))[0].take()
    assert g.registry.totals()["csr"][0] - before == want


class PerVertexKCore(PerVertex, KCore):
    """K-core as a per-vertex program: through the test-only PerVertex
    base, with one ctx.delete_edge per notification and ctx.delete_vertex."""

    def process(self, ctx, v, state, adj, inbox):
        if int(state["alive"]) == 0:
            return
        dead = set()
        for src in inbox["src"].tolist():
            ctx.delete_edge(v, src)
            dead.add(src)
        if len(adj) - len(inbox) < self.k:
            state["alive"] = 0
            ctx.delete_vertex()
            for w in adj.neighbors.tolist():
                if w not in dead:
                    ctx.send(w)


def directed_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m)


@pytest.mark.parametrize(
    "make_graph, warned",
    [(lambda: random_graph(300, 5, seed=43), False), (lambda: directed_graph(300, 1200, 8), True)],
    ids=["undirected", "directed"],
)
def test_per_vertex_kcore_through_the_adapter_matches_the_batch_kcore(tmp_path, make_graph, warned):
    # the structural share of a 1 MiB budget holds every pending op, so
    # every deletion is served through the overlay until the final merge;
    # on the directed multigraph a notified vertex often has no edge back
    # to delete, which is a structural warning
    src, dst = make_graph()
    runs = []
    for i, prog in enumerate((KCore(k=4), PerVertexKCore(k=4))):
        g = build_graph(tmp_path / f"g{i}", src, dst, 300, page_size=256)
        res = run_app(g, prog, cfg(max_supersteps=500), str(tmp_path / f"r{i}"))
        runs.append((res, g.all_edges()))
    (batch, batch_edges), (adapter, adapter_edges) = runs
    assert batch.states.tobytes() == adapter.states.tobytes()
    assert [st.messages_sent for st in batch.stats] == [st.messages_sent for st in adapter.stats]
    assert batch.num_supersteps == adapter.num_supersteps > 2
    assert batch.structural_warnings == adapter.structural_warnings
    assert (batch.structural_warnings > 0) == warned
    assert np.array_equal(batch.deleted, adapter.deleted)
    for a, b in zip(batch_edges, adapter_edges):
        assert np.array_equal(a, b)


OPS = [
    (csr.DEL_EDGE, 0, 1),
    (csr.DEL_VERTEX, 0, -1),
    (csr.DEL_EDGE, 0, 5),  # after the removal of 0: dropped with a warning
    (csr.ADD_EDGE, 2, 4),
    (csr.DEL_VERTEX, 3, -1),
    (csr.DEL_VERTEX, 3, -1),  # a second removal is kept
    (csr.DEL_EDGE, 4, 3),
    (csr.ADD_EDGE, 3, 1),  # dropped with a warning
]


@pytest.mark.parametrize("one_call", [True, False])
def test_structural_many_equals_one_call_per_op(tmp_path, one_call):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)

    def edit(ctx, batch):
        for ops in [OPS] if one_call else [[op] for op in OPS]:
            ctx.structural_many(ops)

    res = run_app(g, Scripted(edit), cfg(), str(tmp_path / "run"))
    assert res.structural_warnings == 2
    assert np.flatnonzero(res.deleted).tolist() == [0, 3]
    assert list(stored_rows(g, np.arange(6)).values()) == [[], [0, 2], [1, 3, 4], [], [5], [0, 4]]


@pytest.mark.parametrize("src", [-1, 6])
def test_structural_op_on_a_bad_vertex_is_a_contract_violation(tmp_path, src):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.structural_many([(csr.DEL_EDGE, src, 1)]))
    with pytest.raises(ContractViolation):
        run_app(g, stray, cfg(), str(tmp_path / "run"))


@pytest.mark.parametrize("dest", [-1, 6, 1 << 32])
def test_send_to_a_bad_destination_is_a_contract_violation(tmp_path, dest):
    # an int64 column is checked before it is cast to the uint32 wire
    # field, where 1 << 32 would wrap to vertex 0
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.send_many(np.array([dest], np.int64), batch.ids, 1))
    with pytest.raises(ContractViolation):
        run_app(g, stray, cfg(), str(tmp_path / "run"))


@pytest.mark.parametrize("src", [-1, 6, (1 << 32) + 1])
def test_send_from_a_bad_source_is_a_contract_violation(tmp_path, src):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.send_many(batch.ids, np.array([src], np.int64), 1))
    with pytest.raises(ContractViolation):
        run_app(g, stray, cfg(), str(tmp_path / "run"))


@pytest.mark.parametrize("payload", [(), (1, 2)], ids=["too-few", "too-many"])
def test_send_with_the_wrong_number_of_payload_columns_is_a_contract_violation(tmp_path, payload):
    # one column too few would ship uninitialised memory, one too many was ignored
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.send_many(batch.ids, batch.ids, *payload))
    with pytest.raises(ContractViolation, match="payload columns"):
        run_app(g, stray, cfg(), str(tmp_path / "run"))


@pytest.mark.parametrize("short", ["src", "x"])
def test_send_with_a_short_column_is_a_contract_violation(tmp_path, short):
    # numpy would fail with a bare "could not broadcast" ValueError
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)

    def send(ctx, batch):
        cols = {"src": np.array([0, 0, 0]), "x": np.array([7, 7, 7])}
        cols[short] = cols[short][:2]
        ctx.send_many(np.array([1, 2, 3]), cols["src"], cols["x"])

    with pytest.raises(ContractViolation, match=f"column '{short}' holds 2 values for 3 destinations"):
        run_app(g, Scripted(send), cfg(), str(tmp_path / "run"))


def test_a_scalar_column_is_broadcast(tmp_path):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    got = []

    def step(ctx, batch):
        if ctx.superstep == 0:
            ctx.send_many(np.array([1, 2, 3]), 0, 9)
        else:
            got.extend(batch.records[["dest", "src", "x"]].tolist())

    run_app(g, Scripted(step), cfg(max_supersteps=2), str(tmp_path / "run"))
    assert got == [(1, 0, 9), (2, 0, 9), (3, 0, 9)]


class ScriptedSum(Scripted):
    """Scripted with a sum combiner, so its messages log no src."""

    name = "scripted-sum"
    combine = {"x": np.add}


@pytest.mark.parametrize("src", [None, -1, 6, np.array([0, 1])], ids=["none", "minus-1", "n", "short"])
def test_a_combiners_send_takes_no_src_and_checks_none_it_is_given(tmp_path, src):
    # its records have no src field, so broadcast passes src None, and a
    # src column send_many is given is neither logged nor checked
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    got = []

    def step(ctx, batch):
        if ctx.superstep == 0:
            ctx.send_many(np.array([1, 2, 2]), src, np.array([3, 4, 5]))
        else:
            assert batch.broadcast(np.ones(len(batch), bool), 1)[1] is None
            got.extend(batch.records.tolist())

    run_app(g, ScriptedSum(step), cfg(max_supersteps=2), str(tmp_path / "run"))
    assert got == [(1, 3), (2, 9)]


def test_a_send_with_no_src_is_a_contract_violation_where_src_is_logged(tmp_path):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.send_many(batch.ids, None, 1))
    with pytest.raises(ContractViolation, match="src is None"):
        run_app(g, stray, cfg(), str(tmp_path / "run"))


@pytest.mark.parametrize(
    "op",
    [(7, 0, 1), (-1, 0, 1), (csr.ADD_EDGE, 0, 10**6), (csr.ADD_EDGE, 0, -5), (csr.ADD_EDGE, 0, 6)],
    ids=["kind-7", "kind-minus-1", "insert-to-1e6", "insert-to-minus-5", "insert-to-n"],
)
def test_structural_op_it_cannot_apply_is_a_contract_violation(tmp_path, op):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.structural_many([op]))
    with pytest.raises(ContractViolation):
        run_app(g, stray, cfg(), str(tmp_path / "run"))


@pytest.mark.parametrize(
    "ops, shape",
    [
        ([[csr.DEL_EDGE, 0, 1, csr.DEL_EDGE, 0, 5]], r"\(1, 6\)"),  # not two rows of three
        ([(csr.DEL_EDGE, 0)], r"\(1, 2\)"),
        ([(float(csr.DEL_EDGE), 0.0, 1.0)], r"float64 array of shape \(1, 3\)"),
    ],
    ids=["one-row-of-six", "two-columns", "float-rows"],
)
def test_structural_ops_other_than_n_by_3_integer_rows_are_a_contract_violation(tmp_path, ops, shape):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.structural_many(ops))
    with pytest.raises(ContractViolation, match=shape):
        run_app(g, stray, cfg(), str(tmp_path / "run"))


@pytest.mark.parametrize("ops", [[], np.empty((0, 2), np.int64), np.empty((0, 3), np.uint8)], ids=["list", "0x2", "0x3"])
def test_empty_structural_ops_change_nothing(tmp_path, ops):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    res = run_app(g, Scripted(lambda ctx, batch: ctx.structural_many(ops)), cfg(), str(tmp_path / "run"))
    assert res.structural_warnings == 0 and not res.deleted.any()
    assert list(stored_rows(g, np.arange(6)).values()) == [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [0, 4]]


@pytest.mark.parametrize("dst", [3, 10**6, -5])
def test_deleting_an_absent_edge_is_a_warning(tmp_path, dst):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.structural_many([(csr.DEL_EDGE, 0, dst)]))
    res = run_app(g, stray, cfg(), str(tmp_path / "run"))
    assert res.structural_warnings == 1
    assert list(stored_rows(g, np.arange(6)).values()) == [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [0, 4]]


def test_a_config_asking_for_threads_is_rejected():
    assert EngineConfig(parallel=0).to_dict()["parallel"] == 0
    for parallel in (1, 2, -1):
        with pytest.raises(ConfigError, match="no worker threads"):
            EngineConfig(parallel=parallel)


@pytest.mark.parametrize(
    "knob, value",
    [("sort_frac", 0), ("sort_frac", -0.5), ("sort_frac", 1.5), ("memory_budget", 0), ("memory_budget", -1)],
)
def test_a_config_with_a_bad_sort_share_or_budget_is_rejected(knob, value):
    with pytest.raises(ConfigError, match=f"{knob}={value}"):
        EngineConfig(**{knob: value})
    assert EngineConfig(sort_frac=1).sort_budget == EngineConfig().memory_budget


def test_a_sort_budget_below_one_record_is_rejected(tmp_path):
    g = build_graph(tmp_path, *ring_graph(3), 3, page_size=256)
    # 10000 x 0.00001 rounds down to a budget of 0 bytes
    with pytest.raises(ConfigError, match="sort budget of 0 bytes"):
        Engine(g, Bfs(0), cfg(memory_budget=10000, sort_frac=0.00001), str(tmp_path / "run"))
    width = Engine(g, Bfs(0), cfg(), str(tmp_path / "ok")).fmt.width
    with pytest.raises(ConfigError, match=f"holds no {width}-byte record"):
        Engine(g, Bfs(0), cfg(memory_budget=width - 1, sort_frac=1), str(tmp_path / "run"))
    Engine(g, Bfs(0), cfg(memory_budget=width, sort_frac=1), str(tmp_path / "run"))


class WideAux(VertexProgram):
    state_dtype = np.dtype("u1")
    aux_entry_dtype = np.dtype([("src", "<u4"), ("label", "<u8")])


@pytest.mark.parametrize(
    "program, named",
    [(Mis(seed=1), "9-byte state"), (PageRank(), "16-byte state"), (WideAux(), "12-byte aux")],
    ids=["mis", "pagerank", "aux"],
)
def test_a_state_or_aux_entry_wider_than_a_page_is_refused_when_the_engine_is_built(tmp_path, program, named):
    # a 24-byte page leaves 8 bytes after its header
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=24)
    with pytest.raises(ConfigError, match=f"a {named} entry does not fit a 24-byte page"):
        Engine(g, program, cfg(page_size=24), str(tmp_path / "run"))
    assert not os.path.exists(tmp_path / "run" / "state")


@pytest.mark.parametrize(
    "combine",
    [{"change": np.logical_or}, {"change": np.add, "rank": np.add}],
)
def test_a_combiner_the_scatter_cannot_run_is_refused_when_the_engine_is_built(tmp_path, combine):
    g = build_graph(tmp_path, *ring_graph(3), 3, page_size=256)
    program = PageRank()
    program.combine = combine
    with pytest.raises(ContractViolation, match="combine"):
        Engine(g, program, cfg(), str(tmp_path / "run"))


def test_a_sparse_combiner_pass_over_empty_intervals_holds_its_records_not_its_range(tmp_path, monkeypatch):
    # BFS from 0 on a 20,000-vertex ring: each superstep's few messages land
    # in the first and the last interval, so one plan fuses them across the
    # empty ones between. The scatter, measured with tracemalloc, allocates
    # a few times its records, where slots over the whole range would take
    # over 100 KB, and the sort hold is the records' bytes
    n = 20_000
    g = build_graph(tmp_path, *ring_graph(n), n, page_size=256)
    holds, seen = [], []
    hold, apply_combine = StoreRegistry.hold, sortgroup.apply_combine

    def hold_spy(reg, holder, nbytes):
        if holder == "sort":
            holds.append(nbytes)
        hold(reg, holder, nbytes)

    def combine_spy(records, lo, hi, *args):
        tracemalloc.start()
        try:
            out = apply_combine(records, lo, hi, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen.append((records.nbytes, hi - lo, peak, holds[-1]))
        return out

    # the frontier's messages to an interval of 3,333 vertices take far
    # fewer bytes as records than its accumulator would, so they are logged
    # raw; only the 2-vertex last interval may fold, into 2 slots
    chosen = []
    choose = multilog.MultiLog._choose

    def choose_spy(mlog, log, count):
        choose(mlog, log, count)
        chosen.append((mlog.bounds[log.interval + 1] - mlog.bounds[log.interval], log.acc is not None))

    monkeypatch.setattr(multilog.MultiLog, "_choose", choose_spy)
    monkeypatch.setattr(StoreRegistry, "hold", hold_spy)
    monkeypatch.setattr(sortgroup, "apply_combine", combine_spy)
    res = run_app(g, Bfs(0), cfg(max_supersteps=6), str(tmp_path / "run"))
    assert any(span > 1000 for span, _ in chosen)
    assert all(span <= 2 for span, folded in chosen if folded), chosen
    assert g.meta.num_intervals > 2
    assert len(seen) == res.num_supersteps
    # after the source's own message, every pass covers nearly every vertex
    assert all(span > 1000 * nbytes // 12 for nbytes, span, _, _ in seen[1:]), seen
    assert all(peak <= 8 * nbytes + (8 << 10) and hold == nbytes for nbytes, _, peak, hold in seen), seen


def test_forced_vertex_runs_once_in_a_multi_pass_superstep(tmp_path):
    # one interval whose superstep-0 log overflows the sort budget: every
    # vertex is forced and sent 40 self-messages, so the plan takes several
    # destination passes, and each vertex must run once, in its own pass
    n = 64
    src, dst = ring_graph(n)
    g = build_graph(tmp_path, src, dst, n, page_size=256, sort_budget=1 << 20)

    class Tally(VertexProgram):
        name = "tally"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("runs", "<u4"), ("heard", "<u4")])

        def init_all(self, n, indeg):
            msgs = [(v, (1,)) for v in range(n) for _ in range(40)]
            return np.zeros(n, self.state_dtype), np.ones(n, bool), msgs

        def process_batch(self, ctx, batch):
            batch.states["runs"] += 1
            batch.states["heard"] += (batch.ends - batch.starts).astype(np.uint32)

    res = run_app(g, Tally(), cfg(memory_budget=16 << 10, max_supersteps=1), str(tmp_path / "run"))
    assert g.meta.num_intervals == 1
    assert res.states["runs"].tolist() == [1] * n
    assert res.states["heard"].tolist() == [40] * n


def test_run_closes_its_logs_and_state_files(tmp_path):
    # capped while messages are still in flight: the last superstep's
    # sends are counted, not logged, and no log or edge-log file is left
    src, dst = random_graph(200, 4, seed=17)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    run_app(g, Community(), cfg(max_supersteps=3, edge_log=True), str(tmp_path / "run"))
    assert [len(g.registry._stores[klass]) for klass in ("log", "edgelog", "state")] == [0, 0, 0]
    assert os.listdir(tmp_path / "run" / "logs") == []
    assert os.listdir(tmp_path / "run" / "edgelog") == []


def test_a_capped_run_writes_no_log_page_for_messages_that_fit_the_buffer(tmp_path):
    # each superstep's messages stay sealed tails until the next reads
    # them, and the last superstep's are not logged at all
    src, dst = random_graph(200, 4, seed=17)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    res = run_app(g, PageRank(), cfg(max_supersteps=3), str(tmp_path / "run"))
    assert res.num_supersteps == 3 and res.stats[-1].messages_sent > 0
    assert res.stats[-1].writes["log"] == 0
    assert g.registry.totals()["log"] == (0, 0)
    assert os.listdir(tmp_path / "run" / "logs") == []


# budgets at which the multi-log hands log pages to the pager on 256-byte
# pages: at the tight one a combiner folds nothing at the sender, at the
# mixed one some intervals turn into accumulators
SPILLING = {"tight": 40 << 10, "mixed": 200 << 10}


@pytest.mark.parametrize(
    "make_program, budget",
    [(PageRank, "tight"), (PageRank, "mixed"), (lambda: PageRank(use_combine=False), "tight")],
    ids=["combine-tight", "combine-mixed", "raw-tight"],
)
def test_the_last_superstep_checks_and_counts_its_sends_and_logs_none(tmp_path, monkeypatch, make_program, budget):
    # the ledger off, every log page handed to the pager is written at once
    ledger_off(monkeypatch)
    src, dst = random_graph(300, 6, seed=5)
    chosen, choose = [], multilog.MultiLog._choose

    def choose_spy(mlog, log, count):
        chosen.append(mlog.tag)
        choose(mlog, log, count)

    monkeypatch.setattr(multilog.MultiLog, "_choose", choose_spy)
    k = 3
    runs = {}
    for cap in (k, k + 1):
        chosen.clear()
        g = build_graph(tmp_path / f"cap{cap}", src, dst, 300, page_size=256)
        config = cfg(memory_budget=SPILLING[budget], sort_frac=0.01, max_supersteps=cap)
        held = []
        # after each superstep's seal: the bytes and log files the multi-log holds
        res = Engine(g, make_program(), config, str(tmp_path / f"run{cap}")).run(
            on_superstep=lambda eng, st: held.append((eng._mlog.held_bytes, len(eng._mlog._stores)))
        )
        runs[cap] = res, held, set(chosen)
    (short, short_held, short_chosen), (long, long_held, long_chosen) = runs[k], runs[k + 1]
    assert short.num_supersteps == k and long.num_supersteps == k + 1
    # superstep k - 1 sends into the logs of tag k; capped at k + 1 they
    # spill, capped at k they are never made
    assert long.stats[k - 1].writes["log"] > 0 and min(long_held[k - 1]) > 0
    assert short.stats[-1].messages_sent > 0 and short.stats[-1].writes["log"] == 0
    assert short_held[-1] == (0, 0)
    assert k not in short_chosen
    assert (k in long_chosen) == (budget == "mixed")
    # every log page written is read, once
    assert short.reads["log"] == short.writes["log"] > 0
    # the sends are counted all the same
    assert [(st.messages_sent, st.active_vertices) for st in short.stats] == [
        (st.messages_sent, st.active_vertices) for st in long.stats[:k]
    ]


@pytest.mark.parametrize("send", ["dest-outside", "payload-columns", "src-none"])
def test_a_contract_violating_send_in_the_last_superstep_still_raises(tmp_path, send):
    # at a cap of 1, superstep 0 is the last: its sends are not logged, but
    # are checked as any other's
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)

    def step(ctx, batch):
        assert ctx._engine._mlog.last
        if send == "dest-outside":
            ctx.send_many(np.array([6]), batch.ids, 1)
        elif send == "payload-columns":
            ctx.send_many(batch.ids, batch.ids)
        else:
            ctx.send_many(batch.ids, None, 1)

    with pytest.raises(ContractViolation):
        run_app(g, Scripted(step), cfg(max_supersteps=1), str(tmp_path / "run"))


def test_run_closes_its_stores_when_the_program_raises(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    boom = RuntimeError("boom")
    opened = {}
    # the multi-log gets one page per interval, of 40 6-byte records (two
    # 1-byte ids and the payload), so each superstep's seven pages to vertex
    # 1 are flushed to a log file; superstep 1 deletes superstep 0's at its
    # load, and raises once its own are flushed
    memory_budget = g.meta.num_intervals * 256 * 20

    def step(ctx, batch):
        ctx.send_many(np.ones(7 * page_capacity(256, 6), np.int64), batch.ids[0], 1)
        if ctx.superstep == 0:
            ctx.send_many(*batch.broadcast(np.ones(len(batch), bool), 1))
            return
        opened.update({klass: len(g.registry._stores[klass]) for klass in ("log", "state")})
        raise boom

    with pytest.raises(RuntimeError) as raised:
        run_app(g, Scripted(step), cfg(edge_log=True, memory_budget=memory_budget), str(tmp_path / "run"))
    assert raised.value is boom
    assert opened["log"] > 0 and opened["state"] > 0
    assert [len(g.registry._stores[klass]) for klass in ("log", "edgelog", "state")] == [0, 0, 0]
    assert os.listdir(tmp_path / "run" / "logs") == []


def test_convert_maps_no_arena_and_a_run_unmaps_it_at_its_end(tmp_path):
    g = build_graph(tmp_path, *ring_graph(40), 40, page_size=256)
    assert g.registry._mm is None  # convert reads no page
    result = run_app(g, PageRank(), cfg(max_supersteps=3), str(tmp_path / "run"))
    assert sum(result.stats[-1].hits.values()) > 0  # pages were served from the arena
    assert g.registry._mm is None and g.registry.arena.shape == (0, 256) and not g.registry._free


@pytest.mark.parametrize("n, id_dt", [(256, "u1"), (257, "u2"), (1 << 16, "u2"), ((1 << 16) + 1, "u4")])
def test_messages_carry_ids_at_the_graph_width(tmp_path, n, id_dt):
    # 255, 256, 65,535 and 65,536 are the largest ids of 1, 2 and 4 bytes:
    # a sparse random graph in which n - 1 has edges to 0 and n - 2
    a, b = random_graph(n, 2, seed=n)
    pairs = {(min(u, v), max(u, v)) for u, v in zip(a.tolist(), b.tolist())} | {(0, n - 1), (n - 2, n - 1)}
    src, dst = both_directions(sorted(pairs))
    adj = adjacency_lists(src, dst, n)
    g = build_graph(tmp_path, src, dst, n, page_size=256)

    def run(program, steps):
        eng = Engine(g, program, cfg(max_supersteps=steps), str(tmp_path / program.name))
        assert eng.fmt.dtype["dest"] == np.dtype(id_dt)
        # a combiner's records carry no src
        assert eng.fmt.has_src == (program.combine is None)
        if eng.fmt.has_src:
            assert eng.fmt.dtype["src"] == np.dtype(id_dt)
        return eng.run()

    # PageRank's records carry no src, community keys its tables by src
    # and k-core deletes the edge to each notifying src, which merges into
    # the graph, so it runs last
    res = run(PageRank(), 6)
    assert np.allclose(res.states["rank"], oracles.oracle_pagerank(src, dst, n, 0.85, 6), atol=1e-9)
    res = run(Community(), 4)
    assert res.states["label"].tolist() == oracles.oracle_community(adj, 4)[0]
    res = run(KCore(k=2), 500)
    assert np.array_equal(res.states["alive"].astype(bool), oracles.oracle_kcore(adj, 2))

    # a message from n - 1 to n - 1 in a log page handed to storage: the
    # multi-log holds a page per interval, and one more page of messages
    # to n - 1 than that evicts the first; the registry has no budget
    # outside a run, so the page is written, and read back at the same width
    fmt = Engine(g, Community(), cfg(), str(tmp_path / "fmt")).fmt
    mlog = MultiLog(g.meta.interval_bounds, fmt, g.registry, str(tmp_path / "logs"), g.meta.num_intervals * 256)
    cap, k = mlog.capacity, g.meta.num_intervals - 1
    ids = (n - 1 - np.arange((k + 2) * cap)) % n
    mlog.send_columns([np.full(len(ids), n - 1), ids, ids])
    (handle,) = [h for h in mlog.seal().handles if h.message_count]
    assert handle.interval == k and handle.store.num_pages and g.registry.totals()["log"][1] > 0
    got = read_log_records(handle, fmt)
    assert got.dtype == fmt.dtype and got[0].tolist() == (n - 1, n - 1, n - 1)
    assert got["src"].tolist() == got["label"].tolist() == ids.tolist()
    mlog.close()
