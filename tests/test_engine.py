import os

import numpy as np
import pytest

from loggraph import csr
from loggraph.apps import Bfs, Community, KCore, PageRank
from loggraph.engine import Engine, EngineConfig, VertexProgram, run_app
from loggraph.errors import ContractViolation

from util import build_graph, clique_graph, random_graph, ring_graph

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

    def process(self, ctx, v, state, adj, inbox):
        raise AssertionError("must never run")


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

    def process(self, ctx, v, state, adj, inbox):
        self.seen.append((ctx.superstep, v, [int(x) for x in inbox["x"]], [int(s) for s in inbox["src"]]))


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

        def process(self, ctx, v, state, adj, inbox):
            state["hits"] = int(state["hits"]) + 1
            ctx.deactivate()  # explicitly deactivate, then message vertex 3
            if ctx.superstep < 3 and v == 0:
                ctx.send(0, 1)  # self-message: deactivate + message => active again

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

        def process(self, ctx, v, state, adj, inbox):
            if ctx.superstep == 0:
                ctx.delete_edge(2, 3)
                ctx.send(2, 9)  # run again next superstep

        # no merge fires (2 ops < threshold): next fetch must overlay

    prog = Deleter()
    eng = Engine(g, prog, cfg(max_supersteps=2), str(tmp_path / "run"))

    orig_process = prog.process

    def spy(ctx, v, state, adj, inbox):
        seen.setdefault(ctx.superstep, {})[v] = adj.neighbors.tolist()
        return orig_process(ctx, v, state, adj, inbox)

    prog.process = spy
    eng.run()
    assert seen[0][2] == [1, 3]
    assert seen[1][2] == [1]  # pending delete visible through the overlay


def test_merge_threshold_fires_at_superstep_end(tmp_path):
    src, dst = ring_graph(8)
    g = build_graph(tmp_path, src, dst, 8, page_size=256)

    class Adder(VertexProgram):
        name = "adder"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("v", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(0, (0,))]

        def process(self, ctx, v, state, adj, inbox):
            if ctx.superstep == 0:
                ctx.add_edge(0, 4)
                ctx.add_edge(0, 5)
                ctx.add_edge(0, 6)
                ctx.send(0, 1)

    eng = Engine(g, Adder(), cfg(max_supersteps=2, merge_threshold=3), str(tmp_path / "run"))
    spotted = {}

    def snap(engine, st):
        k = engine.meta.interval_of(0)
        spotted[st.superstep] = list(engine._pending[k])

    eng.run(on_superstep=snap)
    assert spotted[0] == []  # threshold reached -> merged at superstep end
    views, _ = csr.load_adjacency(g, np.array([0]))
    assert views[0].neighbors.tolist() == [1, 4, 5, 6, 7]


def test_default_merge_threshold_is_4096():
    assert EngineConfig().merge_threshold == 4096


def test_engine_default_budget_and_splits():
    c = EngineConfig()
    assert c.memory_budget == 1 << 30
    assert c.sort_budget == int(0.75 * (1 << 30))
    assert c.multilog_budget == int(0.05 * (1 << 30))
    assert c.edgelog_budget == int(0.05 * (1 << 30))
    assert c.max_supersteps == 15
    assert c.page_size == 16384


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

        def process(self, ctx, v, state, adj, inbox):
            ran.append((ctx.superstep, v))
            if ctx.superstep == 0 and v == 3:
                ctx.delete_vertex()
            if v == 4:
                ctx.send(3, 1)  # messages to the deleted vertex are dropped
                if ctx.superstep < 2:
                    ctx.send(4, 1)

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

        def process(self, ctx, v, state, adj, inbox):
            seen.append((ctx.superstep, v, [int(x) for x in inbox["x"]]))
            if ctx.superstep == 0:
                ctx.send(1, 8)

    run_app(g, TwoHop(), cfg(max_supersteps=5), str(tmp_path / "run"))
    assert seen == [(0, 0, [7]), (1, 1, [8])]


def test_active_accounting_matches_dests_union_forced(tmp_path):
    src, dst = random_graph(100, 4, seed=23)
    g = build_graph(tmp_path, src, dst, 100, page_size=256)
    prog = EchoProgram([(5, (1,)), (9, (2,)), (9, (3,))], active=[50, 51])
    res = run_app(g, prog, cfg(), str(tmp_path / "run"))
    assert res.stats[0].active_vertices == 4  # {5, 9} from messages + {50, 51} forced


def test_storage_isolation_colidx_reads_equal_active_span_pages(tmp_path):
    src, dst = random_graph(120, 5, seed=29)
    g = build_graph(tmp_path, src, dst, 120, page_size=256)

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
                rp_pages.add(j // part.cap_rp)
                rp_pages.add((j + 1) // part.cap_rp)
                a, b = int(rp[j]), int(rp[j + 1])
                for e in range(a, b):
                    ci_pages.add(e // part.cap_ci)
            total += len(rp_pages) + len(ci_pages)
        return total

    active = [3, 40, 77, 111]
    want = expected_pages(active)
    before = g.registry.totals()["csr"][0]
    csr.load_adjacency(g, np.array(active, np.int64))
    assert g.registry.totals()["csr"][0] - before == want


def test_parallel_mode_matches_serial_for_order_free_apps(tmp_path):
    src, dst = random_graph(150, 4, seed=31)
    g1 = build_graph(tmp_path / "a", src, dst, 150, page_size=256)
    g2 = build_graph(tmp_path / "b", src, dst, 150, page_size=256)
    r1 = run_app(g1, Bfs(0), cfg(max_supersteps=100), str(tmp_path / "r1"))
    r2 = run_app(g2, Bfs(0), cfg(max_supersteps=100, parallel=4), str(tmp_path / "r2"))
    assert np.array_equal(r1.states["level"], r2.states["level"])
    g3 = build_graph(tmp_path / "c", src, dst, 150, page_size=256)
    g4 = build_graph(tmp_path / "d", src, dst, 150, page_size=256)
    k1 = run_app(g3, KCore(k=3), cfg(max_supersteps=200), str(tmp_path / "r3"))
    k2 = run_app(g4, KCore(k=3), cfg(max_supersteps=200, parallel=4), str(tmp_path / "r4"))
    assert np.array_equal(k1.states["alive"], k2.states["alive"])


@pytest.mark.parametrize("dest", [-1, 6, 1 << 32])
def test_send_to_a_bad_destination_is_a_contract_violation(tmp_path, dest):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)

    class Stray(VertexProgram):
        name = "stray"
        payload_fields = [("x", "<u4")]
        state_dtype = np.dtype([("v", "<u4")])

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.zeros(n, bool), [(0, (0,))]

        def process(self, ctx, v, state, adj, inbox):
            ctx.send(dest, 1)

    with pytest.raises(ContractViolation):
        run_app(g, Stray(), cfg(), str(tmp_path / "run"))


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

        def process(self, ctx, v, state, adj, inbox):
            state["runs"] += 1
            state["heard"] += len(inbox)

    res = run_app(g, Tally(), cfg(memory_budget=16 << 10, max_supersteps=1), str(tmp_path / "run"))
    assert g.meta.num_intervals == 1
    assert res.states["runs"].tolist() == [1] * n
    assert res.states["heard"].tolist() == [40] * n


def test_run_closes_its_logs_and_state_files(tmp_path):
    # capped while messages are still in flight, so the last sealed logs
    # are never consumed
    src, dst = random_graph(200, 4, seed=17)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    run_app(g, Community(), cfg(max_supersteps=3, edge_log=True), str(tmp_path / "run"))
    assert [len(g.registry._stores[klass]) for klass in ("log", "edgelog", "state")] == [0, 0, 0]
    assert os.listdir(tmp_path / "run" / "logs") == []
    assert os.listdir(tmp_path / "run" / "edgelog") == []
