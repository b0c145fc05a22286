import os

import numpy as np
import pytest

from loggraph import csr
from loggraph.apps import Bfs, Community, KCore, PageRank
from loggraph.engine import Engine, EngineConfig, VertexProgram, run_app
from loggraph.errors import ConfigError, ContractViolation

from util import PerVertex, build_graph, clique_graph, random_graph, ring_graph, rows_of

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

        # no merge fires (1 op < threshold): next fetch must overlay

    Engine(g, Deleter(), cfg(max_supersteps=2), str(tmp_path / "run")).run()
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

        def process_batch(self, ctx, batch):
            if ctx.superstep == 0:
                ctx.structural_many([(csr.ADD_EDGE, 0, 4), (csr.ADD_EDGE, 0, 5), (csr.ADD_EDGE, 0, 6)])
                ctx.send_many(np.array([0]), np.array([0]), 1)

    eng = Engine(g, Adder(), cfg(max_supersteps=2, merge_threshold=3), str(tmp_path / "run"))
    spotted = {}

    def snap(engine, st):
        k = engine.meta.interval_of(0)
        spotted[st.superstep] = list(engine._pending[k])

    eng.run(on_superstep=snap)
    assert spotted[0] == []  # threshold reached -> merged at superstep end
    adj, _ = csr.load_adjacency(g, np.array([0]))
    assert rows_of(adj) == {0: [1, 4, 5, 6, 7]}


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
    # every deletion is served through the overlay until the final merge;
    # on the directed multigraph a notified vertex often has no edge back
    # to delete, which is a structural warning
    src, dst = make_graph()
    runs = []
    for i, prog in enumerate((KCore(k=4), PerVertexKCore(k=4))):
        g = build_graph(tmp_path / f"g{i}", src, dst, 300, page_size=256)
        res = run_app(g, prog, cfg(max_supersteps=500, merge_threshold=10**9), str(tmp_path / f"r{i}"))
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
    adj, _ = csr.load_adjacency(g, np.arange(6))
    assert list(rows_of(adj).values()) == [[], [0, 2], [1, 3, 4], [], [5], [0, 4]]


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


@pytest.mark.parametrize("dst", [3, 10**6, -5])
def test_deleting_an_absent_edge_is_a_warning(tmp_path, dst):
    g = build_graph(tmp_path, *ring_graph(6), 6, page_size=256)
    stray = Scripted(lambda ctx, batch: ctx.structural_many([(csr.DEL_EDGE, 0, dst)]))
    res = run_app(g, stray, cfg(), str(tmp_path / "run"))
    assert res.structural_warnings == 1
    adj, _ = csr.load_adjacency(g, np.arange(6))
    assert list(rows_of(adj).values()) == [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [0, 4]]


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
    # capped while messages are still in flight, so the last sealed logs
    # are never consumed
    src, dst = random_graph(200, 4, seed=17)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    run_app(g, Community(), cfg(max_supersteps=3, edge_log=True), str(tmp_path / "run"))
    assert [len(g.registry._stores[klass]) for klass in ("log", "edgelog", "state")] == [0, 0, 0]
    assert os.listdir(tmp_path / "run" / "logs") == []
    assert os.listdir(tmp_path / "run" / "edgelog") == []


def test_a_capped_run_writes_no_log_page_for_messages_that_fit_the_buffer(tmp_path):
    # the last superstep's messages stay sealed tails and are dropped unread
    src, dst = random_graph(200, 4, seed=17)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    res = run_app(g, PageRank(), cfg(max_supersteps=3), str(tmp_path / "run"))
    assert res.num_supersteps == 3 and res.stats[-1].messages_sent > 0
    assert res.stats[-1].writes["log"] == 0
    assert g.registry.totals()["log"] == (0, 0)
    assert os.listdir(tmp_path / "run" / "logs") == []


def test_run_closes_its_stores_when_the_program_raises(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    boom = RuntimeError("boom")
    opened = {}
    # the multi-log gets one 20-record page per interval, so superstep 0's
    # seven pages to vertex 1 are flushed to a log file
    memory_budget = g.meta.num_intervals * 256 * 20

    def step(ctx, batch):
        if ctx.superstep == 0:
            ctx.send_many(*batch.broadcast(np.ones(len(batch), bool), 1))
            ctx.send_many(np.ones(7 * 20, np.int64), batch.ids[0], 1)
            return
        opened.update({klass: len(g.registry._stores[klass]) for klass in ("log", "state")})
        raise boom

    with pytest.raises(RuntimeError) as raised:
        run_app(g, Scripted(step), cfg(edge_log=True, memory_budget=memory_budget), str(tmp_path / "run"))
    assert raised.value is boom
    assert opened["log"] > 0 and opened["state"] > 0
    assert [len(g.registry._stores[klass]) for klass in ("log", "edgelog", "state")] == [0, 0, 0]
    assert os.listdir(tmp_path / "run" / "logs") == []
