import numpy as np
import pytest

from loggraph.apps import APPS, Bfs, Coloring, Community, KCore, Mis, PageRank, RandomWalk
from loggraph.apps.bfs import INF_LEVEL
from loggraph.engine import Batch, EngineConfig, run_app
from loggraph.multilog import Accumulator, RecordFormat
from loggraph.seeds import pick_index

import oracles
from util import adjacency, adjacency_lists, build_graph, clique_graph, path_graph, random_graph, ring_graph, star_graph


def cfg(**kw):
    base = dict(memory_budget=1 << 20, page_size=256, max_supersteps=15)
    base.update(kw)
    return EngineConfig(**base)


def run(tmp_path, src, dst, n, prog, **kw):
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    return run_app(g, prog, cfg(**kw), str(tmp_path / "run"))


# -- Wire widths ---------------------------------------------------------------

@pytest.mark.parametrize("id_dt", ["u1", "<u2", "<u4"])
@pytest.mark.parametrize("name", sorted(APPS))
def test_each_app_sends_records_of_its_ids_and_payload_only(name, id_dt):
    # a combiner's record is dest and payload, any other's dest, src and
    # payload; a combiner's accumulator holds a hit flag and one slot per
    # payload field a vertex, a float sum in float64
    program = APPS[name]()
    fmt = RecordFormat(program.payload_fields, id_dt, program.combine)
    ids = np.dtype(id_dt).itemsize
    payload = sum(np.dtype(t).itemsize for _, t in program.payload_fields)
    if program.combine is None:
        assert fmt.width == 2 * ids + payload
        return
    assert fmt.width == ids + payload and fmt.dtype.names == ("dest", *program.combine)
    slots = sum(8 if program.combine[f] is np.add and np.dtype(t).kind == "f" else np.dtype(t).itemsize for f, t in program.payload_fields)
    per_vertex = Accumulator(0, 1, program.combine, fmt).nbytes
    assert per_vertex == 1 + slots == {"pagerank": 9, "bfs": 5}[name]
    assert Accumulator(0, 1000, program.combine, fmt).nbytes == 1000 * per_vertex


# -- BFS -----------------------------------------------------------------------

def test_bfs_ring_levels(tmp_path):
    src, dst = ring_graph(6)
    res = run(tmp_path, src, dst, 6, Bfs(0), max_supersteps=50)
    assert res.states["level"].tolist() == [0, 1, 2, 3, 2, 1]


def test_bfs_isolated_vertex_unreached(tmp_path):
    src = np.array([0, 1])
    dst = np.array([1, 0])
    res = run(tmp_path, src, dst, 3, Bfs(0), max_supersteps=50)
    assert res.states["level"][2] == INF_LEVEL
    assert res.summary()["unreached"] == 1


def test_bfs_source_level_zero_and_no_resend(tmp_path):
    src, dst = random_graph(100, 5, seed=1)
    res = run(tmp_path, src, dst, 100, Bfs(3), max_supersteps=100)
    assert res.states["level"][3] == 0
    levels = oracles.oracle_bfs(adjacency_lists(src, dst, 100), 3)
    assert res.states["level"].tolist() == levels
    # leveled vertices never re-send: message total is bounded by one
    # broadcast per vertex
    outdeg = np.bincount(src, minlength=100)
    assert sum(st.messages_sent for st in res.stats) <= int(outdeg.sum()) + 1


def test_bfs_invalid_source_rejected(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    with pytest.raises(ValueError):
        run_app(g, Bfs(17), cfg(), str(tmp_path / "run"))


# -- PageRank --------------------------------------------------------------------

def test_pagerank_push_share_is_change_over_outdeg(tmp_path):
    # 2-vertex mutual edge: symmetric ranks by symmetry
    src = np.array([0, 1])
    dst = np.array([1, 0])
    res = run(tmp_path, src, dst, 2, PageRank(), max_supersteps=15)
    assert res.states["rank"][0] == pytest.approx(res.states["rank"][1], abs=1e-12)


def test_pagerank_matches_vector_oracle(tmp_path):
    src, dst = random_graph(150, 5, seed=2)
    res = run(tmp_path, src, dst, 150, PageRank(), max_supersteps=15)
    want = oracles.oracle_pagerank(src, dst, 150, 0.85, 15)
    assert np.allclose(res.states["rank"], want, atol=1e-9)


def test_pagerank_combine_on_off_equal(tmp_path):
    src, dst = random_graph(120, 4, seed=3)
    r1 = run(tmp_path / "a", src, dst, 120, PageRank(use_combine=True), max_supersteps=15)
    r2 = run(tmp_path / "b", src, dst, 120, PageRank(use_combine=False), max_supersteps=15)
    assert np.allclose(r1.states["rank"], r2.states["rank"], atol=1e-9)


# -- Community (FLP) ---------------------------------------------------------------

def test_flp_triangle_converges_to_smallest_label(tmp_path):
    src, dst = clique_graph(3)
    res = run(tmp_path, src, dst, 3, Community(), max_supersteps=20)
    assert res.states["label"].tolist() == [0, 0, 0]


def test_flp_unchanged_label_sends_nothing(tmp_path):
    # after convergence the engine quiesces: supersteps < cap
    src, dst = clique_graph(3)
    res = run(tmp_path, src, dst, 3, Community(), max_supersteps=50)
    assert res.num_supersteps < 50
    assert res.stats[-1].messages_sent == 0


def test_flp_matches_synchronous_oracle(tmp_path):
    src, dst = random_graph(200, 4, seed=4)
    res = run(tmp_path, src, dst, 200, Community(), max_supersteps=15)
    labels, steps = oracles.oracle_community(adjacency_lists(src, dst, 200), 15)
    assert res.states["label"].tolist() == labels
    assert res.num_supersteps == steps


def test_flp_tie_breaks_to_smallest_label(tmp_path):
    # path 0-1-2: vertex 1 hears labels {0, 2} with equal frequency
    src, dst = path_graph(3)
    res = run(tmp_path, src, dst, 3, Community(), max_supersteps=20)
    labels, _ = oracles.oracle_community(adjacency_lists(src, dst, 3), 20)
    assert res.states["label"].tolist() == labels
    assert res.states["label"][1] == 0


# -- Coloring ------------------------------------------------------------------------

def test_coloring_proper_at_termination(tmp_path):
    src, dst = random_graph(200, 5, seed=5)
    res = run(tmp_path, src, dst, 200, Coloring(), max_supersteps=100)
    adj = adjacency_lists(src, dst, 200)
    assert res.num_supersteps < 100  # converged
    colors = res.states["color"].tolist()
    assert oracles.proper_coloring(adj, colors)
    assert colors == oracles.greedy_coloring(adj)  # fixpoint = sequential greedy


def test_coloring_star_two_colors(tmp_path):
    src, dst = star_graph(6)
    res = run(tmp_path, src, dst, 7, Coloring(), max_supersteps=50)
    assert res.summary()["colors"] == 2
    assert res.states["color"][0] == 0
    assert all(c == 1 for c in res.states["color"][1:])


def test_coloring_single_vertex(tmp_path):
    src = np.zeros(0, np.int64)
    dst = np.zeros(0, np.int64)
    res = run(tmp_path, src, dst, 1, Coloring(), max_supersteps=5)
    assert res.states["color"].tolist() == [0]


def test_coloring_matches_capped_oracle(tmp_path):
    src, dst = random_graph(150, 6, seed=6)
    res = run(tmp_path, src, dst, 150, Coloring(), max_supersteps=15)
    colors, steps = oracles.oracle_coloring(adjacency_lists(src, dst, 150), 15)
    assert res.states["color"].tolist() == colors
    assert res.num_supersteps == steps


# -- MIS ---------------------------------------------------------------------------

def test_mis_independent_and_maximal(tmp_path):
    src, dst = random_graph(250, 5, seed=7)
    res = run(tmp_path, src, dst, 250, Mis(seed=7), max_supersteps=100)
    assert res.num_supersteps < 100
    adj = adjacency_lists(src, dst, 250)
    in_set = (res.states["status"] == 1).tolist()
    assert oracles.is_independent(adj, in_set)
    assert oracles.is_maximal(adj, in_set)
    assert all(s in (1, 2) for s in res.states["status"].tolist())  # everyone decided


def test_mis_deterministic_given_seed(tmp_path):
    src, dst = random_graph(150, 4, seed=8)
    r1 = run(tmp_path / "a", src, dst, 150, Mis(seed=3), max_supersteps=100)
    r2 = run(tmp_path / "b", src, dst, 150, Mis(seed=3), max_supersteps=100)
    assert r1.states.tobytes() == r2.states.tobytes()


def test_mis_different_seeds_usually_differ(tmp_path):
    src, dst = random_graph(150, 4, seed=9)
    r1 = run(tmp_path / "a", src, dst, 150, Mis(seed=1), max_supersteps=100)
    r2 = run(tmp_path / "b", src, dst, 150, Mis(seed=2), max_supersteps=100)
    assert r1.states.tobytes() != r2.states.tobytes()


def test_mis_matches_protocol_oracle(tmp_path):
    src, dst = random_graph(200, 4, seed=10)
    res = run(tmp_path, src, dst, 200, Mis(seed=11), max_supersteps=15)
    status, steps = oracles.oracle_mis(adjacency_lists(src, dst, 200), 11, 15)
    assert res.states["status"].tolist() == status
    assert res.num_supersteps == steps


def test_mis_isolated_vertex_joins_set(tmp_path):
    src = np.array([0, 1])
    dst = np.array([1, 0])
    res = run(tmp_path, src, dst, 3, Mis(seed=0), max_supersteps=20)
    assert res.states["status"][2] == 1


# -- Random walk ----------------------------------------------------------------------

def test_rw_zero_steps_absorbed(tmp_path):
    src, dst = ring_graph(6)
    res = run(tmp_path, src, dst, 6, RandomWalk(steps=0, stride=3, seed=1), max_supersteps=10)
    assert res.num_supersteps == 1  # spawn superstep only, no forwards
    assert sum(st.messages_sent for st in res.stats) == 0
    assert res.states["visits"].sum() == 2  # two sources visited themselves


def test_rw_send_budget(tmp_path):
    src, dst = random_graph(300, 4, seed=11)
    stride = 30
    res = run(tmp_path, src, dst, 300, RandomWalk(steps=10, stride=stride, seed=2), max_supersteps=60)
    sources = len(range(0, 300, stride))
    assert sum(st.messages_sent for st in res.stats) <= sources * 10


def test_rw_matches_replay_oracle(tmp_path):
    src, dst = random_graph(200, 4, seed=12)
    res = run(tmp_path, src, dst, 200, RandomWalk(steps=10, stride=17, seed=5), max_supersteps=60)
    visits, steps = oracles.oracle_randomwalk(adjacency_lists(src, dst, 200), 200, 10, 17, 5, 60)
    assert res.states["visits"].tolist() == visits
    assert res.num_supersteps == steps


def test_rw_ring_replay(tmp_path):
    src, dst = ring_graph(6)
    res = run(tmp_path, src, dst, 6, RandomWalk(steps=10, stride=2, seed=9), max_supersteps=30)
    visits, _ = oracles.oracle_randomwalk(adjacency_lists(src, dst, 6), 6, 10, 2, 9, 30)
    assert res.states["visits"].tolist() == visits


class SendLog:
    """A stand-in Context that records every send_many call."""

    def __init__(self, superstep):
        self.superstep = superstep
        self.sent = []

    def send_many(self, dest, src, *payload):
        cols = [np.asarray(c).tolist() for c in (dest, src, *payload)]
        self.sent.extend(zip(*cols))


@pytest.mark.parametrize("superstep", [0, 3])
def test_rw_batch_sends_in_row_then_inbox_order(superstep):
    # rows with several walkers, one with none, one with no neighbors and
    # walkers out of steps: each walker hops in (row, inbox index) order
    rng = np.random.default_rng(superstep)
    ids = np.array([2, 5, 6, 9, 11])
    rows = [rng.integers(0, 20, d) for d in (3, 0, 1, 4, 2)]
    adj = adjacency(ids, rows)
    inbox = [[4, 0, 2], [7], [], [1, 5], [3, 3, 0, 9]]
    fmt = RecordFormat(RandomWalk.payload_fields)
    records = fmt.pack([(v, 0, r) for v, rs in zip(ids.tolist(), inbox) for r in rs])
    lens = np.array([len(rs) for rs in inbox])
    starts = np.cumsum(lens) - lens
    states = np.zeros(len(ids), RandomWalk.state_dtype)
    prog = RandomWalk(steps=6, seed=77)
    ctx = SendLog(superstep)
    prog.process_batch(ctx, Batch(ids, states, adj, records, starts, starts + lens))

    want, visits = [], []
    for v, nbrs, rs in zip(ids.tolist(), rows, inbox):
        walkers = [prog.steps] if superstep == 0 and not rs else rs
        visits.append(len(walkers))
        for j, remaining in enumerate(walkers):
            if remaining > 0 and len(nbrs):
                w = int(nbrs[pick_index(prog.seed, len(nbrs), superstep, v, j)])
                want.append((w, v, remaining - 1))
    assert ctx.sent == want
    assert states["visits"].tolist() == visits


# -- K-core ------------------------------------------------------------------------------

def test_kcore_survivors_have_degree_k(tmp_path):
    src, dst = random_graph(200, 5, seed=13)
    g = build_graph(tmp_path, src, dst, 200, page_size=256)
    res = run_app(g, KCore(k=3), cfg(max_supersteps=500), str(tmp_path / "run"))
    alive = res.states["alive"].astype(bool)
    s2, d2 = g.all_edges()
    deg = np.bincount(s2, minlength=200)
    assert all(deg[v] >= 3 for v in np.nonzero(alive)[0])
    # surviving edges only connect surviving vertices
    assert all(alive[s] and alive[d] for s, d in zip(s2, d2))


def test_kcore_k1_keeps_nonisolated_graph(tmp_path):
    src, dst = ring_graph(8)
    g = build_graph(tmp_path, src, dst, 8, page_size=256)
    res = run_app(g, KCore(k=1), cfg(max_supersteps=100), str(tmp_path / "run"))
    assert res.states["alive"].sum() == 8
    assert len(g.all_edges()[0]) == 16  # untouched


def test_kcore_path3_k2_everything_dies(tmp_path):
    src, dst = path_graph(3)
    g = build_graph(tmp_path, src, dst, 3, page_size=256)
    res = run_app(g, KCore(k=2), cfg(max_supersteps=100), str(tmp_path / "run"))
    assert res.states["alive"].sum() == 0
    assert len(g.all_edges()[0]) == 0


def test_kcore_matches_pruning_oracle(tmp_path):
    for seed, k in ((14, 2), (15, 3), (16, 5)):
        src, dst = random_graph(150, 4, seed=seed)
        res = run(tmp_path / f"{seed}", src, dst, 150, KCore(k=k), max_supersteps=500)
        want = oracles.oracle_kcore(adjacency_lists(src, dst, 150), k)
        assert np.array_equal(res.states["alive"].astype(bool), want)
