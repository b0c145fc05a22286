"""Community, coloring and MIS as batch programs equal their per-vertex
forms, run through the test-only PerVertex base: the same states, messages,
superstep stats, page counts and aux table bytes, under a budget that forces
multi-pass sorts and multilog eviction.

The per-vertex forms here are the reference programs: one Python loop per
vertex, with the latest-wins table update done record by record.
"""

import os

import numpy as np
import pytest

from loggraph.apps import Coloring, Community, Mis
from loggraph.apps.mis import IN_NOTE, IN_SET, OUT, OUT_NOTE, PRIO, UNDECIDED
from loggraph.apps.table import upsert as upsert_many
from loggraph.engine import Batch, EngineConfig, run_app
from loggraph.multilog import RecordFormat
from loggraph.seeds import unit_float

from util import PerVertex, adjacency, build_graph, clique_graph, random_graph, spy_pressure, star_graph


def upsert(table: np.ndarray, used: int, src: int, value: int) -> int:
    """Latest-wins (src -> value) update into a fixed-capacity table."""
    for i in range(used):
        if table["src"][i] == src:
            table[i] = (src, value)
            return used
    if used < len(table):
        table[used] = (src, value)
        used += 1
    return used


class PerVertexCommunity(PerVertex, Community):
    def process(self, ctx, v, state, adj, inbox):
        table = ctx.table
        used = int(state["used"])
        for i in range(len(inbox)):
            used = upsert(table, used, int(inbox["src"][i]), int(inbox["label"][i]))
        state["used"] = used
        old = int(state["label"])
        if ctx.superstep == 0:
            for w in adj.neighbors:
                ctx.send(int(w), old)
            return
        if used == 0:
            return
        labels, counts = np.unique(table["label"][:used], return_counts=True)
        new = int(labels[int(counts.argmax())])  # unique is ascending: ties pick smallest
        if new != old:
            state["label"] = new
            for w in adj.neighbors:
                ctx.send(int(w), new)


class PerVertexColoring(PerVertex, Coloring):
    def process(self, ctx, v, state, adj, inbox):
        table = ctx.table
        used = int(state["used"])
        for i in range(len(inbox)):
            used = upsert(table, used, int(inbox["src"][i]), int(inbox["color"][i]))
        state["used"] = used
        if ctx.superstep > 0:
            taken = {int(c) for s, c in zip(table["src"][:used], table["color"][:used]) if s < v}
            new = 0
            while new in taken:
                new += 1
            if new == int(state["color"]):
                return
            state["color"] = new
        mine = int(state["color"])
        for w in adj.neighbors:
            ctx.send(int(w), mine)


class PerVertexMis(PerVertex, Mis):
    def _broadcast(self, ctx, adj, kind, prio=0.0):
        for w in adj.neighbors:
            ctx.send(int(w), kind, prio)

    def process(self, ctx, v, state, adj, inbox):
        if int(state["status"]) != UNDECIDED:
            return
        if int(state["undecided"]) < 0:
            state["undecided"] = len(adj)
        in_note = False
        decided = 0
        best = None
        for i in range(len(inbox)):
            kind = int(inbox["kind"][i])
            if kind == PRIO:
                cand = (float(inbox["prio"][i]), int(inbox["src"][i]))
                if best is None or cand > best:
                    best = cand
            else:
                decided += 1
                if kind == IN_NOTE:
                    in_note = True
        state["undecided"] = int(state["undecided"]) - decided
        if in_note:
            state["status"] = OUT
            self._broadcast(ctx, adj, OUT_NOTE)
            return
        if int(state["undecided"]) <= 0:
            state["status"] = IN_SET
            return
        s = ctx.superstep
        if s > 0 and best is not None:
            mine = (unit_float(self.seed, s - 1, v), v)
            if mine > best:
                state["status"] = IN_SET
                self._broadcast(ctx, adj, IN_NOTE)
                return
        self._broadcast(ctx, adj, PRIO, unit_float(self.seed, s, v))


PAIRS = {
    "community": (Community, PerVertexCommunity),
    "coloring": (Coloring, PerVertexColoring),
    "mis": (lambda: Mis(seed=5), lambda: PerVertexMis(seed=5)),
}
GRAPHS = {
    "random": (lambda: random_graph(300, 6, seed=61), 300),
    "clique": (lambda: clique_graph(24), 24),
    # the largest star whose ids take one byte: with 150 leaves, coloring's
    # 6-byte records no longer overflow the multilog
    "star": (lambda: star_graph(254), 255),
    # directed, with self-loops and parallel edges
    "multigraph": (lambda: tuple(np.random.default_rng(62).integers(0, 200, (2, 1200))), 200),
}


def run_recorded(tmp_path, src, dst, n, program):
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    # a sort budget of 409 bytes and a multilog budget of 2 KiB
    config = EngineConfig(memory_budget=40 << 10, sort_frac=0.01, page_size=256, max_supersteps=20)
    res = run_app(g, program, config, str(tmp_path / "run"))
    state_dir = tmp_path / "run" / "state"
    aux = [(state_dir / f).read_bytes() for f in sorted(os.listdir(state_dir)) if f.startswith("aux")]
    return res, g.registry.totals(), aux


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("app", PAIRS)
def test_batch_app_matches_its_per_vertex_reference(tmp_path, monkeypatch, app, graph):
    make_graph, n = GRAPHS[graph]
    src, dst = make_graph()
    pressure = spy_pressure(monkeypatch)
    runs = [run_recorded(tmp_path / f"r{i}", src, dst, n, make()) for i, make in enumerate(PAIRS[app])]
    (batch, batch_totals, batch_aux), (ref, ref_totals, ref_aux) = runs
    assert batch.states.tobytes() == ref.states.tobytes()
    assert [st.messages_sent for st in batch.stats] == [st.messages_sent for st in ref.stats]
    assert [st.to_dict() for st in batch.stats] == [st.to_dict() for st in ref.stats]
    assert batch_totals == ref_totals
    assert batch_aux == ref_aux
    assert (len(batch_aux) > 0) == (app != "mis")
    assert pressure["multi_pass"] > 0 and pressure["evicted"] > 0


def test_upsert_matches_record_by_record_updates():
    # small capacities, repeated and new srcs, and full tables that drop
    rng = np.random.default_rng(3)
    dt = np.dtype([("src", "<u4"), ("label", "<u4")])
    fmt = RecordFormat([("label", "<u4")])
    for trial in range(200):
        n = int(rng.integers(1, 6))
        cap = rng.integers(0, 5, n)
        offsets = np.concatenate([[0], np.cumsum(cap)])
        used = np.array([rng.integers(0, c + 1) for c in cap], np.int64)
        table = np.zeros(offsets[-1], dt)
        for i in range(n):  # distinct live srcs, garbage past used
            row = table[offsets[i] : offsets[i + 1]]
            row["src"] = rng.permutation(8)[: cap[i]]
            row["label"] = rng.integers(0, 100, cap[i])
        lens = rng.integers(0, 6, n)
        records = np.zeros(int(lens.sum()), fmt.dtype)
        records["dest"] = np.repeat(np.arange(n), lens)
        records["src"] = rng.integers(0, 8, len(records))
        records["label"] = rng.integers(0, 100, len(records))
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64)
        ids = np.arange(n)
        adj = adjacency(ids, [[]] * n)
        batch = Batch(ids, None, adj, records, starts, starts + lens, table.copy(), offsets)

        want = table.copy()
        want_used = used.copy()
        for i in range(n):
            row = want[offsets[i] : offsets[i + 1]]
            for r in records[starts[i] : starts[i] + lens[i]]:
                want_used[i] = upsert(row, int(want_used[i]), int(r["src"]), int(r["label"]))
        got_used = upsert_many(batch, used, "label")
        assert got_used.tolist() == want_used.tolist(), trial
        assert batch.table.tobytes() == want.tobytes(), trial
