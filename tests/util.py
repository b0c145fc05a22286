"""Shared test helpers: graph builders, conversion shortcuts and the
per-vertex model the reference programs are written in."""

from __future__ import annotations

import os

import numpy as np

from loggraph import csr, sortgroup
from loggraph.engine import VertexProgram
from loggraph.ingest import convert_arrays
from loggraph.multilog import MultiLog, RecordFormat
from loggraph.pager import PAGE_COUNT, PAGE_HEADER, PageStore, StoreRegistry


def both_directions(pairs):
    src = np.array([u for u, v in pairs] + [v for u, v in pairs], np.int64)
    dst = np.array([v for u, v in pairs] + [u for u, v in pairs], np.int64)
    return src, dst


def ring_graph(n=6):
    """The workhorse: an undirected n-cycle, both directions materialized."""
    return both_directions([(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return both_directions([(i, i + 1) for i in range(n - 1)])


def clique_graph(n):
    return both_directions([(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return both_directions([(0, i) for i in range(1, leaves + 1)])


def random_graph(n, avg_deg, seed, max_directed_edges=100_000):
    """Seeded undirected G(n, m): distinct non-loop pairs, both directions."""
    rng = np.random.default_rng(seed)
    target = min(n * avg_deg // 2, max_directed_edges // 2)
    u = rng.integers(0, n, target * 3)
    v = rng.integers(0, n, target * 3)
    keep = u != v
    a, b = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    # the first target distinct pairs in draw order, not the smallest ones
    _, first = np.unique(np.stack([a, b], 1), axis=0, return_index=True)
    first = np.sort(first)[:target]
    return np.concatenate([a[first], b[first]]), np.concatenate([b[first], a[first]])


def small_world(n, k, p, seed):
    """Watts-Strogatz ring lattice with seeded rewiring, both directions."""
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            a, b = i, (i + j) % n
            if rng.random() < p:
                b = int(rng.integers(0, n))
                tries = 0
                while (b == a or (min(a, b), max(a, b)) in edges) and tries < 20:
                    b = int(rng.integers(0, n))
                    tries += 1
                if b == a or (min(a, b), max(a, b)) in edges:
                    b = (i + j) % n
            if b != a:
                edges.add((min(a, b), max(a, b)))
    return both_directions(sorted(edges))


def page_image(page_size, payload, count):
    """A raw page image: count in the header, payload at the start of the
    record region, zeros after it."""
    page = bytearray(page_size)
    PAGE_COUNT.pack_into(page, 0, count)
    page[PAGE_HEADER : PAGE_HEADER + len(payload)] = payload
    return bytes(page)


def spill_tails(mlog: MultiLog) -> None:
    """Fill the multi-log's whole budget with records to vertex 0, sent
    after its last seal: the sends spill every sealed tail to its log file
    and flush no open page."""
    mlog.send_many(np.zeros(mlog.budget // mlog.page_size * mlog.capacity, mlog.fmt.dtype))
    assert mlog._carried_pages == 0


def build_graph(tmpdir, src, dst, n, page_size=1024, sort_budget=None, record_size=20, name="g"):
    """Convert edge arrays into a GraphDir under tmpdir."""
    if sort_budget is None:
        indeg = np.bincount(dst, minlength=n)
        weight = int(np.maximum(indeg, 1).sum()) * record_size
        sort_budget = max(record_size * (int(indeg.max()) + 1) if n else record_size, weight // 6)
    out = os.path.join(str(tmpdir), name)
    return convert_arrays(src, dst, n, out, sort_budget=sort_budget, page_size=page_size, record_size=record_size)


def adjacency_lists(src, dst, n):
    """Sorted-neighbor adjacency lists matching the engine's canonical order."""
    adj = [[] for _ in range(n)]
    order = np.lexsort((dst, src))
    for s, d in zip(src[order], dst[order]):
        adj[int(s)].append(int(d))
    return adj


def adjacency(ids, rows):
    """An Adjacency over the ascending ids with the given neighbor rows and
    no pages."""
    lens = [len(r) for r in rows]
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    nbrs = np.concatenate([np.asarray(r, np.int64) for r in rows] + [np.zeros(0, np.int64)]).astype(csr.VID_DT)
    return csr.Adjacency(np.asarray(ids, np.int64), offsets, nbrs, np.zeros((len(rows), 3), np.int64))


def rows_of(adj):
    """An Adjacency's neighbor lists by vertex id."""
    return {int(adj.ids[i]): adj.view(i).neighbors.tolist() for i in range(len(adj))}


def op_rows(*ops):
    """An ops array from ("add_edge" | "del_edge", src, dst) and
    ("del_vertex", v) tuples."""
    kinds = {"add_edge": csr.ADD_EDGE, "del_edge": csr.DEL_EDGE, "del_vertex": csr.DEL_VERTEX}
    return np.array([(kinds[op[0]], op[1], op[2] if len(op) > 2 else -1) for op in ops], np.int64).reshape(-1, 3)


def spy_pressure(monkeypatch):
    """Counts, over the engine runs that follow in the test, the sort plans
    taking more than one pass ("multi_pass") and the multilog pages evicted
    ("evicted")."""
    seen = {"multi_pass": 0, "evicted": 0}
    plan_fusion, evict = sortgroup.plan_fusion, MultiLog.evict_if_needed

    def plan_spy(*args):
        plans = plan_fusion(*args)
        seen["multi_pass"] += sum(p.passes > 1 for p in plans)
        return plans

    def evict_spy(mlog, *args):
        evicted = evict(mlog, *args)
        seen["evicted"] += evicted
        return evicted

    monkeypatch.setattr(sortgroup, "plan_fusion", plan_spy)
    monkeypatch.setattr(MultiLog, "evict_if_needed", evict_spy)
    return seen


def spy_given_back(monkeypatch):
    """Counts, over the engine runs that follow in the test, the appended
    pages that the pager kept unwritten and that a StoreRegistry.hold, or a
    StoreRegistry.set_budget to a budget above 0, then wrote: pages given
    back mid-run, not at its end."""
    seen = {"given_back": 0}
    deferred = set()  # (path, page) of each append that wrote nothing
    inside = []  # the budget of each hold or set_budget call under way
    append, write_page = PageStore.append, PageStore.write_page
    hold, set_budget = StoreRegistry.hold, StoreRegistry.set_budget

    def append_spy(store, data):
        written = store.pages_written
        ordinal = append(store, data)
        if store.pages_written == written:
            deferred.add((store.path, ordinal))
        return ordinal

    def write_spy(store, page_id, data):
        if (store.path, page_id) in deferred and inside and inside[-1] > 0:
            seen["given_back"] += 1
        return write_page(store, page_id, data)

    def under(budget, call, *args):
        inside.append(budget)
        try:
            call(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(PageStore, "append", append_spy)
    monkeypatch.setattr(PageStore, "write_page", write_spy)
    monkeypatch.setattr(StoreRegistry, "hold", lambda reg, holder, nbytes: under(reg.budget, hold, reg, holder, nbytes))
    monkeypatch.setattr(StoreRegistry, "set_budget", lambda reg, nbytes: under(nbytes, set_budget, reg, nbytes))
    return seen


def spy_ledger(monkeypatch):
    """Checks, after every StoreRegistry.hold and set_budget call of the
    engine runs that follow in the test, that the ledger's resident pages
    fit in the budget less the sum of the holds. Counts the calls ("calls")
    and the holds that gave pages back ("gave_back")."""
    seen = {"calls": 0, "gave_back": 0}
    hold, set_budget = StoreRegistry.hold, StoreRegistry.set_budget

    def check(reg):
        seen["calls"] += 1
        room = max(reg.budget - sum(reg.holds.values()), 0)
        assert reg.resident <= room, f"{reg.resident} bytes resident, {room} free of holds"

    def hold_spy(reg, holder, nbytes):
        resident = reg.resident
        hold(reg, holder, nbytes)
        seen["gave_back"] += reg.resident < resident
        check(reg)

    def budget_spy(reg, nbytes):
        set_budget(reg, nbytes)
        check(reg)

    monkeypatch.setattr(StoreRegistry, "hold", hold_spy)
    monkeypatch.setattr(StoreRegistry, "set_budget", budget_spy)
    return seen


def ledger_off(monkeypatch):
    """Keeps the pager's ledger off in the engine runs that follow: every
    StoreRegistry.set_budget sets 0, so no page stays resident, every append
    is written at once and every hold does nothing."""
    set_budget = StoreRegistry.set_budget
    monkeypatch.setattr(StoreRegistry, "set_budget", lambda reg, nbytes: set_budget(reg, 0))


def files_under(root):
    """The bytes of every file under root, by path relative to it."""
    out = {}
    for dirpath, _, names in os.walk(str(root)):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, str(root))] = f.read()
    return out


class RowContext:
    """What a per-vertex process sees of its batch's Context: the superstep,
    its vertex and table row, and send/delete_edge/delete_vertex calls that
    are collected in call order."""

    def __init__(self, superstep: int):
        self.superstep = superstep
        self.vertex = -1
        self.table = None
        self.sends: list[tuple] = []
        self.ops: list[tuple] = []

    def send(self, dest: int, *payload) -> None:
        self.sends.append((dest, self.vertex, *payload))

    def delete_edge(self, src: int, dst: int) -> None:
        self.ops.append((csr.DEL_EDGE, src, dst))

    def delete_vertex(self) -> None:
        self.ops.append((csr.DEL_VERTEX, self.vertex, -1))


class RowView:
    """Row i of an Adjacency as a per-vertex view that has its degree at
    once and takes its neighbors when first asked for, so a reference
    program reads only the rows it uses, as the batch programs do."""

    def __init__(self, adj, i):
        self.vertex_id = int(adj.ids[i])
        self._adj, self._span = adj, adj.offsets[i : i + 2].tolist()
        self._neighbors = None

    @property
    def neighbors(self):
        if self._neighbors is None:
            self._neighbors = self._adj.take(np.arange(*self._span))
        return self._neighbors

    def __len__(self):
        return self._span[1] - self._span[0]


class PerVertex(VertexProgram):
    """Base of the per-vertex reference programs: process(ctx, v, state,
    adj, inbox) runs once per row in id order, adj a RowView, then the
    batch's collected sends go to one ctx.send_many and its structural ops
    to one ctx.structural_many. Both keep their rows' order, so the pages
    come out as if each call had reached the engine on its own."""

    def process_batch(self, ctx, batch):
        rows = RowContext(ctx.superstep)
        starts, ends = batch.starts.tolist(), batch.ends.tolist()
        table, offsets = batch.table, batch.table_offsets
        for i, v in enumerate(batch.ids.tolist()):
            rows.vertex = v
            rows.table = table[offsets[i] : offsets[i + 1]] if table is not None else None
            self.process(rows, v, batch.states[i], RowView(batch.adj, i), batch.records[starts[i] : ends[i]])
        records = RecordFormat(self.payload_fields).pack(rows.sends)
        ctx.send_many(records["dest"], records["src"], *(records[name] for name, _ in self.payload_fields or []))
        ctx.structural_many(rows.ops)
