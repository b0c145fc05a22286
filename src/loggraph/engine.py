"""Superstep driver.

One superstep: plan log fusion from the sealed per-interval message counts,
load and sort each fused log, extract the active vertices, fetch their state
and adjacency (from the edge log when possible), run the vertex program,
route its sends through the multi-log, then seal the next superstep's logs,
merge batched structural updates past the threshold and record the activity
bit vector.

The unit of work handed to a program is a Batch: the active vertices of one
sorted log with their state rows, a flat-CSR adjacency and their inbox spans.
A program either handles the whole batch with array code and sends through
`ctx.send_many`, or defines a per-vertex `process` that the base class's
`process_batch` adapter calls once per vertex. Execution is deterministic
single-threaded by default; an optional thread pool splits a batch into
slices processed concurrently.

Both kinds of program reach the same array mechanisms. `Context.send`
buffers (dest, src, *payload) tuples and flushes them through
`MultiLog.send_many` a block at a time and when the batch returns, which
leaves the same log pages as sending each record on its own. Structural
updates are buffered per interval as (kind, src, dst) rows (see `csr`) and
applied by `csr.apply_ops`, to fetched rows by the overlay and to a whole
interval by the merge.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import csr as csrmod
from . import sortgroup
from .csr import SOURCES, Adjacency, AdjacencyView, GraphDir, ranges
from .edgelog import EdgeLog, classify_inefficient
from .errors import ConfigError
from .multilog import MultiLog, RecordFormat
from .pager import DEFAULT_PAGE_SIZE
from .state import VertexStateStore


@dataclass
class EngineConfig:
    memory_budget: int = 1 << 30
    page_size: int = DEFAULT_PAGE_SIZE
    sort_frac: float = 0.75
    multilog_frac: float = 0.05
    edgelog_frac: float = 0.05
    max_supersteps: int = 15
    edge_log: bool = False
    parallel: int = 0
    seed: int = 0
    merge_threshold: int = 4096
    record_trace: bool = False

    @property
    def sort_budget(self) -> int:
        return int(self.memory_budget * self.sort_frac)

    @property
    def multilog_budget(self) -> int:
        return int(self.memory_budget * self.multilog_frac)

    @property
    def edgelog_budget(self) -> int:
        return int(self.memory_budget * self.edgelog_frac)

    def to_dict(self) -> dict:
        """Every knob but record_trace, which only selects an output."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "record_trace"}


@dataclass
class Batch:
    """The active vertices of one sorted log, ready for a vertex program.

    Row i is vertex ids[i] (ascending). states[i] is its mutable state row,
    adj row i its out-neighbors, records[starts[i]:ends[i]] its inbox in
    arrival order (empty when it was only forced active) and tables[i] its
    per-in-neighbor table when the program declares one.
    """

    ids: np.ndarray
    states: np.ndarray
    adj: Adjacency
    records: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    tables: list | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def messages(self) -> tuple[np.ndarray, np.ndarray]:
        """Every inbox record in row order, and the row each belongs to."""
        lens = self.ends - self.starts
        return np.repeat(np.arange(len(lens)), lens), self.records[ranges(self.starts, lens)]

    def slice(self, a: int, b: int) -> "Batch":
        """Rows [a, b); the states stay shared with this batch."""
        tables = self.tables[a:b] if self.tables is not None else None
        return Batch(
            self.ids[a:b], self.states[a:b], self.adj.slice(a, b), self.records,
            self.starts[a:b], self.ends[a:b], tables,
        )


class VertexProgram:
    """Contract for application vertex programs.

    Subclasses define the wire payload, the state record, an optional
    combine reducer and optional per-in-neighbor table entries, plus:

      init_all(num_vertices, in_degrees) -> (states, active_bits, init_msgs)
      process_batch(ctx, batch)   or   process(ctx, v, state, adj, inbox)

    process_batch gets one Batch and sends with ctx.send_many(dest, src,
    *payload), whole columns at once, in the order a per-vertex loop would
    have sent them. The base process_batch is the generic adapter for
    per-vertex programs: it calls process once per row in id order, with
    ctx.vertex and ctx.table set, the state row, an AdjacencyView and the
    inbox; process sends with ctx.send(dest, *payload).

    combine, when set, is a function reduce(records, starts, out) applied to
    each sorted log: records are grouped by destination, group i starts at
    starts[i], and it must fill out's payload fields with one associative,
    commutative reduction per group (numpy reduceat kernels fit). Inboxes
    then hold one record per destination. Set it with staticmethod so that
    it is not bound to the program instance.

    Neither may keep ctx or the batch beyond the call. Messages are the only
    way a vertex runs again next superstep; deactivation is the default.
    Structural updates may only touch the vertex being processed.
    """

    name = "program"
    payload_fields: list[tuple[str, str]] | None = None
    state_dtype: np.dtype = np.dtype([("value", "<u4")])
    aux_entry_dtype: np.dtype | None = None
    combine = None

    def init_all(self, num_vertices: int, in_degrees: np.ndarray):
        raise NotImplementedError

    def process_batch(self, ctx: "Context", batch: Batch) -> None:
        starts, ends = batch.starts.tolist(), batch.ends.tolist()
        for i, v in enumerate(batch.ids.tolist()):
            ctx.vertex = v
            ctx.table = batch.tables[i] if batch.tables is not None else None
            self.process(ctx, v, batch.states[i], batch.adj.view(i), batch.records[starts[i] : ends[i]])

    def process(self, ctx, v: int, state, adj: AdjacencyView, inbox: np.ndarray) -> None:
        raise NotImplementedError

    def summary(self, states: np.ndarray) -> dict:
        return {}


@dataclass
class SuperstepStats:
    superstep: int
    active_vertices: int
    messages_sent: int
    reads: dict
    writes: dict
    runtime: float
    prediction_accuracy: float | None = None
    sort_resident_peak: int = 0
    multilog_resident_peak: int = 0
    edgelog_bytes: int = 0
    edgelog_served: int = 0
    edgelog_logged: int = 0
    edgelog_read_peak: int = 0
    csr_pages_accessed: int = 0
    csr_pages_inefficient: int = 0

    def to_dict(self) -> dict:
        return {
            "superstep": self.superstep,
            "active_vertices": self.active_vertices,
            "messages_sent": self.messages_sent,
            "reads": dict(sorted(self.reads.items())),
            "writes": dict(sorted(self.writes.items())),
            "prediction_accuracy": self.prediction_accuracy,
            "sort_resident_peak": self.sort_resident_peak,
            "multilog_resident_peak": self.multilog_resident_peak,
            "edgelog_bytes": self.edgelog_bytes,
            "edgelog_served": self.edgelog_served,
            "edgelog_logged": self.edgelog_logged,
            "edgelog_read_peak": self.edgelog_read_peak,
            "csr_pages_accessed": self.csr_pages_accessed,
            "csr_pages_inefficient": self.csr_pages_inefficient,
        }


@dataclass
class RunResult:
    states: np.ndarray
    stats: list[SuperstepStats]
    trace: list[np.ndarray] | None
    structural_warnings: int
    deleted: np.ndarray
    program: VertexProgram

    @property
    def num_supersteps(self) -> int:
        return len(self.stats)

    def summary(self) -> dict:
        return self.program.summary(self.states)


class Context:
    """The engine API handed to process_batch (and by the adapter to
    process); valid only during the call. vertex and table are the row the
    adapter is processing."""

    __slots__ = ("_engine", "superstep", "vertex", "table", "_sends")

    def __init__(self, engine: "Engine", superstep: int):
        self._engine = engine
        self.superstep = superstep
        self.vertex = -1
        self.table = None
        self._sends: list[tuple] = []

    def send(self, dest: int, *payload) -> None:
        """Send one message from the current vertex; buffered until a block
        is full, the next send_many or the end of the batch."""
        self._sends.append((dest, self.vertex, *payload))
        if len(self._sends) == self._engine._mlog.block:
            self.flush()

    def flush(self) -> None:
        """Hand the buffered sends to the multi-log."""
        if self._sends:
            records = self._engine.fmt.pack(self._sends)
            self._sends = []
            self._engine._mlog.send_many(records)

    def send_many(self, dest: np.ndarray, src: np.ndarray, *payload: np.ndarray) -> None:
        """Send message i from src[i] to dest[i] with payload column values
        [i], in index order; a scalar column is broadcast."""
        self.flush()
        fmt = self._engine.fmt
        records = np.empty(len(dest), fmt.dtype)
        records["dest"] = dest
        records["src"] = src
        for (name, _), col in zip(fmt.payload_fields, payload):
            records[name] = col
        self._engine._mlog.send_many(records)

    def deactivate(self) -> None:
        """Accepted for program-model symmetry; deactivation is the default
        and an incoming message always reactivates."""

    def add_edge(self, src: int, dst: int) -> None:
        self._engine._buffer_op(csrmod.ADD_EDGE, src, dst)

    def delete_edge(self, src: int, dst: int) -> None:
        self._engine._buffer_op(csrmod.DEL_EDGE, src, dst)

    def delete_vertex(self) -> None:
        self._engine._buffer_op(csrmod.DEL_VERTEX, self.vertex, -1)
        self._engine.deleted[self.vertex] = True


class Engine:
    def __init__(self, graph: GraphDir, program: VertexProgram, config: EngineConfig, workdir: str):
        self.graph = graph
        self.meta = graph.meta
        self.program = program
        self.cfg = config
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        if config.page_size != self.meta.page_size:
            raise ConfigError(
                f"engine page size {config.page_size} != converted graph page size {self.meta.page_size}"
            )
        self.fmt = RecordFormat(program.payload_fields)
        self.registry = graph.registry
        n = self.meta.num_vertices
        self.in_degrees = graph.in_degrees()
        self.deleted = np.zeros(n, bool)
        self._last_active = np.zeros(n, bool)  # the edge log's prediction
        # per interval: its buffered (kind, src, dst) structural ops, in arrival order
        self._pending: list[list[tuple]] = [[] for _ in range(self.meta.num_intervals)]
        self._ops_lock = threading.Lock()
        self._el_dirty = np.zeros(n, bool)
        self.structural_warnings = 0
        self._mlog: MultiLog | None = None
        self._edgelog: EdgeLog | None = None
        self._states: VertexStateStore | None = None

    # -- structural update buffering ----------------------------------------

    def _buffer_op(self, kind: int, u: int, dst: int) -> None:
        if self.deleted[u] and kind != csrmod.DEL_VERTEX:
            self.structural_warnings += 1
            return
        k = self.meta.interval_of(u)
        with self._ops_lock:
            self._pending[k].append((kind, u, dst))
            self._el_dirty[u] = True

    def _pending_ops(self, intervals) -> np.ndarray:
        return np.array([op for k in intervals for op in self._pending[k]], np.int64).reshape(-1, 3)

    def _overlay(self, adj: Adjacency) -> Adjacency:
        """Most-current adjacency: the rows with pending structural ops get
        them applied by csr.apply_ops and turn "overlay" rows."""
        dirty = adj.ids[self._el_dirty[adj.ids]]
        intervals = np.searchsorted(self.meta.interval_bounds, dirty, side="right") - 1
        ops = self._pending_ops(np.unique(intervals).tolist())
        ops = ops[np.isin(ops[:, 1], dirty)]
        if len(ops) == 0:
            return adj
        hit = np.isin(adj.ids, ops[:, 1])
        over = adj.take(np.flatnonzero(hit))
        over.offsets, over.nbrs, _ = csrmod.apply_ops(over.ids, over.offsets, over.nbrs, ops)
        over.source[:] = SOURCES.index("overlay")
        return Adjacency.merge(adj.take(np.flatnonzero(~hit)), over)

    def _merge_interval(self, k: int) -> None:
        if not self._pending[k]:
            return
        self.structural_warnings += csrmod.merge_structural_updates(self.graph, k, self._pending_ops([k]))
        self._pending[k] = []

    # -- run loop -------------------------------------------------------------

    def run(self, on_superstep=None) -> RunResult:
        """Execute supersteps until quiescence or the cap.

        on_superstep(engine, stats) fires after each superstep; tests use it
        to snapshot state trajectories.
        """
        cfg = self.cfg
        n = self.meta.num_vertices
        states, active_bits, init_msgs = self.program.init_all(n, self.in_degrees)
        aux_caps = self.in_degrees if self.program.aux_entry_dtype is not None else None
        self._states = VertexStateStore.create(
            self.registry,
            os.path.join(self.workdir, "state"),
            self.meta.interval_bounds,
            states,
            self.program.aux_entry_dtype,
            aux_caps,
        )
        self._mlog = MultiLog(
            self.meta.interval_bounds,
            self.fmt,
            self.registry,
            os.path.join(self.workdir, "logs"),
            cfg.multilog_budget,
        )
        if cfg.edge_log:
            self._edgelog = EdgeLog(self.registry, os.path.join(self.workdir, "edgelog"), cfg.edgelog_budget)
        for v, payload in init_msgs:
            self._mlog.send(int(v), int(v), *payload)
        manifest = self._mlog.seal()
        self._mlog.open_superstep(1)

        forced = np.nonzero(active_bits)[0].astype(np.int64)
        stats_list: list[SuperstepStats] = []
        trace: list[np.ndarray] | None = [] if cfg.record_trace else None
        step = 0
        while step < cfg.max_supersteps:
            if manifest.total == 0 and len(forced) == 0:
                break
            st, manifest = self._run_superstep(step, manifest, forced)
            forced = forced[:0]
            stats_list.append(st)
            if trace is not None:
                trace.append(np.flatnonzero(self._last_active))
            if on_superstep is not None:
                on_superstep(self, st)
            step += 1
        for k in range(self.meta.num_intervals):
            self._merge_interval(k)
        final = self._states.read_all()
        # the last sealed logs are never consumed; state files stay on disk
        self._drop_logs(manifest)
        self._states.close()
        if self._edgelog is not None:
            self._edgelog.close()
        return RunResult(final, stats_list, trace, self.structural_warnings, self.deleted.copy(), self.program)

    def _run_superstep(self, S: int, manifest, forced: np.ndarray):
        cfg = self.cfg
        t0 = time.perf_counter()
        base = self.registry.totals()
        base_sends = self._mlog.total_appends
        self._mlog.reset_peaks()
        self._sort_peak = 0
        if self._edgelog is not None:
            self._edgelog.begin_superstep(S)
        predicted = self._last_active
        self._ineff: set = set()
        self._page_usage: dict = {}

        plans = sortgroup.plan_fusion(manifest.counts, self.fmt.width, cfg.sort_budget)
        covered = {k for p in plans for k in p.intervals}
        if len(forced):
            for k in sorted(set(self.meta.interval_of(int(v)) for v in forced) - covered):
                plans.append(sortgroup.FusePlan([k], 0))
            plans.sort(key=lambda p: p.intervals[0])

        n = self.meta.num_vertices
        active_bits = np.zeros(n, bool)
        active_count = 0
        served_from_log = 0

        def track(nbytes):
            self._sort_peak = max(self._sort_peak, nbytes)

        for plan in plans:
            for lo, hi, slog in sortgroup.iter_plan_sorted(
                plan, manifest, self.fmt, self.meta.interval_bounds, self.in_degrees, track
            ):
                if self.program.combine is not None:
                    slog = sortgroup.apply_combine(slog, self.program.combine, self.fmt)
                act = sortgroup.extract_active(slog)
                forced_here = forced[(forced >= lo) & (forced < hi)]
                if len(forced_here):
                    act = np.union1d(act, forced_here)
                act = act[~self.deleted[act]]
                if len(act) == 0:
                    continue
                served_from_log += self._process_batch(S, act, slog, predicted)
                active_bits[act] = True
                active_count += len(act)

        manifest_next = self._mlog.seal()
        self._mlog.open_superstep(S + 2)
        self._drop_logs(manifest)
        for k, pending in enumerate(self._pending):
            if len(pending) >= cfg.merge_threshold:
                self._merge_interval(k)
        self._last_active = active_bits

        delta = self.registry.totals()
        reads = {c: delta[c][0] - base[c][0] for c in delta}
        writes = {c: delta[c][1] - base[c][1] for c in delta}
        if S > 0 and active_count:
            hits = int(np.count_nonzero(predicted & active_bits))
            accuracy = hits / active_count
        else:
            accuracy = None
        st = SuperstepStats(
            superstep=S,
            active_vertices=active_count,
            messages_sent=self._mlog.total_appends - base_sends,
            reads=reads,
            writes=writes,
            runtime=time.perf_counter() - t0,
            prediction_accuracy=accuracy,
            sort_resident_peak=self._sort_peak,
            multilog_resident_peak=self._mlog.post_evict_peak,
            edgelog_bytes=self._edgelog.bytes_logged if self._edgelog else 0,
            edgelog_served=served_from_log,
            edgelog_logged=self._edgelog.logged_vertices if self._edgelog else 0,
            edgelog_read_peak=self._edgelog.read_cache_peak if self._edgelog else 0,
            csr_pages_accessed=len(self._page_usage),
            csr_pages_inefficient=len(self._ineff),
        )
        return st, manifest_next

    def _drop_logs(self, manifest) -> None:
        for handle in manifest.handles:
            if handle.store is not None:
                self.registry.drop(handle.store, "log", unlink=True)

    # -- batch processing -----------------------------------------------------

    def _fetch_adjacency(self, act: np.ndarray) -> tuple[Adjacency, int]:
        """Flat CSR over act: from the edge log where it holds a clean copy,
        otherwise from the CSR with pending structural updates overlaid."""
        el = self._edgelog
        if el is not None:
            from_log = np.fromiter(map(el.indexed, act.tolist()), bool, len(act)) & ~self._el_dirty[act]
        else:
            from_log = np.zeros(len(act), bool)
        adj, pstats = csrmod.load_adjacency(self.graph, act[~from_log])
        for key, useful in pstats.items():
            self._page_usage[key] = self._page_usage.get(key, 0) + useful
            if classify_inefficient(self._page_usage[key], self.cfg.page_size):
                self._ineff.add(key)
            else:
                self._ineff.discard(key)
        adj = self._overlay(adj)
        served = int(from_log.sum())
        if served:
            adj = Adjacency.merge(adj, el.fetch_batch(act[from_log]))
        return adj, served

    def _process_batch(self, S: int, act: np.ndarray, slog, predicted: np.ndarray) -> int:
        adj, served = self._fetch_adjacency(act)
        sl = self._states.checkout(act)
        aux = self._states.checkout_aux(act) if self.program.aux_entry_dtype is not None else None
        starts, ends = slog.spans(act)
        batch = Batch(act, sl.rows, adj, slog.records, starts, ends, aux.tables if aux is not None else None)

        def work(part: Batch) -> None:
            ctx = Context(self, S)
            self.program.process_batch(ctx, part)
            ctx.flush()

        if self.cfg.parallel > 1 and len(act) > 1:
            cuts = np.linspace(0, len(act), self.cfg.parallel + 1).astype(int).tolist()
            parts = [batch.slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
            with ThreadPoolExecutor(max_workers=self.cfg.parallel) as pool:
                list(pool.map(work, parts))
        else:
            work(batch)
        el = self._edgelog
        if el is not None:
            # structural updates only touch the vertex being processed, so
            # logging after the batch sees the same dirty bits as after each
            for i, v in enumerate(act.tolist()):
                el.maybe_log(adj.view(i), bool(predicted[v]), self._ineff, bool(self._el_dirty[v]))
        sl.commit()
        if aux is not None:
            aux.commit()
        return served


def run_app(graph: GraphDir, program: VertexProgram, config: EngineConfig, workdir: str) -> RunResult:
    return Engine(graph, program, config, workdir).run()
