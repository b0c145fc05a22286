"""Superstep driver.

One superstep: plan log fusion from the sealed per-interval message counts,
with the intervals holding forced vertices planned with the logs, as
members with no log (`sortgroup.plan_fusion`), so superstep 0 of a program
that forces every vertex runs one batch per plan, not one per interval;
load each fused log once, which consumes it (the multi-log frees its tails
and deletes its files), and sort it, or fold it into one record per
destination when the program has a combiner, take each pass's destinations
plus its forced vertices as the active set, fetch their state and adjacency
(from the edge log when possible), run the vertex program on them, route
its sends through the multi-log, then seal the next superstep's logs, merge
pending structural updates if their budget share overflows and record the
activity bit vector. With a combiner, the multi-log folds an interval's
sends into one accumulator per superstep once their records would outgrow
it, if it fits (see `multilog`), and logs one record per destination at
seal; the receiver folds a raw log into the same kind of
`multilog.Accumulator`. `messages_sent` counts sends either way.
After a batch ran, the rows `edgelog.log_candidates` picks go to the edge
log, if the batch has read them: logging reads no page.

A program sees one sorted log's active vertices at a time, as a Batch: their
state rows, a flat-CSR adjacency, their inbox spans and, for a program with
per-in-neighbor tables, those tables as one flat entry array with per-row
offsets. Fetching a batch reads only its rows' degrees (rowPtr); the program
reads the neighbors it uses through `Adjacency.take` or `Batch.broadcast`,
which read only the colIdx pages holding them (see `csr`). It handles the
whole batch with array code through a Context of two calls: `send_many`
appends columns of messages to the multi-log, and `structural_many` buffers
(kind, src, dst) structural update rows (see `csr`).

Structural updates are logged, not written in place. A vertex removal only
sets the vertex's bit in `Engine.deleted`: a removed vertex is never fetched
again. An edge op is filed under its source's interval, packed as an
`EDGE_OP` record, in arrival order. A fetched batch sees its rows with the
pending ops overlaid by `csr.apply_ops`, which applies each edge's ops in
arrival order, so when an interval's ops are merged into its CSR files does
not change what any superstep sees. The pending edge ops are capped at
`STRUCTURAL_FRAC` of the memory budget: at the end of a superstep, while
their bytes exceed it, the interval holding the most of them is merged. At
the end of the run every interval with a pending op or removal is merged.
Execution is single-threaded, so results and message order are
deterministic.

Pages stay in memory across supersteps while the pager's one ledger has
room. The run sets the registry's budget to the whole memory budget when it
starts and to 0 when it ends; in between, every other holder of memory
reports what it holds through `StoreRegistry.hold`, and the ledger gets the
rest: the sort its need each superstep, after planning its fusion (the
largest plan's log bytes, at most the sort budget), the pending edge ops
their bytes as they are buffered and merged, the multi-log its open pages,
sealed tails and accumulators, and the edge log its write buffer. The
shares of the memory budget (`MULTILOG_FRAC`, `EDGELOG_FRAC`,
`STRUCTURAL_FRAC`) are caps on those holders, not reservations: memory a
holder does not use is the ledger's. A hold that grows gives back the
newest-admitted pages first, and every page of any class read or written is
kept while the ledger has room (see `pager`). A kept page is never read
from storage again. A page the run appends while the ledger has room (state
and aux pages as they are created, log and edge-log pages, merged CSR
pages) is kept unwritten, and a kept state page that commits change is
updated in memory; each is written once, when it is given back, and a log
or edge-log page consumed and deleted first is never written. At its end,
also when the program raised, the run sets the budget to 0, which writes
every dirty page and releases every resident page, CSR pages included.
`RunResult.reads` and `writes` count the whole run's pages, those end
writes included.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from . import csr as csrmod
from . import sortgroup
from .csr import Adjacency, GraphDir
from .edgelog import EdgeLog, inefficient, log_candidates
from .errors import ConfigError, ContractViolation
from .multilog import MultiLog, RecordFormat, check_combine
from .pager import DEFAULT_PAGE_SIZE, member, page_capacity, ranges, sorted_unique
from .state import VertexStateStore


# caps, as shares of the memory budget: the multi-log's resident pages (its
# eviction point), the edge-log bytes written per superstep and the pending
# structural edge ops (their merge trigger); none is held back from the
# pager's ledger, which gets what the holders do not hold
MULTILOG_FRAC = 0.05
EDGELOG_FRAC = 0.05
STRUCTURAL_FRAC = 0.10

# a pending edge op: its edge, and whether it inserts or deletes a copy
EDGE_OP = np.dtype([("src", "<u4"), ("dst", "<u4"), ("add", "?")])


@dataclass
class EngineConfig:
    memory_budget: int = 1 << 30
    page_size: int = DEFAULT_PAGE_SIZE
    sort_frac: float = 0.75
    max_supersteps: int = 15
    edge_log: bool = False
    parallel: int = 0  # the engine runs one thread; kept only so that 0 is accepted
    seed: int = 0
    record_trace: bool = False

    def __post_init__(self):
        if self.parallel != 0:
            raise ConfigError(f"parallel={self.parallel}: the engine has no worker threads; pass 0")
        if not 0 < self.sort_frac <= 1:
            raise ConfigError(f"sort_frac={self.sort_frac}: the sort's share of the memory budget must be in (0, 1]")
        if self.memory_budget <= 0:
            raise ConfigError(f"memory_budget={self.memory_budget}: the budget must be positive")

    @property
    def sort_budget(self) -> int:
        return int(self.memory_budget * self.sort_frac)

    @property
    def multilog_budget(self) -> int:
        """Most bytes of pages the multi-log keeps resident; past it, it evicts."""
        return int(self.memory_budget * MULTILOG_FRAC)

    @property
    def edgelog_budget(self) -> int:
        """Most bytes the edge log writes per superstep. It caps the log's
        size, not a memory reservation: the log's pages live in the
        pager's ledger, and only its one write buffer is held apart."""
        return int(self.memory_budget * EDGELOG_FRAC)

    @property
    def structural_budget(self) -> int:
        """Pending edge-op bytes past which a superstep's end merges."""
        return int(self.memory_budget * STRUCTURAL_FRAC)

    def to_dict(self) -> dict:
        """Every knob but record_trace, which only selects an output."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "record_trace"}


@dataclass
class Batch:
    """The active vertices of one sorted log, ready for a vertex program.

    Row i is vertex ids[i] (ascending). states[i] is its mutable state row,
    adj row i its out-neighbors and records[starts[i]:ends[i]] its inbox in
    arrival order (empty when it was only forced active); a record's dest
    and src are unsigned ids at the graph's id width, 1, 2 or 4 bytes, so
    widen them before arithmetic that may leave it. With a combiner a
    record has no src (`multilog.RecordFormat`). adj holds the
    rows' degrees (adj.degrees, adj.offsets); their neighbors are read on
    demand, only those a program asks for: adj.take(at) returns the entries
    at flat positions at (adj.offsets[i] + j is row i's j-th neighbor),
    adj.take() every row's, and broadcast the rows it sends from. When the
    program declares per-in-neighbor table entries, table is the rows'
    tables as one flat, mutable entry array: row i's is
    table[table_offsets[i]:table_offsets[i + 1]], with its in-degree as
    capacity.
    """

    ids: np.ndarray
    states: np.ndarray
    adj: Adjacency
    records: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    table: np.ndarray | None = None
    table_offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def messages(self) -> tuple[np.ndarray, np.ndarray]:
        """Every inbox record in row order, and the row each belongs to."""
        lens = self.ends - self.starts
        return np.repeat(np.arange(len(lens)), lens), np.take(self.records, ranges(self.starts, lens))

    def broadcast(self, rows: np.ndarray, *payload) -> tuple:
        """Arguments for ctx.send_many that send each row in the bool mask
        rows its payload values (per-row columns or scalars) to every
        out-neighbor, in (row, adjacency) order; only those rows'
        neighbors are read."""
        deg = np.where(rows, self.adj.degrees, 0)
        cols = (np.repeat(np.broadcast_to(col, len(self)), deg) for col in payload)
        at = None if rows.all() else ranges(self.adj.offsets[:-1][rows], deg[rows])
        return (self.adj.take(at), np.repeat(self.ids, deg), *cols)


class VertexProgram:
    """Contract for application vertex programs.

    Subclasses define the wire payload, the state record, an optional
    combiner and optional per-in-neighbor table entries
    (aux_entry_dtype), plus:

      init_all(num_vertices, in_degrees) -> (states, active_bits, init_msgs)
      process_batch(ctx, batch)

    process_batch gets one Batch and updates its state rows in place. It
    reads the neighbors it uses through batch.adj.take or batch.broadcast,
    never whole rows it does not use: a take reads only the colIdx pages
    holding the wanted entries. It sends with ctx.send_many(dest, src,
    *payload), whole columns at once, and buffers structural updates with
    ctx.structural_many(ops); both keep the order of their rows, so a
    batch's messages and updates land as if each vertex had issued its own
    in id order. With aux_entry_dtype set,
    batch.table holds every row's table in one flat array, row i's at
    batch.table_offsets[i] with its in-degree as capacity; the program
    updates it in place, and the pages holding the entries it changed are
    written back.

    combine, when set, maps every payload field to the ufunc that reduces
    it: np.add, np.minimum or np.maximum (`multilog.check_combine`; the
    engine refuses anything else when it is built). Inboxes then hold one
    record per destination, its fields reduced over the destination's
    messages (a float sum adds in arrival order, in float64); the records
    are not sorted. A combiner reduces message values, not senders: its
    records, and so its inboxes, have no src field, though send_many still
    takes and checks a src column. The reduction runs at the
    sender, into one accumulator per interval, from the send at which the
    interval's messages of a superstep would take more bytes as records
    than the accumulator, if it fits the multi-log's budget, and at the
    receiver otherwise; both fold into a `multilog.Accumulator` from the
    same identity in arrival order, so the inbox is the same to the bit.

    A program may not keep ctx or the batch beyond the call. Messages are
    the only way a vertex runs again next superstep; deactivation is the
    default. Structural updates may only touch the vertices being processed.
    """

    name = "program"
    payload_fields: list[tuple[str, str]] | None = None
    state_dtype: np.dtype = np.dtype([("value", "<u4")])
    aux_entry_dtype: np.dtype | None = None
    combine = None

    def init_all(self, num_vertices: int, in_degrees: np.ndarray):
        raise NotImplementedError

    def process_batch(self, ctx: "Context", batch: Batch) -> None:
        raise NotImplementedError

    def process(self, *args) -> None:
        """Never called by the engine. It survives only as the name that the
        benchmark's clock (bench/child.py) and tracer (bench/trace.py) wrap."""
        raise NotImplementedError

    def summary(self, states: np.ndarray) -> dict:
        return {}


@dataclass
class SuperstepStats:
    """What one superstep did and moved. Per page class, the merges at its end
    included: reads and writes (pages read from and written to storage), hits
    (page reads the ledger served) and evicted (pages it gave back).
    messages_sent counts sends, before any fold at the sender; runtime (wall
    seconds) stays out of `to_dict`. prediction_accuracy: the share of the
    active vertices active in the superstep before, None at superstep 0 or
    with none active. Peaks in bytes: sort_resident_peak of the largest log a
    plan loaded (once, whatever its passes) to sort or combine,
    multilog_resident_peak of the open multi-log pages and accumulators
    after eviction, resident_peak of the ledger.
    edgelog_bytes and edgelog_logged are what was logged, edgelog_served the
    rows served, edgelog_read_peak the page bytes of the largest fetch; all 0
    without an edge log.
    csr_pages_accessed counts the colIdx pages the fetched rows span, not the
    pages read (a take reads only what it wants), and csr_pages_inefficient
    those the rows fill below `edgelog.INEFFICIENT_THRESHOLD`."""

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
    hits: dict = field(default_factory=dict)
    resident_peak: int = 0
    evicted: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but runtime, which differs from run to run."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "runtime"}


@dataclass
class RunResult:
    """A run's final states and stats. reads and writes are the pages read
    and written per class over the whole run, from the state file's creation
    to the last write-back, which the supersteps' own counts leave out."""

    states: np.ndarray
    stats: list[SuperstepStats]
    trace: list[np.ndarray] | None
    structural_warnings: int
    deleted: np.ndarray
    program: VertexProgram
    reads: dict
    writes: dict

    @property
    def num_supersteps(self) -> int:
        return len(self.stats)

    def summary(self) -> dict:
        return self.program.summary(self.states)


class Context:
    """The engine API handed to process_batch; valid only during the call."""

    __slots__ = ("_engine", "superstep")

    def __init__(self, engine: "Engine", superstep: int):
        self._engine = engine
        self.superstep = superstep

    def send_many(self, dest: np.ndarray, src: np.ndarray, *payload: np.ndarray) -> None:
        """Send message i from src[i] to dest[i] with payload column values
        [i], in index order; a scalar src or payload column is broadcast.
        src is logged only without a combiner (`multilog.RecordFormat`). A
        dest or src outside [0, num_vertices), a column count other than the
        wire format's payload fields, or a column whose length is not
        dest's, is a contract violation."""
        n = self._engine.meta.num_vertices
        for name, col in (("destination", dest), ("source", src)):
            col = np.asarray(col)
            if col.size and (col.min() < 0 or col.max() >= n):
                raise ContractViolation(f"message {name} outside [0, {n})")
        fmt = self._engine.fmt
        if len(payload) != len(fmt.payload_fields):
            raise ContractViolation(
                f"{len(payload)} payload columns for the {len(fmt.payload_fields)} fields of the wire format"
            )
        names = ("dest", "src", *(name for name, _ in fmt.payload_fields))
        for name, col in zip(names, (dest, src, *payload)):
            if np.ndim(col) and len(col) != len(dest):
                raise ContractViolation(f"column {name!r} holds {len(col)} values for {len(dest)} destinations")
        self._engine._mlog.send_columns(fmt.fields(dest, src, payload))

    def structural_many(self, ops) -> None:
        """Buffer structural ops, int rows (kind, src, dst) with kind one of
        csr.ADD_EDGE, DEL_EDGE and DEL_VERTEX (dst unused), in row order.
        Another kind, or a src or an ADD_EDGE dst outside [0, num_vertices),
        is a contract violation. An op other than a removal on a vertex
        already removed, by an earlier call or an earlier row, is dropped
        and counted in structural_warnings.

        The ops of each edge take effect in arrival order, across calls and
        supersteps: a deletion removes a copy that the stored graph or an
        earlier insertion left, or else counts a structural warning. Every
        later fetch sees them at once, whether or not the engine has merged
        them into the CSR files yet; it merges only when their share of the
        memory budget overflows, and at the end of the run."""
        self._engine._buffer_ops(np.asarray(ops, np.int64).reshape(-1, 3))


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
        # message ids at the graph's id width, the one width csr.id_dtype
        # picks; a combiner's messages carry no src
        self.fmt = RecordFormat(program.payload_fields, self.meta.colidx_dtype, program.combine)
        if program.combine is not None:
            check_combine(program.combine, self.fmt)
        if config.sort_budget < self.fmt.width:
            raise ConfigError(
                f"sort budget of {config.sort_budget} bytes (memory_budget x sort_frac) holds no {self.fmt.width}-byte record"
            )
        # a state row or an aux entry lies in one page, as a multi-log record does
        for what, dtype in (("state", program.state_dtype), ("aux", program.aux_entry_dtype)):
            if dtype is not None and page_capacity(config.page_size, np.dtype(dtype).itemsize) < 1:
                raise ConfigError(
                    f"a {np.dtype(dtype).itemsize}-byte {what} entry does not fit a {config.page_size}-byte page"
                )
        self.registry = graph.registry
        n = self.meta.num_vertices
        self.in_degrees = graph.in_degrees()
        self.deleted = np.zeros(n, bool)
        self._last_active = np.zeros(n, bool)  # the edge log's prediction
        # per interval: its pending EDGE_OP arrays in arrival order, their
        # bytes, and whether it holds a removal not merged yet
        self._pending: list[list[np.ndarray]] = [[] for _ in range(self.meta.num_intervals)]
        self._pending_bytes = np.zeros(self.meta.num_intervals, np.int64)
        self._removals = np.zeros(self.meta.num_intervals, bool)
        self._el_dirty = np.zeros(n, bool)
        self.structural_warnings = 0
        self._mlog: MultiLog | None = None
        self._edgelog: EdgeLog | None = None
        self._states: VertexStateStore | None = None

    # -- structural update buffering ----------------------------------------

    def _buffer_ops(self, ops: np.ndarray) -> None:
        kind, src = ops[:, 0], ops[:, 1]
        n = self.meta.num_vertices
        if len(ops) and (src.min() < 0 or src.max() >= n):
            raise ContractViolation(f"structural op on a vertex outside [0, {n})")
        bad = ~member(kind, np.sort([csrmod.ADD_EDGE, csrmod.DEL_EDGE, csrmod.DEL_VERTEX]))
        if bad.any():
            raise ContractViolation(f"structural op kind {int(kind[bad][0])} is not ADD_EDGE, DEL_EDGE or DEL_VERTEX")
        dst = ops[kind == csrmod.ADD_EDGE, 2]
        if len(dst) and (dst.min() < 0 or dst.max() >= n):
            raise ContractViolation(f"edge insert to a vertex outside [0, {n})")
        removal = kind == csrmod.DEL_VERTEX
        # ops after the first removal of their vertex in this array
        after = np.zeros(len(ops), bool)
        at = np.flatnonzero(removal)
        if len(at):
            removed, first = np.unique(src[at], return_index=True)
            i = np.searchsorted(removed, src).clip(max=len(removed) - 1)
            after = (removed[i] == src) & (np.arange(len(ops)) > at[first][i])
        drop = ~removal & (self.deleted[src] | after)
        self.structural_warnings += int(drop.sum())
        self._el_dirty[src[~drop]] = True
        self.deleted[src[removal]] = True
        self._removals[self.meta.interval_of(src[removal])] = True
        rows = ops[~drop & ~removal]
        edge = np.zeros(len(rows), EDGE_OP)
        edge["src"], edge["add"] = rows[:, 1], rows[:, 0] == csrmod.ADD_EDGE
        # a deletion's dst outside the graph matches no edge, and neither does NO_VID
        edge["dst"] = np.where((rows[:, 2] >= 0) & (rows[:, 2] < n), rows[:, 2], csrmod.NO_VID)
        intervals = self.meta.interval_of(edge["src"])
        for k in sorted_unique(intervals).tolist():
            self._pending[k].append(edge[intervals == k])
            self._pending_bytes[k] += self._pending[k][-1].nbytes
        self.registry.hold("structural", int(self._pending_bytes.sum()))

    def _overlay(self, adj: Adjacency) -> None:
        """Most-current adjacency: the rows of the batch's vertices with
        pending edge ops are read whole, csr.apply_ops applies the ops, and
        the batch holds the new rows in memory. The batch holds no removed
        vertex, so no removal applies."""
        dirty = adj.ids[self._el_dirty[adj.ids]]
        pending = [c for k in sorted_unique(self.meta.interval_of(dirty)).tolist() for c in self._pending[k]]
        if not pending:
            return
        edge = np.concatenate(pending)
        # dirty is ascending: keep the ops whose src is one of it
        edge = edge[member(edge["src"], dirty)]
        if len(edge):
            rows = np.searchsorted(adj.ids, sorted_unique(edge["src"]))
            deg = adj.degrees[rows]
            offsets = np.zeros(len(rows) + 1, np.int64)
            np.cumsum(deg, out=offsets[1:])
            nbrs = adj.take(ranges(adj.offsets[rows], deg))
            offsets, nbrs = csrmod.apply_ops(adj.ids[rows], offsets, nbrs, _op_rows(edge))[:2]
            adj.put(Adjacency(adj.ids[rows], offsets, nbrs, adj.pages[rows]))

    def _merge_interval(self, k: int) -> None:
        """Merge interval k's pending edge ops, then a removal of each of its
        removed vertices (a row merged empty before stays empty)."""
        lo, hi = self.meta.interval_range(k)
        removed = lo + np.flatnonzero(self.deleted[lo:hi])
        ops = _op_rows(np.concatenate([np.zeros(0, EDGE_OP)] + self._pending[k]), removed)
        self.structural_warnings += csrmod.merge_structural_updates(self.graph, k, ops)
        self._pending[k] = []
        self._pending_bytes[k] = 0
        self._removals[k] = False
        self.registry.hold("structural", int(self._pending_bytes.sum()))

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
        base = self.registry.totals()
        self.registry.set_budget(cfg.memory_budget)
        try:
            self._states = VertexStateStore.create(
                self.registry,
                os.path.join(self.workdir, "state"),
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
                self.program.combine,
            )
            if cfg.edge_log:
                self._edgelog = EdgeLog(self.registry, os.path.join(self.workdir, "edgelog"), cfg.edgelog_budget)
            self._mlog.send_many(self.fmt.pack([self.fmt.fields(v, v, payload) for v, payload in init_msgs]))
            manifest = self._mlog.seal()

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
            for k in np.flatnonzero((self._pending_bytes > 0) | self._removals).tolist():
                self._merge_interval(k)
            final = self._states.read_all()
        finally:
            # also when the program raised. Every log goes, the last sealed
            # ones too, which are never consumed; state files stay on disk,
            # with their dirty pages written. Then no page stays resident,
            # so a later run on the same graph starts from storage.
            if self._mlog is not None:
                self._mlog.close()
            if self._states is not None:
                self._states.close()
            if self._edgelog is not None:
                self._edgelog.close()
            self.registry.set_budget(0)
        end = self.registry.totals()
        return RunResult(
            final,
            stats_list,
            trace,
            self.structural_warnings,
            self.deleted.copy(),
            self.program,
            reads={c: end[c][0] - base[c][0] for c in end},
            writes={c: end[c][1] - base[c][1] for c in end},
        )

    def _run_superstep(self, S: int, manifest, forced: np.ndarray):
        cfg = self.cfg
        t0 = time.perf_counter()
        base = self.registry.counts()
        base_evicted = dict(self.registry.evicted)
        base_sends = self._mlog.total_appends
        self.registry.restart_peak()
        self._mlog.reset_peaks()
        if self._edgelog is not None:
            self._edgelog.begin_superstep(S)
        predicted = self._last_active
        # useful colIdx bytes per page fetched this superstep; merges run only at its end
        self._page_base = np.cumsum([0] + [part.colidx.num_pages for part in self.graph.partitions])
        self._usage = np.zeros(self._page_base[-1], np.int64)

        holds_forced = np.zeros(self.meta.num_intervals, bool)
        holds_forced[self.meta.interval_of(forced)] = True
        plans = sortgroup.plan_fusion(manifest.counts, self.fmt.width, cfg.sort_budget, holds_forced)
        # a plan loads its logs' message_count records, est_bytes in all
        sort_peak = max((p.est_bytes for p in plans), default=0)
        # the sort, or a combiner's scatter, is charged its largest load, at
        # most its whole share; what it really holds is more (ROADMAP item 6)
        self.registry.hold("sort", min(sort_peak, cfg.sort_budget))

        n = self.meta.num_vertices
        active_bits = np.zeros(n, bool)
        active_count = 0
        served_from_log = 0

        for plan in plans:
            for lo, hi, slog in sortgroup.iter_plan_sorted(
                plan,
                manifest,
                self.fmt,
                self.meta.interval_bounds,
                self.in_degrees,
                self._mlog.release,
                self.program.combine,
            ):
                act = slog.dests
                forced_here = forced[(forced >= lo) & (forced < hi)]
                if len(forced_here):
                    act = sorted_unique(np.concatenate([act, forced_here]))
                act = act[~self.deleted[act]]
                if len(act) == 0:
                    continue
                served_from_log += self._process_batch(S, act, slog, predicted)
                active_bits[act] = True
                active_count += len(act)

        manifest_next = self._mlog.seal()
        while self._pending_bytes.sum() > cfg.structural_budget:
            self._merge_interval(int(self._pending_bytes.argmax()))
        self._last_active = active_bits

        delta = {c: [a - b for a, b in zip(now, base[c])] for c, now in self.registry.counts().items()}
        if S > 0 and active_count:
            accuracy = int(np.count_nonzero(predicted & active_bits)) / active_count
        else:
            accuracy = None
        st = SuperstepStats(
            superstep=S,
            active_vertices=active_count,
            messages_sent=self._mlog.total_appends - base_sends,
            reads={c: d[0] for c, d in delta.items()},
            writes={c: d[1] for c, d in delta.items()},
            runtime=time.perf_counter() - t0,
            prediction_accuracy=accuracy,
            sort_resident_peak=sort_peak,
            multilog_resident_peak=self._mlog.post_evict_peak,
            edgelog_bytes=self._edgelog.bytes_logged if self._edgelog else 0,
            edgelog_served=served_from_log,
            edgelog_logged=self._edgelog.logged_vertices if self._edgelog else 0,
            edgelog_read_peak=self._edgelog.read_cache_peak if self._edgelog else 0,
            csr_pages_accessed=int(np.count_nonzero(self._usage)),
            csr_pages_inefficient=int(np.count_nonzero(inefficient(self._usage, cfg.page_size))),
            hits={c: d[2] for c, d in delta.items()},
            resident_peak=self.registry.resident_peak,
            evicted={c: n - base_evicted[c] for c, n in self.registry.evicted.items()},
        )
        return st, manifest_next

    # -- batch processing -----------------------------------------------------

    def _fetch_adjacency(self, act: np.ndarray) -> tuple[Adjacency, int]:
        """Flat CSR over act: from the edge log where it holds a clean copy,
        otherwise from the CSR with pending structural updates overlaid.
        Rows from the CSR without pending ops are read when taken."""
        el = self._edgelog
        from_log = el.indexed(act) & ~self._el_dirty[act] if el is not None else np.zeros(len(act), bool)
        adj, pstats = csrmod.load_adjacency(self.graph, act[~from_log])
        k, p = np.fromiter(chain.from_iterable(pstats), np.int64, 2 * len(pstats)).reshape(-1, 2).T
        self._usage[self._page_base[k] + p] += np.fromiter(pstats.values(), np.int64, len(pstats))
        self._overlay(adj)
        served = int(from_log.sum())
        if served:
            adj.put(el.fetch_batch(act[from_log]))
        return adj, served

    def _process_batch(self, S: int, act: np.ndarray, slog, predicted: np.ndarray) -> int:
        """Run the program on one batch; the pages it read stay pinned in the
        pager's arena until it ends (see `StoreRegistry.unpin`)."""
        try:
            return self._run_batch(S, act, slog, predicted)
        finally:
            self.registry.unpin()

    def _run_batch(self, S: int, act: np.ndarray, slog, predicted: np.ndarray) -> int:
        adj, served = self._fetch_adjacency(act)
        sl = self._states.checkout(act)
        aux = self._states.checkout_aux(act) if self.program.aux_entry_dtype is not None else None
        starts, ends = slog.spans(act)
        batch = Batch(act, sl.rows, adj, slog.records, starts, ends)
        if aux is not None:
            batch.table, batch.table_offsets = aux.entries, aux.offsets
        self.program.process_batch(Context(self, S), batch)
        el = self._edgelog
        if el is not None:
            # structural updates only touch the vertex being processed, so
            # logging after the batch sees the same dirty bits as after each;
            # only rows the batch has read are logged, so logging reads no
            # page, and candidates are logged in act order until the budget
            # runs out
            candidates = log_candidates(
                adj.pages, predicted[act], self._el_dirty[act], self._usage, self._page_base, self.cfg.page_size
            )
            candidates = np.flatnonzero(candidates)
            for view in adj.views(candidates[adj.loaded(candidates)]):
                el.maybe_log(view)
        sl.commit()
        if aux is not None:
            aux.commit()
        return served


def _op_rows(edge: np.ndarray, removed=()) -> np.ndarray:
    """`csr.apply_ops` rows: the EDGE_OP records in order, then a removal of
    each vertex in removed."""
    removed = np.asarray(removed, np.int64)
    kind = np.append(np.where(edge["add"], csrmod.ADD_EDGE, csrmod.DEL_EDGE), np.full(len(removed), csrmod.DEL_VERTEX))
    dst = np.append(edge["dst"], np.full(len(removed), -1))
    return np.stack([kind, np.append(edge["src"], removed), dst], 1).astype(np.int64)


def run_app(graph: GraphDir, program: VertexProgram, config: EngineConfig, workdir: str) -> RunResult:
    return Engine(graph, program, config, workdir).run()
