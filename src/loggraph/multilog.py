"""Per-interval append logs for inter-vertex messages.

Every message is routed by destination to its vertex interval's log. Each
interval keeps one in-memory top page receiving appends; a page closes as
soon as it is full and stays resident until the buffer budget forces it
out. Sealing a superstep hands nothing to the pager (but the pages that
appending its accumulators' records forces out, see below): an interval's
resident pages become the resident tail of its sealed log, after the pages
already handed over, and stay in the buffer's budget until the next
superstep loads the log, once, and releases it. A page is handed
to the pager only when opening a new one would take residency past the
budget, and then exactly as many pages as the overflow: first sealed
tails, spilled to their log files page by page in chain order from the log
the next superstep loads last; then closed pages, oldest first in the
order they closed across all intervals. The pager appends them
write-behind (see `pager`), so a handed-over page reaches storage only if
the pager's ledger has no room for it or gives it back before the log file
is deleted. The budget holds at least one top page per interval, so a
buffer over budget with no tail left always holds a closed page, and a top
page is never handed over before its log is sealed. Log files are per
(superstep, interval), so a sealed superstep's chain is frozen but for its
spilled tail while the next superstep's sends open fresh logs.

Record layout (`RecordFormat`): dest | src | fixed-width payload, dest and
src unsigned ids at the graph's id width, the narrowest of 1, 2 and 4
bytes that holds every vertex id (`csr.id_dtype`), as colIdx stores them.
A combiner's records have no src: it reduces message values, not senders,
so they are dest | payload.
Records never span pages, so each page parses on its own. Pages keep
arrival order; the sort-and-group unit orders a loaded log by
destination, or combines it.

Combining at the sender. With a combiner (one ufunc per payload field, see
`check_combine`), an interval's log of one superstep is either raw records
or one dense `Accumulator` over its vertices [lo, hi), kept from the send
that chooses it until its seal. A raw interval turns into an accumulator
at the send that brings its messages of the superstep to at least the
accumulator's bytes as records ((hi - lo) * accumulator width <= messages
* record width), if none of its pages was handed to the pager and the
accumulator fits the budget beside the resident pages, or if more, one top
page per interval and a full block of pages for the raw intervals'
appends. Below that point the records take less memory and about as long
to log, load and combine; from about one message per vertex up the
accumulator is the faster too. Its records so far are read back from its
resident pages by `read_log_records`, folded in in arrival order, and the
pages freed. So the choice does not depend on how the sends are cut into
calls unless the budget hands pages over or refuses the accumulator; a
sparse frontier stays raw and what it holds grows with its messages. An
accumulator's bytes come out of the pages the budget holds, and are
reported to the ledger with them. Its sends are folded in, column by
column, with no record built: each column is first cast to its wire
dtype, then folded, a float sum in float64 and any other field in its
wire dtype. `seal` first appends each accumulator's
hit destinations, one record per destination in ascending order, through
the same path as raw records, so the eviction this may force takes closed
pages as any send's does. `sortgroup.apply_combine` folds a raw log into
an `Accumulator` too, from the same identity in arrival order, so both
give the same bits, and on one record per destination it is the identity:
a sealed accumulator's log is marked `LogHandle.folded`, and the receiver
does not fold it again. Mixing raw records and a partial sum in one
interval's log would break that, hence one or the other for the whole
superstep. A log's `message_count` is its records; `total_appends` counts
sends.

`send_columns` is the one send path. It takes one column per wire field,
as vertex programs send through the engine's `Context.send_many`, copies
the records into the top pages, and packs the whole pages between an
interval's first top and its last with `pager.pack_pages`; `send_many`
sends an array of wire-format records as its columns, and `send` one
record. The multi-log owns its log files and tails: `release` consumes
logs at their one load, freeing their tails and deleting their files, and
`close` frees every file and tail still held.

Its resident pages and accumulators are memory the pager's ledger may not
use: it reports their bytes to `StoreRegistry.hold` before a block opens
pages or an accumulator is made, so the ledger makes room first, and again
after `release` (which `close` calls) frees tails.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, CorruptPageError
from .pager import PageStore, StoreRegistry, fill_page, pack_pages, page_capacity, page_records


# most pages of records one send_many block covers; uncapped blocks, as
# large as a roomy budget's free pages, ran slower and raised peak memory
BLOCK_PAGES = 32


# the ufuncs a combiner may name, each with its identity (see Accumulator)
COMBINE_UFUNCS = (np.add, np.minimum, np.maximum)


def check_combine(combine: dict, fmt: RecordFormat) -> None:
    """A combiner maps each integer or float payload field of the wire
    format to one of np.add, np.minimum and np.maximum; anything else is a
    contract violation. src is never a payload field (`RecordFormat`): a
    combiner reduces message values, and its records carry no sender."""
    names = [name for name, _ in fmt.payload_fields]
    if not isinstance(combine, dict):
        raise ContractViolation(f"combine must map payload fields to ufuncs, got {type(combine).__name__}")
    for name, ufunc in combine.items():
        if name not in names:
            raise ContractViolation(f"combine names {name!r}, which is not a payload field of {names}")
        if not any(ufunc is u for u in COMBINE_UFUNCS):
            raise ContractViolation(f"combine of {name!r} is {ufunc!r}; only np.add, np.minimum and np.maximum combine")
        if fmt.dtype[name].kind not in "iuf":
            raise ContractViolation(f"combine of {name!r}: a {fmt.dtype[name]} field does not combine")
    missing = [name for name in names if name not in combine]
    if missing:
        raise ContractViolation(f"combine names no ufunc for the payload field {missing[0]!r}")


def _as_wire(col, dtype: np.dtype, n: int) -> np.ndarray:
    """n values of col (one per message, or a scalar for all) cast to dtype
    as a record array's field assignment casts them."""
    if isinstance(col, np.ndarray) and col.dtype == dtype and col.shape == (n,):
        return col
    out = np.empty(n, dtype)
    out[...] = col
    return out


def _fresh_slots(ufunc, dtype: np.dtype, n: int) -> np.ndarray:
    """n slots holding ufunc's identity, in the dtype an Accumulator folds
    a field of dtype in: float64 for a float sum, dtype itself otherwise."""
    if ufunc is np.add:
        return np.zeros(n, np.float64 if dtype.kind == "f" else dtype)
    lowest = ufunc is np.maximum
    if dtype.kind == "f":
        return np.full(n, -np.inf if lowest else np.inf, dtype)
    info = np.iinfo(dtype)
    return np.full(n, info.min if lowest else info.max, dtype)


class Accumulator:
    """The one combiner fold: messages folded into the slots of the
    destinations [lo, hi), per slot whether any message reached it, and
    each payload field folded by its ufunc from the ufunc's identity. fmt
    is the combiner's wire format, which has no src. The multi-log's
    accumulators and `sortgroup.apply_combine` both fold here, one value at
    a time in message order, so columns folded in pieces, in order, give
    the bits of one fold over them whole; a float sum is kept in float64."""

    __slots__ = ("lo", "dtype", "hit", "slots", "ufuncs")

    def __init__(self, lo: int, hi: int, combine: dict, fmt: RecordFormat):
        _check_no_src(fmt)
        self.lo = lo
        self.dtype = fmt.dtype
        self.ufuncs = combine
        self.hit = np.zeros(hi - lo, bool)
        self.slots = {name: _fresh_slots(u, fmt.dtype[name], hi - lo) for name, u in self.ufuncs.items()}

    @property
    def nbytes(self) -> int:
        return self.hit.nbytes + sum(slots.nbytes for slots in self.slots.values())

    def fold(self, cols, index: np.ndarray | None = None) -> None:
        """Fold messages into the slots: cols maps each wire field to its
        column (a dict, or a record array), the payload fields in their
        wire dtypes. Each message goes into the slot index gives it,
        by default its dest (an integer column) less lo."""
        if index is None:
            index = np.asarray(cols["dest"], np.intp)
            if self.lo:
                index = index - self.lo
        self.hit[index] = True
        for name, ufunc in self.ufuncs.items():
            slots = self.slots[name]
            # ufunc.at takes its fast path on a contiguous column of the slots' dtype
            ufunc.at(slots, index, np.ascontiguousarray(cols[name], slots.dtype))

    def records(self, dests: np.ndarray | None = None) -> np.ndarray:
        """One record per slot hit, in slot order, each slot cast to its wire
        dtype; a slot's dest is dests[slot], by default lo + slot."""
        at = np.flatnonzero(self.hit)
        out = np.empty(len(at), self.dtype)
        out["dest"] = at + self.lo if dests is None else dests[at]
        for name, slots in self.slots.items():
            out[name] = slots[at]
        return out


class RecordFormat:
    """Wire format of one update message: dest and, unless the program has
    a combiner, src as unsigned ids of id_dtype, then the app-defined
    payload fields. A combiner reduces message values, not senders, so no
    receiver of its records reads a src, and has_src is whether combine is
    None. The engine passes its graph's id width
    (`csr.GraphMeta.colidx_dtype`), the narrowest that holds every vertex
    id; the default, uint32, holds any."""

    def __init__(self, payload_fields: list[tuple[str, str]] | None = None, id_dtype="<u4", combine: dict | None = None):
        self.payload_fields = list(payload_fields or [])
        taken = [name for name, _ in self.payload_fields if name in ("dest", "src")]
        if taken:
            raise ContractViolation(f"payload field {taken[0]!r} takes the name of a message id")
        self.has_src = combine is None
        ids = [("dest", id_dtype), ("src", id_dtype)] if self.has_src else [("dest", id_dtype)]
        self.dtype = np.dtype(ids + self.payload_fields)
        self.width = self.dtype.itemsize

    def fields(self, dest, src, payload) -> tuple:
        """A message's wire fields in order: dest, src if the format has it,
        then the payload."""
        return (dest, src, *payload) if self.has_src else (dest, *payload)

    def pack(self, rows: list[tuple]) -> np.ndarray:
        """Records from tuples of the wire fields in order (see `fields`); a
        value the wire format cannot hold, such as a negative destination,
        is a contract violation."""
        try:
            return np.array(rows, self.dtype)
        except OverflowError as exc:
            raise ContractViolation(f"message does not fit the wire format: {exc}") from None


def _check_no_src(fmt: RecordFormat) -> None:
    if fmt.has_src:
        raise ContractViolation("a combiner's wire format has no src; build it with RecordFormat(..., combine=combine)")


@dataclass
class LogHandle:
    """One sealed interval log: where its pages live and how many records.

    Its records are those of the pages `ordinals` of `store`, then those of
    the resident `tail` pages (each with its record count in the header),
    in arrival order. An eviction spills the tail's first page to the end
    of `ordinals`. The log is loaded once: `MultiLog.release` then frees
    what is left of the tail and deletes the file, and sets store to None,
    so a page the pager still holds unwritten is never written. folded says
    the records are already one per destination, ascending, folded from the
    combiner's identities: an accumulator's, or none.
    """

    interval: int
    store: PageStore | None
    ordinals: list[int]
    message_count: int
    tail: list[bytearray]
    folded: bool = False


@dataclass
class LogManifest:
    handles: list[LogHandle]

    @property
    def counts(self) -> np.ndarray:
        return np.array([h.message_count for h in self.handles], np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class _IntervalLog:
    __slots__ = ("interval", "top", "fill", "closed", "store", "chain", "message_count", "sealed", "acc", "folded")

    def __init__(self, interval: int, page_size: int):
        self.interval = interval
        self.top = bytearray(page_size)
        self.fill = 0
        self.closed: deque[bytearray] = deque()
        self.store: PageStore | None = None
        self.chain: list[int] = []
        self.message_count = 0
        self.sealed = False
        self.acc: Accumulator | None = None
        self.folded = False  # its records are an accumulator's


class MultiLog:
    """The multi-log buffer: one append log per vertex interval."""

    def __init__(
        self,
        bounds: list[int],
        fmt: RecordFormat,
        registry: StoreRegistry,
        log_dir: str,
        buffer_budget: int,
        combine: dict | None = None,
    ):
        self.bounds = list(bounds)
        self.n_intervals = len(bounds) - 1
        # each vertex's interval; a narrow dtype lets _append_block's stable argsort radix sort
        k_dtype = np.min_scalar_type(self.n_intervals)
        self._interval_of = np.repeat(np.arange(self.n_intervals, dtype=k_dtype), np.diff(bounds))
        self.fmt = fmt
        self.registry = registry
        self.dir = log_dir
        self.page_size = registry.page_size
        self.capacity = page_capacity(self.page_size, fmt.width)
        if self.capacity < 1:
            raise ConfigError(f"record width {fmt.width} does not fit a {self.page_size}-byte page")
        if buffer_budget < self.n_intervals * self.page_size:
            raise ConfigError(
                f"multi-log budget {buffer_budget} is below one page per interval "
                f"({self.n_intervals} x {self.page_size})"
            )
        if combine is not None:
            _check_no_src(fmt)
        self.budget = buffer_budget
        self.combine = combine
        # bytes an accumulator holds per vertex
        self._acc_width = Accumulator(0, 1, combine, fmt).nbytes if combine is not None else 0
        self._min_acc_bytes = min(np.diff(bounds).tolist(), default=0) * self._acc_width
        self._acc_bytes = 0  # of the open superstep's accumulators
        self.tag = -1
        self.logs: list[_IntervalLog] = []
        self._closed: deque[_IntervalLog] = deque()  # the log of each closed open page, oldest first
        self._resident_pages = 0  # open and carried pages
        self._carried: list[tuple[int, LogHandle]] = []  # (tag, handle) of every held tail, in seal order
        self._carried_pages = 0
        self._stores: list[PageStore] = []  # every log file not yet released
        self.total_appends = 0
        self.post_evict_peak = 0
        os.makedirs(log_dir, exist_ok=True)
        self.open_superstep(0)

    # -- write path ---------------------------------------------------------

    def open_superstep(self, tag: int) -> None:
        self.tag = tag
        self.logs = [_IntervalLog(k, self.page_size) for k in range(self.n_intervals)]
        self._closed = deque()
        self._resident_pages = self._carried_pages

    def send(self, dest: int, src: int, *payload) -> None:
        """Send one message; src is logged only if the format has it."""
        self.send_many(self.fmt.pack([self.fmt.fields(dest, src, payload)]))

    def send_many(self, records: np.ndarray) -> None:
        """Send wire-format records (fmt.dtype) in arrival order, as their
        columns (see `send_columns`)."""
        if records.dtype != self.fmt.dtype:
            raise ContractViolation(f"record dtype {records.dtype} is not the wire format {self.fmt.dtype}")
        self.send_columns([records[name] for name in self.fmt.dtype.names])

    def send_columns(self, columns) -> None:
        """Send messages given as one column per wire field, dest first,
        each an array of one value per message or a scalar for all; message
        i is the values [i], in index order. A column is cast to its field's
        dtype as a record array's field assignment casts it. The messages are
        appended as records or, with a combiner, those of accumulating
        intervals folded straight from the columns (see the module doc).

        Splitting the messages into several calls leaves the same page
        images, chains, counts, eviction points and peaks: each page
        opening past the budget evicts one page that was resident before
        the record that opens it. Appends in blocks of at most BLOCK_PAGES
        pages of records: its temporaries stay small whatever the batch
        size, and a block evicts once, before it appends.
        """
        n = len(columns[0])
        if n == 0:
            return
        dest = np.asarray(columns[0])
        # checked before any cast, which would wrap -1 into a narrow id's range
        lowest, highest = dest.min(), dest.max()
        if lowest < 0 or highest >= self.bounds[-1]:
            raise ContractViolation(f"destination {lowest if lowest < 0 else highest} outside vertex range")
        # an integer dest needs no cast to index by
        if dest.dtype.kind not in "iu":
            dest = _as_wire(dest, self.fmt.dtype["dest"], n)
        columns = (dest, *columns[1:])
        if self.combine is None:
            self._append(self._records(columns))
        else:
            self._send_combined(columns)
        self.total_appends += n

    def _records(self, columns) -> np.ndarray:
        """Wire-format records of messages given as send_columns takes them."""
        records = np.empty(len(columns[0]), self.fmt.dtype)
        for name, col in zip(self.fmt.dtype.names, columns):
            records[name] = col
        return records

    def _columns(self, columns) -> dict:
        """Messages given as send_columns takes them, as one column per wire
        field, each payload column cast to its wire dtype."""
        cols = {"dest": columns[0]}
        for name, col in zip(self.fmt.dtype.names[1:], columns[1:]):
            cols[name] = _as_wire(col, self.fmt.dtype[name], len(columns[0]))
        return cols

    def _send_combined(self, columns) -> None:
        """With a combiner: let each raw interval the messages reach turn
        into an accumulator if they take it past the point (see `_choose`),
        then fold the messages of accumulating intervals and append the
        others' as records. columns are as send_columns takes them, dest
        an integer array."""
        if not self._acc_bytes and not self._fits(self._min_acc_bytes):
            # no interval accumulates, nor can this call make one
            self._append(self._records(columns))
            return
        dest = columns[0]
        first, last = self._interval_of[[dest.min(), dest.max()]].tolist()
        if first == last:
            k, counts, hit = None, {first: len(dest)}, [first]
        else:
            k = np.take(self._interval_of, dest)
            counts = np.bincount(k, minlength=self.n_intervals)
            hit = np.flatnonzero(counts).tolist()
        for j in hit:
            log = self.logs[j]
            self._check_open(log)
            if log.acc is None and not log.chain:
                self._choose(log, int(counts[j]))
        folding = [j for j in hit if self.logs[j].acc is not None]
        if not folding:
            self._append(self._records(columns))
            return
        if len(folding) < len(hit):
            folds = np.zeros(self.n_intervals, bool)
            folds[folding] = True
            keep = folds[k]
            self._append(self._records([col[~keep] if np.ndim(col) else col for col in columns]))
            columns = [col[keep] if np.ndim(col) else col for col in columns]
            k = k[keep]
        cols = self._columns(columns)
        if len(folding) == 1:
            self.logs[folding[0]].acc.fold(cols)
            return
        # each interval's messages in arrival order
        order = np.argsort(k, kind="stable")
        ends = np.cumsum(np.bincount(k, minlength=self.n_intervals)[folding]).tolist()
        for j, a, b in zip(folding, [0, *ends[:-1]], ends):
            part = order[a:b]
            self.logs[j].acc.fold({name: col[part] for name, col in cols.items()})

    def _choose(self, log: _IntervalLog, count: int) -> None:
        """Turn raw log into an accumulator if count more messages bring its
        records of the superstep to the accumulator's bytes, and the
        accumulators fit the budget beside the resident pages or, if more,
        one top page per interval and a full block (BLOCK_PAGES) for the
        raw intervals' appends; its records so far are folded in and their
        pages freed. log has handed no page to the pager."""
        lo, hi = self.bounds[log.interval], self.bounds[log.interval + 1]
        nbytes = (hi - lo) * self._acc_width
        if (log.message_count + count) * self.fmt.width < nbytes:
            return
        if not self._fits(nbytes):
            return
        self._acc_bytes += nbytes
        # the ledger gives back room before the accumulator is made
        self.registry.hold("multilog", self.held_bytes)
        log.acc = Accumulator(lo, hi, self.combine, self.fmt)
        self.post_evict_peak = max(self.post_evict_peak, self.open_bytes)
        if log.message_count == 0:
            return
        pages = self._take_pages(log)
        records = read_log_records(LogHandle(log.interval, None, [], log.message_count, pages), self.fmt)
        log.acc.fold(records)
        self._resident_pages -= len(pages)
        log.message_count = 0
        self.registry.hold("multilog", self.held_bytes)

    def _take_pages(self, log: _IntervalLog) -> list[bytearray]:
        """Take log's resident pages out of its open log: the closed ones in
        arrival order, then the top, if not empty."""
        if log.closed:
            self._closed = deque(other for other in self._closed if other is not log)
        pages = list(log.closed)
        if log.fill > 0:
            pages.append(log.top)
        log.closed = deque()
        log.top = bytearray(self.page_size)
        log.fill = 0
        return pages

    def _fits(self, nbytes: int) -> bool:
        """Whether an accumulator of nbytes fits beside the others and the
        resident pages or, if more, a top page per interval and a full block."""
        # accumulators that shrink the raw intervals' blocks cost more in
        # blocks than they save in records
        pages = max(self._resident_pages, self.n_intervals + BLOCK_PAGES)
        return self._acc_bytes + nbytes + pages * self.page_size <= self.budget

    def _append(self, records: np.ndarray) -> None:
        """Append records in arrival order, block by block (see send_many)."""
        done = 0
        while done < len(records):
            # page openings a block may make: into free pages, or in place
            # of a tail or a closed page held before the block
            room = self._page_budget - self._resident_pages + self._carried_pages + len(self._closed)
            block = min(room + self.n_intervals, BLOCK_PAGES) * self.capacity
            done += self._append_block(records[done : done + block], room)

    def _append_block(self, recs: np.ndarray, room: int) -> int:
        """Append recs up to, not including, the record of their page
        opening number room + 1, whose victim would be a page the block
        closes; first evicts the pages that the block's openings force past
        the budget. Returns how many records it appended."""
        k = np.take(self._interval_of, recs["dest"])
        counts = np.bincount(k, minlength=self.n_intervals)
        hit = np.flatnonzero(counts)
        logs = [self.logs[j] for j in hit.tolist()]
        for log in logs:
            self._check_open(log)
        # a record opens a page where it lands at slot 0 and closes one at
        # slot cap - 1; opens and closes hold those records' indices
        cap, n = self.capacity, len(recs)
        if len(logs) == 1:
            fill = logs[0].fill
            opens, closes = np.arange(-fill % cap, n, cap), np.arange(cap - 1 - fill, n, cap)
        else:
            order = np.argsort(k, kind="stable")
            ends = np.cumsum(counts[hit]).tolist()
            opens, closes = np.zeros(n, bool), np.zeros(n, bool)
            for log, a, b in zip(logs, [0, *ends[:-1]], ends):
                group = order[a:b]
                opens[group[-log.fill % cap :: cap]] = True
                closes[group[cap - 1 - log.fill :: cap]] = True
            opens, closes = np.flatnonzero(opens), np.flatnonzero(closes)
        t = int(opens[room]) if len(opens) > room else n
        opened = min(len(opens), room)
        self.evict_if_needed(opened)
        # the ledger gives back room before the pages open, not after
        self.registry.hold("multilog", self.held_bytes + opened * self.page_size)
        if len(logs) == 1:
            self._append_run(logs[0], recs[:t])
        else:
            if t < n:
                order = order[order < t]
                ends = np.cumsum(np.bincount(k[:t], minlength=self.n_intervals)[hit]).tolist()
            for log, a, b in zip(logs, [0, *ends[:-1]], ends):
                if b > a:
                    self._append_run(log, np.take(recs, order[a:b]))
        self._resident_pages += opened
        self._closed.extend([self.logs[j] for j in k[closes[closes < t]].tolist()])
        if self.open_bytes > self.post_evict_peak:
            self.post_evict_peak = self.open_bytes
        return t

    def _append_run(self, log: _IntervalLog, recs: np.ndarray) -> None:
        """Append one interval's records in arrival order: complete its top
        page, pack the whole pages after it, and start the next top with
        the rest."""
        w, cap, n = self.fmt.width, self.capacity, len(recs)
        raw = memoryview(np.ascontiguousarray(recs).view(np.uint8))
        head = min(n, -log.fill % cap)
        whole = (n - head) // cap * cap
        self._fill_top(log, raw[: head * w])
        # a bytearray per page: holding rows of the packed array raised peak RSS
        log.closed.extend(map(bytearray, pack_pages(raw[head * w : (head + whole) * w], w, self.page_size)))
        self._fill_top(log, raw[(head + whole) * w :])
        log.message_count += n

    def _fill_top(self, log: _IntervalLog, raw: memoryview) -> None:
        """Copy whole records into log's top page, which keeps its record
        count (`pager.fill_page`), closing it once full."""
        log.fill = fill_page(log.top, log.fill, raw, self.fmt.width)
        if log.fill == self.capacity:
            log.closed.append(log.top)
            log.top = bytearray(self.page_size)
            log.fill = 0

    def _check_open(self, log: _IntervalLog) -> None:
        if log.sealed:
            raise ContractViolation(f"interval {log.interval} already sealed for tag {self.tag}")

    def reset_peaks(self) -> None:
        self.post_evict_peak = self.open_bytes

    @property
    def resident_bytes(self) -> int:
        """Bytes of every page in the buffer: open pages and sealed tails."""
        return self._resident_pages * self.page_size

    @property
    def held_bytes(self) -> int:
        """Bytes the buffer holds: its pages and accumulators."""
        return self.resident_bytes + self._acc_bytes

    @property
    def open_bytes(self) -> int:
        """Bytes of the open superstep's resident pages and accumulators,
        which post_evict_peak tracks."""
        return (self._resident_pages - self._carried_pages) * self.page_size + self._acc_bytes

    @property
    def _page_budget(self) -> int:
        """Pages the buffer may hold: its budget less its accumulators."""
        return (self.budget - self._acc_bytes) // self.page_size

    def _open_file(self, tag: int, k: int) -> PageStore:
        store = self.registry.open(os.path.join(self.dir, f"log_t{tag}_i{k}.pages"), "log")
        self._stores.append(store)
        return store

    def _flush_page(self, log: _IntervalLog, data: bytearray) -> None:
        if log.store is None:
            log.store = self._open_file(self.tag, log.interval)
        log.chain.append(log.store.append(data))
        self._resident_pages -= 1

    def _spill_tail_page(self) -> None:
        """Append the first tail page of the log the next superstep loads
        last, the one whose room it would free last, to that log's file."""
        tag, handle = self._carried[-1]
        if handle.store is None:
            handle.store = self._open_file(tag, handle.interval)
        handle.ordinals.append(handle.store.append(handle.tail.pop(0)))
        if not handle.tail:
            self._carried.pop()
        self._carried_pages -= 1
        self._resident_pages -= 1

    def evict_if_needed(self, incoming: int = 0) -> int:
        """Hand the pager the resident pages that residency plus `incoming`
        page openings about to be made force past the budget; returns how
        many.

        Exactly that overflow goes, so after an eviction the openings fill
        the buffer to its budget. Sealed tails spill first; then closed
        pages are flushed, oldest first in the order they closed across all
        intervals, each to the end of its log's chain. Top pages are never
        evicted: the budget holds one per interval, so with incoming 0 the
        tails and closed pages always cover the overflow, and send_many
        passes no more openings than they cover.
        """
        excess = self._resident_pages + incoming - self._page_budget
        for _ in range(excess):
            if self._carried:
                self._spill_tail_page()
            else:
                log = self._closed.popleft()
                self._flush_page(log, log.closed.popleft())
        return max(excess, 0)

    # -- seal path ----------------------------------------------------------

    def seal_interval(self, k: int) -> LogHandle:
        """Freeze interval k's log. An accumulator's hit destinations are
        first appended (`_log_accumulated`). The log's resident pages,
        closed ones in arrival order and then the partial top, become the
        sealed log's tail; none is handed to the pager."""
        log = self.logs[k]
        if log.sealed:
            raise ContractViolation(f"interval {k} sealed twice for tag {self.tag}")
        self._log_accumulated(log)
        tail = self._take_pages(log)
        log.top = bytearray()
        log.sealed = True
        # an empty log has nothing to fold either
        folded = log.folded or log.message_count == 0
        handle = LogHandle(k, log.store, list(log.chain), log.message_count, tail, folded)
        if tail:
            self._carried.append((self.tag, handle))
            self._carried_pages += len(tail)
        return handle

    def _log_accumulated(self, log: _IntervalLog) -> None:
        """Append an accumulating log's hit destinations, one record each in
        ascending order, and free its accumulator."""
        if log.acc is None:
            return
        records = log.acc.records()
        self._acc_bytes -= log.acc.nbytes
        log.acc, log.folded = None, True
        self._append(records)

    def seal(self) -> LogManifest:
        """Seal every interval for the current tag and freeze the manifest.
        The accumulators' records are appended first, while no interval is
        sealed, so a page they force out is a closed page, oldest first, as
        for any send, and never the tail of an interval sealed before."""
        for log in self.logs:
            self._log_accumulated(log)
        handles = [self.seal_interval(k) for k in range(self.n_intervals)]
        return LogManifest(handles)

    def release(self, handles: list[LogHandle]) -> None:
        """Consume sealed logs once loaded: free their resident tails and
        delete their files, unwritten pages and all. Releasing a log again
        does nothing."""
        held = {id(h) for h in handles}
        self._carried = [(tag, h) for tag, h in self._carried if id(h) not in held]
        for handle in handles:
            self._carried_pages -= len(handle.tail)
            self._resident_pages -= len(handle.tail)
            handle.tail = []
            if handle.store is not None:
                self._stores.remove(handle.store)
                self.registry.drop(handle.store, "log", unlink=True)
                handle.store = None
        self.registry.hold("multilog", self.held_bytes)

    def close(self) -> None:
        """Free every tail, and close and delete every log file not yet
        released, sealed or open; a tail still held is never written."""
        for log in self.logs:
            log.acc = None
        self._acc_bytes = 0
        self.release([h for _, h in self._carried])
        self.registry.hold("multilog", self.held_bytes)
        for store in self._stores:
            self.registry.drop(store, "log", unlink=True)
        self._stores = []


def read_log_records(handle: LogHandle, fmt: RecordFormat) -> np.ndarray:
    """All records of one sealed interval log, in chain order.

    Reads each chain page on disk exactly once, parses the resident tail
    from memory with the pager's one records parser (`pager.page_records`),
    joins both into one read-only array and cross-checks the manifest's
    message count.
    """
    on_disk = handle.store is not None and bool(handle.ordinals)
    if not on_disk and not handle.tail:
        if handle.message_count != 0:
            raise CorruptPageError(
                f"interval {handle.interval}: manifest says {handle.message_count} records, log empty"
            )
        return np.zeros(0, fmt.dtype)
    records = page_records(handle.tail, fmt.dtype, f"interval {handle.interval} tail", range(len(handle.tail)))
    if on_disk:
        chain = handle.store.read_records(handle.ordinals, fmt.dtype)
        # one byte join: np.concatenate of structured arrays copies field by field
        records = np.frombuffer(b"".join([chain, records]), fmt.dtype) if len(records) else chain
    if len(records) != handle.message_count:
        raise CorruptPageError(
            f"interval {handle.interval}: manifest count {handle.message_count} "
            f"!= {len(records)} parsed records"
        )
    return records
