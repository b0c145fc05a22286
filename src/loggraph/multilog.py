"""Per-interval append logs for inter-vertex messages.

Every message is routed by destination to its vertex interval's log. Each
interval keeps one in-memory top page receiving appends; full pages stay
resident until the buffer budget forces an eviction (full pages are written
out first, then the fullest tops) or until the superstep is sealed. Log
files are per (superstep, interval), so a sealed superstep's chain is frozen
while the next superstep's sends open fresh logs.

Record layout: dest(4) | src(4) | fixed-width payload. Records never span
pages, so each page parses on its own. Pages keep arrival order; sorting by
destination happens once per loaded log, in the sort-and-group unit.

`send_many` is the one append path: it copies arrays of wire-format records
into the top pages; vertex programs reach it through the engine's
`Context.send_many`, and `send` is a one-record call into it. The multi-log
owns its log files: `drop` deletes a consumed superstep's, and `close` every
one still open.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, CorruptPageError
from .pager import PAGE_COUNT, PAGE_HEADER, PageStore, StoreRegistry, page_capacity


# most pages of records one send_many block covers; uncapped blocks, as
# large as a roomy budget's free pages, ran slower and raised peak memory
BLOCK_PAGES = 32

# an eviction flushes pages until residency is at most this share of the budget
LOW_WATERMARK = 0.9


class RecordFormat:
    """Wire format of one update message; payload fields are app-defined."""

    def __init__(self, payload_fields: list[tuple[str, str]] | None = None):
        self.payload_fields = list(payload_fields or [])
        self.dtype = np.dtype([("dest", "<u4"), ("src", "<u4")] + self.payload_fields)
        self.width = self.dtype.itemsize

    def pack(self, rows: list[tuple]) -> np.ndarray:
        """Records from (dest, src, *payload) tuples; a value the wire format
        cannot hold, such as a negative destination, is a contract violation."""
        try:
            return np.array(rows, self.dtype)
        except OverflowError as exc:
            raise ContractViolation(f"message does not fit the wire format: {exc}") from None


@dataclass
class LogHandle:
    """One sealed interval log: where its pages live and how many records."""

    interval: int
    store: PageStore | None
    ordinals: list[int]
    message_count: int


@dataclass
class LogManifest:
    tag: int
    handles: list[LogHandle]

    @property
    def counts(self) -> np.ndarray:
        return np.array([h.message_count for h in self.handles], np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class _IntervalLog:
    __slots__ = ("interval", "top", "fill", "closed", "store", "chain", "message_count", "sealed")

    def __init__(self, interval: int, page_size: int):
        self.interval = interval
        self.top = bytearray(page_size)
        self.fill = 0
        self.closed: deque[bytearray] = deque()
        self.store: PageStore | None = None
        self.chain: list[int] = []
        self.message_count = 0
        self.sealed = False


class MultiLog:
    """The multi-log buffer: one append log per vertex interval."""

    def __init__(
        self,
        bounds: list[int],
        fmt: RecordFormat,
        registry: StoreRegistry,
        log_dir: str,
        buffer_budget: int,
    ):
        self.bounds = list(bounds)
        self._bounds = np.asarray(bounds, np.int64)
        self.n_intervals = len(bounds) - 1
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
        self.budget = buffer_budget
        self.watermark = int(buffer_budget * LOW_WATERMARK)
        self.tag = -1
        self.logs: list[_IntervalLog] = []
        self._resident_pages = 0
        self._stores: list[PageStore] = []  # every log file not yet dropped
        self.total_appends = 0
        self.post_evict_peak = 0
        os.makedirs(log_dir, exist_ok=True)
        self.open_superstep(0)

    # -- write path ---------------------------------------------------------

    def open_superstep(self, tag: int) -> None:
        self.tag = tag
        self.logs = [_IntervalLog(k, self.page_size) for k in range(self.n_intervals)]
        self._resident_pages = 0

    def send(self, dest: int, src: int, *payload) -> None:
        """Append one record."""
        self.send_many(self.fmt.pack([(dest, src, *payload)]))

    def send_many(self, records: np.ndarray) -> None:
        """Append wire-format records (fmt.dtype) in arrival order.

        Splitting the records into several calls leaves the same page
        images, chains, counts, eviction points and peaks: eviction runs
        right after the record that pushes residency past the budget.
        Works in blocks of at most BLOCK_PAGES pages of records, and of no
        more than the free pages plus one top page per interval can take:
        its temporaries stay small whatever the batch size, and under a
        tight budget a block that meets an eviction ends close past it.
        """
        if len(records) == 0:
            return
        if records.dtype != self.fmt.dtype:
            raise ContractViolation(f"record dtype {records.dtype} is not the wire format {self.fmt.dtype}")
        if int(records["dest"].max()) >= self.bounds[-1]:
            raise ContractViolation(f"destination {int(records['dest'].max())} outside vertex range")
        done = 0
        while done < len(records):
            free = self.budget // self.page_size - self._resident_pages
            block = min(free + self.n_intervals, BLOCK_PAGES) * self.capacity
            done += self._append_block(records[done : done + block], free)

    def _append_block(self, recs: np.ndarray, free: int) -> int:
        """Append recs up to and including the first record that pushes
        residency past the budget, which has free pages left (evicting
        after it); returns how many."""
        k = np.searchsorted(self._bounds, recs["dest"], side="right") - 1
        counts = np.bincount(k, minlength=self.n_intervals)
        hit = np.flatnonzero(counts)
        logs = [self.logs[j] for j in hit.tolist()]
        for log in logs:
            self._check_open(log)
        # a record opens a page when it lands at fill % capacity == 0
        cap = self.capacity
        fills = [log.fill for log in logs]
        opened = sum((f + c - 1) // cap - (f - 1) // cap for f, c in zip(fills, counts[hit].tolist()))
        if opened <= free:
            self._write(recs, k)
            self._settle()
            return len(recs)
        order = np.argsort(k, kind="stable")
        group_start = np.cumsum(counts) - counts
        slot = np.arange(len(recs)) + np.repeat(np.array(fills) - group_start[hit], counts[hit])
        opens = np.empty(len(recs), bool)
        opens[order] = slot % cap == 0
        t = int(np.flatnonzero(opens)[free])
        self._write(recs[:t], k[:t])
        self._settle()
        self._write(recs[t : t + 1], k[t : t + 1])
        self._settle()
        return t + 1

    def _write(self, recs: np.ndarray, k: np.ndarray) -> None:
        """Append recs to the logs of their intervals k, in arrival order."""
        if len(recs) == 0:
            return
        order = np.argsort(k, kind="stable")
        ks = k[order]
        if ks[0] == ks[-1]:
            self._append_run(self.logs[int(ks[0])], recs)
            return
        cuts = (np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(ks)]):
            self._append_run(self.logs[int(ks[a])], np.take(recs, order[a:b]))

    def _append_run(self, log: _IntervalLog, recs: np.ndarray) -> None:
        """Copy records of one interval into its top page, closing full tops."""
        w = self.fmt.width
        raw = memoryview(np.ascontiguousarray(recs).view(np.uint8))
        done = 0
        while done < len(recs):
            if log.fill == self.capacity:
                self._close_top(log)
            take = min(self.capacity - log.fill, len(recs) - done)
            off = PAGE_HEADER + log.fill * w
            log.top[off : off + take * w] = raw[done * w : (done + take) * w]
            self._appended(log, take)
            done += take

    def _check_open(self, log: _IntervalLog) -> None:
        if log.sealed:
            raise ContractViolation(f"interval {log.interval} already sealed for tag {self.tag}")

    def _appended(self, log: _IntervalLog, n: int) -> None:
        """Count n records just written into log's top page."""
        if log.fill == 0:
            self._resident_pages += 1  # the top page turns resident
        log.fill += n
        log.message_count += n
        self.total_appends += n

    def _settle(self) -> None:
        """After an append: evict when over the budget, then track the peak."""
        if self._resident_pages * self.page_size > self.budget:
            self.evict_if_needed()
        if self.resident_bytes > self.post_evict_peak:
            self.post_evict_peak = self.resident_bytes

    def reset_peaks(self) -> None:
        self.post_evict_peak = self.resident_bytes

    def _close_top(self, log: _IntervalLog) -> None:
        # fill is the capacity here. The page stays resident (counted
        # already as a nonempty top), just reclassified.
        PAGE_COUNT.pack_into(log.top, 0, log.fill)
        log.closed.append(log.top)
        log.top = bytearray(self.page_size)
        log.fill = 0

    @property
    def resident_bytes(self) -> int:
        return self._resident_pages * self.page_size

    def _store_for(self, log: _IntervalLog) -> PageStore:
        if log.store is None:
            path = os.path.join(self.dir, f"log_t{self.tag}_i{log.interval}.pages")
            log.store = self.registry.open(path, "log")
            self._stores.append(log.store)
        return log.store

    def _flush_page(self, log: _IntervalLog, data: bytearray) -> None:
        ordinal = self._store_for(log).append_page(bytes(data))
        log.chain.append(ordinal)
        self._resident_pages -= 1

    def evict_if_needed(self) -> int:
        """Flush resident pages until the buffer is back under the watermark.

        Full (closed) pages go first, in arrival order, then the fullest top
        pages; a flushed top becomes a partial page in the chain and the top
        buffer restarts empty.
        """
        if self.resident_bytes <= self.budget:
            return 0
        evicted = 0
        while self.resident_bytes > self.watermark:
            flushed = False
            for log in self.logs:
                if log.closed:
                    self._flush_page(log, log.closed.popleft())
                    evicted += 1
                    flushed = True
                if self.resident_bytes <= self.watermark:
                    return evicted
            if not flushed:
                break
        while self.resident_bytes > self.watermark:
            victim = max(self.logs, key=lambda l: l.fill)
            if victim.fill == 0:
                break
            PAGE_COUNT.pack_into(victim.top, 0, victim.fill)
            self._flush_page(victim, victim.top)
            victim.top = bytearray(self.page_size)
            victim.fill = 0
            evicted += 1
        return evicted

    # -- seal path ----------------------------------------------------------

    def seal_interval(self, k: int) -> LogHandle:
        log = self.logs[k]
        if log.sealed:
            raise ContractViolation(f"interval {k} sealed twice for tag {self.tag}")
        while log.closed:
            self._flush_page(log, log.closed.popleft())
        if log.fill > 0:
            PAGE_COUNT.pack_into(log.top, 0, log.fill)
            self._flush_page(log, log.top)
            log.top = bytearray(self.page_size)
            log.fill = 0
        log.sealed = True
        return LogHandle(k, log.store, list(log.chain), log.message_count)

    def seal(self) -> LogManifest:
        """Seal every interval for the current tag and freeze the manifest."""
        handles = [self.seal_interval(k) for k in range(self.n_intervals)]
        return LogManifest(self.tag, handles)

    def drop(self, manifest: LogManifest) -> None:
        """Close and delete the log files of a consumed superstep."""
        for handle in manifest.handles:
            if handle.store is not None:
                self._stores.remove(handle.store)
                self.registry.drop(handle.store, "log", unlink=True)

    def close(self) -> None:
        """Close and delete every log file not yet dropped, sealed or open."""
        for store in self._stores:
            self.registry.drop(store, "log", unlink=True)
        self._stores = []


def read_log_records(handle: LogHandle, fmt: RecordFormat) -> np.ndarray:
    """All records of one sealed interval log, in chain order.

    Reads each chain page exactly once, parses the joined record regions
    as one read-only array and cross-checks the manifest's message count.
    """
    if handle.store is None or not handle.ordinals:
        if handle.message_count != 0:
            raise CorruptPageError(
                f"interval {handle.interval}: manifest says {handle.message_count} records, log empty"
            )
        return np.zeros(0, fmt.dtype)
    records = handle.store.read_records(handle.ordinals, fmt.dtype)
    if len(records) != handle.message_count:
        raise CorruptPageError(
            f"interval {handle.interval}: manifest count {handle.message_count} "
            f"!= {len(records)} parsed records"
        )
    return records
