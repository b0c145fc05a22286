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
"""

from __future__ import annotations

import os
import struct
import threading
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, CorruptPageError
from .pager import PAGE_COUNT, PAGE_HEADER, PageStore, StoreRegistry, page_capacity

_STRUCT_CODE = {
    "<u4": "I", "<i4": "i", "<u8": "Q", "<i8": "q",
    "<f8": "d", "<f4": "f", "u1": "B", "i1": "b", "<u2": "H",
}


class RecordFormat:
    """Wire format of one update message; payload fields are app-defined."""

    def __init__(self, payload_fields: list[tuple[str, str]] | None = None):
        self.payload_fields = list(payload_fields or [])
        self.dtype = np.dtype([("dest", "<u4"), ("src", "<u4")] + self.payload_fields)
        self.width = self.dtype.itemsize
        fmt = "<II" + "".join(_STRUCT_CODE[code] for _, code in self.payload_fields)
        self.struct = struct.Struct(fmt)
        if self.struct.size != self.width:
            raise ConfigError(f"payload fields {self.payload_fields} do not pack tightly")

    def parse(self, raw: bytes) -> np.ndarray:
        return np.frombuffer(raw, dtype=self.dtype)


def vid_to_interval(bounds: list[int], v: int) -> int:
    """Interval containing v; a boundary vertex belongs to the right interval."""
    return bisect_right(bounds, v) - 1


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
    __slots__ = ("interval", "top", "fill", "closed", "store", "chain", "message_count", "sealed", "lock")

    def __init__(self, interval: int, page_size: int):
        self.interval = interval
        self.top = bytearray(page_size)
        self.fill = 0
        self.closed: deque[bytearray] = deque()
        self.store: PageStore | None = None
        self.chain: list[int] = []
        self.message_count = 0
        self.sealed = False
        self.lock = threading.Lock()


class MultiLog:
    """The multi-log buffer: one append log per vertex interval."""

    def __init__(
        self,
        bounds: list[int],
        fmt: RecordFormat,
        registry: StoreRegistry,
        log_dir: str,
        buffer_budget: int,
        low_watermark: float = 0.9,
    ):
        self.bounds = list(bounds)
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
        self.watermark = int(buffer_budget * low_watermark)
        self.tag = -1
        self.logs: list[_IntervalLog] = []
        self._resident_pages = 0
        self._evict_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self.total_appends = 0
        self.post_evict_peak = 0
        os.makedirs(log_dir, exist_ok=True)
        self.open_superstep(0)

    # -- write path ---------------------------------------------------------

    def open_superstep(self, tag: int) -> None:
        self.tag = tag
        self.logs = [_IntervalLog(k, self.page_size) for k in range(self.n_intervals)]
        self._resident_pages = 0

    def interval_of(self, v: int) -> int:
        return vid_to_interval(self.bounds, v)

    def send(self, dest: int, src: int, *payload) -> None:
        if dest < 0 or dest >= self.bounds[-1]:
            raise ContractViolation(f"destination {dest} outside vertex range")
        log = self.logs[bisect_right(self.bounds, dest) - 1]
        with log.lock:
            if log.sealed:
                raise ContractViolation(f"interval {log.interval} already sealed for tag {self.tag}")
            if log.fill == self.capacity:
                self._close_top(log)
            off = PAGE_HEADER + log.fill * self.fmt.width
            self.fmt.struct.pack_into(log.top, off, dest, src, *payload)
            if log.fill == 0:
                self._bump_resident(1)
            log.fill += 1
            log.message_count += 1
        with self._count_lock:
            self.total_appends += 1
        if self._resident_pages * self.page_size > self.budget:
            self.evict_if_needed()
        if self.resident_bytes > self.post_evict_peak:
            self.post_evict_peak = self.resident_bytes

    def reset_peaks(self) -> None:
        self.post_evict_peak = self.resident_bytes

    def _close_top(self, log: _IntervalLog) -> None:
        # caller holds log.lock; fill is the capacity here. The page stays
        # resident (counted already as a nonempty top), just reclassified.
        PAGE_COUNT.pack_into(log.top, 0, log.fill)
        log.closed.append(log.top)
        log.top = bytearray(self.page_size)
        log.fill = 0

    def _bump_resident(self, d: int) -> None:
        with self._count_lock:
            self._resident_pages += d

    @property
    def resident_bytes(self) -> int:
        return self._resident_pages * self.page_size

    def _store_for(self, log: _IntervalLog) -> PageStore:
        if log.store is None:
            path = os.path.join(self.dir, f"log_t{self.tag}_i{log.interval}.pages")
            log.store = self.registry.open(path, "log")
        return log.store

    def _flush_page(self, log: _IntervalLog, data: bytearray) -> None:
        ordinal = self._store_for(log).append_page(bytes(data))
        log.chain.append(ordinal)
        self._bump_resident(-1)

    def evict_if_needed(self) -> int:
        """Flush resident pages until the buffer is back under the watermark.

        Full (closed) pages go first, in arrival order, then the fullest top
        pages; a flushed top becomes a partial page in the chain and the top
        buffer restarts empty.
        """
        evicted = 0
        with self._evict_lock:
            if self.resident_bytes <= self.budget:
                return 0
            while self.resident_bytes > self.watermark:
                flushed = False
                for log in self.logs:
                    with log.lock:
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
                with victim.lock:
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
        with log.lock:
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
            if log.store is not None:
                log.store.flush()
            return LogHandle(k, log.store, list(log.chain), log.message_count)

    def seal(self) -> LogManifest:
        """Seal every interval for the current tag and freeze the manifest."""
        handles = [self.seal_interval(k) for k in range(self.n_intervals)]
        return LogManifest(self.tag, handles)


def read_log_records(handle: LogHandle, fmt: RecordFormat) -> np.ndarray:
    """All records of one sealed interval log, in chain order.

    Reads each chain page exactly once and cross-checks the manifest's
    message count.
    """
    if handle.store is None or not handle.ordinals:
        if handle.message_count != 0:
            raise CorruptPageError(
                f"interval {handle.interval}: manifest says {handle.message_count} records, log empty"
            )
        return np.zeros(0, fmt.dtype)
    chunks = [
        np.frombuffer(handle.store.read_page(ordinal).records(fmt.width), dtype=fmt.dtype)
        for ordinal in handle.ordinals
    ]
    records = np.concatenate(chunks)
    if len(records) != handle.message_count:
        raise CorruptPageError(
            f"interval {handle.interval}: manifest count {handle.message_count} "
            f"!= {len(records)} parsed records"
        )
    return records
