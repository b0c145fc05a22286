"""Sort-and-group unit: turns sealed interval logs into per-vertex inboxes.

Contiguous intervals whose sealed logs fit the sort budget together are
fused into one load, which parses each interval's pages on disk from one
buffer and its resident tail from another.
Records are sorted by destination with ties in chain order, which is
arrival order: one uint64 key per record, dest << 32 | position, sorts in
exactly that order. They are then grouped into contiguous per-vertex
ranges at the runs of equal destinations, and optionally reduced by an
application combine reducer (see `apply_combine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, CorruptPageError
from .multilog import LogManifest, RecordFormat, read_log_records


@dataclass
class FusePlan:
    intervals: list[int]
    est_bytes: int
    passes: int = 1


@dataclass
class SortedLog:
    """Records non-decreasing by dest; group ranges partition the array."""

    records: np.ndarray
    dests: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def inbox(self, v: int) -> np.ndarray:
        i = np.searchsorted(self.dests, v)
        if i < len(self.dests) and self.dests[i] == v:
            return self.records[self.starts[i] : self.ends[i]]
        return self.records[:0]

    def spans(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inbox bounds (starts, ends) of each of the ascending ids in
        records; an id that got nothing has an empty span."""
        pos = np.searchsorted(self.dests, ids)
        found = pos < len(self.dests)
        found[found] = self.dests[pos[found]] == ids[found]
        starts = np.zeros(len(ids), np.int64)
        ends = np.zeros(len(ids), np.int64)
        starts[found] = self.starts[pos[found]]
        ends[found] = self.ends[pos[found]]
        return starts, ends


def plan_fusion(counts: np.ndarray, record_width: int, sort_budget: int) -> list[FusePlan]:
    """Greedy left-to-right fusion; empty intervals are never loaded.

    A single interval whose log exceeds the budget still forms its own plan
    and is consumed in destination-partitioned passes.
    """
    plans: list[FusePlan] = []
    cur: list[int] = []
    cur_bytes = 0
    for k, c in enumerate(counts):
        c = int(c)
        if c == 0:
            continue
        b = c * record_width
        if b > sort_budget:
            if cur:
                plans.append(FusePlan(cur, cur_bytes))
                cur, cur_bytes = [], 0
            plans.append(FusePlan([k], b, passes=math.ceil(b / sort_budget)))
            continue
        if cur and cur_bytes + b > sort_budget:
            plans.append(FusePlan(cur, cur_bytes))
            cur, cur_bytes = [k], b
        else:
            cur.append(k)
            cur_bytes += b
    if cur:
        plans.append(FusePlan(cur, cur_bytes))
    return plans


def load_log(plan: FusePlan, manifest: LogManifest, fmt: RecordFormat) -> np.ndarray:
    """Records of the plan's intervals, in chain order, as one read-only
    array; a plan of one interval's is its parse buffer, not a copy."""
    chunks = [read_log_records(manifest.handles[k], fmt) for k in plan.intervals]
    # a byte join: np.concatenate of structured arrays copies field by field
    return chunks[0] if len(chunks) == 1 else np.frombuffer(b"".join(chunks), fmt.dtype)


def sort_n_group(records: np.ndarray) -> SortedLog:
    """Sort by destination, ties in input order, and build the group index.

    The sorted records are a new, writable array. A record's position
    takes the key's low 32 bits, so 2**32 records or more are refused.
    """
    n = len(records)
    if n == 0:
        e = np.zeros(0, np.int64)
        return SortedLog(records.copy(), e, e, e)
    if n >= 1 << 32:
        raise ContractViolation(f"{n} records overflow the 32-bit position of the sort key")
    keys = np.sort(records["dest"].astype(np.uint64) << 32 | np.arange(n, dtype=np.uint64))
    records = np.take(records, (keys & 0xFFFFFFFF).astype(np.intp))
    dests = keys >> 32
    first = np.ones(n, bool)
    first[1:] = dests[1:] != dests[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], n)
    return SortedLog(records, dests[starts].astype(np.int64), starts, ends)


def check_dest_range(records: np.ndarray, lo: int, hi: int) -> None:
    if len(records) and (records["dest"].min() < lo or records["dest"].max() >= hi):
        raise CorruptPageError(f"record destination outside interval range [{lo}, {hi})")


def apply_combine(slog: SortedLog, combine, fmt: RecordFormat) -> SortedLog:
    """One record per destination, reduced by the program's combine reducer.

    combine(records, starts, out) fills the payload fields of `out` (one row
    per group, dest and src already set) from the grouped `records`, where
    group i starts at starts[i]; numpy `reduceat` kernels fit this shape.
    The surviving src is the smallest contributor (informational only).
    """
    k = len(slog.dests)
    if k == 0 or len(slog.records) == k:
        idx = np.arange(k, dtype=np.int64)
        return SortedLog(slog.records, slog.dests, idx, idx + 1)
    out = np.zeros(k, fmt.dtype)
    out["dest"] = slog.dests
    out["src"] = np.minimum.reduceat(slog.records["src"], slog.starts)
    combine(slog.records, slog.starts, out)
    idx = np.arange(k, dtype=np.int64)
    return SortedLog(out, slog.dests, idx, idx + 1)


def split_dest_range(lo: int, hi: int, in_degrees: np.ndarray, passes: int) -> list[tuple[int, int]]:
    """Cut [lo, hi) into dest buckets with roughly equal in-degree mass."""
    if passes <= 1 or hi - lo <= 1:
        return [(lo, hi)]
    w = np.maximum(in_degrees[lo:hi], 1).cumsum()
    total = w[-1]
    cuts = [lo]
    for p in range(1, passes):
        c = lo + int(np.searchsorted(w, total * p / passes))
        if c > cuts[-1] and c < hi:
            cuts.append(c)
    cuts.append(hi)
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def iter_plan_sorted(
    plan: FusePlan,
    manifest: LogManifest,
    fmt: RecordFormat,
    bounds: list[int],
    in_degrees: np.ndarray | None = None,
    on_resident=None,
    release=None,
):
    """Yield (lo, hi, SortedLog) per pass: the sorted records destined to
    [lo, hi). One pass covers the plan's vertex range; a plan whose single
    interval overflows the sort budget takes several dest-partitioned
    passes, which together cover it, an empty bucket included. Each pass
    re-reads the log but keeps only its own destination bucket in memory.

    release(handles), when given, gets the plan's log handles right after
    their last load, before that pass is yielded, so the multi-log can free
    their resident tails before the pass's batch sends."""
    lo = bounds[plan.intervals[0]]
    hi = bounds[plan.intervals[-1] + 1]
    handles = [manifest.handles[k] for k in plan.intervals]
    if plan.passes == 1:
        records = load_log(plan, manifest, fmt)
        if release is not None:
            release(handles)
        check_dest_range(records, lo, hi)
        if on_resident is not None:
            on_resident(records.nbytes)
        yield lo, hi, sort_n_group(records)
        return
    assert len(plan.intervals) == 1
    deg = in_degrees if in_degrees is not None else np.ones(hi, np.int64)
    buckets = split_dest_range(lo, hi, deg, plan.passes)
    for i, (a, b) in enumerate(buckets):
        records = load_log(plan, manifest, fmt)
        if release is not None and i == len(buckets) - 1:
            release(handles)
        check_dest_range(records, lo, hi)
        keep = (records["dest"] >= a) & (records["dest"] < b)
        bucket = records[keep]
        if on_resident is not None:
            on_resident(bucket.nbytes)
        yield a, b, sort_n_group(bucket)
