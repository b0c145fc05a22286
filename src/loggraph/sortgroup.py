"""Sort-and-group unit: turns sealed interval logs into per-vertex inboxes.

Contiguous intervals whose sealed logs fit the sort budget together are
fused into one load. Records are stably sorted by destination (ties keep
chain order, which is arrival order), grouped into contiguous per-vertex
ranges, and optionally reduced by an application combine reducer (see
`apply_combine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CorruptPageError
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
    """Concatenated records of the plan's intervals, in chain order."""
    chunks = [read_log_records(manifest.handles[k], fmt) for k in plan.intervals]
    return np.concatenate(chunks) if chunks else np.zeros(0, fmt.dtype)


def sort_n_group(records: np.ndarray) -> SortedLog:
    """Stable sort by destination and build the group index."""
    if len(records) == 0:
        e = np.zeros(0, np.int64)
        return SortedLog(records, e, e, e)
    records = records[np.argsort(records["dest"], kind="stable")]
    dests, starts = np.unique(records["dest"], return_index=True)
    ends = np.append(starts[1:], len(records))
    return SortedLog(records, dests.astype(np.int64), starts.astype(np.int64), ends.astype(np.int64))


def check_dest_range(records: np.ndarray, lo: int, hi: int) -> None:
    if len(records) and (records["dest"].min() < lo or records["dest"].max() >= hi):
        raise CorruptPageError(f"record destination outside interval range [{lo}, {hi})")


def extract_active(slog: SortedLog) -> np.ndarray:
    """Distinct destinations, ascending: the vertices that woke up."""
    return slog.dests


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
):
    """Yield (lo, hi, SortedLog) per pass: the sorted records destined to
    [lo, hi). One pass covers the plan's vertex range; a plan whose single
    interval overflows the sort budget takes several dest-partitioned
    passes, which together cover it, an empty bucket included. Each pass
    re-reads the chain but keeps only its own destination bucket in memory."""
    lo = bounds[plan.intervals[0]]
    hi = bounds[plan.intervals[-1] + 1]
    if plan.passes == 1:
        records = load_log(plan, manifest, fmt)
        check_dest_range(records, lo, hi)
        if on_resident is not None:
            on_resident(records.nbytes)
        yield lo, hi, sort_n_group(records)
        return
    assert len(plan.intervals) == 1
    deg = in_degrees if in_degrees is not None else np.ones(hi, np.int64)
    for a, b in split_dest_range(lo, hi, deg, plan.passes):
        records = load_log(plan, manifest, fmt)
        check_dest_range(records, lo, hi)
        keep = (records["dest"] >= a) & (records["dest"] < b)
        bucket = records[keep]
        if on_resident is not None:
            on_resident(bucket.nbytes)
        yield a, b, sort_n_group(bucket)
