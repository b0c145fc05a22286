"""Sort-and-group unit: turns sealed interval logs into per-vertex inboxes.

Contiguous intervals whose sealed logs fit the sort budget together are
fused into one load, which parses each interval's pages on disk from one
buffer and its resident tail from another. An interval holding forced
vertices but no log is planned as a member of 0 bytes, so its vertices run
in the batch of the plan it joins.
Without a combiner, records are sorted by destination with ties in chain
order, which is arrival order: one uint64 key per record, dest << 32 |
position, sorts in exactly that order. They are then grouped into
contiguous per-vertex ranges at the runs of equal destinations.
With a combiner (one ufunc per payload field, see
`multilog.check_combine`) the order within a destination carries no
meaning, so the records are not sorted: `apply_combine` folds the pass's
columns into one `multilog.Accumulator`, the fold the sender's
accumulators use, over the pass's range or, for a sparse pass, over its
numbered destinations, and reads one record per destination back,
ascending. A sender that folded an interval's sends into an accumulator
already logged one record per destination, folded from the same identity
in arrival order; on such a log apply_combine is the identity, so a pass
gives the same bits whether its intervals were logged raw or accumulated.
A plan whose every log is folded so (`multilog.LogHandle.folded`) is
therefore not folded again: its records are its inbox as loaded.
A plan's logs are loaded, and consumed, once; its passes are slices of its
one sorted log, so a log page is read from storage at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, CorruptPageError
from .multilog import Accumulator, LogManifest, RecordFormat, read_log_records
from .pager import run_starts


# a pass whose destination range is at most this many times its record
# count is scattered over the whole range; a sparser one numbers its
# distinct destinations first (see apply_combine)
DENSE_SPAN_PER_RECORD = 4


@dataclass
class FusePlan:
    intervals: list[int]
    est_bytes: int
    passes: int = 1


@dataclass
class SortedLog:
    """Records non-decreasing by dest; group ranges partition the array.
    Records loaded as they were logged (see the module doc) are read-only."""

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

    def cut(self, lo: int, hi: int) -> SortedLog:
        """The records destined to [lo, hi): sorted by destination, they are
        one contiguous slice of the records, a view, and their groups a slice
        of the group index, rebased to it."""
        i, j = np.searchsorted(self.dests, [lo, hi]).tolist()
        a, b = (int(self.starts[i]), int(self.ends[j - 1])) if i < j else (0, 0)
        return SortedLog(self.records[a:b], self.dests[i:j], self.starts[i:j] - a, self.ends[i:j] - a)


def plan_fusion(
    counts: np.ndarray, record_width: int, sort_budget: int, forced: np.ndarray | None = None
) -> list[FusePlan]:
    """Greedy left-to-right fusion of the intervals with a log, and of those
    the bool mask forced marks as holding forced vertices; any other empty
    interval is never loaded.

    A forced interval with no log joins the current plan as a 0-byte member,
    or starts one. A single interval whose log exceeds the budget still
    forms its own plan and is consumed in destination-partitioned passes.
    """
    plans: list[FusePlan] = []
    cur: list[int] = []
    cur_bytes = 0
    for k, c in enumerate(counts):
        c = int(c)
        if c == 0:
            if forced is not None and forced[k]:
                cur.append(k)
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
    starts = np.flatnonzero(run_starts(dests))
    ends = np.append(starts[1:], n)
    return SortedLog(records, dests[starts].astype(np.int64), starts, ends)


def check_dest_range(records: np.ndarray, lo: int, hi: int) -> None:
    if len(records) and (records["dest"].min() < lo or records["dest"].max() >= hi):
        raise CorruptPageError(f"record destination outside interval range [{lo}, {hi})")


def apply_combine(records: np.ndarray, lo: int, hi: int, combine: dict, fmt: RecordFormat) -> SortedLog:
    """One record per destination of [lo, hi) that got any, ascending, each
    payload field reduced by the combiner's ufunc (`multilog.check_combine`);
    fmt is the combiner's, whose records have no src. Every dest must lie
    in [lo, hi) (`check_dest_range`).

    The records are not sorted: their columns are folded into one
    `multilog.Accumulator`, so a float sum adds in record order, in
    float64. When [lo, hi) is at most DENSE_SPAN_PER_RECORD times the record
    count, its slots are the whole range; otherwise np.unique numbers the
    distinct destinations and each record folds into its destination's
    number, so that what a pass allocates grows with its records, not with
    its range. Both give the same records."""
    if len(records) == 0:
        return one_per_dest(np.zeros(0, fmt.dtype))
    if hi - lo <= DENSE_SPAN_PER_RECORD * len(records):
        acc, index, dests = Accumulator(lo, hi, combine, fmt), None, None
    else:
        dests, index = np.unique(records["dest"], return_inverse=True)
        acc = Accumulator(0, len(dests), combine, fmt)
    acc.fold(records, index)
    return one_per_dest(acc.records(dests))


def one_per_dest(records: np.ndarray) -> SortedLog:
    """The SortedLog of records that hold one per destination, ascending."""
    idx = np.arange(len(records), dtype=np.int64)
    return SortedLog(records, records["dest"].astype(np.int64), idx, idx + 1)


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
    release=None,
    combine: dict | None = None,
):
    """Yield (lo, hi, SortedLog) per pass: the records destined to [lo, hi),
    sorted and grouped, or with a combiner one combined record per
    destination (`apply_combine`, or as loaded when the plan's logs are all
    folded). The plan's logs are loaded once (`load_log`), checked against
    its vertex range, and sorted or combined once. One pass covers that
    range; a plan whose single interval overflows the sort budget is cut
    into several dest-partitioned passes (`split_dest_range`), which
    together cover it, an empty bucket included, each a view of the one
    SortedLog (`SortedLog.cut`).

    release(handles), when given, gets the plan's log handles right after
    that one load, before the first pass is yielded, so the multi-log frees
    their resident tails and deletes their files before any batch sends."""
    lo = bounds[plan.intervals[0]]
    hi = bounds[plan.intervals[-1] + 1]
    handles = [manifest.handles[k] for k in plan.intervals]
    records = load_log(plan, manifest, fmt)
    if release is not None:
        release(handles)
    check_dest_range(records, lo, hi)
    if combine is None:
        slog = sort_n_group(records)
    elif all(h.folded for h in handles):
        # contiguous intervals' folded logs, joined, are one record per destination, ascending
        slog = one_per_dest(records)
    else:
        slog = apply_combine(records, lo, hi, combine, fmt)
    del records  # the passes hold only the sorted log, not the load as well
    deg = in_degrees if in_degrees is not None else np.ones(hi, np.int64)
    for a, b in split_dest_range(lo, hi, deg, plan.passes):
        yield a, b, slog.cut(a, b)
