"""Simplified shard-per-interval baseline for page-cost comparison.

Shards hold all in-edges of a destination range, sorted by source, the way
sliding-window engines lay graphs out. The baseline never executes a vertex
program; it only answers "how many pages would a superstep with this active
set have to load", where a shard loads fully if any active vertex lives in
its destination range or has an out-edge recorded in it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .csr import id_dtype
from .pager import StoreRegistry, member, run_starts


@dataclass
class ShardSet:
    bounds: list[int]
    page_counts: list[int]
    src_sets: list[np.ndarray]
    stores: list

    @property
    def num_shards(self) -> int:
        return len(self.page_counts)


def balanced_dest_bounds(in_degrees: np.ndarray, num_shards: int) -> list[int]:
    """Destination ranges holding roughly equal in-edge counts."""
    n = len(in_degrees)
    cum = np.cumsum(in_degrees)
    total = int(cum[-1]) if n else 0
    bounds = [0]
    for s in range(1, num_shards):
        t = total * s / num_shards
        cut = int(np.searchsorted(cum, t, side="left")) + 1
        cut = min(max(cut, bounds[-1] + 1), n - (num_shards - s))
        bounds.append(cut)
    bounds.append(n)
    return bounds


def build_shards(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    num_shards: int,
    registry: StoreRegistry,
    out_dir: str,
) -> ShardSet:
    os.makedirs(out_dir, exist_ok=True)
    src = np.asarray(src, np.int64)
    dst = np.asarray(dst, np.int64)
    in_deg = np.bincount(dst, minlength=num_vertices)
    num_shards = min(num_shards, max(1, num_vertices))
    bounds = balanced_dest_bounds(in_deg, num_shards)
    # (src, dst) pairs at the CSR's id width, so the two layouts compare
    # in pages and not in bytes an id
    vid = id_dtype(num_vertices)
    stores, counts, src_sets = [], [], []
    for k in range(num_shards):
        lo, hi = bounds[k], bounds[k + 1]
        sel = (dst >= lo) & (dst < hi)
        s, d = src[sel], dst[sel]
        order = np.lexsort((d, s))  # non-decreasing by source
        s, d = s[order], d[order]
        recs = np.empty(len(s), np.dtype([("src", vid), ("dst", vid)]))
        recs["src"], recs["dst"] = s, d
        store = registry.open(os.path.join(out_dir, f"shard{k}.bin"), "csr")
        store.append_records(recs.tobytes(), recs.itemsize)
        stores.append(store)
        counts.append(store.num_pages)
        src_sets.append(s[run_starts(s)])  # s ascends
    return ShardSet(bounds, counts, src_sets, stores)


def superstep_page_cost(shards: ShardSet, active: np.ndarray) -> int:
    """Pages a shard engine reads for one superstep's active set.

    A shard is loaded in full when its destination range contains an active
    vertex (in-edges must be scanned) or any active vertex has an out-edge
    stored in it (out-edges must be updated).
    """
    active = np.asarray(active, np.int64)
    if len(active) == 0:
        return 0
    total = 0
    for k in range(shards.num_shards):
        lo, hi = shards.bounds[k], shards.bounds[k + 1]
        a, b = np.searchsorted(active, [lo, hi])
        if b > a or member(active, shards.src_sets[k]).any():
            total += shards.page_counts[k]
    return total
