"""Partitioned CSR graph storage.

The vertex space is cut into contiguous intervals sized so that each
interval's worst-case inbox (one record per in-edge) fits the in-memory sort
budget. Each interval stores its vertices' out-edges as two paged vectors:
rowPtr (8-byte local offsets) and colIdx (4-byte destination ids). Edges
carry no values. Adjacency loads touch only the pages that overlap the
requested vertices' ranges, each page at most once per call.
"""

from __future__ import annotations

import itertools
import json
import os
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, ContractViolation, IngestError, OversizedVertexError
from .pager import PAGE_HEADER, StoreRegistry, page_capacity, pack_page

ROWPTR_WIDTH = 8
VID_WIDTH = 4
ROWPTR_DT = np.dtype("<u8")
VID_DT = np.dtype("<u4")


@dataclass
class GraphMeta:
    num_vertices: int
    num_edges: int
    interval_bounds: list[int]
    interval_indeg: list[int]
    page_size: int
    record_size: int = 16
    dataset_hash: str = ""

    @property
    def num_intervals(self) -> int:
        return len(self.interval_bounds) - 1

    def interval_of(self, v: int) -> int:
        return bisect_right(self.interval_bounds, v) - 1

    def interval_range(self, k: int) -> tuple[int, int]:
        return self.interval_bounds[k], self.interval_bounds[k + 1]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GraphMeta":
        """Parse meta.json; every field must be present and nothing else."""
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - names)
        missing = sorted(names - set(d))
        if unknown or missing:
            raise ConfigError(
                f"meta.json has unknown keys {unknown} and missing keys {missing}; "
                "reconvert the graph with this version"
            )
        return cls(**d)


@dataclass
class AdjacencyView:
    """Out-neighbors of one vertex, plus the colIdx pages they came from."""

    vertex_id: int
    neighbors: np.ndarray
    colidx_pages: tuple = ()
    source: str = "csr"

    def __len__(self) -> int:
        return len(self.neighbors)


def partition_vertices(
    in_degrees: np.ndarray, update_record_size: int, sort_memory_budget: int
) -> tuple[list[int], list[int]]:
    """Greedy left-to-right packing of vertices into intervals.

    Every vertex consumes at least one record of slack so empty intervals
    never form. Returns (interval_bounds, per-interval in-degree sums).
    """
    in_degrees = np.asarray(in_degrees, dtype=np.int64)
    n = len(in_degrees)
    weights = np.maximum(in_degrees, 1) * update_record_size
    worst = int(weights.argmax()) if n else 0
    if n and weights[worst] > sort_memory_budget:
        raise OversizedVertexError(worst, int(weights[worst]), sort_memory_budget)

    bounds = [0]
    cur = 0
    for v in range(n):
        w = int(weights[v])
        if cur + w > sort_memory_budget:
            bounds.append(v)
            cur = w
        else:
            cur += w
    bounds.append(n)
    if n == 0:
        bounds = [0, 0]
    indeg_sums = [
        int(in_degrees[bounds[k] : bounds[k + 1]].sum()) for k in range(len(bounds) - 1)
    ]
    return bounds, indeg_sums


def write_records(store, raw: bytes, width: int) -> list[int]:
    """Serialize fixed-width records into full pages; returns page ordinals."""
    cap = page_capacity(store.page_size, width)
    total = len(raw) // width
    ordinals = []
    for start in range(0, total, cap):
        n = min(cap, total - start)
        payload = raw[start * width : (start + n) * width]
        ordinals.append(store.append_page(pack_page(store.page_size, payload, n)))
    return ordinals


class Partition:
    """Open handle on one interval's rowPtr/colIdx page files."""

    def __init__(self, graph_dir: "GraphDir", k: int):
        self.k = k
        self.lo, self.hi = graph_dir.meta.interval_range(k)
        reg = graph_dir.registry
        base = graph_dir.path
        self.rowptr = reg.open(os.path.join(base, f"part{k}.rowptr"), "csr", create=False)
        self.colidx = reg.open(os.path.join(base, f"part{k}.colidx"), "csr", create=False)
        self.cap_rp = page_capacity(graph_dir.meta.page_size, ROWPTR_WIDTH)
        self.cap_ci = page_capacity(graph_dir.meta.page_size, VID_WIDTH)

    @property
    def num_local(self) -> int:
        return self.hi - self.lo

    def full_rowptr(self) -> np.ndarray:
        parts = [
            np.frombuffer(self.rowptr.read_page(p).records(ROWPTR_WIDTH), ROWPTR_DT)
            for p in range(self.rowptr.num_pages)
        ]
        out = np.concatenate(parts) if parts else np.zeros(1, ROWPTR_DT)
        return out.astype(np.int64)

    def full_colidx(self) -> np.ndarray:
        parts = [
            np.frombuffer(self.colidx.read_page(p).records(VID_WIDTH), VID_DT)
            for p in range(self.colidx.num_pages)
        ]
        return np.concatenate(parts) if parts else np.zeros(0, VID_DT)


class GraphDir:
    """A converted graph on disk: meta.json plus per-interval part files."""

    def __init__(self, path: str, registry: StoreRegistry | None = None):
        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = GraphMeta.from_dict(json.load(f))
        self.registry = registry or StoreRegistry(self.meta.page_size)
        if self.registry.page_size != self.meta.page_size:
            raise ContractViolation(
                f"registry page size {self.registry.page_size} != graph {self.meta.page_size}"
            )
        self.partitions = [Partition(self, k) for k in range(self.meta.num_intervals)]

    def in_degrees(self) -> np.ndarray:
        p = os.path.join(self.path, "indeg.bin")
        if os.path.exists(p):
            return np.fromfile(p, dtype=VID_DT).astype(np.int64)
        deg = np.zeros(self.meta.num_vertices, np.int64)
        for _, dst in self.iter_partition_edges():
            np.add.at(deg, dst, 1)
        return deg

    def iter_partition_edges(self):
        """Yield (src, dst) arrays per interval, in interval order."""
        for part in self.partitions:
            rp = part.full_rowptr()
            ci = part.full_colidx()
            counts = np.diff(rp)
            src = np.repeat(np.arange(part.lo, part.hi, dtype=VID_DT), counts)
            yield src, ci

    def all_edges(self) -> tuple[np.ndarray, np.ndarray]:
        srcs, dsts = [], []
        for s, d in self.iter_partition_edges():
            srcs.append(s)
            dsts.append(d)
        if not srcs:
            return np.zeros(0, VID_DT), np.zeros(0, VID_DT)
        return np.concatenate(srcs), np.concatenate(dsts)


def build_partitions(
    src: np.ndarray,
    dst: np.ndarray,
    meta: GraphMeta,
    registry: StoreRegistry,
    out_dir: str,
) -> None:
    """Write per-interval CSR vectors: out-edges contiguous per vertex,
    vertices ascending, destinations ascending within a vertex (duplicates
    kept — multigraphs are allowed)."""
    n = meta.num_vertices
    src = np.asarray(src, np.int64)
    dst = np.asarray(dst, np.int64)
    if len(src) and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
        bad = src[(src < 0) | (src >= n)]
        bad = bad if len(bad) else dst[(dst < 0) | (dst >= n)]
        raise IngestError(f"vertex id {int(bad[0])} outside [0, {n})")
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]

    for k in range(meta.num_intervals):
        lo, hi = meta.interval_range(k)
        a, b = np.searchsorted(src, [lo, hi])
        loc_src = src[a:b] - lo
        counts = np.bincount(loc_src, minlength=hi - lo)
        rowptr = np.zeros(hi - lo + 1, ROWPTR_DT)
        np.cumsum(counts, out=rowptr[1:])
        colidx = dst[a:b].astype(VID_DT)

        rp_store = registry.open(os.path.join(out_dir, f"part{k}.rowptr"), "csr")
        write_records(rp_store, rowptr.tobytes(), ROWPTR_WIDTH)
        ci_store = registry.open(os.path.join(out_dir, f"part{k}.colidx"), "csr")
        write_records(ci_store, colidx.tobytes(), VID_WIDTH)
        rp_store.flush()
        ci_store.flush()


def _gather_span(cache: dict, cap: int, a: int, b: int) -> np.ndarray:
    """Concatenate entries [a, b) from per-page arrays."""
    if b <= a:
        return np.zeros(0, VID_DT)
    p0, p1 = a // cap, (b - 1) // cap
    if p0 == p1:
        base = p0 * cap
        return cache[p0][a - base : b - base]
    parts = []
    for p in range(p0, p1 + 1):
        base = p * cap
        parts.append(cache[p][max(a, base) - base : min(b, base + cap) - base])
    return np.concatenate(parts)


def load_adjacency(
    graph: GraphDir, active: np.ndarray
) -> tuple[dict[int, AdjacencyView], dict[tuple[int, int], int]]:
    """Adjacency for exactly the active vertices (sorted ascending).

    Reads only the rowPtr and colIdx pages overlapping the active
    vertices' ranges, each distinct page once per call. Also returns per
    colIdx page useful-byte counts for the edge-log optimizer:
    (interval, ordinal) -> bytes of active-vertex entries on that page.
    """
    active = np.asarray(active, np.int64)
    if len(active) == 0:
        return {}, {}
    if np.any(np.diff(active) <= 0):
        raise ContractViolation("active vertex list must be sorted ascending, unique")
    meta = graph.meta
    if active[0] < 0 or active[-1] >= meta.num_vertices:
        raise ContractViolation("active vertex id out of range")

    views: dict[int, AdjacencyView] = {}
    page_stats: dict[tuple[int, int], int] = {}
    bounds = meta.interval_bounds
    starts = np.searchsorted(active, bounds)
    for k in range(meta.num_intervals):
        sel = active[starts[k] : starts[k + 1]]
        if len(sel) == 0:
            continue
        part = graph.partitions[k]
        loc = sel - part.lo

        rp_idx = np.unique(np.concatenate([loc, loc + 1]))
        rp_pages = np.unique(rp_idx // part.cap_rp)
        rp_cache = {
            int(p): np.frombuffer(part.rowptr.read_page(int(p)).records(ROWPTR_WIDTH), ROWPTR_DT)
            for p in rp_pages
        }
        spans = []
        ci_pages: set[int] = set()
        for j in loc:
            j = int(j)
            a = int(rp_cache[j // part.cap_rp][j % part.cap_rp])
            b = int(rp_cache[(j + 1) // part.cap_rp][(j + 1) % part.cap_rp])
            spans.append((a, b))
            if b > a:
                ci_pages.update(range(a // part.cap_ci, (b - 1) // part.cap_ci + 1))
        ci_cache = {
            p: np.frombuffer(part.colidx.read_page(p).records(VID_WIDTH), VID_DT)
            for p in sorted(ci_pages)
        }

        for v, (a, b) in zip(sel, spans):
            nbrs = _gather_span(ci_cache, part.cap_ci, a, b)
            pages = ()
            if b > a:
                p0, p1 = a // part.cap_ci, (b - 1) // part.cap_ci
                pages = tuple((k, p) for p in range(p0, p1 + 1))
                for p in range(p0, p1 + 1):
                    lo_e, hi_e = max(a, p * part.cap_ci), min(b, (p + 1) * part.cap_ci)
                    key = (k, p)
                    page_stats[key] = page_stats.get(key, 0) + (hi_e - lo_e) * VID_WIDTH
            views[int(v)] = AdjacencyView(int(v), nbrs.copy(), pages)
    return views, page_stats


def merge_structural_updates(
    graph: GraphDir, k: int, ops: list[tuple]
) -> int:
    """Rewrite interval k's CSR vectors applying one batch of structural ops.

    Within a batch all insertions land first, then deletions (and vertex
    removals); each deletion removes one matching edge copy. Deleting an
    absent edge is a no-op counted in the returned warning tally.
    """
    meta = graph.meta
    part = graph.partitions[k]
    lo, hi = part.lo, part.hi
    rp = part.full_rowptr().tolist()
    ci = part.full_colidx().tolist()
    old_count = len(ci)
    adj = [ci[a:b] for a, b in zip(rp, rp[1:])]

    warnings = 0
    for op in ops:
        if op[0] == "add_edge":
            _, u, v = op
            if not (0 <= v < meta.num_vertices):
                raise IngestError(f"insert destination {v} outside [0, {meta.num_vertices})")
            adj[u - lo].append(v)
    for op in ops:
        if op[0] == "del_edge":
            _, u, v = op
            try:
                adj[u - lo].remove(v)
            except ValueError:
                warnings += 1
        elif op[0] == "del_vertex":
            adj[op[1] - lo] = []

    for lst in adj:
        lst.sort()
    counts = np.array([len(lst) for lst in adj], np.int64)
    rowptr = np.zeros(hi - lo + 1, ROWPTR_DT)
    np.cumsum(counts, out=rowptr[1:])
    colidx = np.fromiter(itertools.chain.from_iterable(adj), VID_DT, int(counts.sum()))

    reg = graph.registry
    reg.drop(part.rowptr, "csr", unlink=True)
    reg.drop(part.colidx, "csr", unlink=True)
    rp_store = reg.open(os.path.join(graph.path, f"part{k}.rowptr"), "csr")
    write_records(rp_store, rowptr.tobytes(), ROWPTR_WIDTH)
    ci_store = reg.open(os.path.join(graph.path, f"part{k}.colidx"), "csr")
    write_records(ci_store, colidx.tobytes(), VID_WIDTH)
    part.rowptr, part.colidx = rp_store, ci_store
    meta.num_edges += len(colidx) - old_count
    return warnings
