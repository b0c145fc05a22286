"""Partitioned CSR graph storage.

The vertex space is cut into contiguous intervals sized so that each
interval's worst-case inbox (one record per in-edge) fits the in-memory sort
budget. Each interval stores its vertices' out-edges as two paged vectors:
rowPtr (8-byte local offsets) and colIdx (4-byte destination ids). Edges
carry no values. Adjacency loads touch only the pages that overlap the
requested vertices' ranges, each page at most once per call.

A load returns an `Adjacency`: one flat CSR over the requested vertices
(`ids`, `offsets`, `nbrs`) plus, per row, the colIdx pages it came from and
its source (CSR, structural overlay or edge log). Row spans, page sets and
the neighbor gather are array operations; `adj[v]` gives one vertex's
`AdjacencyView` for the edge log and per-vertex programs.

Structural updates are int rows (kind, src, dst) of an ops array, kind one
of ADD_EDGE, DEL_EDGE and DEL_VERTEX (dst unused). `apply_ops` is their one
implementation: the engine's overlay applies it to fetched rows and
`merge_structural_updates` to a whole interval.
"""

from __future__ import annotations

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


# where an adjacency row came from; Adjacency.source holds indexes into this
SOURCES = ("csr", "overlay", "edgelog")

# kinds of structural op, the first column of an ops array
ADD_EDGE, DEL_EDGE, DEL_VERTEX = range(3)
# no vertex has this id: ids are uint32 and below num_vertices
NO_VID = (1 << 32) - 1


def ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(starts - (ends - lens), lens)


@dataclass
class Adjacency:
    """Out-neighbors of a batch of vertices as one flat CSR.

    Row i is vertex ids[i] (ascending); its neighbors are
    nbrs[offsets[i]:offsets[i + 1]]. pages[i] = (interval, first, end) names
    the colIdx pages [first, end) the row was read from (first == end when
    none), and source[i] indexes SOURCES.
    """

    ids: np.ndarray
    offsets: np.ndarray
    nbrs: np.ndarray
    pages: np.ndarray
    source: np.ndarray

    @classmethod
    def empty(cls) -> "Adjacency":
        return cls.from_rows([], [], SOURCES.index("csr"))

    @classmethod
    def from_rows(cls, ids, rows: list, source: int) -> "Adjacency":
        """Build from per-vertex neighbor arrays, with no pages."""
        lens = np.array([len(r) for r in rows], np.int64)
        offsets = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        nbrs = np.concatenate(rows).astype(VID_DT) if rows else np.zeros(0, VID_DT)
        pages = np.zeros((len(rows), 3), np.int64)
        return cls(np.asarray(ids, np.int64), offsets, nbrs, pages, np.full(len(rows), source, np.uint8))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def view(self, i: int) -> AdjacencyView:
        """Row i as a per-vertex view."""
        k, first, end = self.pages[i].tolist()
        return AdjacencyView(
            int(self.ids[i]),
            self.nbrs[self.offsets[i] : self.offsets[i + 1]],
            tuple((k, p) for p in range(first, end)),
            SOURCES[self.source[i]],
        )

    def __getitem__(self, v: int) -> AdjacencyView:
        i = int(np.searchsorted(self.ids, v))
        if i == len(self.ids) or self.ids[i] != v:
            raise KeyError(v)
        return self.view(i)

    def take(self, rows: np.ndarray) -> "Adjacency":
        """The given rows, in the given order."""
        lens = self.degrees[rows]
        offsets = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        nbrs = self.nbrs[ranges(self.offsets[:-1][rows], lens)]
        return Adjacency(self.ids[rows], offsets, nbrs, self.pages[rows], self.source[rows])

    def slice(self, a: int, b: int) -> "Adjacency":
        """Rows [a, b) without copying the neighbors."""
        off = self.offsets[a : b + 1]
        return Adjacency(
            self.ids[a:b], off - off[0], self.nbrs[off[0] : off[-1]], self.pages[a:b], self.source[a:b]
        )

    @staticmethod
    def merge(*parts: "Adjacency") -> "Adjacency":
        """The rows of all parts (disjoint vertex sets) in ascending id order."""
        parts = [p for p in parts if len(p)]
        if len(parts) <= 1:
            return parts[0] if parts else Adjacency.empty()
        lens = np.concatenate([p.degrees for p in parts])
        offsets = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        both = Adjacency(
            np.concatenate([p.ids for p in parts]),
            offsets,
            np.concatenate([p.nbrs for p in parts]),
            np.concatenate([p.pages for p in parts]),
            np.concatenate([p.source for p in parts]),
        )
        return both.take(np.argsort(both.ids, kind="stable"))


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


def _read_entries(store, cap: int, dtype: np.dtype, idx: np.ndarray) -> np.ndarray:
    """Entries idx of a paged vector; reads each page they touch once, in order."""
    page = idx // cap
    pages = np.unique(page)
    buf = np.zeros(len(pages) * cap, dtype)
    for i, p in enumerate(pages.tolist()):
        entries = np.frombuffer(store.read_page(p).records(dtype.itemsize), dtype)
        buf[i * cap : i * cap + len(entries)] = entries
    return buf[np.searchsorted(pages, page) * cap + idx % cap]


def load_adjacency(graph: GraphDir, active: np.ndarray) -> tuple[Adjacency, dict[tuple[int, int], int]]:
    """Adjacency for exactly the active vertices (sorted ascending).

    Reads only the rowPtr and colIdx pages overlapping the active
    vertices' ranges, each distinct page once per call. Also returns per
    colIdx page useful-byte counts for the edge-log optimizer:
    (interval, ordinal) -> bytes of active-vertex entries on that page.
    """
    active = np.asarray(active, np.int64)
    if len(active) == 0:
        return Adjacency.empty(), {}
    if np.any(np.diff(active) <= 0):
        raise ContractViolation("active vertex list must be sorted ascending, unique")
    meta = graph.meta
    if active[0] < 0 or active[-1] >= meta.num_vertices:
        raise ContractViolation("active vertex id out of range")

    lens, nbrs, pages = [], [], []
    page_stats: dict[tuple[int, int], int] = {}
    starts = np.searchsorted(active, meta.interval_bounds)
    for k in range(meta.num_intervals):
        loc = active[starts[k] : starts[k + 1]] - graph.partitions[k].lo
        if len(loc) == 0:
            continue
        part = graph.partitions[k]
        rp = _read_entries(part.rowptr, part.cap_rp, ROWPTR_DT, np.concatenate([loc, loc + 1]))
        a, b = rp[: len(loc)].astype(np.int64), rp[len(loc) :].astype(np.int64)
        pos = ranges(a, b - a)
        nbrs.append(_read_entries(part.colidx, part.cap_ci, VID_DT, pos))
        used, count = np.unique(pos // part.cap_ci, return_counts=True)
        page_stats.update(((k, p), c * VID_WIDTH) for p, c in zip(used.tolist(), count.tolist()))
        first = a // part.cap_ci
        end = np.where(b > a, (b - 1) // part.cap_ci + 1, first)
        pages.append(np.stack([np.full(len(loc), k), first, end], 1))
        lens.append(b - a)
    lens = np.concatenate(lens)
    offsets = np.zeros(len(active) + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    source = np.full(len(active), SOURCES.index("csr"), np.uint8)
    return Adjacency(active, offsets, np.concatenate(nbrs), np.concatenate(pages), source), page_stats


def apply_ops(
    ids: np.ndarray, offsets: np.ndarray, nbrs: np.ndarray, ops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply one batch of structural ops to the CSR rows of the ascending ids.

    Every op's src must be one of ids. All insertions land first, then each
    deletion removes one copy of its edge; a row with a vertex removal ends
    empty. Returns the new (offsets, nbrs), neighbors ascending within a
    row, and the number of deletions that found no copy to remove. The
    engine never buffers an op on a vertex after its removal, so whether a
    deletion finds a copy does not depend on the removal.
    """
    edits = ops[ops[:, 0] != DEL_VERTEX]
    rows = np.concatenate([np.repeat(np.arange(len(ids)), np.diff(offsets)), np.searchsorted(ids, edits[:, 1])])
    cols = np.concatenate([nbrs, edits[:, 2]])
    cols[(cols < 0) | (cols > NO_VID)] = NO_VID  # matches no edge
    is_del = np.concatenate([np.zeros(len(nbrs), np.int64), edits[:, 0] == DEL_EDGE])
    # one int64 key per entry (rows stay below 2**30) sorts by (row, nbr),
    # copies before deletions; a (row, nbr) group with d deletions loses
    # its first d copies
    keys = np.sort(rows << 33 | cols << 1 | is_del)
    rows, cols, is_del = keys >> 33, keys >> 1 & NO_VID, (keys & 1).astype(bool)
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] >> 1 != keys[:-1] >> 1
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    dels = np.add.reduceat(keys & 1, starts)
    copies = np.diff(np.append(starts, len(keys))) - dels
    removed = np.zeros(len(ids), bool)
    removed[np.searchsorted(ids, ops[ops[:, 0] == DEL_VERTEX, 1])] = True
    keep = ~is_del & (np.arange(len(rows)) - starts[group] >= dels[group]) & ~removed[rows]
    new_offsets = np.zeros(len(ids) + 1, np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=len(ids)), out=new_offsets[1:])
    return new_offsets, cols[keep].astype(VID_DT), int(np.maximum(dels - copies, 0).sum())


def merge_structural_updates(graph: GraphDir, k: int, ops: np.ndarray) -> int:
    """Rewrite interval k's CSR vectors applying one batch of structural ops
    (see `apply_ops`); returns the count of deletions of absent edges."""
    meta = graph.meta
    part = graph.partitions[k]
    dst = ops[ops[:, 0] == ADD_EDGE, 2]
    bad = dst[(dst < 0) | (dst >= meta.num_vertices)]
    if len(bad):
        raise IngestError(f"insert destination {int(bad[0])} outside [0, {meta.num_vertices})")
    rp, old = part.full_rowptr(), part.full_colidx()
    rowptr, colidx, warnings = apply_ops(np.arange(part.lo, part.hi), rp, old, ops)

    reg = graph.registry
    reg.drop(part.rowptr, "csr", unlink=True)
    reg.drop(part.colidx, "csr", unlink=True)
    rp_store = reg.open(os.path.join(graph.path, f"part{k}.rowptr"), "csr")
    write_records(rp_store, rowptr.astype(ROWPTR_DT).tobytes(), ROWPTR_WIDTH)
    ci_store = reg.open(os.path.join(graph.path, f"part{k}.colidx"), "csr")
    write_records(ci_store, colidx.tobytes(), VID_WIDTH)
    part.rowptr, part.colidx = rp_store, ci_store
    meta.num_edges += len(colidx) - len(old)
    return warnings
