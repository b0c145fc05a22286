"""Partitioned CSR graph storage.

The vertex space is cut into contiguous intervals sized so that each
interval's worst-case inbox (one record per in-edge) fits the in-memory sort
budget. Each interval stores its vertices' out-edges as two paged vectors:
rowPtr (8-byte local offsets) and colIdx (4-byte destination ids). Edges
carry no values. Adjacency loads touch only the pages that overlap the
requested vertices' ranges, each page at most once per call.

A load returns an `Adjacency`: one flat CSR over the requested vertices
(`ids`, `offsets`, `nbrs`) plus, per row, the span of colIdx pages it was
read from, which the edge log's candidate rule reads. `load_adjacency`
makes two `PageStore.read_spans` calls per interval: rowPtr as the spans
[v, v + 2) of the requested rows, then colIdx as the spans [rowPtr[v],
rowPtr[v + 1]) of the non-empty ones. It keeps the wanted runs of the colIdx
pages' record slots and counts the useful bytes of each page from the spans,
so its work follows rows and pages.

Structural updates are int rows (kind, src, dst) of an ops array, kind one
of ADD_EDGE, DEL_EDGE and DEL_VERTEX (dst unused). `apply_ops` is their one
implementation: the engine's overlay applies it to a fetched batch and
`merge_structural_updates` to a whole interval. It sorts only the ops and
merges them into rows that are already ascending, as the CSR stores them,
and it checks that they are.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, ContractViolation, CorruptPageError, IngestError, MissingStoreError, OversizedVertexError
from .pager import StoreRegistry, page_capacity, ranges

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

    def interval_of(self, v):
        """The interval of each vertex id in v (an int or an array)."""
        return np.searchsorted(self.interval_bounds, v, side="right") - 1

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
    """Out-neighbors of one vertex."""

    vertex_id: int
    neighbors: np.ndarray

    def __len__(self) -> int:
        return len(self.neighbors)


# kinds of structural op, the first column of an ops array
ADD_EDGE, DEL_EDGE, DEL_VERTEX = range(3)
# no vertex has this id: ids are uint32 and below num_vertices
NO_VID = (1 << 32) - 1


@dataclass
class Adjacency:
    """Out-neighbors of a batch of vertices as one flat CSR.

    Row i is vertex ids[i] (ascending); its neighbors are
    nbrs[offsets[i]:offsets[i + 1]]. pages[i] = (interval, first, end) names
    the colIdx pages [first, end) the row was read from (first == end when
    none: an empty row, or one served by the edge log).
    """

    ids: np.ndarray
    offsets: np.ndarray
    nbrs: np.ndarray
    pages: np.ndarray

    @classmethod
    def empty(cls) -> "Adjacency":
        return cls(np.zeros(0, np.int64), np.zeros(1, np.int64), np.zeros(0, VID_DT), np.zeros((0, 3), np.int64))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def view(self, i: int) -> AdjacencyView:
        """Row i as a per-vertex view."""
        return AdjacencyView(int(self.ids[i]), self.nbrs[self.offsets[i] : self.offsets[i + 1]])

    @staticmethod
    def merge(a: "Adjacency", b: "Adjacency") -> "Adjacency":
        """The rows of both parts (disjoint vertex sets) in ascending id
        order: the smaller part's rows inserted into the larger one."""
        big, small = (a, b) if len(a) >= len(b) else (b, a)
        if len(small) == 0:
            return big
        at = np.searchsorted(big.ids, small.ids)
        degrees = np.insert(big.degrees, at, small.degrees)
        offsets = np.zeros(len(degrees) + 1, np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return Adjacency(
            np.insert(big.ids, at, small.ids),
            offsets,
            np.insert(big.nbrs, np.repeat(big.offsets[at], small.degrees), small.nbrs),
            np.insert(big.pages, at, small.pages, axis=0),
        )


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

    def full_rowptr(self) -> np.ndarray:
        """The whole rowPtr vector: hi - lo + 1 offsets."""
        out = self.rowptr.read_records(range(self.rowptr.num_pages), ROWPTR_DT).astype(np.int64)
        if len(out) != self.hi - self.lo + 1:
            raise CorruptPageError(f"{self.rowptr.path}: {len(out)} offsets for {self.hi - self.lo} vertices")
        back = np.flatnonzero(np.diff(out) < 0)
        if out[0] != 0 or len(back):
            at = back[0] + 1 if len(back) else 0
            after = f", after {out[at - 1]}" if at else ""
            raise CorruptPageError(f"{self.rowptr.path}: offset {at} is {out[at]}{after}")
        return out

    def full_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole rowPtr and colIdx vectors; colIdx holds rowPtr[-1]
        entries."""
        rowptr = self.full_rowptr()
        colidx = self.colidx.read_records(range(self.colidx.num_pages), VID_DT)
        if len(colidx) != rowptr[-1]:
            raise CorruptPageError(f"{self.colidx.path}: {len(colidx)} entries, rowptr says {rowptr[-1]}")
        return rowptr, colidx


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
        try:
            self.partitions = [Partition(self, k) for k in range(self.meta.num_intervals)]
        except MissingStoreError:
            if registry is None:
                self.registry.close_all()  # only this graph's stores, and no one else can close them
            raise

    def close(self) -> None:
        """Close the partition files; their traffic stays in registry.totals()."""
        for part in self.partitions:
            self.registry.drop(part.rowptr, "csr")
            self.registry.drop(part.colidx, "csr")
        self.partitions = []

    def __enter__(self) -> "GraphDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def in_degrees(self) -> np.ndarray:
        p = os.path.join(self.path, "indeg.bin")
        if os.path.exists(p):
            size, n = os.path.getsize(p), self.meta.num_vertices
            if size != n * VID_DT.itemsize:
                raise CorruptPageError(f"{p}: {size} bytes, not {n} in-degrees")
            return np.fromfile(p, dtype=VID_DT).astype(np.int64)
        deg = np.zeros(self.meta.num_vertices, np.int64)
        for _, dst in self.iter_partition_edges():
            np.add.at(deg, dst, 1)
        return deg

    def iter_partition_edges(self):
        """Yield (src, dst) arrays per interval, in interval order."""
        for part in self.partitions:
            rp, ci = part.full_csr()
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
        rp_store.append_records(rowptr.tobytes(), ROWPTR_WIDTH)
        ci_store = registry.open(os.path.join(out_dir, f"part{k}.colidx"), "csr")
        ci_store.append_records(colidx.tobytes(), VID_WIDTH)
        # GraphDir opens the files again; drop keeps their traffic in totals()
        registry.drop(rp_store, "csr")
        registry.drop(ci_store, "csr")


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts."""
    first = np.ones(len(values), bool)
    first[1:] = values[1:] != values[:-1]
    return first


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
        _, _, rp, at = part.rowptr.read_spans(loc, loc + 2, ROWPTR_DT)
        a, b = rp[at].astype(np.int64), rp[at + 1].astype(np.int64)
        back = np.flatnonzero(b < a)
        if len(back):
            j = back[0]
            raise CorruptPageError(
                f"{part.rowptr.path}: the row of vertex {active[starts[k] + j]} ends at {b[j]}, before its start {a[j]}"
            )
        # read_spans needs the rows ascending, so one starting inside the row before it is corrupt
        inside = np.flatnonzero(a[1:] < b[:-1])
        if len(inside):
            j = starts[k] + inside[0]
            raise CorruptPageError(
                f"{part.rowptr.path}: the row of vertex {active[j + 1]} starts inside the row of vertex {active[j]}"
            )
        full = b > a
        n = (b - a)[full]
        read, _, ci, at = part.colidx.read_spans(a[full], b[full], VID_DT)
        # ci alternates runs of unwanted and wanted entries
        runs = np.diff(np.stack([at, at + n], 1).reshape(-1), prepend=0, append=len(ci))
        nbrs.append(ci[np.repeat(np.arange(len(runs)) % 2 == 1, runs)])
        # wanted entries below each page bound: those of the spans starting
        # below it, less the part of the last of them at or past it
        bound = np.arange(len(read) + 1) * part.cap_ci
        j = np.searchsorted(at, bound)
        useful = np.diff(np.append(0, np.cumsum(n))[j] - np.maximum(np.append(0, at + n)[j] - bound, 0))
        page_stats.update(zip([(k, p) for p in read.tolist()], (useful * VID_WIDTH).tolist()))
        first = a // part.cap_ci
        end = np.where(full, (b - 1) // part.cap_ci + 1, first)
        pages.append(np.stack([np.full(len(loc), k), first, end], 1))
        lens.append(b - a)
    lens = np.concatenate(lens)
    offsets = np.zeros(len(active) + 1, np.int64)
    np.cumsum(lens, out=offsets[1:])
    nbrs = np.concatenate(nbrs) if nbrs else np.zeros(0, VID_DT)
    return Adjacency(active, offsets, nbrs, np.concatenate(pages)), page_stats


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

    The rows must hold ascending neighbors, as the CSR stores them; then
    only the ops are sorted and merged in, and a row that descends is
    corrupt.
    """
    # one int64 key (row << 32 | nbr) per entry, ascending if the rows are
    degrees = np.diff(offsets)
    keys = np.repeat(np.arange(len(ids), dtype=np.int64) << 32, degrees) | nbrs
    bad = np.flatnonzero(keys[1:] < keys[:-1])
    if len(bad):
        row = np.searchsorted(offsets, bad[0] + 1, side="right") - 1
        raise CorruptPageError(f"the neighbors of vertex {ids[row]} are not ascending")
    kind = ops[:, 0]
    cols = ops[:, 2].copy()
    cols[(cols < 0) | (cols > NO_VID)] = NO_VID  # matches no edge
    op_keys = np.searchsorted(ids, ops[:, 1]) << 32 | cols
    ins = np.sort(op_keys[kind == ADD_EDGE])
    dels = np.sort(op_keys[kind == DEL_EDGE])
    # a (row, nbr) group with d deletions loses its first min(d, copies)
    # copies, the stored ones before the inserted ones
    starts = np.flatnonzero(_run_starts(dels))
    group, d = dels[starts], np.diff(np.append(starts, len(dels)))
    at, at_ins = np.searchsorted(keys, group), np.searchsorted(ins, group)
    stored = np.searchsorted(keys, group, side="right") - at
    inserted = np.searchsorted(ins, group, side="right") - at_ins
    gone = np.minimum(d, stored)
    warnings = int(np.maximum(d - stored - inserted, 0).sum())
    removed = np.searchsorted(ids, ops[kind == DEL_VERTEX, 1])
    keep = np.ones(len(keys), bool)
    keep[ranges(at, gone)] = False
    keep[ranges(offsets[removed], degrees[removed])] = False
    keep_ins = np.ones(len(ins), bool)
    keep_ins[ranges(at_ins, np.minimum(d - gone, inserted))] = False
    dead = np.zeros(len(ids), bool)
    dead[removed] = True
    ins = ins[keep_ins & ~dead[ins >> 32]]
    keys = keys[keep]
    # a row keeps its stored entries less the cleared ones, plus its insertions
    lost = np.bincount(group >> 32, gone, minlength=len(ids)).astype(np.int64)
    lost[removed] = degrees[removed]
    new_offsets = np.zeros(len(ids) + 1, np.int64)
    np.cumsum(degrees - lost + np.bincount(ins >> 32, minlength=len(ids)), out=new_offsets[1:])
    out = np.insert(keys.astype(VID_DT), np.searchsorted(keys, ins), ins.astype(VID_DT))
    return new_offsets, out, warnings


def merge_structural_updates(graph: GraphDir, k: int, ops: np.ndarray) -> int:
    """Rewrite interval k's CSR vectors applying one batch of structural ops
    (see `apply_ops`); returns the count of deletions of absent edges."""
    meta = graph.meta
    part = graph.partitions[k]
    dst = ops[ops[:, 0] == ADD_EDGE, 2]
    bad = dst[(dst < 0) | (dst >= meta.num_vertices)]
    if len(bad):
        raise IngestError(f"insert destination {int(bad[0])} outside [0, {meta.num_vertices})")
    rp, old = part.full_csr()
    rowptr, colidx, warnings = apply_ops(np.arange(part.lo, part.hi), rp, old, ops)

    reg = graph.registry
    reg.drop(part.rowptr, "csr", unlink=True)
    reg.drop(part.colidx, "csr", unlink=True)
    rp_store = reg.open(os.path.join(graph.path, f"part{k}.rowptr"), "csr")
    rp_store.append_records(rowptr.astype(ROWPTR_DT).tobytes(), ROWPTR_WIDTH)
    ci_store = reg.open(os.path.join(graph.path, f"part{k}.colidx"), "csr")
    ci_store.append_records(colidx.tobytes(), VID_WIDTH)
    part.rowptr, part.colidx = rp_store, ci_store
    meta.num_edges += len(colidx) - len(old)
    return warnings
