"""Partitioned CSR graph storage.

The vertex space is cut into contiguous intervals sized so that each
interval's worst-case inbox (one record per in-edge) fits the in-memory sort
budget. Each interval stores its vertices' out-edges as two paged vectors:
rowPtr (8-byte local offsets) and colIdx (4-byte destination ids). Edges
carry no values. Adjacency loads touch only the pages that overlap the
requested vertices' ranges, and only the colIdx pages holding the entries
a vertex program uses.

A load has two steps. At fetch, `load_adjacency` reads only rowPtr, with
one `PageStore.read_spans` call per interval over the spans [v, v + 2) of
the requested rows. That gives an `Adjacency`: the rows' degrees as one
flat CSR's `offsets`, and per row the span of colIdx pages it covers, which
the edge log's candidate rule reads together with the useful bytes of each
of those pages, counted from the spans. The neighbor entries are read on
demand: `Adjacency.take` reads, through `read_spans` over the runs of
wanted entries, only the colIdx pages that hold them, each at most once per
Adjacency. A program that uses every row (PageRank) takes them all; a
random walk takes one picked entry per walker. Rows that are already in
memory, served by the edge log or overlaid with pending structural
updates, are held in the same Adjacency.

Structural updates are int rows (kind, src, dst) of an ops array, kind one
of ADD_EDGE, DEL_EDGE and DEL_VERTEX (dst unused). `apply_ops` is their one
implementation, and it applies them in arrival order: a deletion removes
only a copy that the stored rows or an earlier insertion left. So a run of
ops applied in one batch, or split into consecutive batches, leaves the
same rows and warnings, and when the engine merges its pending ops cannot
change a result. The engine's overlay applies them to a fetched batch, and
`merge_structural_updates` to a whole interval, rewriting its files and
the graph's edge counts in meta.json and indeg.bin. It sorts only the ops
and merges them into rows that are already ascending, as the CSR stores
them, and it checks that they are.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import AddressError, ConfigError, ContractViolation, CorruptPageError, IngestError, MissingStoreError, OversizedVertexError
from .pager import StoreRegistry, cover, page_capacity, ranges, run_starts

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

    def save(self, graph_path: str) -> None:
        """Write meta.json into the graph directory."""
        with open(os.path.join(graph_path, "meta.json"), "w") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=1)

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


# the high half of an entry's address in an Adjacency: 0 for an entry held
# in memory, 1 + the interval for one in that interval's colIdx vector
ADDR_SHIFT = 32
LOW = (1 << ADDR_SHIFT) - 1
# a first take of an interval that wants fewer than one in DENSE_SLOTS of
# the slots of the pages it reads gathers its entries from the page images;
# a denser one copies the slots once and slices its runs out of the copy
# (a random walk's picks are sparse, PageRank's whole rows dense)
DENSE_SLOTS = 8


class Adjacency:
    """Out-neighbors of a batch of vertices as one flat CSR, read on demand.

    Row i is vertex ids[i] (ascending); its neighbors are the flat entries
    [offsets[i], offsets[i + 1]), which `take` returns. pages[i] =
    (interval, first, end) names the colIdx pages [first, end) the row
    spans (first == end when none: an empty row, or one served by the edge
    log).

    A row is held in memory (every row of an Adjacency built from arrays,
    and the rows given to `put`) or stored: then its entries stay in its
    interval's colIdx file until a `take` wants them. A take reads, through
    `PageStore.read_spans` over the runs of wanted entries, only the pages
    holding them that no earlier take of this Adjacency read, and keeps
    them for later takes, so no page is read twice.
    """

    def __init__(self, ids: np.ndarray, offsets: np.ndarray, nbrs: np.ndarray, pages: np.ndarray):
        """Held rows: row i's neighbors are nbrs[offsets[i]:offsets[i + 1]]."""
        self.ids = ids
        self.offsets = offsets
        self.pages = pages
        self._held = np.asarray(nbrs, VID_DT)
        # the address of each row's first entry (see ADDR_SHIFT)
        self._first = np.asarray(offsets[:-1], np.int64)
        self._colidx: dict = {}  # interval -> its colIdx PageStore
        # interval -> the colIdx pages read so far (ascending), their
        # record slots (a row of page capacity each) and record counts
        self._read: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

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
        return self.views(np.array([i]))[0]

    def views(self, rows: np.ndarray) -> list[AdjacencyView]:
        """Views of the given rows, their neighbors read in one take."""
        deg = self.degrees[rows]
        nbrs = self.take(ranges(self.offsets[rows], deg))
        ends = np.cumsum(deg).tolist()
        return [AdjacencyView(v, nbrs[e - d : e]) for v, d, e in zip(self.ids[rows].tolist(), deg.tolist(), ends)]

    def loaded(self, rows: np.ndarray) -> np.ndarray:
        """Which of the given rows have their neighbors in memory: held
        rows, and stored rows whose every colIdx page a take has read."""
        part = (self._first[rows] >> ADDR_SHIFT) - 1
        out = part < 0
        for k, (have, _, _) in self._read.items():
            at = part == k
            _, first, end = self.pages[rows[at]].T
            out[at] = np.searchsorted(have, end) - np.searchsorted(have, first) == end - first
        return out

    def take(self, at: np.ndarray | None = None) -> np.ndarray:
        """The neighbor entries at the flat positions at, in its order and
        with repeats, or, with no positions, every row's in row order."""
        if at is None:
            # one span per non-empty row
            full = self.degrees > 0
            addr, lens = self._first[full], self.degrees[full]
        else:
            at = np.asarray(at, np.int64)
            total = int(self.offsets[-1])
            if len(at) and (at.min() < 0 or at.max() >= total):
                raise ContractViolation(f"neighbor entry outside the batch's [0, {total})")
            row = np.searchsorted(self.offsets, at, side="right") - 1
            # one span per entry; a repeat equals its first
            addr, lens = at + (self._first - self.offsets[:-1])[row], np.ones(len(at), np.int64)
        order = None
        if (addr[1:] < addr[:-1]).any():
            order = np.argsort(addr, kind="stable")
            # where each span's entries go in the answer
            dest = ranges((np.cumsum(lens) - lens)[order], lens[order])
            addr, lens = addr[order], lens[order]
        # addr ascends, so the held spans come first and then each
        # interval's, in interval order
        bounds = np.searchsorted(addr, np.arange(max(self._colidx, default=-1) + 3) << ADDR_SHIFT).tolist()
        blocks = [self._held[ranges(addr[: bounds[1]], lens[: bounds[1]])]] if bounds[1] else []
        for k in self._colidx:
            a, b = bounds[k + 1], bounds[k + 2]
            if b > a:
                start = addr[a:b] & LOW
                blocks.append(self._entries(k, start, start + lens[a:b]))
        out = blocks[0] if len(blocks) == 1 else np.concatenate([np.zeros(0, VID_DT), *blocks])
        if order is None:
            return out
        unsorted = np.empty_like(out)
        unsorted[dest] = out
        return unsorted

    def _entries(self, k: int, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The entries of the non-empty spans [starts[i], ends[i]) of
        interval k's colIdx vector, concatenated; starts and ends each
        ascend, and a span overlaps another only if they are equal."""
        if len(starts) == 0:
            return np.zeros(0, VID_DT)
        store = self._colidx[k]
        cap = page_capacity(store.page_size, VID_WIDTH)
        if k not in self._read:
            # one span per run of adjacent spans
            cut = np.flatnonzero(starts[1:] != ends[:-1]) + 1
            starts, ends = starts[np.append(0, cut)], ends[np.append(cut, len(ends)) - 1]
            lens = ends - starts
            pages, counts, slots, at = store.read_spans(starts, ends, VID_DT)
            self._read[k] = pages, slots, counts
            if lens.sum() * DENSE_SLOTS < slots.size:
                return slots[np.divmod(ranges(at, lens), cap)]
            # most slots are wanted: copy them all and slice the runs out
            flat = slots.copy().reshape(-1)
            return flat[at[0] : at[0] + lens[0]] if len(at) == 1 else flat[ranges(at, lens)]
        have, slots, counts = self._read[k]
        want = ranges(starts, ends - starts)
        page = want // cap
        new = have[np.searchsorted(have, page).clip(max=len(have) - 1)] != page
        if new.any():
            got, got_counts, more, _ = store.read_spans(want[new], want[new] + 1, VID_DT)
            order = np.argsort(np.concatenate([have, got]))
            have, slots, counts = (np.concatenate(pair)[order] for pair in ((have, got), (slots, more), (counts, got_counts)))
            self._read[k] = have, slots, counts
        i = np.searchsorted(have, page)
        slot = want - page * cap
        # a page read by an earlier take was checked only for what it wanted
        short = np.flatnonzero(slot >= counts[i])
        if len(short):
            j = short[0]
            raise CorruptPageError(f"{store.path}: page {page[j]} holds {counts[i[j]]} entries, entry {slot[j]} wanted")
        return slots[i, slot]

    def put(self, rows: "Adjacency") -> None:
        """Hold the rows of another Adjacency in memory, read whole, with
        their page spans: each replaces its vertex's row or joins the batch
        in id order."""
        if len(rows) == 0:
            return
        merged = np.sort(np.concatenate([self.ids, rows.ids]))
        merged = merged[run_starts(merged)]
        old, new = np.searchsorted(merged, self.ids), np.searchsorted(merged, rows.ids)
        degrees = np.zeros(len(merged), np.int64)
        degrees[old], degrees[new] = self.degrees, rows.degrees
        first = np.zeros(len(merged), np.int64)
        first[old], first[new] = self._first, len(self._held) + rows.offsets[:-1]
        pages = np.zeros((len(merged), 3), np.int64)
        pages[old], pages[new] = self.pages, rows.pages
        self.ids, self.pages, self._first = merged, pages, first
        self.offsets = np.zeros(len(merged) + 1, np.int64)
        np.cumsum(degrees, out=self.offsets[1:])
        self._held = np.concatenate([self._held, rows.take()])


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

    # each interval ends before the first vertex whose prefix sum of
    # weights, from the interval's start, passes the budget
    prefix = np.concatenate([[0], np.cumsum(weights)])
    bounds = [0]
    while bounds[-1] < n:
        bounds.append(int(np.searchsorted(prefix, prefix[bounds[-1]] + sort_memory_budget, side="right")) - 1)
    if n == 0:
        bounds = [0, 0]
    indeg_sums = np.diff(np.concatenate([[0], np.cumsum(in_degrees)])[bounds]).tolist()
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
        out = self.rowptr.read_vector(self.hi - self.lo + 1, ROWPTR_DT).astype(np.int64)
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
        return rowptr, self.colidx.read_vector(int(rowptr[-1]), VID_DT)


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
    # one key per edge, ascending by source and then destination, built and
    # split with one more array than the edges (ids are non-negative, so an
    # int64 id is the same bits as a uint64 one)
    key = src.astype(np.uint64)
    key <<= np.uint64(32)
    key |= dst.view(np.uint64)
    key.sort()
    dst = (key & np.uint64(NO_VID)).view(np.int64)
    key >>= np.uint64(32)
    src = key.view(np.int64)

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


def load_adjacency(graph: GraphDir, active: np.ndarray) -> tuple[Adjacency, dict[tuple[int, int], int]]:
    """Adjacency for exactly the active vertices (sorted ascending), their
    rows stored: their neighbors are read only when `Adjacency.take` wants
    them.

    Reads only the rowPtr pages overlapping the active vertices' entries,
    each distinct page once per call. Also returns, for the edge-log
    optimizer, the useful bytes of each colIdx page the rows span:
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

    lens, firsts, pages, stores = [], [], [], {}
    page_stats: dict[tuple[int, int], int] = {}
    starts = np.searchsorted(active, meta.interval_bounds)
    for k in range(meta.num_intervals):
        loc = active[starts[k] : starts[k + 1]] - graph.partitions[k].lo
        if len(loc) == 0:
            continue
        part = graph.partitions[k]
        _, _, rp, at = part.rowptr.read_spans(loc, loc + 2, ROWPTR_DT)
        rp = rp.reshape(-1)
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
        first = a // part.cap_ci
        end = np.where(full, (b - 1) // part.cap_ci + 1, first)
        if end.max() > part.colidx.num_pages:
            raise AddressError(f"{part.colidx.path}: entry {b.max() - 1} wanted from a store of {part.colidx.num_pages} pages")
        # the colIdx pages the rows cover, and each non-empty row's offset
        # into their record slots, as `PageStore.read_spans` would read them
        n, a_full, first_full = (b - a)[full], a[full], first[full]
        read = cover(first_full, end[full])
        at = (np.searchsorted(read, first_full) - first_full) * part.cap_ci + a_full
        # wanted entries below each page bound: those of the spans starting
        # below it, less the part of the last of them at or past it
        bound = np.arange(len(read) + 1) * part.cap_ci
        j = np.searchsorted(at, bound)
        useful = np.diff(np.append(0, np.cumsum(n))[j] - np.maximum(np.append(0, at + n)[j] - bound, 0))
        page_stats.update(zip([(k, p) for p in read.tolist()], (useful * VID_WIDTH).tolist()))
        pages.append(np.stack([np.full(len(loc), k), first, end], 1))
        lens.append(b - a)
        firsts.append(a + ((k + 1) << ADDR_SHIFT))
        stores[k] = part.colidx
    offsets = np.zeros(len(active) + 1, np.int64)
    np.cumsum(np.concatenate(lens), out=offsets[1:])
    adj = Adjacency(active, offsets, np.zeros(0, VID_DT), np.concatenate(pages))
    adj._first, adj._colidx = np.concatenate(firsts), stores
    return adj, page_stats


def apply_ops(
    ids: np.ndarray, offsets: np.ndarray, nbrs: np.ndarray, ops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """Apply structural ops to the CSR rows of the ascending ids, in arrival
    (row) order.

    Every op's src must be one of ids. The ops on one edge act in arrival
    order from its stored copies: an insertion adds a copy, and a deletion
    removes a copy that exists at that point, stored or inserted earlier, or
    else counts a warning. A row with a vertex removal ends empty; the
    engine never buffers an op on a vertex after its removal. Returns the
    new (offsets, nbrs), neighbors ascending within a row, the number of
    deletions that found no copy to remove, and the neighbors of the entries
    removed and of those inserted, which differ from the old rows' as the
    new rows' do.

    An edge's copies are its stored count plus the running sum of +1 per
    insertion and -1 per deletion, floored at 0. So once the ops are sorted
    by edge, stably, the minimum of that sum over each edge's ops gives both
    its warnings (how far the sum falls below 0) and its final count. The
    rows must hold ascending neighbors, as the CSR stores them; then only
    the ops are sorted and merged in, and a row that descends is corrupt.
    """
    # one int64 key (row << 32 | nbr) per entry, ascending if the rows are
    degrees = np.diff(offsets)
    keys = np.repeat(np.arange(len(ids), dtype=np.int64) << 32, degrees) | nbrs
    bad = np.flatnonzero(keys[1:] < keys[:-1])
    if len(bad):
        row = np.searchsorted(offsets, bad[0] + 1, side="right") - 1
        raise CorruptPageError(f"the neighbors of vertex {ids[row]} are not ascending")
    kind = ops[:, 0]
    edge = kind != DEL_VERTEX
    cols = ops[edge, 2].copy()
    cols[(cols < 0) | (cols > NO_VID)] = NO_VID  # matches no edge
    op_keys = np.searchsorted(ids, ops[edge, 1]) << 32 | cols
    order = np.argsort(op_keys, kind="stable")
    op_keys = op_keys[order]
    steps = np.where(kind[edge][order] == ADD_EDGE, 1, -1)
    starts = np.flatnonzero(run_starts(op_keys))
    group = op_keys[starts]
    at = np.searchsorted(keys, group)
    stored = np.searchsorted(keys, group, side="right") - at
    # the copies after each op as if never floored: the stored ones plus the
    # steps of the group so far
    lens = np.diff(np.append(starts, len(op_keys)))
    run = np.cumsum(steps)
    level = run + np.repeat(stored - (run - steps)[starts], lens)
    short = np.maximum(-np.minimum.reduceat(level, starts), 0)
    copies = level[starts + lens - 1] + short
    # a touched edge's stored copies give way to its final ones, and rows of
    # removed vertices end empty
    removed = np.searchsorted(ids, ops[~edge, 1])
    copies[np.isin(group >> 32, removed)] = 0
    keep = np.ones(len(keys), bool)
    keep[ranges(at, stored)] = False
    keep[ranges(offsets[removed], degrees[removed])] = False
    gone = nbrs[~keep]
    keys = keys[keep]
    ins = np.repeat(group, copies)
    kept = degrees - np.bincount(group >> 32, stored, minlength=len(ids)).astype(np.int64)
    kept[removed] = 0
    new_offsets = np.zeros(len(ids) + 1, np.int64)
    np.cumsum(kept + np.bincount(group >> 32, copies, minlength=len(ids)).astype(np.int64), out=new_offsets[1:])
    added = ins.astype(VID_DT)
    out = np.insert(keys.astype(VID_DT), np.searchsorted(keys, ins), added)
    return new_offsets, out, int(short.sum()), gone, added


def merge_structural_updates(graph: GraphDir, k: int, ops: np.ndarray) -> int:
    """Rewrite interval k's CSR vectors applying one batch of structural ops
    (see `apply_ops`), and meta.json and indeg.bin to match; returns the
    count of deletions of absent edges."""
    meta = graph.meta
    part = graph.partitions[k]
    dst = ops[ops[:, 0] == ADD_EDGE, 2]
    bad = dst[(dst < 0) | (dst >= meta.num_vertices)]
    if len(bad):
        raise IngestError(f"insert destination {int(bad[0])} outside [0, {meta.num_vertices})")
    rp, old = part.full_csr()
    rowptr, colidx, warnings, gone, ins = apply_ops(np.arange(part.lo, part.hi), rp, old, ops)

    reg = graph.registry
    reg.drop(part.rowptr, "csr", unlink=True)
    reg.drop(part.colidx, "csr", unlink=True)
    rp_store = reg.open(os.path.join(graph.path, f"part{k}.rowptr"), "csr")
    rp_store.append_records(rowptr.astype(ROWPTR_DT).tobytes(), ROWPTR_WIDTH)
    ci_store = reg.open(os.path.join(graph.path, f"part{k}.colidx"), "csr")
    ci_store.append_records(colidx.tobytes(), VID_WIDTH)
    part.rowptr, part.colidx = rp_store, ci_store
    n = meta.num_vertices
    change = np.bincount(ins, minlength=n) - np.bincount(gone, minlength=n)
    below = np.concatenate([[0], np.cumsum(change)])[meta.interval_bounds]
    meta.interval_indeg = (np.array(meta.interval_indeg) + np.diff(below)).tolist()
    meta.num_edges += len(colidx) - len(old)
    meta.save(graph.path)
    path = os.path.join(graph.path, "indeg.bin")
    # without indeg.bin, in_degrees counts the rewritten CSR itself
    if os.path.exists(path):
        (graph.in_degrees() + change).astype(VID_DT).tofile(path)
    return warnings
