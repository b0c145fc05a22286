"""Partitioned CSR graph storage.

The vertex space is cut into contiguous intervals sized so that each
interval's worst-case inbox (one record per in-edge) fits the in-memory sort
budget. Each interval stores its vertices' out-edges as two paged vectors:
rowPtr (4-byte offsets, local to the interval) and colIdx (destination
ids). Edges carry no values. A 4-byte offset addresses fewer than 2^32
entries, so convert and merge raise `IngestError` for an interval that
would hold more, before any file is written or dropped
(`rowptr_offsets`); meta.json records the width as rowptr_width. A colIdx
entry is an unsigned little-endian id of the graph's one width, the
narrowest of 1, 2 and 4 bytes that holds num_vertices - 1 (`id_dtype`):
convert fixes it in meta.json as colidx_width, a merge rewrites an
interval at it, and only this module reads or writes entries. The
multi-log's messages carry their ids at the same width.
Every reader gets uint32 ids (`VID_DT`): `Adjacency.take` gathers the
entries at the stored width and widens them as its answer's copy.
Adjacency loads touch only the pages that overlap the requested vertices'
ranges, and only the colIdx pages holding the entries a vertex program
uses.

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
`merge_structural_updates` to a whole interval, rewriting its two files
and indeg.bin; meta.json does not change. It sorts only the ops
and merges them into rows that are already ascending, as the CSR stores
them, and it checks that they are.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import AddressError, ConfigError, ContractViolation, CorruptPageError, IngestError, MissingStoreError, OversizedVertexError
from .pager import DENSE_SLOTS, StoreRegistry, cover, member, page_capacity, ranges, run_starts

# a rowPtr offset is local to its interval (see rowptr_offsets)
ROWPTR_WIDTH = 4
VID_WIDTH = 4
ROWPTR_DT = np.dtype("<u4")
VID_DT = np.dtype("<u4")
INDEG_FILE = "indeg.bin"


def check_page_size(page_size: int) -> None:
    """A page must hold one rowPtr offset, and so a colIdx entry of any
    width: a `ConfigError` otherwise."""
    if page_capacity(page_size, ROWPTR_WIDTH) < 1:
        raise ConfigError(f"page_size {page_size} holds no {ROWPTR_WIDTH}-byte rowPtr offset after its page header")


def id_dtype(num_vertices: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype of 1, 2 or 4 bytes that
    holds every id below num_vertices."""
    return np.dtype(np.min_scalar_type(max(num_vertices - 1, 0))).newbyteorder("<")


@dataclass
class GraphMeta:
    """meta.json: the facts convert fixes. colidx_width is the bytes of
    one colIdx entry and rowptr_width of one rowPtr offset (see the module
    doc)."""

    num_vertices: int
    interval_bounds: list[int]
    page_size: int
    colidx_width: int
    rowptr_width: int = ROWPTR_WIDTH
    dataset_hash: str = ""

    @property
    def colidx_dtype(self) -> np.dtype:
        return np.dtype(f"<u{self.colidx_width}")

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
        """Parse meta.json; every field must be present and nothing else,
        num_vertices and page_size must be ints, the page must hold a rowPtr
        offset (`check_page_size`), interval_bounds must be ints running
        non-decreasing from 0 to num_vertices, colidx_width must be the
        width convert picks for num_vertices and rowptr_width must be
        ROWPTR_WIDTH: read at another width, a colIdx or rowPtr page would
        parse as other entries."""
        if not isinstance(d, dict):
            raise ConfigError(f"meta.json holds a {type(d).__name__}, not an object; reconvert the graph")
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - names)
        missing = sorted(names - set(d))
        if unknown or missing:
            raise ConfigError(
                f"meta.json has unknown keys {unknown} and missing keys {missing}; "
                "reconvert the graph with this version"
            )
        for key in ("num_vertices", "page_size"):
            if type(d[key]) is not int:
                raise ConfigError(f"meta.json: {key} {d[key]!r} is not an int")
        check_page_size(d["page_size"])
        n, bounds = d["num_vertices"], d["interval_bounds"]
        if (
            type(bounds) is not list
            or any(type(b) is not int for b in bounds)
            or bounds[:1] != [0]
            or bounds[-1] != n
            or any(a > b for a, b in zip(bounds, bounds[1:]))
        ):
            raise ConfigError(f"meta.json: interval_bounds {bounds!r} is not a non-decreasing list of ints from 0 to {n}")
        width, want = d["colidx_width"], id_dtype(n).itemsize
        if type(width) is not int or width != want:
            raise ConfigError(
                f"meta.json: colidx_width {width!r} is not {want}, the narrowest of 1, 2 and 4 bytes "
                f"that holds the ids of {n} vertices; reconvert the graph with this version"
            )
        width = d["rowptr_width"]
        if type(width) is not int or width != ROWPTR_WIDTH:
            raise ConfigError(
                f"meta.json: rowptr_width {width!r} is not {ROWPTR_WIDTH}, the bytes of a rowPtr offset; "
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
    holding them that no earlier take of this Adjacency read, and gathers
    the wanted entries from their arena rows at the graph's id width and
    widens them to uint32, copying no page. It keeps
    the rows for later takes, and the pager pins them until the batch ends
    (`StoreRegistry.unpin`), so no page is read twice.
    """

    def __init__(self, ids: np.ndarray, offsets: np.ndarray, nbrs: np.ndarray, pages: np.ndarray):
        """Held rows: row i's neighbors are nbrs[offsets[i]:offsets[i + 1]]."""
        self.ids = ids
        self.offsets = offsets
        self.pages = pages
        self._held = np.asarray(nbrs, VID_DT)
        # the address of each row's first entry (see ADDR_SHIFT)
        self._first = np.asarray(offsets[:-1], np.int64)
        self._colidx: dict = {}  # interval -> its colIdx PageStore and entry dtype
        # interval -> the colIdx pages read so far (ascending), their arena
        # rows (pinned for the batch, see pager) and record counts
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
        interval k's colIdx vector, concatenated and widened to uint32;
        starts and ends each ascend, and a span overlaps another only if
        they are equal. The entries are gathered at the stored width, and
        the widening is their one copy after that."""
        store, dt = self._colidx[k]
        reg, cap = store.registry, page_capacity(store.page_size, dt.itemsize)
        if k not in self._read:
            # one span per run of adjacent spans
            cut = np.flatnonzero(starts[1:] != ends[:-1]) + 1
            starts, ends = starts[np.append(0, cut)], ends[np.append(cut, len(ends)) - 1]
            lens = ends - starts
            pages, counts, rows, at = store.read_spans(starts, ends, dt)
            self._read[k] = pages, rows, counts
            if lens.sum() * DENSE_SLOTS < len(rows) * cap:
                return reg.gather(rows, ranges(at, lens), dt).astype(VID_DT)
            # dense (a random walk's picks are sparse, PageRank's whole rows
            # dense): copy the slots whole and widen the runs out of the copy
            flat = reg.gather_pages(rows, dt).reshape(-1)
            return (flat[at[0] : at[0] + lens[0]] if len(at) == 1 else flat[ranges(at, lens)]).astype(VID_DT)
        have, rows, counts = self._read[k]
        want = ranges(starts, ends - starts)
        page = want // cap
        new = ~member(page, have)
        if new.any():
            got, got_counts, more, _ = store.read_spans(want[new], want[new] + 1, dt)
            order = np.argsort(np.concatenate([have, got]))
            have, rows, counts = (np.concatenate(pair)[order] for pair in ((have, got), (rows, more), (counts, got_counts)))
            self._read[k] = have, rows, counts
        i = np.searchsorted(have, page)
        slot = want - page * cap
        # a page read by an earlier take was checked only for what it wanted
        short = np.flatnonzero(slot >= counts[i])
        if len(short):
            j = short[0]
            raise CorruptPageError(f"{store.path}: page {page[j]} holds {counts[i[j]]} entries, entry {slot[j]} wanted")
        return reg.gather(rows, i * cap + slot, dt).astype(VID_DT)

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


def partition_vertices(in_degrees: np.ndarray, update_record_size: int, sort_memory_budget: int) -> list[int]:
    """Greedy left-to-right packing of vertices into intervals; returns the
    interval bounds. Every vertex consumes at least one record of slack so
    empty intervals never form."""
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
    return bounds if n else [0, 0]


def part_path(graph_path: str, k: int, vector: str) -> str:
    """The file of interval k's "rowptr" or "colidx" vector."""
    return os.path.join(graph_path, f"part{k}.{vector}")


def write_interval(
    registry: StoreRegistry, meta: GraphMeta, graph_path: str, k: int, rowptr: np.ndarray, colidx: np.ndarray
):
    """Write interval k's rowPtr file and its colIdx file, at the graph's
    colidx_width; returns their stores, open. rowptr is checked by
    `rowptr_offsets` before any file is opened."""
    rowptr = rowptr_offsets(rowptr)
    rp_store = registry.open(part_path(graph_path, k, "rowptr"), "csr")
    rp_store.append_records(rowptr.tobytes(), ROWPTR_WIDTH)
    ci_store = registry.open(part_path(graph_path, k, "colidx"), "csr")
    ci_store.append_records(np.asarray(colidx, meta.colidx_dtype).tobytes(), meta.colidx_width)
    return rp_store, ci_store


def rowptr_offsets(rowptr: np.ndarray) -> np.ndarray:
    """An interval's rowPtr (ascending offsets from 0) as stored, ROWPTR_DT;
    an interval of 2^32 entries or more, which a 4-byte offset cannot
    address, is an `IngestError`."""
    total = int(rowptr[-1])
    if total > np.iinfo(ROWPTR_DT).max:
        raise IngestError(f"an interval of {total} edges; its {ROWPTR_WIDTH}-byte rowPtr offsets address fewer than 2^32")
    return np.asarray(rowptr, ROWPTR_DT)


def write_in_degrees(graph_path: str, in_degrees: np.ndarray) -> None:
    """Write indeg.bin: every vertex's in-degree as uint32."""
    np.asarray(in_degrees).astype(VID_DT).tofile(os.path.join(graph_path, INDEG_FILE))


class Partition:
    """Open handle on one interval's rowPtr/colIdx page files; ci_dt and
    cap_ci are a colIdx entry's dtype, at the graph's colidx_width, and the
    entries a colIdx page holds."""

    def __init__(self, graph_dir: "GraphDir", k: int):
        self.k = k
        self.lo, self.hi = graph_dir.meta.interval_range(k)
        self.ci_dt = graph_dir.meta.colidx_dtype
        self.cap_ci = page_capacity(graph_dir.meta.page_size, self.ci_dt.itemsize)
        reg = graph_dir.registry
        self.rowptr = reg.open(part_path(graph_dir.path, k, "rowptr"), "csr", create=False)
        try:
            # the pages the interval's offsets need, from the file size: no page is read
            need = -(-(self.hi - self.lo + 1) // page_capacity(graph_dir.meta.page_size, ROWPTR_WIDTH))
            if self.rowptr.num_pages != need:
                raise CorruptPageError(
                    f"{self.rowptr.path}: {self.rowptr.num_pages} pages, not the {need} that the offsets of "
                    f"interval [{self.lo}, {self.hi}) in meta.json take"
                )
            self.colidx = reg.open(part_path(graph_dir.path, k, "colidx"), "csr", create=False)
        except (MissingStoreError, CorruptPageError):
            reg.drop(self.rowptr, "csr")
            raise

    def full_rowptr(self) -> np.ndarray:
        """The whole rowPtr vector: hi - lo + 1 offsets, widened to int64."""
        out = self.rowptr.read_vector(self.hi - self.lo + 1, ROWPTR_DT).astype(np.int64)
        back = np.flatnonzero(np.diff(out) < 0)
        if out[0] != 0 or len(back):
            at = back[0] + 1 if len(back) else 0
            after = f", after {out[at - 1]}" if at else ""
            raise CorruptPageError(f"{self.rowptr.path}: offset {at} is {out[at]}{after}")
        return out

    def full_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole rowPtr and colIdx vectors, colIdx widened to uint32;
        colIdx holds rowPtr[-1] entries."""
        rowptr = self.full_rowptr()
        return rowptr, self.colidx.read_vector(int(rowptr[-1]), self.ci_dt).astype(VID_DT, copy=False)


class GraphDir:
    """A converted graph on disk: meta.json, written once at convert, each
    interval's two files (`write_interval`) and indeg.bin, whose sum is the
    edge count (`write_in_degrees`). A missing one is a `MissingStoreError`,
    a meta.json that does not parse a `ConfigError`, and a rowPtr file of
    other than the pages its interval's offsets take a `CorruptPageError`."""

    def __init__(self, path: str, registry: StoreRegistry | None = None):
        self.path = path
        meta_path = os.path.join(path, "meta.json")
        try:
            with open(meta_path) as f:
                d = json.load(f)
        except FileNotFoundError:
            raise MissingStoreError(f"{meta_path}: no meta.json; convert the graph first") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{meta_path}: meta.json does not parse ({exc}); reconvert the graph") from None
        self.meta = GraphMeta.from_dict(d)
        self.registry = registry or StoreRegistry(self.meta.page_size)
        if self.registry.page_size != self.meta.page_size:
            raise ContractViolation(
                f"registry page size {self.registry.page_size} != graph {self.meta.page_size}"
            )
        self._indeg_file()
        self.partitions = []
        try:
            for k in range(self.meta.num_intervals):
                self.partitions.append(Partition(self, k))
        except (MissingStoreError, CorruptPageError):
            # the opened stores go, whoever owns the registry (a failing
            # Partition drops its own)
            self.close()
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

    def _indeg_file(self) -> str:
        """The path of indeg.bin, checked to hold one in-degree per vertex."""
        path, n = os.path.join(self.path, INDEG_FILE), self.meta.num_vertices
        try:
            size = os.path.getsize(path)
        except FileNotFoundError:
            raise MissingStoreError(f"{path}: no in-degree file") from None
        if size != n * VID_DT.itemsize:
            raise CorruptPageError(f"{path}: {size} bytes, not {n} in-degrees")
        return path

    def in_degrees(self) -> np.ndarray:
        return np.fromfile(self._indeg_file(), dtype=VID_DT).astype(np.int64)

    @property
    def num_edges(self) -> int:
        return int(self.in_degrees().sum())

    def all_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge as (src, dst) arrays, in interval order."""
        srcs, dsts = [np.zeros(0, VID_DT)], [np.zeros(0, VID_DT)]
        for part in self.partitions:
            rp, ci = part.full_csr()
            srcs.append(np.repeat(np.arange(part.lo, part.hi, dtype=VID_DT), np.diff(rp)))
            dsts.append(ci)
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
    kept — multigraphs are allowed). Every id is in [0, num_vertices)
    (`ingest.convert_arrays` checks)."""
    src = np.asarray(src, np.int64)
    dst = np.asarray(dst, np.int64)
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
        rowptr = np.zeros(hi - lo + 1, np.int64)
        np.cumsum(counts, out=rowptr[1:])
        # GraphDir opens the files again; drop keeps their traffic in totals()
        for store in write_interval(registry, meta, out_dir, k, rowptr, dst[a:b]):
            registry.drop(store, "csr")


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
        _, _, rows, at = part.rowptr.read_spans(loc, loc + 2, ROWPTR_DT)
        ab = graph.registry.gather(rows, np.stack([at, at + 1], 1).reshape(-1), ROWPTR_DT).reshape(-1, 2)
        a, b = ab[:, 0].astype(np.int64), ab[:, 1].astype(np.int64)
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
        page_stats.update(zip([(k, p) for p in read.tolist()], (useful * part.ci_dt.itemsize).tolist()))
        pages.append(np.stack([np.full(len(loc), k), first, end], 1))
        lens.append(b - a)
        firsts.append(a + ((k + 1) << ADDR_SHIFT))
        stores[k] = part.colidx, part.ci_dt
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
    gone_rows = np.zeros(len(ids), bool)
    gone_rows[removed] = True
    copies[gone_rows[group >> 32]] = 0
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
    (see `apply_ops`), and indeg.bin to match; returns the count of
    deletions of absent edges."""
    n, part = graph.meta.num_vertices, graph.partitions[k]
    dst = ops[ops[:, 0] == ADD_EDGE, 2]
    bad = dst[(dst < 0) | (dst >= n)]
    if len(bad):
        raise IngestError(f"insert destination {int(bad[0])} outside [0, {n})")
    rp, old = part.full_csr()
    rowptr, colidx, warnings, gone, ins = apply_ops(np.arange(part.lo, part.hi), rp, old, ops)
    # refused before the old files go
    rowptr = rowptr_offsets(rowptr)
    in_degrees = graph.in_degrees() + np.bincount(ins, minlength=n) - np.bincount(gone, minlength=n)

    reg = graph.registry
    reg.drop(part.rowptr, "csr", unlink=True)
    reg.drop(part.colidx, "csr", unlink=True)
    part.rowptr, part.colidx = write_interval(reg, graph.meta, graph.path, k, rowptr, colidx)
    write_in_degrees(graph.path, in_degrees)
    return warnings
