"""Edge-log optimizer: adjacency logging for predicted-active vertices.

After a batch ran, the out-edges its program read are in memory (a
program reads only the neighbors it uses, see `csr.Adjacency`). If such a
vertex looks likely to be active again next superstep (it was active in the
previous one) and its adjacency sits on poorly utilized graph pages (the
rule is `log_candidates`), the adjacency is appended to a sequential
per-superstep edge log while its budget lasts. Next superstep those
vertices are served from the dense log pages instead of sparse CSR pages.
The log never changes results; it only trades duplicate bytes for fewer
page reads. Its pages live in the pager's ledger; the one write buffer is
held apart from it (`StoreRegistry.hold`).
"""

from __future__ import annotations

import os

import numpy as np

from .csr import VID_DT, VID_WIDTH, Adjacency, AdjacencyView
from .errors import ContractViolation, CorruptPageError
from .pager import StoreRegistry, page_capacity, ranges

INEFFICIENT_THRESHOLD = 0.10


def inefficient(usage: np.ndarray, page_size: int) -> np.ndarray:
    """Mask of the pages whose useful bytes are more than nothing but less
    than INEFFICIENT_THRESHOLD of a page."""
    return (usage > 0) & (usage < INEFFICIENT_THRESHOLD * page_size)


def log_candidates(pages, predicted, dirty, usage, base, page_size: int) -> np.ndarray:
    """Mask of the rows to log: predicted active, clean, and with a colIdx
    page span pages[i] = (interval, first, end) covering an inefficient
    page. usage holds the useful bytes of every colIdx page, interval k's
    at base[k]:base[k + 1]. Edge-log rows have empty spans and overlay rows
    are dirty, so only rows read from the CSR qualify."""
    below = np.concatenate([[0], np.cumsum(inefficient(usage, page_size))])
    k, first, end = pages.T
    return predicted & ~dirty & (below[base[k] + end] > below[base[k] + first])


class EdgeLog:
    """Per-superstep sequential adjacency log with an in-memory index.

    Entries are `vid | degree | neighbors` as uint32 records of one vector,
    appended back to back through `PageStore.append_records` (an entry may
    span pages), so every page carries its record count and a fetch reads
    them through `PageStore.read_spans`, which checks it. The index maps
    vertex -> (first record, records) and lives one superstep: written
    while processing S, consumed while processing S+1. At rotation it
    becomes the readable log's ascending ids and their spans.
    """

    def __init__(self, registry: StoreRegistry, log_dir: str, budget_bytes: int):
        self.registry = registry
        self.dir = log_dir
        self.page_size = registry.page_size
        self.cap = page_capacity(self.page_size, VID_WIDTH)
        self.budget = budget_bytes
        os.makedirs(log_dir, exist_ok=True)
        self._consumable = (np.zeros(0, np.int64), np.zeros((0, 2), np.int64), None)
        self._tag = -1
        self._reset_writer()
        self.bytes_logged = 0
        self.read_cache_peak = 0
        self.logged_vertices = 0
        # the write buffer is the log's one page outside the pager's ledger
        registry.hold("edgelog", self.page_size)

    def _reset_writer(self) -> None:
        self._store = None
        self._buf = bytearray()
        self._pos = 0
        self._index: dict[int, tuple[int, int]] = {}
        self._full = False

    def begin_superstep(self, tag: int) -> None:
        """Rotate: last superstep's log becomes readable, a fresh one opens."""
        old = self._consumable[2]
        if old is not None:
            self.registry.drop(old, "edgelog", unlink=True)
        self._finish_writer()
        self._tag = tag
        self.bytes_logged = 0
        self.logged_vertices = 0
        self.read_cache_peak = 0

    def _finish_writer(self) -> None:
        store = self._store
        if store is not None:
            store.append_records(self._buf, VID_WIDTH)
        ids = np.fromiter(self._index, np.int64, len(self._index))
        spans = np.array(list(self._index.values()), np.int64).reshape(-1, 2)
        order = np.argsort(ids)
        self._consumable = (ids[order], spans[order], store)
        self._reset_writer()

    def close(self) -> None:
        """Drop the readable and the open log; neither is needed again."""
        for store in (self._consumable[2], self._store):
            if store is not None:
                self.registry.drop(store, "edgelog", unlink=True)
        self._consumable = (np.zeros(0, np.int64), np.zeros((0, 2), np.int64), None)
        self._store = None
        self.registry.hold("edgelog", 0)

    def _ensure_store(self):
        if self._store is None:
            path = os.path.join(self.dir, f"edgelog_t{self._tag}.pages")
            self._store = self.registry.open(path, "edgelog")
        return self._store

    def maybe_log(self, view: AdjacencyView) -> bool:
        """Log the adjacency unless it would take the log past its budget;
        from the first row that would, log nothing more this superstep.
        Every page the entry fills is appended at once."""
        if self._full:
            return False
        n = 2 + len(view.neighbors)  # records: vid, degree, neighbors
        if self.bytes_logged + n * VID_WIDTH > self.budget:
            self._full = True
            return False
        store = self._ensure_store()
        self._index[view.vertex_id] = (self._pos, n)
        self._buf += np.array([view.vertex_id, n - 2], VID_DT).tobytes() + view.neighbors.astype(VID_DT).tobytes()
        self._pos += n
        whole = len(self._buf) // (self.cap * VID_WIDTH) * self.cap * VID_WIDTH
        if whole:
            store.append_records(self._buf[:whole], VID_WIDTH)
            del self._buf[:whole]
        self.bytes_logged += n * VID_WIDTH
        self.logged_vertices += 1
        return True

    # -- read side -----------------------------------------------------------

    def indexed(self, vids) -> np.ndarray:
        """Which of the vertex ids last superstep's log can serve."""
        return np.isin(vids, self._consumable[0])

    def fetch_batch(self, vids) -> Adjacency:
        """Serve adjacency of the ascending vids, all indexed, from last
        superstep's log; reads the union of their entries' pages once. A
        vertex the log does not index is a contract violation; a page whose
        count misses an entry, or an entry whose vertex id or degree field
        disagrees with the index, is corrupt."""
        vids = np.asarray(vids, np.int64)
        if len(vids) == 0:
            return Adjacency.empty()
        ids, spans, store = self._consumable
        i = np.searchsorted(ids, vids)
        if i[-1] == len(ids) or (ids[i] != vids).any():
            raise ContractViolation("edge log fetch of an unindexed vertex")
        pos, length = spans[i].T
        # read_spans wants ascending spans, so the entries in the order logged
        order = np.argsort(pos)
        pages, _, slots, at = store.read_spans(pos[order], (pos + length)[order], VID_DT)
        at = at[np.argsort(order)]
        self.read_cache_peak = max(self.read_cache_peak, len(pages) * self.page_size)
        # entries span pages, so gather from the slots taken row after row
        flat = slots.reshape(-1)
        vid, deg = flat[ranges(at, np.full(len(at), 2))].reshape(-1, 2).T.astype(np.int64)
        bad = np.flatnonzero(vid != vids)
        if len(bad):
            raise CorruptPageError(f"edge log index mismatch: wanted {vids[bad[0]]}, found {vid[bad[0]]}")
        bad = np.flatnonzero(2 + deg != length)
        if len(bad):
            raise CorruptPageError(f"edge log entry of {vids[bad[0]]}: degree field {deg[bad[0]]} disagrees with its length")
        offsets = np.zeros(len(vids) + 1, np.int64)
        np.cumsum(deg, out=offsets[1:])
        nbrs = flat[ranges(at + 2, length - 2)]
        return Adjacency(vids, offsets, nbrs, np.zeros((len(vids), 3), np.int64))
