"""Edge-log optimizer: adjacency logging for predicted-active vertices.

While a vertex is processed, its out-edges are already in memory. If the
vertex looks likely to be active again next superstep (it was active in the
previous one) and its adjacency sits on poorly utilized graph pages, the
adjacency is appended to a sequential per-superstep edge log. Next
superstep those vertices are served from the dense log pages instead of
sparse CSR pages. The log never changes results; it only trades duplicate
bytes for fewer page reads.
"""

from __future__ import annotations

import os

import numpy as np

from .csr import SOURCES, Adjacency, AdjacencyView, VID_DT
from .errors import CorruptPageError
from .pager import PAGE_HEADER, StoreRegistry, pack_page

INEFFICIENT_THRESHOLD = 0.10


def classify_inefficient(useful_bytes: int, page_size: int) -> bool:
    """True for accessed pages using more than nothing but less than the cut."""
    return 0 < useful_bytes < INEFFICIENT_THRESHOLD * page_size


def log_candidates(
    adj: Adjacency, predicted: np.ndarray, dirty: np.ndarray, inefficient_pages: set
) -> np.ndarray:
    """The rows of adj that `EdgeLog.maybe_log` would log with room left in
    the budget: predicted, clean, read from the CSR and touching one of the
    inefficient (interval, colIdx page) keys. predicted and dirty are per
    row."""
    keys = np.sort(np.fromiter((k << 32 | p for k, p in inefficient_pages), np.int64, len(inefficient_pages)))
    k, first, end = adj.pages.T
    touches = np.searchsorted(keys, k << 32 | end) > np.searchsorted(keys, k << 32 | first)
    return predicted & ~dirty & (adj.source == SOURCES.index("csr")) & touches


class EdgeLog:
    """Per-superstep sequential adjacency log with an in-memory index.

    Entries are `vid(4) | degree(4) | neighbors(4*deg)` packed back to back
    across page record regions (entries may span pages). The index maps vertex -> (stream offset, length) and lives one superstep:
    written while processing S, consumed while processing S+1.
    """

    def __init__(self, registry: StoreRegistry, log_dir: str, budget_bytes: int):
        self.registry = registry
        self.dir = log_dir
        self.page_size = registry.page_size
        self.region = self.page_size - PAGE_HEADER
        self.budget = budget_bytes
        os.makedirs(log_dir, exist_ok=True)
        self._consumable: tuple[dict, object] | None = None
        self._consumable_ids = np.zeros(0, np.int64)
        self._tag = -1
        self._reset_writer()
        self.bytes_logged = 0
        self.read_cache_peak = 0
        self.logged_vertices = 0

    def _reset_writer(self) -> None:
        self._store = None
        self._buf = bytearray(self.page_size)
        self._buf_used = 0
        self._pos = 0
        self._index: dict[int, tuple[int, int]] = {}
        self._full = False

    def begin_superstep(self, tag: int) -> None:
        """Rotate: last superstep's log becomes readable, a fresh one opens."""
        old = self._consumable
        if old is not None and old[1] is not None:
            self.registry.drop(old[1], "edgelog", unlink=True)
        self._finish_writer()
        self._tag = tag
        self.bytes_logged = 0
        self.logged_vertices = 0
        self.read_cache_peak = 0

    def _finish_writer(self) -> None:
        store = self._store
        if store is not None:
            if self._buf_used > 0:
                payload = bytes(self._buf[PAGE_HEADER : PAGE_HEADER + self._buf_used])
                store.append_page(pack_page(self.page_size, payload, 0))
        self._consumable = (self._index, store)
        self._consumable_ids = np.fromiter(self._index, np.int64, len(self._index))
        self._store = None
        self._buf = bytearray(self.page_size)
        self._buf_used = 0
        self._index = {}
        self._pos = 0
        self._full = False

    def close(self) -> None:
        """Drop the readable and the open log; neither is needed again."""
        readable = self._consumable[1] if self._consumable is not None else None
        for store in (readable, self._store):
            if store is not None:
                self.registry.drop(store, "edgelog", unlink=True)
        self._consumable = None
        self._consumable_ids = np.zeros(0, np.int64)
        self._store = None

    def _ensure_store(self):
        if self._store is None:
            path = os.path.join(self.dir, f"edgelog_t{self._tag}.pages")
            self._store = self.registry.open(path, "edgelog")
        return self._store

    def maybe_log(self, view: AdjacencyView, predicted: bool, inefficient_pages: set, dirty: bool) -> bool:
        """Log the adjacency iff the vertex is predicted active and touches an
        inefficiently used page; drops silently once the budget is spent."""
        if not predicted or dirty or self._full or view.source != "csr":
            return False
        if not any(p in inefficient_pages for p in view.colidx_pages):
            return False
        deg = len(view.neighbors)
        entry_len = 8 + 4 * deg
        if self.bytes_logged + entry_len > self.budget:
            self._full = True
            return False
        head = np.array([view.vertex_id, deg], VID_DT).tobytes()
        blob = head + view.neighbors.astype(VID_DT).tobytes()
        self._index[view.vertex_id] = (self._pos, entry_len)
        self._append_stream(blob)
        self.bytes_logged += entry_len
        self.logged_vertices += 1
        return True

    def _append_stream(self, blob: bytes) -> None:
        store = self._ensure_store()
        off = 0
        while off < len(blob):
            space = self.region - self._buf_used
            take = min(space, len(blob) - off)
            self._buf[PAGE_HEADER + self._buf_used : PAGE_HEADER + self._buf_used + take] = blob[off : off + take]
            self._buf_used += take
            off += take
            self._pos += take
            if self._buf_used == self.region:
                store.append_page(bytes(self._buf))
                self._buf = bytearray(self.page_size)
                self._buf_used = 0

    # -- read side -----------------------------------------------------------

    def indexed(self, vids) -> np.ndarray:
        """Which of the vertex ids last superstep's log can serve."""
        return np.isin(vids, self._consumable_ids)

    def fetch_batch(self, vids) -> Adjacency:
        """Serve adjacency of the ascending vids from last superstep's log;
        each page is read once. An entry whose vertex id or degree field
        disagrees with the index is corrupt."""
        vids = [int(v) for v in vids]
        if self._consumable is None:
            return Adjacency.empty()
        index, store = self._consumable
        cache: dict[int, bytes] = {}
        rows = []
        for v in vids:
            pos, length = index[v]
            p0, p1 = pos // self.region, (pos + length - 1) // self.region
            parts = []
            for p in range(p0, p1 + 1):
                if p not in cache:
                    cache[p] = store.read_page(p).region()
                a = max(pos, p * self.region) - p * self.region
                b = min(pos + length, (p + 1) * self.region) - p * self.region
                parts.append(cache[p][a:b])
            blob = b"".join(parts)
            vid, deg = np.frombuffer(blob[:8], VID_DT).tolist()
            if vid != v:
                raise CorruptPageError(f"edge log index mismatch: wanted {v}, found {vid}")
            if 8 + 4 * deg != length:
                raise CorruptPageError(
                    f"edge log entry of {v}: degree field {deg} disagrees with its indexed length {length}"
                )
            rows.append(np.frombuffer(blob[8:], VID_DT))
        self.read_cache_peak = max(self.read_cache_peak, len(cache) * self.page_size)
        return Adjacency.from_rows(vids, rows, SOURCES.index("edgelog"))
