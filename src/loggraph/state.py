"""Per-interval vertex state vectors on page storage.

Fixed-width state records are addressed by vertex slot. Applications that
remember something per in-neighbor (label tables, color tables) get an
auxiliary byte-stream region sized by in-degree, addressed through per-vertex
offsets. Checkout locates every row's (interval, page, slot) with array
arithmetic, reads each page covering the set once in ascending order and
hands out mutable rows; commit writes back only the pages whose rows
actually changed.
"""

from __future__ import annotations

import os
from bisect import bisect_right

import numpy as np

from .pager import PAGE_HEADER, StoreRegistry, pack_page, page_capacity


class StateSlice:
    """Mutable view over the state rows of a checked-out vertex set.

    Row i lives at slot slots[i] of checked-out page page_of[i]; images
    holds those pages as read and table their record regions, which commit
    patches and writes back.
    """

    def __init__(self, store: "VertexStateStore", ids: np.ndarray, keys, images, page_of, slots):
        self._store = store
        self.ids = ids
        self._keys = keys
        self._images = images
        region = images[:, PAGE_HEADER : PAGE_HEADER + store.cap * store.state_width]
        self._table = region.copy().view(store.state_dtype)
        self._page_of = page_of
        self._slots = slots
        self.rows = self._table[page_of, slots]
        self._orig = self.rows.copy()

    def commit(self) -> None:
        """Write back, in page order, only the pages whose rows changed."""
        st = self._store
        w = st.state_width
        now = np.frombuffer(self.rows.tobytes(), np.uint8).reshape(-1, w)
        was = np.frombuffer(self._orig.tobytes(), np.uint8).reshape(-1, w)
        changed = np.flatnonzero((now != was).any(axis=1))
        if len(changed) == 0:
            return
        pages = self._page_of[changed]
        self._table[pages, self._slots[changed]] = self.rows[changed]
        for i in np.unique(pages).tolist():
            img = self._images[i].copy()
            img[PAGE_HEADER : PAGE_HEADER + st.cap * w] = self._table[i].view(np.uint8)
            k, pid = divmod(int(self._keys[i]), st.pages_per_interval)
            st.stores[k].write_page(pid, img.tobytes())


class AuxSlice:
    """Mutable per-vertex entry tables from the auxiliary region."""

    def __init__(self, store: "VertexStateStore", ids: np.ndarray, tables: list, pages: dict):
        self._store = store
        self.ids = ids
        self.tables = tables
        self._orig = [t.copy() for t in tables]
        self._pages = pages

    def commit(self) -> None:
        st = self._store
        dirty = set()
        for i, v in enumerate(self.ids):
            if self.tables[i].tobytes() == self._orig[i].tobytes():
                continue
            v = int(v)
            k = st._interval_of(v)
            pos, length = st._aux_span(k, v)
            blob = self.tables[i].tobytes()
            region = st.aux_region
            p0 = pos // region
            for p in range(p0, (pos + length - 1) // region + 1):
                a = max(pos, p * region) - p * region
                b = min(pos + length, (p + 1) * region) - p * region
                src_a = p * region + a - pos
                img = self._pages[(k, p)]
                img[PAGE_HEADER + a : PAGE_HEADER + b] = blob[src_a : src_a + (b - a)]
                dirty.add((k, p))
        for k, p in sorted(dirty):
            st.aux_stores[k].write_page(p, bytes(self._pages[(k, p)]))


class VertexStateStore:
    def __init__(
        self,
        registry: StoreRegistry,
        dirpath: str,
        bounds: list[int],
        state_dtype: np.dtype,
        aux_entry_dtype: np.dtype | None = None,
        aux_capacities: np.ndarray | None = None,
    ):
        self.registry = registry
        self.dir = dirpath
        self.bounds = list(bounds)
        self._bounds = np.asarray(bounds, np.int64)
        self.num_vertices = bounds[-1]
        self.state_dtype = np.dtype(state_dtype)
        self.state_width = self.state_dtype.itemsize
        self.page_size = registry.page_size
        self.cap = page_capacity(self.page_size, self.state_width)
        # pages of the largest interval: (interval, page) packs into the
        # sortable key interval * pages_per_interval + page
        self.pages_per_interval = max(1, -(-int(np.diff(self._bounds).max(initial=0)) // self.cap))
        self.aux_region = self.page_size - PAGE_HEADER
        self.stores = []
        self.aux_entry_dtype = np.dtype(aux_entry_dtype) if aux_entry_dtype is not None else None
        self.aux_stores = []
        self._aux_offsets = None  # per interval: local prefix sums (bytes)
        if self.aux_entry_dtype is not None:
            caps = np.asarray(aux_capacities, np.int64)
            ew = self.aux_entry_dtype.itemsize
            self._aux_offsets = []
            for k in range(len(bounds) - 1):
                lo, hi = bounds[k], bounds[k + 1]
                off = np.zeros(hi - lo + 1, np.int64)
                np.cumsum(caps[lo:hi] * ew, out=off[1:])
                self._aux_offsets.append(off)

    def _interval_of(self, v: int) -> int:
        return bisect_right(self.bounds, v) - 1

    def _aux_span(self, k: int, v: int) -> tuple[int, int]:
        off = self._aux_offsets[k]
        j = v - self.bounds[k]
        return int(off[j]), int(off[j + 1] - off[j])

    @classmethod
    def create(
        cls,
        registry: StoreRegistry,
        dirpath: str,
        bounds: list[int],
        init_states: np.ndarray,
        aux_entry_dtype: np.dtype | None = None,
        aux_capacities: np.ndarray | None = None,
    ) -> "VertexStateStore":
        os.makedirs(dirpath, exist_ok=True)
        st = cls(registry, dirpath, bounds, init_states.dtype, aux_entry_dtype, aux_capacities)
        for k in range(len(bounds) - 1):
            lo, hi = bounds[k], bounds[k + 1]
            store = registry.open(os.path.join(dirpath, f"state{k}.pages"), "state")
            raw = init_states[lo:hi].tobytes()
            w = st.state_width
            for start in range(0, hi - lo, st.cap):
                n = min(st.cap, hi - lo - start)
                store.append_page(pack_page(st.page_size, raw[start * w : (start + n) * w], n))
            st.stores.append(store)
            if st.aux_entry_dtype is not None:
                aux = registry.open(os.path.join(dirpath, f"aux{k}.pages"), "state")
                total = int(st._aux_offsets[k][-1])
                npages = (total + st.aux_region - 1) // st.aux_region
                blank = pack_page(st.page_size, b"", 0)
                for _ in range(npages):
                    aux.append_page(blank)
                st.aux_stores.append(aux)
        return st

    def checkout(self, ids: np.ndarray) -> StateSlice:
        """State rows of ids; each page they touch is read once, in order."""
        ids = np.asarray(ids, np.int64)
        k = np.searchsorted(self._bounds, ids, side="right") - 1
        pid, slots = np.divmod(ids - self._bounds[k], self.cap)
        keys, page_of = np.unique(k * self.pages_per_interval + pid, return_inverse=True)
        raw = b"".join(
            self.stores[kk].read_page(p).data
            for kk, p in (divmod(key, self.pages_per_interval) for key in keys.tolist())
        )
        images = np.frombuffer(raw, np.uint8).reshape(len(keys), self.page_size)
        return StateSlice(self, ids, keys, images, page_of, slots)

    def checkout_aux(self, ids: np.ndarray) -> AuxSlice:
        ids = np.asarray(ids, np.int64)
        pages: dict[tuple[int, int], bytearray] = {}
        tables = []
        region = self.aux_region
        for v in ids:
            v = int(v)
            k = self._interval_of(v)
            pos, length = self._aux_span(k, v)
            if length == 0:
                tables.append(np.zeros(0, self.aux_entry_dtype))
                continue
            parts = []
            for p in range(pos // region, (pos + length - 1) // region + 1):
                key = (k, p)
                if key not in pages:
                    pages[key] = bytearray(self.aux_stores[k].read_page(p).data)
                a = max(pos, p * region) - p * region
                b = min(pos + length, (p + 1) * region) - p * region
                parts.append(bytes(pages[key][PAGE_HEADER + a : PAGE_HEADER + b]))
            tables.append(np.frombuffer(b"".join(parts), self.aux_entry_dtype).copy())
        return AuxSlice(self, ids, tables, pages)

    def close(self) -> None:
        """Close the state and aux files; they stay on disk."""
        for store in self.stores + self.aux_stores:
            self.registry.drop(store, "state")

    def read_all(self) -> np.ndarray:
        """Full state vector, one page read per stored page."""
        out = np.zeros(self.num_vertices, self.state_dtype)
        w = self.state_width
        for k, store in enumerate(self.stores):
            lo, hi = self.bounds[k], self.bounds[k + 1]
            chunks = [
                np.frombuffer(store.read_page(p).records(w), self.state_dtype)
                for p in range(store.num_pages)
            ]
            if chunks:
                out[lo:hi] = np.concatenate(chunks)
        return out
