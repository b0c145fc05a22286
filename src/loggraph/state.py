"""Per-interval vertex state vectors on page storage.

Fixed-width state records are addressed by vertex slot. Applications that
remember something per in-neighbor (label tables, color tables) get an
auxiliary byte-stream region sized by in-degree, addressed through per-vertex
offsets. Checkout locates every row's (interval, page, slot) with array
arithmetic, reads each page covering the set once in ascending order and
hands out mutable rows; commit writes back only the pages whose rows
actually changed. Aux checkout does the same over each row's byte span and
hands out the set's tables as one flat entry array.
"""

from __future__ import annotations

import os

import numpy as np

from .csr import ranges
from .errors import CorruptPageError
from .pager import PAGE_HEADER, StoreRegistry, pack_page, page_capacity, record_counts


def _read_images(stores: list, keys: np.ndarray, per_interval: int) -> np.ndarray:
    """Images of the pages keys (ascending interval * per_interval + page),
    in key order; each interval's pages come from its own store."""
    k, pid = np.divmod(keys, per_interval)
    cut = np.searchsorted(k, np.arange(len(stores) + 1))
    return np.concatenate([s.read_pages(pid[a:b].tolist()) for s, a, b in zip(stores, cut[:-1], cut[1:])])


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
    """The per-in-neighbor tables of a checked-out vertex set, as one flat
    entry array: row i's table is entries[offsets[i]:offsets[i + 1]].

    A row's table is a byte span of its interval's aux byte stream, the
    concatenated record regions of its aux pages. keys are the covering
    pages' (interval, page) keys, ascending, and images those pages as
    read. data is a copy of their regions end to end: row i's bytes are
    data[at[i]:at[i] + nbytes[i]], and its pages keys[first[i]:first[i] +
    npages[i]].
    """

    def __init__(self, store: "VertexStateStore", ids, offsets, keys, images, at, nbytes, first, npages):
        self._store = store
        self.ids = ids
        self.offsets = offsets
        self._keys = keys
        self._images = images
        self._data = images[:, PAGE_HEADER:].copy().reshape(-1)
        self._index = ranges(at, nbytes)
        self._byte_offsets = np.concatenate([[0], np.cumsum(nbytes)])
        self._orig = self._data[self._index]
        self.entries = self._orig.copy().view(store.aux_entry_dtype)
        self._first = first
        self._npages = npages

    def commit(self) -> None:
        """Write back, in page order, every page covering a row whose
        entries changed, each once."""
        st = self._store
        now = self.entries.view(np.uint8)
        diff = np.flatnonzero(now != self._orig)
        if len(diff) == 0:
            return
        rows = np.unique(np.searchsorted(self._byte_offsets, diff, side="right") - 1)
        self._data[self._index] = now
        dirty = np.unique(ranges(self._first[rows], self._npages[rows]))
        regions = self._data.reshape(len(self._keys), -1)
        for q in dirty.tolist():
            k, pid = divmod(int(self._keys[q]), st.aux_pages_per_interval)
            st.aux_stores[k].write_page(pid, self._images[q, :PAGE_HEADER].tobytes() + regions[q].tobytes())


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
        # byte prefix sums of the aux tables over all vertices: vertex v's
        # table is stream bytes [cum[v], cum[v + 1]) - cum[first vertex of
        # its interval]; (interval, page) packs like the state pages' keys
        self._aux_cum = None
        self.aux_pages_per_interval = 1
        if self.aux_entry_dtype is not None:
            caps = np.asarray(aux_capacities, np.int64)
            self._aux_cum = np.zeros(self.num_vertices + 1, np.int64)
            np.cumsum(caps * self.aux_entry_dtype.itemsize, out=self._aux_cum[1:])
            longest = int(np.diff(self._aux_cum[self._bounds]).max(initial=0))
            self.aux_pages_per_interval = max(1, -(-longest // self.aux_region))

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
            store.append_records(init_states[lo:hi].tobytes(), st.state_width)
            st.stores.append(store)
            if st.aux_entry_dtype is not None:
                aux = registry.open(os.path.join(dirpath, f"aux{k}.pages"), "state")
                total = int(st._aux_cum[hi] - st._aux_cum[lo])
                npages = (total + st.aux_region - 1) // st.aux_region
                blank = pack_page(st.page_size, b"", 0)
                for _ in range(npages):
                    aux.append_page(blank)
                st.aux_stores.append(aux)
        return st

    def checkout(self, ids: np.ndarray) -> StateSlice:
        """State rows of ids; each page they touch is read once, in order.
        A slot past its page's record count is corrupt."""
        ids = np.asarray(ids, np.int64)
        k = np.searchsorted(self._bounds, ids, side="right") - 1
        pid, slots = np.divmod(ids - self._bounds[k], self.cap)
        keys, page_of = np.unique(k * self.pages_per_interval + pid, return_inverse=True)
        images = _read_images(self.stores, keys, self.pages_per_interval)
        counts = record_counts(images)[page_of]
        short = np.flatnonzero(slots >= counts)
        if len(short):
            i = short[0]
            raise CorruptPageError(f"{self.stores[k[i]].path}: page {pid[i]} holds {counts[i]} states, slot {slots[i]} wanted")
        return StateSlice(self, ids, keys, images, page_of, slots)

    def checkout_aux(self, ids: np.ndarray) -> AuxSlice:
        """The aux tables of ids, flat; each page covering one of them is
        read once, in ascending (interval, page) order."""
        ids = np.asarray(ids, np.int64)
        k = np.searchsorted(self._bounds, ids, side="right") - 1
        pos = self._aux_cum[ids] - self._aux_cum[self._bounds[k]]
        nbytes = self._aux_cum[ids + 1] - self._aux_cum[ids]
        region, P = self.aux_region, self.aux_pages_per_interval
        p0 = pos // region
        npages = np.where(nbytes > 0, (pos + nbytes - 1) // region - p0 + 1, 0)
        start_key = k * P + p0
        keys = np.unique(ranges(start_key, npages))
        images = _read_images(self.aux_stores, keys, P)
        first = np.searchsorted(keys, start_key)
        at = first * region + pos - p0 * region
        offsets = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(nbytes // self.aux_entry_dtype.itemsize, out=offsets[1:])
        return AuxSlice(self, ids, offsets, keys, images, at, nbytes, first, npages)

    def close(self) -> None:
        """Close the state and aux files; they stay on disk."""
        for store in self.stores + self.aux_stores:
            self.registry.drop(store, "state")

    def read_all(self) -> np.ndarray:
        """Full state vector, one page read per stored page. An interval
        whose pages hold other than one state per vertex is corrupt."""
        out = np.zeros(self.num_vertices, self.state_dtype)
        for k, store in enumerate(self.stores):
            lo, hi = self.bounds[k], self.bounds[k + 1]
            states = store.read_records(range(store.num_pages), self.state_dtype)
            if len(states) != hi - lo:
                raise CorruptPageError(f"{store.path}: {len(states)} states for {hi - lo} vertices")
            out[lo:hi] = states
        return out
