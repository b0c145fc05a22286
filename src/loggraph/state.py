"""Per-interval vertex state vectors on page storage.

State has one layout: one file per interval of fixed-width entries, packed
page_capacity to a page with the record count in each page header, where
vertex v owns a run of caps[v] consecutive entries. For state rows caps[v]
is 1. Applications that remember something per in-neighbor (label tables,
color tables) also get aux tables, with caps[v] the in-degree of v.

Checkout reads each page covering the rows of a vertex set once, in
ascending order, through `PageStore.read_spans`, and hands out the rows as
one flat entry array; commit builds the whole images of only the pages
covering rows whose entries changed, in one `pager.page_images` call, and
writes them back through `PageStore.write_back`, which holds a resident
page's change in memory until the store is closed.
"""

from __future__ import annotations

import math
import os
from functools import reduce

import numpy as np

from .pager import StoreRegistry, cover, page_capacity, page_images, ranges


class StateSlice:
    """The entries of a checked-out vertex set as one flat array: row i is
    entries[offsets[i]:offsets[i + 1]]. A state row is one entry, so rows
    is entries.

    pages[j] is the id of checked-out page j in stores[store_of[j]], and
    record_counts[j] its record count as read; slots holds their record
    slots end to end, page_capacity to a page, with row i's entries at
    slots[index[offsets[i]:offsets[i + 1]]]. Commit patches slots and
    writes back the whole images of the pages it changed.
    """

    def __init__(self, stores, ids, offsets, store_of, pages, record_counts, slots, index):
        self._stores = stores
        self.ids = ids
        self.offsets = offsets
        self._store_of = store_of
        self._pages = pages
        self.record_counts = record_counts
        # the slots as opaque void items: whole entries move fastest so
        self._voids = slots.view(np.dtype((np.void, slots.itemsize)))
        self._index = index
        self.entries = self.rows = self._voids[index].view(slots.dtype)

    def commit(self) -> None:
        """Write back, in page order through `PageStore.write_back`, the
        image of every page covering a row whose entries changed, each once;
        the images are built in one `page_images` call."""
        width = self._voids.itemsize
        word = np.dtype(f"u{math.gcd(width, 8)}")  # entries compare a word column at a time
        now = self.entries.view(word).reshape(-1, width // word.itemsize)
        was = self._voids[self._index].view(word).reshape(now.shape)
        changed = np.flatnonzero(reduce(np.logical_or, (now != was).T))
        if len(changed) == 0:
            return
        self._voids[self._index[changed]] = self.entries.view(self._voids.dtype)[changed]
        rows = np.searchsorted(self.offsets, changed, side="right") - 1
        page_size = self._stores[0].page_size
        cap = page_capacity(page_size, width)
        first = self._index[self.offsets[rows]] // cap
        dirty = cover(first, self._index[self.offsets[rows + 1] - 1] // cap + 1)
        regions = self._voids.view(np.uint8).reshape(len(self._pages), -1)
        images = page_images([regions[j] for j in dirty.tolist()], self.record_counts[dirty].tolist(), page_size)
        for j, image in zip(dirty.tolist(), images):
            self._stores[self._store_of[j]].write_back(int(self._pages[j]), image)


class AuxSlice(StateSlice):
    """A checkout of aux tables. Its commit is StateSlice's, bound in its own
    class body so that the per-layer tracer (`bench/trace.py`) times aux
    commits apart from state commits."""

    commit = StateSlice.commit


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
        self.stores = []
        self.aux_entry_dtype = np.dtype(aux_entry_dtype) if aux_entry_dtype is not None else None
        self.aux_stores = []
        # vertex v owns entries [start[v], start[v] + caps[v]) of its
        # interval's file; state rows own one entry each (caps None)
        sizes = np.diff(self._bounds)
        self._start = np.arange(self.num_vertices) - np.repeat(self._bounds[:-1], sizes)
        self._aux_start = self._aux_caps = None
        if self.aux_entry_dtype is not None:
            self._aux_caps = np.asarray(aux_capacities, np.int64)
            cum = np.zeros(self.num_vertices + 1, np.int64)
            np.cumsum(self._aux_caps, out=cum[1:])
            self._aux_start = cum[:-1] - np.repeat(cum[self._bounds[:-1]], sizes)

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
                blank = np.zeros(st._aux_caps[lo:hi].sum(), st.aux_entry_dtype)
                aux.append_records(blank.tobytes(), st.aux_entry_dtype.itemsize)
                st.aux_stores.append(aux)
        return st

    def _checkout(self, kind, stores, start, caps, dtype, ids):
        """The entry runs of ids (ascending) in one layout, read interval by
        interval."""
        ids = np.asarray(ids, np.int64)
        cut = np.searchsorted(ids, self._bounds)
        lens = np.ones(len(ids), np.int64) if caps is None else caps[ids]
        starts = start[ids]
        ends = starts + lens
        reads = [store.read_spans(starts[a:b], ends[a:b], dtype) for store, a, b in zip(stores, cut[:-1], cut[1:])]
        pages, counts, slots, at = zip(*reads)
        shift = np.cumsum([0] + [s.size for s in slots])
        at = np.concatenate(at) + np.repeat(shift[:-1], [len(a) for a in at])
        offsets = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        return kind(
            stores,
            ids,
            offsets,
            np.repeat(np.arange(len(stores)), [len(p) for p in pages]),
            np.concatenate(pages),
            np.concatenate(counts),
            # a byte join: np.concatenate of structured arrays copies field by field
            np.concatenate([s.view(np.uint8) for s in slots]).reshape(-1).view(dtype),
            at if caps is None else ranges(at, lens),
        )

    def checkout(self, ids: np.ndarray) -> StateSlice:
        """State rows of ids; each page they touch is read once, in order.
        A row past its page's record count is corrupt."""
        return self._checkout(StateSlice, self.stores, self._start, None, self.state_dtype, ids)

    def checkout_aux(self, ids: np.ndarray) -> AuxSlice:
        """The aux tables of ids, flat; each page covering one of them is
        read once, in ascending (interval, page) order."""
        return self._checkout(AuxSlice, self.aux_stores, self._aux_start, self._aux_caps, self.aux_entry_dtype, ids)

    def close(self) -> None:
        """Close the state and aux files; they stay on disk."""
        for store in self.stores + self.aux_stores:
            self.registry.drop(store, "state")

    def read_all(self) -> np.ndarray:
        """Full state vector, each interval's file read whole through
        `PageStore.read_vector`, so a page holding other than its share of
        the interval's states is corrupt."""
        out = np.zeros(self.num_vertices, self.state_dtype)
        for k, store in enumerate(self.stores):
            lo, hi = self.bounds[k], self.bounds[k + 1]
            out[lo:hi] = store.read_vector(hi - lo, self.state_dtype)
        return out
