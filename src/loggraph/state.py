"""Vertex state vectors on page storage.

State has one layout: one vector file of fixed-width entries for the whole
graph, packed page_capacity to a page with the record count in each page
header, where vertex v owns a run of caps[v] consecutive entries, starting
at the sum of the caps of the vertices before it. Its pages are not cut at
interval bounds: intervals size the multi-log's update logs, not the state.
For state rows caps[v] is 1, so vertex v is entry v of `state.pages`.
Applications that remember something per in-neighbor (label tables, color
tables) also get aux tables, in `aux.pages`, with caps[v] the in-degree of
v.

Checkout reads each page covering the rows of a vertex set once, in
ascending order, through one `PageStore.read_spans`, and gathers the rows
from the pages' arena rows into one flat entry array; commit writes the
changed entries into those arena rows in place and writes back, through one
`PageStore.write_back_rows`, only the pages holding a changed entry: a
resident page stays in memory, marked dirty, until the store gives it back
or is closed.
"""

from __future__ import annotations

import math
import os
from functools import reduce

import numpy as np

from .pager import PageStore, StoreRegistry, page_capacity, ranges, run_starts


class StateSlice:
    """The entries of a checked-out vertex set as one flat array: row i is
    entries[offsets[i]:offsets[i + 1]]. A state row is one entry, so rows
    is entries.

    pages[j] is the id of checked-out page j of the store, and
    arena_rows[j] the registry's arena row holding it, pinned until the
    registry's scope exits (`StoreRegistry.scope`, which the engine opens
    around a batch); row i's entries are at the positions
    index[offsets[i]:offsets[i + 1]] of the pages' record slots taken row
    after row (see `StoreRegistry.gather`). Commit compares the entries
    with their copy as checked out, writes the changed ones back into
    those arena rows and writes back the pages it changed.
    """

    def __init__(self, store: PageStore, ids, offsets, pages, arena_rows, index, dtype):
        self._store = store
        self.ids = ids
        self.offsets = offsets
        self._pages = pages
        self._arena_rows = arena_rows
        self._index = index
        self._registry = store.registry
        self.entries = self.rows = self._registry.gather(arena_rows, index, dtype)
        self._was = self.entries.copy()

    def commit(self) -> None:
        """Write the changed entries into the pages' arena rows, then write
        back the pages holding a changed entry, each once, in page order."""
        width = self.entries.itemsize
        word = np.dtype(f"u{math.gcd(width, 8)}")  # entries compare a word column at a time
        now = self.entries.view(word).reshape(-1, width // word.itemsize)
        was = self._was.view(word).reshape(now.shape)
        changed = np.flatnonzero(reduce(np.logical_or, (now != was).T))
        if len(changed) == 0:
            return
        at = self._index[changed]
        self._registry.scatter(self._arena_rows, at, self.entries[changed])
        # at ascends, so the checked-out pages it falls in do too
        dirty = at // page_capacity(self._store.page_size, width)
        dirty = dirty[run_starts(dirty)]
        self._store.write_back_rows(self._pages[dirty], self._arena_rows[dirty])


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
        num_vertices: int,
        state_dtype: np.dtype,
        aux_entry_dtype: np.dtype | None = None,
        aux_capacities: np.ndarray | None = None,
    ):
        self.registry = registry
        self.dir = dirpath
        self.num_vertices = num_vertices
        self.state_dtype = np.dtype(state_dtype)
        self.state_width = self.state_dtype.itemsize
        self.page_size = registry.page_size
        self.store: PageStore | None = None
        self.aux_store: PageStore | None = None
        self.aux_entry_dtype = np.dtype(aux_entry_dtype) if aux_entry_dtype is not None else None
        # vertex v's table is aux entries [start[v], start[v] + caps[v])
        self._aux_start = self._aux_caps = None
        if self.aux_entry_dtype is not None:
            self._aux_caps = np.asarray(aux_capacities, np.int64)
            self._aux_start = np.cumsum(self._aux_caps) - self._aux_caps

    @classmethod
    def create(
        cls,
        registry: StoreRegistry,
        dirpath: str,
        init_states: np.ndarray,
        aux_entry_dtype: np.dtype | None = None,
        aux_capacities: np.ndarray | None = None,
    ) -> "VertexStateStore":
        os.makedirs(dirpath, exist_ok=True)
        st = cls(registry, dirpath, len(init_states), init_states.dtype, aux_entry_dtype, aux_capacities)
        st.store = registry.open(os.path.join(dirpath, "state.pages"), "state")
        st.store.append_records(init_states.tobytes(), st.state_width)
        if st.aux_entry_dtype is not None:
            st.aux_store = registry.open(os.path.join(dirpath, "aux.pages"), "state")
            blank = np.zeros(st._aux_caps.sum(), st.aux_entry_dtype)
            st.aux_store.append_records(blank.tobytes(), st.aux_entry_dtype.itemsize)
        return st

    def _checkout(self, kind, store, start, caps, dtype, ids):
        """The entry runs of ids (ascending) in one layout: state rows when
        caps is None, aux tables otherwise."""
        ids = np.asarray(ids, np.int64)
        lens = np.ones(len(ids), np.int64) if caps is None else caps[ids]
        starts = ids if start is None else start[ids]
        pages, _, rows, at = store.read_spans(starts, starts + lens, dtype)
        offsets = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        return kind(store, ids, offsets, pages, rows, at if caps is None else ranges(at, lens), dtype)

    def checkout(self, ids: np.ndarray) -> StateSlice:
        """State rows of ids; each page they touch is read once, in order.
        A row past its page's record count is corrupt."""
        return self._checkout(StateSlice, self.store, None, None, self.state_dtype, ids)

    def checkout_aux(self, ids: np.ndarray) -> AuxSlice:
        """The aux tables of ids, flat; each page covering one of them is
        read once, in ascending order."""
        return self._checkout(AuxSlice, self.aux_store, self._aux_start, self._aux_caps, self.aux_entry_dtype, ids)

    def close(self) -> None:
        """Close the state and aux files; they stay on disk."""
        for store in (self.store, self.aux_store):
            if store is not None:
                self.registry.drop(store)

    def read_all(self) -> np.ndarray:
        """Full state vector, the file read whole through
        `PageStore.read_vector`, so a page holding other than its share of
        the states is corrupt."""
        return self.store.read_vector(self.num_vertices, self.state_dtype)
