"""Deterministic greedy graph coloring.

Every vertex starts with color 0 and announces it in the first superstep.
A vertex remembers the latest color heard from each in-neighbor and takes
the smallest color not held by a lower-id neighbor, announcing it only when
it changes. Lower ids never wait on higher ones, so the colors settle from
the smallest id upward into the sequential greedy coloring in ascending id
order, which is proper.

A batch upserts every inbox into the flat tables (see `table.upsert`). A
row's smallest free color is the number of its distinct lower-id colors,
taken in ascending order, that equal their rank. The changed colors go out
with one `ctx.send_many`.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram
from ..pager import ranges, sorted_unique
from .table import upsert


class Coloring(VertexProgram):
    name = "coloring"
    payload_fields = [("color", "<u4")]
    state_dtype = np.dtype([("color", "<u4"), ("used", "<u4")])
    aux_entry_dtype = np.dtype([("src", "<u4"), ("color", "<u4")])

    def init_all(self, num_vertices, in_degrees):
        states = np.zeros(num_vertices, self.state_dtype)
        return states, np.ones(num_vertices, bool), []

    def process_batch(self, ctx, batch):
        st = batch.states
        used = upsert(batch, st["used"].astype(np.int64), "color")
        st["used"] = used
        if ctx.superstep == 0:
            changed = np.ones(len(batch), bool)
        else:
            live = ranges(batch.table_offsets[:-1], used)
            row = np.repeat(np.arange(len(batch)), used)
            lower = batch.table["src"][live] < batch.ids[row]
            key = sorted_unique(row[lower] << 32 | batch.table["color"][live[lower]])
            row = key >> 32
            rank = np.arange(len(key)) - np.searchsorted(row, row)
            free = np.bincount(row[(key & 0xFFFFFFFF) == rank], minlength=len(batch))
            changed = free != st["color"]
            st["color"][changed] = free[changed]
        ctx.send_many(*batch.broadcast(changed, st["color"]))

    def summary(self, states):
        return {"colors": len(sorted_unique(states["color"]))}
