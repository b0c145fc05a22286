"""Deterministic greedy graph coloring.

Every vertex starts with color 0 and announces it in the first superstep.
A vertex remembers the latest color heard from each in-neighbor and takes
the smallest color not held by a lower-id neighbor, announcing it only when
it changes. Lower ids never wait on higher ones, so the colors settle from
the smallest id upward into the sequential greedy coloring in ascending id
order, which is proper.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram
from .community import upsert


class Coloring(VertexProgram):
    name = "coloring"
    payload_fields = [("color", "<u4")]
    state_dtype = np.dtype([("color", "<u4"), ("used", "<u4")])
    aux_entry_dtype = np.dtype([("src", "<u4"), ("color", "<u4")])

    def init_all(self, num_vertices, in_degrees):
        states = np.zeros(num_vertices, self.state_dtype)
        return states, np.ones(num_vertices, bool), []

    def process(self, ctx, v, state, adj, inbox):
        table = ctx.table
        used = int(state["used"])
        for i in range(len(inbox)):
            used = upsert(table, used, int(inbox["src"][i]), int(inbox["color"][i]))
        state["used"] = used
        if ctx.superstep > 0:
            taken = {int(c) for s, c in zip(table["src"][:used], table["color"][:used]) if s < v}
            new = 0
            while new in taken:
                new += 1
            if new == int(state["color"]):
                return
            state["color"] = new
        mine = int(state["color"])
        for w in adj.neighbors:
            ctx.send(int(w), mine)

    def summary(self, states):
        return {"colors": int(len(np.unique(states["color"])))}
