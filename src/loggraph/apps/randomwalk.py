"""Seeded random walks from strided source vertices.

Walker messages carry the remaining step budget. A batch bumps each row's
counter once per walker it holds and forwards every walker with steps left
to a uniform neighbor, picked by a deterministic hash of (seed, superstep,
vertex, walker index), where a walker's index is its position in the
vertex's inbox. Superstep 0 seeds one walker at each source. Walkers are
sent in (row, index) order, the order a per-vertex loop would send them.
Only the picked neighbor entries are read (`Adjacency.take`), not the
walkers' whole rows.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram
from ..seeds import pick_index_many


def default_stride(num_vertices: int) -> int:
    return max(1, num_vertices // 100)


class RandomWalk(VertexProgram):
    name = "randomwalk"
    payload_fields = [("remaining", "<u4")]
    state_dtype = np.dtype([("visits", "<u8")])

    def __init__(self, steps: int = 10, stride: int | None = None, seed: int = 0):
        self.steps = steps
        self.stride = stride
        self.seed = seed

    def init_all(self, num_vertices, in_degrees):
        stride = self.stride or default_stride(num_vertices)
        states = np.zeros(num_vertices, self.state_dtype)
        active = np.zeros(num_vertices, bool)
        active[::stride] = True
        return states, active, []

    def process_batch(self, ctx, batch):
        lens = batch.ends - batch.starts
        rows, msgs = batch.messages()
        j = np.arange(len(rows)) - np.repeat(np.cumsum(lens) - lens, lens)
        remaining = msgs["remaining"].astype(np.int64)
        if ctx.superstep == 0:  # a source with an empty inbox seeds one walker
            seeded = np.flatnonzero(lens == 0)
            rows = np.concatenate([rows, seeded])
            j = np.concatenate([j, np.zeros_like(seeded)])
            remaining = np.concatenate([remaining, np.full(len(seeded), self.steps, np.int64)])
            order = np.argsort(rows, kind="stable")
            rows, j, remaining = rows[order], j[order], remaining[order]
        batch.states["visits"] += np.bincount(rows, minlength=len(batch)).astype(np.uint64)
        deg = batch.adj.degrees[rows]
        hop = (remaining > 0) & (deg > 0)
        rows, j, remaining, deg = rows[hop], j[hop], remaining[hop], deg[hop]
        v = batch.ids[rows]
        pick = pick_index_many(self.seed, deg, ctx.superstep, v, j)
        ctx.send_many(batch.adj.take(batch.adj.offsets[rows] + pick), v, remaining - 1)

    def summary(self, states):
        return {
            "total_visits": int(states["visits"].sum()),
            "max_visits": int(states["visits"].max()),
        }
