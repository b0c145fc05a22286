"""Breadth-first search: levels are hop counts from the source.

A batch takes each row's smallest inbox level and broadcasts level + 1 from
the rows whose level improved. The combiner already keeps each destination's
smallest level, so an inbox holds one record."""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram
from ..errors import ConfigError

INF_LEVEL = 0xFFFFFFFF


class Bfs(VertexProgram):
    name = "bfs"
    payload_fields = [("level", "<u4")]
    state_dtype = np.dtype([("level", "<u4")])
    combine = {"level": np.minimum}

    def __init__(self, source: int = 0):
        self.source = source

    def init_all(self, num_vertices, in_degrees):
        if not (0 <= self.source < num_vertices):
            raise ConfigError(f"source {self.source} outside [0, {num_vertices})")
        states = np.full(num_vertices, INF_LEVEL, self.state_dtype)
        active = np.zeros(num_vertices, bool)
        # the source levels itself through an initial self-message
        return states, active, [(self.source, (0,))]

    def process_batch(self, ctx, batch):
        rows, msgs = batch.messages()
        new = np.full(len(batch), INF_LEVEL, np.uint32)
        np.minimum.at(new, rows, np.ascontiguousarray(msgs["level"]))
        level = batch.states["level"]
        improved = new < level  # a row with an empty inbox keeps INF_LEVEL
        level[improved] = new[improved]
        ctx.send_many(*batch.broadcast(improved, new + 1))

    def summary(self, states):
        levels = states["level"]
        reached = levels[levels != INF_LEVEL]
        hist = {}
        for lvl, cnt in zip(*np.unique(reached, return_counts=True)):
            hist[str(int(lvl))] = int(cnt)
        return {"levels": hist, "unreached": int((levels == INF_LEVEL).sum())}
