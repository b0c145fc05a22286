"""Delta-push PageRank with a sum combine.

Each processed vertex folds the incoming rank changes, accumulates them into
its rank, and pushes alpha * change / out_degree to every neighbor. The
activation flag rides along in the payload when the folded change exceeds
the threshold; delivery itself is what reactivates a vertex, so the flag is
informational on the synchronous path.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram


def _reduce(records, starts, out):
    out["change"] = np.add.reduceat(records["change"], starts)
    out["activate"] = np.maximum.reduceat(records["activate"], starts)


class PageRank(VertexProgram):
    name = "pagerank"
    payload_fields = [("change", "<f8"), ("activate", "u1")]
    state_dtype = np.dtype([("rank", "<f8"), ("change", "<f8")])
    combine = staticmethod(_reduce)

    def __init__(self, alpha: float = 0.85, threshold: float = 0.4, use_combine: bool = True):
        self.alpha = alpha
        self.threshold = threshold
        if not use_combine:
            self.combine = None

    def init_all(self, num_vertices, in_degrees):
        states = np.zeros(num_vertices, self.state_dtype)
        states["change"] = 1.0 - self.alpha
        return states, np.ones(num_vertices, bool), []

    def process(self, ctx, v, state, adj, inbox):
        total = float(state["change"])
        for i in range(len(inbox)):
            total += float(inbox["change"][i])
        state["change"] = 0.0
        state["rank"] = float(state["rank"]) + total
        deg = len(adj)
        if deg == 0:
            return
        share = self.alpha * total / deg
        flag = 1 if total > self.threshold else 0
        for w in adj.neighbors:
            ctx.send(int(w), share, flag)

    def summary(self, states):
        r = states["rank"]
        return {"rank_sum": float(r.sum()), "rank_max": float(r.max())}
