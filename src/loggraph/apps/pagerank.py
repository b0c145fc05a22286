"""Delta-push PageRank with a sum combiner.

Each processed vertex folds the incoming rank changes, accumulates them into
its rank, and pushes alpha * change / out_degree to every neighbor. A batch
is handled as whole columns: one scatter-add of the inboxes, one broadcast
of every row's share over the flat adjacency. Delivery is what reactivates
a vertex, so a message carries its change and nothing else.

The combiner sums a destination's changes, so each inbox holds one record
of dest and change; with use_combine=False the scatter-add folds every
message, in arrival order.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram


class PageRank(VertexProgram):
    name = "pagerank"
    payload_fields = [("change", "<f8")]
    state_dtype = np.dtype([("rank", "<f8"), ("change", "<f8")])
    combine = {"change": np.add}

    def __init__(self, alpha: float = 0.85, use_combine: bool = True):
        self.alpha = alpha
        if not use_combine:
            self.combine = None

    def init_all(self, num_vertices, in_degrees):
        states = np.zeros(num_vertices, self.state_dtype)
        states["change"] = 1.0 - self.alpha
        return states, np.ones(num_vertices, bool), []

    def process_batch(self, ctx, batch):
        rows, msgs = batch.messages()
        st = batch.states
        total = st["change"].copy()
        np.add.at(total, rows, np.ascontiguousarray(msgs["change"]))  # in index order: arrival-order sums
        st["change"] = 0.0
        st["rank"] += total
        share = self.alpha * total / np.maximum(batch.adj.degrees, 1)
        ctx.send_many(*batch.broadcast(np.ones(len(batch), bool), share))

    def summary(self, states):
        r = states["rank"]
        return {"rank_sum": float(r.sum()), "rank_max": float(r.max())}
