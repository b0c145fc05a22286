"""K-core pruning by structural deletion.

A vertex whose live degree drops below K removes itself and its out-edges,
then notifies every remaining neighbor; notified vertices delete their side
of the edge and re-check. Deletions are buffered structural updates, so the
adjacency views already reflect earlier rounds.

A batch buffers, for each live row in id order, one DEL_EDGE per inbox
record and then a DEL_VERTEX when the row dies, all through one
`ctx.structural_many`. Each dying row notifies its neighbors in adjacency
order, except the ones that notified it.
"""

from __future__ import annotations

import numpy as np

from ..csr import DEL_EDGE, DEL_VERTEX
from ..engine import VertexProgram
from ..pager import ranges


class KCore(VertexProgram):
    name = "kcore"
    payload_fields = []  # a notification carries only its src
    state_dtype = np.dtype([("alive", "u1")])

    def __init__(self, k: int = 2):
        self.k = k

    def init_all(self, num_vertices, in_degrees):
        states = np.ones(num_vertices, self.state_dtype)
        return states, np.ones(num_vertices, bool), []

    def process_batch(self, ctx, batch):
        live = batch.states["alive"] == 1
        rows, msgs = batch.messages()
        to_live = live[rows]
        rows, notifiers = rows[to_live], msgs["src"][to_live].astype(np.int64)
        adj = batch.adj
        dying = np.flatnonzero(live & (adj.degrees - np.bincount(rows, minlength=len(batch)) < self.k))
        batch.states["alive"][dying] = 0

        # per row: one edge deletion per notification, then the removal
        op_rows = np.concatenate([rows, dying])
        kinds = np.repeat([DEL_EDGE, DEL_VERTEX], [len(rows), len(dying)])
        dsts = np.concatenate([notifiers, np.full(len(dying), -1)])
        order = np.argsort(op_rows, kind="stable")
        ctx.structural_many(np.stack([kinds, batch.ids[op_rows], dsts], 1)[order])

        # a dying row notifies its neighbors, except the ones that notified it
        deg = adj.degrees[dying]
        senders = np.repeat(dying, deg)
        nbrs = adj.nbrs[ranges(adj.offsets[dying], deg)]
        notified_us = np.isin(senders << 32 | nbrs, rows << 32 | notifiers)
        ctx.send_many(nbrs[~notified_us], batch.ids[senders[~notified_us]])

    def summary(self, states):
        return {"survivors": int((states["alive"] == 1).sum())}
