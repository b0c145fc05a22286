"""Maximal independent set, Luby style.

Undecided vertices exchange per-round hashed priorities; a vertex whose
(priority, id) beats everything it heard joins the set and announces it,
neighbors of a member drop out and announce that, and a vertex with no
undecided neighbors left joins by default. Announcements must be delivered
individually, so there is no combine.

A batch handles its undecided rows as columns: the best (priority, src) per
row is the maximum priority, then the maximum src among the records that
hold it; notes are counted with `bincount`. Every announcement goes out
with one `ctx.send_many`, in row order.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram
from ..seeds import unit_float_many

UNDECIDED, IN_SET, OUT = 0, 1, 2
PRIO, IN_NOTE, OUT_NOTE = 0, 1, 2


class Mis(VertexProgram):
    name = "mis"
    payload_fields = [("kind", "u1"), ("prio", "<f8")]
    state_dtype = np.dtype([("status", "u1"), ("undecided", "<i8")])

    def __init__(self, seed: int = 0):
        self.seed = seed

    def init_all(self, num_vertices, in_degrees):
        states = np.zeros(num_vertices, self.state_dtype)
        states["undecided"] = -1  # degree unknown until the first run
        return states, np.ones(num_vertices, bool), []

    def process_batch(self, ctx, batch):
        n, s = len(batch), ctx.superstep
        st = batch.states
        undecided = st["undecided"]
        pending = st["status"] == UNDECIDED
        fresh = pending & (undecided < 0)
        undecided[fresh] = batch.adj.degrees[fresh]

        rows, msgs = batch.messages()
        kind = msgs["kind"]
        undecided[pending] -= np.bincount(rows[kind != PRIO], minlength=n)[pending]
        in_note = np.bincount(rows[kind == IN_NOTE], minlength=n) > 0
        prio = kind == PRIO
        rows, heard, src = rows[prio], msgs["prio"][prio], msgs["src"][prio].astype(np.int64)
        best = np.full(n, -np.inf)
        np.maximum.at(best, rows, heard)
        top = heard == best[rows]
        best_src = np.full(n, -1, np.int64)
        np.maximum.at(best_src, rows[top], src[top])

        drop = pending & in_note
        alone = pending & ~in_note & (undecided <= 0)
        contend = pending & ~in_note & ~alone
        join = np.zeros(n, bool)
        if s > 0:
            mine = unit_float_many(self.seed, s - 1, batch.ids)
            join = contend & (best_src >= 0) & ((mine > best) | ((mine == best) & (batch.ids > best_src)))
        st["status"][drop] = OUT
        st["status"][alone | join] = IN_SET
        bid = contend & ~join
        note = np.select([drop, join], [OUT_NOTE, IN_NOTE], PRIO).astype(np.uint8)
        value = np.where(bid, unit_float_many(self.seed, s, batch.ids), 0.0)
        ctx.send_many(*batch.broadcast(drop | join | bid, note, value))

    def summary(self, states):
        return {"set_size": int((states["status"] == IN_SET).sum())}
