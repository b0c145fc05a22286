"""Community detection by most-frequent label propagation.

Every vertex remembers the latest label heard from each in-neighbor and
adopts the most frequent one (smallest label id on ties). Labels are
broadcast only when they change, after the seeding broadcast in the first
superstep. Messages must stay individual: merging them would destroy the
per-neighbor table.

A batch upserts every inbox into the flat tables (see `table.upsert`), then
takes each row's mode from the run lengths of its sorted (row, label) keys,
the first longest run being the smallest label, and broadcasts the changed
labels with one `ctx.send_many`.
"""

from __future__ import annotations

import numpy as np

from ..engine import VertexProgram
from ..pager import ranges, sorted_unique
from .table import upsert


class Community(VertexProgram):
    name = "community"
    payload_fields = [("label", "<u4")]
    state_dtype = np.dtype([("label", "<u4"), ("used", "<u4")])
    aux_entry_dtype = np.dtype([("src", "<u4"), ("label", "<u4")])

    def init_all(self, num_vertices, in_degrees):
        states = np.zeros(num_vertices, self.state_dtype)
        states["label"] = np.arange(num_vertices, dtype=np.uint32)
        return states, np.ones(num_vertices, bool), []

    def process_batch(self, ctx, batch):
        st = batch.states
        used = upsert(batch, st["used"].astype(np.int64), "label")
        st["used"] = used
        if ctx.superstep == 0:
            ctx.send_many(*batch.broadcast(np.ones(len(batch), bool), st["label"]))
            return
        row = np.repeat(np.arange(len(batch)), used)
        key = np.sort(row << 32 | batch.table["label"][ranges(batch.table_offsets[:-1], used)])
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        counts = np.diff(np.r_[starts, len(key)])
        run_row = key[starts] >> 32
        longest = np.zeros(len(batch), np.int64)
        np.maximum.at(longest, run_row, counts)
        modal = starts[counts == longest[run_row]]
        rows, first = np.unique(key[modal] >> 32, return_index=True)
        label = st["label"].copy()
        label[rows] = key[modal[first]] & 0xFFFFFFFF
        changed = label != st["label"]
        st["label"] = label
        ctx.send_many(*batch.broadcast(changed, label))

    def summary(self, states):
        return {"communities": len(sorted_unique(states["label"]))}
