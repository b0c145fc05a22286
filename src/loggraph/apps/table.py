"""Latest-wins updates of the per-in-neighbor tables of a batch.

Row i's table is batch.table[batch.table_offsets[i]:...], with its first
used[i] slots live, each holding one distinct src. Applying the row's inbox
in arrival order, a record from a src already in the table overwrites that
slot's value, and one from a new src takes the next free slot, or is
dropped when the table is full.
"""

from __future__ import annotations

import numpy as np

from ..pager import ranges


def upsert(batch, used: np.ndarray, field: str) -> np.ndarray:
    """Apply every inbox record's (src -> record[field]) to the batch's
    tables; returns the new used counts.

    The live entries and then the inbox records are stable-sorted by
    (row, src): each group keeps its last value, an existing src its slot,
    and a new src the slot used[row] + its rank by first arrival.
    """
    table, offsets = batch.table, batch.table_offsets
    n = len(batch)
    live = ranges(offsets[:-1], used)
    rows, msgs = batch.messages()
    row = np.concatenate([np.repeat(np.arange(n), used), rows])
    src = np.concatenate([table["src"][live], msgs["src"]]).astype(np.int64)
    value = np.concatenate([table[field][live], msgs[field]])
    key = row << 32 | src
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    head = order[starts]  # a group's first element; a live entry comes first
    tail = order[np.flatnonzero(np.diff(key, append=-1))]  # and its last
    grow = row[head]
    old = head < len(live)
    slot = np.zeros(len(head), np.int64)
    slot[old] = live[head[old]] - offsets[grow[old]]
    new = np.flatnonzero(~old)
    new = new[np.argsort(head[new])]  # (row, first arrival) order
    new_rows = grow[new]
    slot[new] = used[new_rows] + np.arange(len(new)) - np.searchsorted(new_rows, new_rows)
    keep = slot < np.diff(offsets)[grow]
    at = offsets[grow[keep]] + slot[keep]
    table["src"][at] = src[head[keep]]
    table[field][at] = value[tail[keep]]
    return np.minimum(used + np.bincount(new_rows, minlength=n), np.diff(offsets))
