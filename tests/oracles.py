"""Independent reference implementations the engine is checked against.

These stay deliberately naive: plain lists and dicts, no pages, no logs.
BFS, K-core, PageRank and the coloring fixpoint are closed-form or
fixpoint computations; the rest replay the same synchronous semantics
(ascending vertex order, arrival-ordered inboxes, message-only activation)
step by step.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque

import numpy as np

from loggraph.csr import ADD_EDGE, DEL_EDGE, DEL_VERTEX
from loggraph.seeds import pick_index, unit_float

INF = 0xFFFFFFFF


def oracle_bfs(adj, source):
    n = len(adj)
    levels = [INF] * n
    levels[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if levels[w] == INF:
                levels[w] = levels[u] + 1
                q.append(w)
    return levels


def oracle_pagerank(src, dst, n, alpha, supersteps):
    """Vectorized replay of the delta-push scheme; float order differs from
    the engine, hence the 1e-9 comparison there."""
    outdeg = np.bincount(src, minlength=n).astype(np.int64)
    rank = np.zeros(n)
    pending = np.full(n, 1.0 - alpha)
    active = np.ones(n, bool)
    for _ in range(supersteps):
        if not active.any():
            break
        totals = np.where(active, pending, 0.0)
        pending = np.where(active, 0.0, pending)
        rank += totals
        share = np.zeros(n)
        senders = active & (outdeg > 0)
        share[senders] = alpha * totals[senders] / outdeg[senders]
        contrib = share[src]
        np.add.at(pending, dst, contrib)
        nxt = np.zeros(n, bool)
        nxt[dst[senders[src]]] = True
        active = nxt
    return rank


def oracle_kcore(adj, k):
    """Iterative pruning fixpoint: alive iff in the k-core."""
    n = len(adj)
    deg = np.array([len(a) for a in adj], np.int64)
    alive = np.ones(n, bool)
    changed = True
    while changed:
        changed = False
        doomed = np.nonzero(alive & (deg < k))[0]
        if len(doomed):
            changed = True
            for v in doomed:
                alive[v] = False
                for w in adj[v]:
                    if alive[w]:
                        deg[w] -= 1
            deg[doomed] = 0
    return alive


def proper_coloring(adj, colors):
    return all(colors[u] != colors[w] for u in range(len(adj)) for w in adj[u] if u != w)


def greedy_coloring(adj):
    """Sequential greedy in ascending id order: the smallest color not held
    by a lower-id neighbor."""
    color = []
    for v in range(len(adj)):
        taken = {color[u] for u in adj[v] if u < v}
        c = 0
        while c in taken:
            c += 1
        color.append(c)
    return color


def is_independent(adj, in_set):
    return not any(in_set[u] and in_set[w] for u in range(len(adj)) for w in adj[u])


def is_maximal(adj, in_set):
    for u in range(len(adj)):
        if not in_set[u] and not any(in_set[w] for w in adj[u]):
            return False
    return True


def _deliver(sends):
    inboxes = defaultdict(list)
    for dest, src, payload in sends:
        inboxes[dest].append((src, payload))
    return inboxes


def oracle_community(adj, max_supersteps):
    n = len(adj)
    label = list(range(n))
    table = [dict() for _ in range(n)]
    sends = []
    for v in range(n):  # superstep 0: everyone announces its own label
        sends.extend((w, v, label[v]) for w in adj[v])
    steps = 1
    inboxes = _deliver(sends)
    while steps < max_supersteps and inboxes:
        sends = []
        for v in sorted(inboxes):
            for src, lab in inboxes[v]:
                table[v][src] = lab
            if not table[v]:
                continue
            freq = Counter(table[v].values())
            top = max(freq.values())
            new = min(l for l, c in freq.items() if c == top)
            if new != label[v]:
                label[v] = new
                sends.extend((w, v, new) for w in adj[v])
        inboxes = _deliver(sends)
        steps += 1
    return label, steps


def oracle_coloring(adj, max_supersteps):
    n = len(adj)
    color = [0] * n
    table = [dict() for _ in range(n)]
    sends = []
    for v in range(n):
        sends.extend((w, v, color[v]) for w in adj[v])
    steps = 1
    inboxes = _deliver(sends)
    while steps < max_supersteps and inboxes:
        sends = []
        for v in sorted(inboxes):
            for src, c in inboxes[v]:
                table[v][src] = c
            taken = {c for u, c in table[v].items() if u < v}
            new = 0
            while new in taken:
                new += 1
            if new != color[v]:
                color[v] = new
                sends.extend((w, v, new) for w in adj[v])
        inboxes = _deliver(sends)
        steps += 1
    return color, steps


UNDECIDED, IN_SET, OUT = 0, 1, 2
PRIO, IN_NOTE, OUT_NOTE = 0, 1, 2


def oracle_mis(adj, seed, max_supersteps):
    n = len(adj)
    status = [UNDECIDED] * n
    undecided = [-1] * n
    sends = []
    for v in range(n):  # superstep 0
        undecided[v] = len(adj[v])
        if undecided[v] == 0:
            status[v] = IN_SET
        else:
            sends.extend((w, v, (PRIO, unit_float(seed, 0, v))) for w in adj[v])
    inboxes = _deliver(sends)
    steps = 1
    while steps < max_supersteps and inboxes:
        sends = []
        for v in sorted(inboxes):
            if status[v] != UNDECIDED:
                continue
            best = None
            in_note = False
            dec = 0
            for src, (kind, prio) in inboxes[v]:
                if kind == PRIO:
                    cand = (prio, src)
                    if best is None or cand > best:
                        best = cand
                else:
                    dec += 1
                    if kind == IN_NOTE:
                        in_note = True
            undecided[v] -= dec
            if in_note:
                status[v] = OUT
                sends.extend((w, v, (OUT_NOTE, 0.0)) for w in adj[v])
                continue
            if undecided[v] <= 0:
                status[v] = IN_SET
                continue
            if best is not None and (unit_float(seed, steps - 1, v), v) > best:
                status[v] = IN_SET
                sends.extend((w, v, (IN_NOTE, 0.0)) for w in adj[v])
            else:
                sends.extend((w, v, (PRIO, unit_float(seed, steps, v))) for w in adj[v])
        inboxes = _deliver(sends)
        steps += 1
    return status, steps


def oracle_randomwalk(adj, n, steps_budget, stride, seed, max_supersteps):
    visits = [0] * n
    sends = []
    for v in range(0, n, stride):  # superstep 0 spawns
        visits[v] += 1
        if steps_budget > 0 and adj[v]:
            w = adj[v][pick_index(seed, len(adj[v]), 0, v, 0)]
            sends.append((w, v, steps_budget - 1))
    inboxes = _deliver(sends)
    s = 1
    while s < max_supersteps and inboxes:
        sends = []
        for v in sorted(inboxes):
            for j, (_, remaining) in enumerate(inboxes[v]):
                visits[v] += 1
                if remaining > 0 and adj[v]:
                    w = adj[v][pick_index(seed, len(adj[v]), s, v, j)]
                    sends.append((w, v, remaining - 1))
        inboxes = _deliver(sends)
        s += 1
    return visits, s


def apply_ops_reference(ids, rows, ops):
    """Structural op semantics over neighbor lists, one op at a time in
    arrival order: an insertion appends a copy, a deletion removes one copy
    present at that point (a miss counts a warning) and a vertex removal
    empties its row. Returns the sorted rows and the warning count."""
    pos = {v: i for i, v in enumerate(ids)}
    adj = [list(r) for r in rows]
    warnings = 0
    for kind, u, v in ops:
        if kind == ADD_EDGE:
            adj[pos[u]].append(v)
        elif kind == DEL_EDGE:
            try:
                adj[pos[u]].remove(v)
            except ValueError:
                warnings += 1
        elif kind == DEL_VERTEX:
            adj[pos[u]] = []
    return [sorted(r) for r in adj], warnings
