"""Independent references the benchmark checks every engine result against.

They share nothing with the engine but the seeded hash that defines random
walk choices. PageRank and k-core are numpy computations; random walk and
label propagation replay the engine's synchronous semantics step by step
(ascending vertex order, arrival-ordered inboxes, message-only activation).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from loggraph.seeds import pick_index


def adjacency(src: np.ndarray, dst: np.ndarray, n: int) -> list[list[int]]:
    """Neighbor lists sorted by destination, the engine's canonical order."""
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    flat = dst[order].tolist()
    return [flat[offsets[v] : offsets[v + 1]] for v in range(n)]


def pagerank(src: np.ndarray, dst: np.ndarray, n: int, alpha: float, supersteps: int) -> np.ndarray:
    """Delta-push PageRank replayed with whole-vector numpy steps."""
    outdeg = np.bincount(src, minlength=n)
    rank = np.zeros(n)
    pending = np.full(n, 1.0 - alpha)
    active = np.ones(n, bool)
    for _ in range(supersteps):
        if not active.any():
            break
        totals = np.where(active, pending, 0.0)
        pending = np.where(active, 0.0, pending)
        rank += totals
        senders = active & (outdeg > 0)
        share = np.zeros(n)
        share[senders] = alpha * totals[senders] / outdeg[senders]
        np.add.at(pending, dst, share[src])
        active = np.zeros(n, bool)
        active[dst[senders[src]]] = True
    return rank


def kcore(src: np.ndarray, dst: np.ndarray, n: int, k: int) -> np.ndarray:
    """Alive mask of the k-core by repeated simultaneous peeling."""
    deg = np.bincount(src, minlength=n)
    alive = np.ones(n, bool)
    while True:
        doomed = alive & (deg < k)
        if not doomed.any():
            return alive
        alive &= ~doomed
        deg = deg - np.bincount(dst[doomed[src]], minlength=n)


def _deliver(sends) -> dict:
    inboxes = defaultdict(list)
    for dest, src, payload in sends:
        inboxes[dest].append((src, payload))
    return inboxes


def random_walk(adj, steps: int, stride: int, seed: int, max_supersteps: int):
    """Per-vertex visit counts and the number of supersteps run."""
    n = len(adj)
    visits = [0] * n
    sends = []
    for v in range(0, n, stride):
        visits[v] += 1
        if steps > 0 and adj[v]:
            sends.append((adj[v][pick_index(seed, len(adj[v]), 0, v, 0)], v, steps - 1))
    inboxes = _deliver(sends)
    s = 1
    while s < max_supersteps and inboxes:
        sends = []
        for v in sorted(inboxes):
            for j, (_, remaining) in enumerate(inboxes[v]):
                visits[v] += 1
                if remaining > 0 and adj[v]:
                    sends.append((adj[v][pick_index(seed, len(adj[v]), s, v, j)], v, remaining - 1))
        inboxes = _deliver(sends)
        s += 1
    return np.array(visits, np.uint64), s


def community(adj, max_supersteps: int):
    """Most-frequent label propagation; returns labels and supersteps run."""
    n = len(adj)
    label = list(range(n))
    table = [dict() for _ in range(n)]
    inboxes = _deliver((w, v, v) for v in range(n) for w in adj[v])
    steps = 1
    while steps < max_supersteps and inboxes:
        sends = []
        for v in sorted(inboxes):
            for src, lab in inboxes[v]:
                table[v][src] = lab
            freq = Counter(table[v].values())
            top = max(freq.values())
            new = min(lab for lab, cnt in freq.items() if cnt == top)
            if new != label[v]:
                label[v] = new
                sends.extend((w, v, new) for w in adj[v])
        inboxes = _deliver(sends)
        steps += 1
    return np.array(label, np.uint32), steps


class Reference:
    """Expected outcome of one workload on one generated graph."""

    def __init__(self, workload, seed: int, src: np.ndarray, dst: np.ndarray):
        self.app = workload.app
        n = workload.num_vertices()
        kw = workload.app_kwargs
        cap = workload.max_supersteps
        self.supersteps = None
        if self.app == "pagerank":
            self.expected = pagerank(src, dst, n, kw["alpha"], cap)
        elif self.app == "kcore":
            self.expected = kcore(src, dst, n, kw["k"])
        elif self.app == "randomwalk":
            self.expected, self.supersteps = random_walk(
                adjacency(src, dst, n), kw["steps"], kw["stride"], seed, cap
            )
        elif self.app == "community":
            self.expected, self.supersteps = community(adjacency(src, dst, n), cap)
        else:
            raise ValueError(f"no reference for app {self.app!r}")

    def mismatch(self, states: np.ndarray, supersteps: int, max_supersteps: int) -> str | None:
        """None when the engine's final states match, else a reason."""
        if self.supersteps is not None and supersteps != self.supersteps:
            return f"{supersteps} supersteps, reference ran {self.supersteps}"
        if self.app == "pagerank":
            err = float(np.max(np.abs(states["rank"] - self.expected)))
            return None if err <= 1e-9 else f"rank differs by {err:.3g}"
        if self.app == "kcore":
            if supersteps >= max_supersteps:
                return "k-core peeling hit the superstep cap before quiescence"
            same = np.array_equal(states["alive"] == 1, self.expected)
            return None if same else "k-core survivors differ"
        field = "visits" if self.app == "randomwalk" else "label"
        same = np.array_equal(states[field], self.expected)
        return None if same else f"{field} differ"
