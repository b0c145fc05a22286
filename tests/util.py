"""Shared test helpers: graph builders and conversion shortcuts."""

from __future__ import annotations

import os

import numpy as np

from loggraph import csr
from loggraph.ingest import convert_arrays


def both_directions(pairs):
    src = np.array([u for u, v in pairs] + [v for u, v in pairs], np.int64)
    dst = np.array([v for u, v in pairs] + [u for u, v in pairs], np.int64)
    return src, dst


def ring_graph(n=6):
    """The workhorse: an undirected n-cycle, both directions materialized."""
    return both_directions([(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return both_directions([(i, i + 1) for i in range(n - 1)])


def clique_graph(n):
    return both_directions([(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return both_directions([(0, i) for i in range(1, leaves + 1)])


def random_graph(n, avg_deg, seed, max_directed_edges=100_000):
    """Seeded undirected G(n, m): distinct non-loop pairs, both directions."""
    rng = np.random.default_rng(seed)
    target = min(n * avg_deg // 2, max_directed_edges // 2)
    u = rng.integers(0, n, target * 3)
    v = rng.integers(0, n, target * 3)
    keep = u != v
    a, b = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    pairs = np.unique(np.stack([a, b], 1), axis=0)[:target]
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return src, dst


def small_world(n, k, p, seed):
    """Watts-Strogatz ring lattice with seeded rewiring, both directions."""
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            a, b = i, (i + j) % n
            if rng.random() < p:
                b = int(rng.integers(0, n))
                tries = 0
                while (b == a or (min(a, b), max(a, b)) in edges) and tries < 20:
                    b = int(rng.integers(0, n))
                    tries += 1
                if b == a or (min(a, b), max(a, b)) in edges:
                    b = (i + j) % n
            if b != a:
                edges.add((min(a, b), max(a, b)))
    return both_directions(sorted(edges))


def build_graph(tmpdir, src, dst, n, page_size=1024, sort_budget=None, record_size=20, name="g"):
    """Convert edge arrays into a GraphDir under tmpdir."""
    if sort_budget is None:
        indeg = np.bincount(dst, minlength=n)
        weight = int(np.maximum(indeg, 1).sum()) * record_size
        sort_budget = max(record_size * (int(indeg.max()) + 1) if n else record_size, weight // 6)
    out = os.path.join(str(tmpdir), name)
    return convert_arrays(src, dst, n, out, sort_budget=sort_budget, page_size=page_size, record_size=record_size)


def adjacency_lists(src, dst, n):
    """Sorted-neighbor adjacency lists matching the engine's canonical order."""
    adj = [[] for _ in range(n)]
    order = np.lexsort((dst, src))
    for s, d in zip(src[order], dst[order]):
        adj[int(s)].append(int(d))
    return adj


def op_rows(*ops):
    """An ops array from ("add_edge" | "del_edge", src, dst) and
    ("del_vertex", v) tuples."""
    kinds = {"add_edge": csr.ADD_EDGE, "del_edge": csr.DEL_EDGE, "del_vertex": csr.DEL_VERTEX}
    return np.array([(kinds[op[0]], op[1], op[2] if len(op) > 2 else -1) for op in ops], np.int64).reshape(-1, 3)
