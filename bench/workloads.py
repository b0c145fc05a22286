"""Seeded graph generators and the benchmark's workload definitions.

The engine only ever sees the generated edge arrays; the seed that made them
stays on this side. Every graph is undirected and simple: self-loops are
dropped, each unordered pair appears once, and both directions are
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from loggraph.apps import make_program
from loggraph.engine import EngineConfig
from loggraph.multilog import RecordFormat

PAGE_SIZE = 4096
MIB = 1 << 20
KIB = 1 << 10


def _symmetrize(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicate pairs, then emit both directions."""
    keep = u != v
    a, b = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    pairs = np.unique(np.stack([a, b], 1), axis=0)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return src, dst


def uniform_graph(n: int, directed_edges: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """G(n, m): m/2 distinct non-loop pairs drawn uniformly, both directions."""
    rng = np.random.default_rng(seed)
    target = directed_edges // 2
    u = rng.integers(0, n, target * 2)
    v = rng.integers(0, n, target * 2)
    keep = u != v
    a, b = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    # first occurrence order keeps the draw uniform over pairs
    _, first = np.unique(np.stack([a, b], 1), axis=0, return_index=True)
    first = np.sort(first)[:target]
    if len(first) < target:
        raise ValueError(f"could not draw {target} distinct pairs on {n} vertices")
    return _symmetrize(a[first], b[first])


def rmat_graph(
    scale: int, edge_factor: int, seed: int, a: float = 0.57, b: float = 0.19, c: float = 0.19
) -> tuple[np.ndarray, np.ndarray]:
    """R-MAT (Chakrabarti et al., SDM'04) with a seeded vertex permutation.

    Without the permutation the hubs all sit at low ids, so they would all
    land in interval 0; relabelling spreads them over the intervals.
    """
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    u = np.zeros(m, np.int64)
    v = np.zeros(m, np.int64)
    for bit in range(scale):
        r = rng.random(m)
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        down = r >= a + b
        u |= down.astype(np.int64) << bit
        v |= right.astype(np.int64) << bit
    perm = rng.permutation(n)
    return _symmetrize(perm[u], perm[v])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a graph recipe, an app and engine settings."""

    name: str
    why: str
    graph: tuple  # ("uniform", n, directed_edges) or ("rmat", scale, edge_factor)
    app: str
    memory_budget: int
    max_supersteps: int
    edge_log: bool = False
    convert_budget: int | None = None  # memory budget the graph is converted for
    app_kwargs: dict = field(default_factory=dict)

    def num_vertices(self) -> int:
        kind, size, _ = self.graph
        return size if kind == "uniform" else 1 << size

    def make_graph(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        kind, size, density = self.graph
        if kind == "uniform":
            return uniform_graph(size, density, seed)
        return rmat_graph(size, density, seed)

    def program(self, seed: int):
        kwargs = dict(self.app_kwargs)
        if self.app == "randomwalk":
            kwargs["seed"] = seed
        return make_program(self.app, **kwargs)

    def config(self, seed: int, record_trace: bool = False) -> EngineConfig:
        return EngineConfig(
            memory_budget=self.memory_budget,
            page_size=PAGE_SIZE,
            max_supersteps=self.max_supersteps,
            edge_log=self.edge_log,
            parallel=0,
            seed=seed,
            record_trace=record_trace,
        )

    def convert_args(self) -> dict:
        """sort_budget/record_size for convert_arrays, matching the app's records."""
        budget = self.convert_budget or self.memory_budget
        width = RecordFormat(self.program(0).payload_fields).width
        return {
            "sort_budget": EngineConfig(memory_budget=budget).sort_budget,
            "page_size": PAGE_SIZE,
            "record_size": width,
        }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="pr-uniform-incore",
            why="dense in-core PageRank: every vertex active, per-message path dominates",
            graph=("uniform", 20_000, 200_000),
            app="pagerank",
            memory_budget=64 * MIB,
            max_supersteps=5,
            app_kwargs={"alpha": 0.85, "use_combine": True},
        ),
        Workload(
            name="walk-rmat-sparse",
            why="sparse random walk on R-MAT with the edge log: page-granular adjacency and state loads",
            graph=("rmat", 16, 8),
            app="randomwalk",
            memory_budget=4 * MIB,
            max_supersteps=24,
            edge_log=True,
            app_kwargs={"steps": 20, "stride": 8},
        ),
        Workload(
            name="kcore-rmat-mutate",
            why="4-core peeling on R-MAT: structural deletions drive CSR merges and page writes",
            graph=("rmat", 16, 8),
            app="kcore",
            memory_budget=4 * MIB,
            max_supersteps=200,
            app_kwargs={"k": 4},
        ),
        Workload(
            name="community-rmat-tight",
            why="label propagation under a tight budget: aux tables, multi-pass sort, multilog eviction",
            graph=("rmat", 12, 8),
            app="community",
            memory_budget=512 * KIB,
            # The broadcast and the first full propagation round. Later rounds
            # trail off at a seed-dependent pace, so the work itself would
            # vary from seed to seed by more than the page bounds.
            max_supersteps=2,
            edge_log=True,
            convert_budget=4 * MIB,
        ),
    ]
}
