import numpy as np
import pytest

from loggraph.csr import id_dtype
from loggraph.pager import PAGE_HEADER, StoreRegistry, record_counts
from loggraph.shards import balanced_dest_bounds, build_shards, superstep_page_cost

from util import random_graph, ring_graph


def edge_dt(n):
    """A shard record of a graph of n vertices: (src, dst) at its id width."""
    return np.dtype([("src", id_dtype(n)), ("dst", id_dtype(n))])


def make_shards(tmp_path, src, dst, n, num_shards, page_size=256):
    reg = StoreRegistry(page_size)
    return build_shards(src, dst, n, num_shards, reg, str(tmp_path / "shards")), reg


def test_single_shard_holds_all_edges_src_sorted(tmp_path):
    src, dst = ring_graph(6)
    shards, _ = make_shards(tmp_path, src, dst, 6, 1)
    assert shards.num_shards == 1
    recs = shards.stores[0].read_vector(12, edge_dt(6))
    assert np.all(np.diff(recs["src"].astype(int)) >= 0)


def test_ring_three_shards_balanced(tmp_path):
    src, dst = ring_graph(6)
    shards, _ = make_shards(tmp_path, src, dst, 6, 3)
    assert shards.bounds == [0, 2, 4, 6]
    for k, store in enumerate(shards.stores):
        total = int(record_counts(store.read_pages(range(store.num_pages))).sum())
        assert total == 4  # 12 in-edges over 3 shards


def test_edge_lands_in_dest_range_shard(tmp_path):
    src, dst = ring_graph(6)
    shards, _ = make_shards(tmp_path, src, dst, 6, 3)
    # edge (5,0): dst 0 -> shard 0
    recs = shards.stores[0].read_vector(4, edge_dt(6))
    assert (5, 0) in [tuple(map(int, r)) for r in recs]


def test_cost_empty_active_zero(tmp_path):
    src, dst = ring_graph(6)
    shards, _ = make_shards(tmp_path, src, dst, 6, 3)
    assert superstep_page_cost(shards, np.array([], np.int64)) == 0


def test_cost_all_active_reads_everything(tmp_path):
    src, dst = random_graph(60, 4, seed=1)
    shards, _ = make_shards(tmp_path, src, dst, 60, 4)
    assert superstep_page_cost(shards, np.arange(60)) == shards.total_pages


def test_cost_single_vertex_pulls_its_out_edge_shards(tmp_path):
    src, dst = ring_graph(6)
    shards, _ = make_shards(tmp_path, src, dst, 6, 3)
    # vertex 2: in shard 1's dest range; out-edges to 1 (shard 0) and 3 (shard 1)
    cost = superstep_page_cost(shards, np.array([2]))
    assert cost == shards.page_counts[0] + shards.page_counts[1]


def test_cost_membership_oracle(tmp_path):
    src, dst = random_graph(80, 4, seed=2)
    shards, _ = make_shards(tmp_path, src, dst, 80, 5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        active = np.unique(rng.integers(0, 80, rng.integers(1, 15)))
        expect = 0
        for k in range(shards.num_shards):
            lo, hi = shards.bounds[k], shards.bounds[k + 1]
            hit = any(lo <= v < hi for v in active)
            hit = hit or any(
                int(s) in set(active.tolist()) for s in shards.src_sets[k]
            )
            if hit:
                expect += shards.page_counts[k]
        assert superstep_page_cost(shards, active) == expect


def test_shrinking_actives_cost_ratio_trend(tmp_path):
    """Fig. 5b-style: as the active set halves, shard cost stays flat while
    true per-vertex page needs shrink, so the ratio grows."""
    src, dst = random_graph(4000, 6, seed=3)
    shards, _ = make_shards(tmp_path, src, dst, 4000, 4, page_size=256)
    # 4-byte records: 2-byte ids, 60 to a page
    assert min(shards.page_counts) >= 100
    rng = np.random.default_rng(1)
    active = np.unique(rng.integers(0, 4000, 2000))
    prev_ratio = 0.0
    while len(active) >= 4:
        shard_pages = superstep_page_cost(shards, active)
        # engine-side proxy: one colidx page span per active vertex
        engine_pages = max(1, len(active))
        ratio = shard_pages / engine_pages
        assert ratio >= prev_ratio * 0.999  # non-decreasing as actives halve
        prev_ratio = ratio
        active = active[::2]


def test_balanced_bounds_strictly_increase():
    indeg = np.array([5, 0, 0, 0, 0, 10, 1, 1])
    bounds = balanced_dest_bounds(indeg, 3)
    assert bounds[0] == 0 and bounds[-1] == 8
    assert all(b > a for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("n, width", [(256, 1), (257, 2), ((1 << 16) + 1, 4)])
def test_shard_records_hold_ids_at_the_csr_width(tmp_path, n, width):
    # a shard stores the pairs of its destination range at the width a
    # colIdx entry of the same graph takes, 2 * width bytes a record
    src, dst = ring_graph(n)
    shards, _ = make_shards(tmp_path, src, dst, n, 3)
    per_shard = np.diff(np.searchsorted(np.sort(dst), shards.bounds))
    cap = (256 - PAGE_HEADER) // (2 * width)
    assert shards.page_counts == (-(-per_shard // cap)).tolist()
    recs = shards.stores[2].read_vector(int(per_shard[2]), edge_dt(n))
    assert recs.dtype.itemsize == 2 * width and (n - 2, n - 1) in set(zip(recs["src"].tolist(), recs["dst"].tolist()))
