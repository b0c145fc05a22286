import numpy as np
import pytest

from loggraph import csr
from loggraph.edgelog import EdgeLog, classify_inefficient, log_candidates
from loggraph.errors import CorruptPageError
from loggraph.pager import PAGE_HEADER, StoreRegistry

from util import adjacency, build_graph, random_graph, ring_graph


def view(v, nbrs, pages=((0, 0),)):
    return csr.AdjacencyView(v, np.array(nbrs, np.uint32), tuple(pages), "csr")


# -- page classification --------------------------------------------------------

def test_classify_untouched_page_not_inefficient():
    assert classify_inefficient(0, 16384) is False


def test_classify_below_threshold():
    assert classify_inefficient(int(0.05 * 16384), 16384) is True


def test_classify_boundary_exact_threshold_is_efficient():
    # 1600/16000 is exactly the 10% cut: strict less-than keeps it efficient
    assert classify_inefficient(1600, 16000) is False
    assert classify_inefficient(1599, 16000) is True


# -- logging + fetch ------------------------------------------------------------

def make_log(tmp_path, budget=1 << 16, page_size=256):
    reg = StoreRegistry(page_size)
    el = EdgeLog(reg, str(tmp_path / "el"), budget)
    el.begin_superstep(0)
    return el, reg


def test_predicted_inactive_not_logged(tmp_path):
    el, _ = make_log(tmp_path)
    assert el.maybe_log(view(1, [2, 3]), predicted=False, inefficient_pages={(0, 0)}, dirty=False) is False
    assert el.bytes_logged == 0


def test_efficient_page_not_logged(tmp_path):
    el, _ = make_log(tmp_path)
    assert el.maybe_log(view(1, [2, 3]), True, inefficient_pages=set(), dirty=False) is False


def test_logged_entry_roundtrip(tmp_path):
    el, _ = make_log(tmp_path)
    nbrs = [5, 9, 11, 40]
    assert el.maybe_log(view(7, nbrs), True, {(0, 0)}, dirty=False) is True
    el.begin_superstep(1)  # rotate: entry becomes readable
    assert el.indexed(7)
    got = el.fetch_batch([7])
    assert got[7].neighbors.tolist() == nbrs
    assert got[7].source == "edgelog"


def test_entries_span_pages(tmp_path):
    el, reg = make_log(tmp_path, page_size=128)  # region 112 bytes
    big = list(range(100, 160))  # 8 + 240 bytes, spans 3 pages
    assert el.maybe_log(view(3, big), True, {(0, 0)}, dirty=False)
    el.begin_superstep(1)
    assert el.fetch_batch([3])[3].neighbors.tolist() == big


def test_budget_exhaustion_stops_logging(tmp_path):
    el, _ = make_log(tmp_path, budget=100)
    assert el.maybe_log(view(1, list(range(20))), True, {(0, 0)}, dirty=False)  # 88 bytes
    assert not el.maybe_log(view(2, [1, 2]), True, {(0, 0)}, dirty=False)  # would cross 100
    assert not el.maybe_log(view(3, []), True, {(0, 0)}, dirty=False)  # stopped for the superstep
    el.begin_superstep(1)
    assert el.indexed(1) and not el.indexed(2)


def test_dirty_vertex_not_logged_and_not_served(tmp_path):
    el, _ = make_log(tmp_path)
    assert not el.maybe_log(view(1, [2]), True, {(0, 0)}, dirty=True)


def test_index_mismatch_is_corruption(tmp_path):
    el, _ = make_log(tmp_path)
    el.maybe_log(view(1, [2, 3]), True, {(0, 0)}, dirty=False)
    el.begin_superstep(1)
    ids = el._consumable[0]
    ids[ids == 1] = 99  # tamper: 99 indexes vertex 1's entry
    with pytest.raises(CorruptPageError):
        el.fetch_batch([99])


def test_degree_field_disagreeing_with_index_is_corruption(tmp_path):
    el, _ = make_log(tmp_path)
    el.maybe_log(view(7, [5, 9, 11]), True, {(0, 0)}, dirty=False)
    el.begin_superstep(1)
    store = el._consumable[2]
    page = bytearray(store.read_page(0))
    page[PAGE_HEADER + 4 : PAGE_HEADER + 8] = np.uint32(7).tobytes()  # degree 3 -> 7
    store.write_page(0, bytes(page))
    with pytest.raises(CorruptPageError):
        el.fetch_batch([7])


def test_consumed_log_discarded_after_rotation(tmp_path):
    el, reg = make_log(tmp_path)
    el.maybe_log(view(1, [2]), True, {(0, 0)}, dirty=False)
    el.begin_superstep(1)
    assert el.indexed(1)
    el.begin_superstep(2)  # superstep-1 log replaces it; old file unlinked
    assert not el.indexed(1)


@pytest.mark.parametrize("seed", range(6))
def test_candidate_mask_logs_what_the_per_view_rule_logs(tmp_path, seed):
    # random rows, colIdx page spans, sources, inefficient pages and
    # predicted/dirty bits, with a budget that runs out partway
    rng = np.random.default_rng(seed)
    n = 200
    adj = adjacency(np.arange(n), [rng.integers(0, 99, d) for d in rng.integers(0, 6, n)])
    first = rng.integers(0, 8, n)
    adj.pages = np.stack([rng.integers(0, 3, n), first, first + rng.integers(0, 3, n)], 1)
    adj.source = rng.choice(len(csr.SOURCES), n, p=[0.7, 0.15, 0.15]).astype(np.uint8)
    ineff = set(zip(rng.integers(0, 3, 15).tolist(), rng.integers(0, 10, 15).tolist()))
    predicted, dirty = rng.random(n) < 0.7, rng.random(n) < 0.2

    views = [adj.view(i) for i in range(n)]
    rule = [
        bool(predicted[i]) and not dirty[i] and v.source == "csr" and any(p in ineff for p in v.colidx_pages)
        for i, v in enumerate(views)
    ]
    assert log_candidates(adj, predicted, dirty, ineff).tolist() == rule

    budget = sum(8 + 4 * len(v) for v, hit in zip(views, rule) if hit) // 2
    old, _ = make_log(tmp_path / "old", budget)
    new, _ = make_log(tmp_path / "new", budget)
    logged = [i for i in range(n) if old.maybe_log(views[i], bool(predicted[i]), ineff, bool(dirty[i]))]
    candidates = np.flatnonzero(log_candidates(adj, predicted, dirty, ineff)).tolist()
    assert [i for i in candidates if new.maybe_log(views[i], True, ineff, False)] == logged
    assert 0 < len(logged) < sum(rule)
    assert new.bytes_logged == old.bytes_logged


def test_indexed_answers_for_an_array_of_ids(tmp_path):
    el, _ = make_log(tmp_path)
    for v in (9, 2, 5):
        el.maybe_log(view(v, [1]), True, {(0, 0)}, dirty=False)
    assert el.indexed(np.arange(10)).tolist() == [False] * 10  # not readable before the rotation
    el.begin_superstep(1)
    assert np.flatnonzero(el.indexed(np.arange(10))).tolist() == [2, 5, 9]
    el.close()
    assert not el.indexed(np.arange(10)).any()


def test_transparency_on_engine_run(tmp_path):
    """Edge log on vs off never changes results (MIS-style scattered access)."""
    from loggraph.apps import Mis
    from loggraph.engine import EngineConfig, run_app

    src, dst = random_graph(3000, 3, seed=2)
    g1 = build_graph(tmp_path / "a", src, dst, 3000, page_size=256)
    g2 = build_graph(tmp_path / "b", src, dst, 3000, page_size=256)
    cfg_off = EngineConfig(memory_budget=1 << 21, page_size=256, max_supersteps=40, edge_log=False)
    cfg_on = EngineConfig(memory_budget=1 << 21, page_size=256, max_supersteps=40, edge_log=True)
    r_off = run_app(g1, Mis(seed=5), cfg_off, str(tmp_path / "ra"))
    r_on = run_app(g2, Mis(seed=5), cfg_on, str(tmp_path / "rb"))
    assert r_off.states.tobytes() == r_on.states.tobytes()
    assert sum(st.edgelog_served for st in r_on.stats) > 0  # the log actually served reads
    off_csr = sum(st.reads["csr"] for st in r_off.stats)
    on_csr = sum(st.reads["csr"] for st in r_on.stats)
    assert on_csr < off_csr


def test_savings_shared_page_reduces_csr_reads(tmp_path):
    """k vertices sharing one edge-log page that would otherwise touch k
    sparse CSR pages save at least k-1 reads."""
    # star-free construction: 8 vertices, each with a small adjacency placed
    # on its own colidx page via a one-vertex-per-interval layout
    n = 16
    pairs = [(i, (i + 8) % n) for i in range(8)]
    src, dst = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    g = build_graph(tmp_path, src, dst, n, page_size=256, sort_budget=20, record_size=20)
    assert g.meta.num_intervals == n  # one vertex per interval: one colidx page each

    el = EdgeLog(g.registry, str(tmp_path / "el"), 1 << 16)
    el.begin_superstep(0)
    active = np.arange(0, 8)
    views, stats = csr.load_adjacency(g, active)
    ineff = {k for k, u in stats.items() if classify_inefficient(u, 256)}
    assert len(ineff) >= 2
    logged = [v for v in active if el.maybe_log(views[int(v)], True, ineff, False)]
    assert len(logged) >= 2
    el.begin_superstep(1)

    csr_before = g.registry.totals()["csr"][0]
    got = el.fetch_batch(logged)
    el_reads = g.registry.totals()["edgelog"][0]
    for v in logged:
        assert got[v].neighbors.tolist() == views[v].neighbors.tolist()
    # k entries share one edge-log page; CSR would have needed k colidx pages
    assert g.registry.totals()["csr"][0] == csr_before
    assert el_reads <= 1 + (len(logged) * 16 + 8 * len(logged) * 4) // 240
    assert len(logged) - 1 >= el_reads  # saving >= k-1 versus k sparse pages
