import numpy as np
import pytest

from loggraph import csr
from loggraph.edgelog import INEFFICIENT_THRESHOLD, EdgeLog, inefficient, log_candidates
from loggraph.errors import ContractViolation, CorruptPageError
from loggraph.pager import PAGE_COUNT, PAGE_HEADER, StoreRegistry

from util import adjacency, build_graph, ledger_off, random_graph, ring_graph, rows_of


def view(v, nbrs):
    return csr.AdjacencyView(v, np.array(nbrs, np.uint32))


def candidates(usage, page_size=16000, predicted=True, dirty=False):
    """log_candidates for one row spanning the single page of one interval."""
    pages, usage, base = np.array([[0, 0, 1]]), np.array([usage]), np.array([0, 1])
    return bool(log_candidates(pages, np.array([predicted]), np.array([dirty]), usage, base, page_size)[0])


# -- page classification --------------------------------------------------------

def test_classify_untouched_page_not_inefficient():
    assert inefficient(np.array([0]), 16384).tolist() == [False]
    assert not candidates(0)


def test_classify_below_threshold():
    assert inefficient(np.array([int(0.05 * 16384)]), 16384).tolist() == [True]
    assert candidates(int(0.05 * 16384), 16384)


def test_classify_boundary_exact_threshold_is_efficient():
    # 1600/16000 is exactly the 10% cut: strict less-than keeps it efficient
    assert inefficient(np.array([1600, 1599]), 16000).tolist() == [False, True]
    assert not candidates(1600) and candidates(1599)


# -- logging + fetch ------------------------------------------------------------

def make_log(tmp_path, budget=1 << 16, page_size=256):
    reg = StoreRegistry(page_size)
    el = EdgeLog(reg, str(tmp_path / "el"), budget)
    el.begin_superstep(0)
    return el, reg


def test_predicted_inactive_not_logged():
    assert candidates(1599) and not candidates(1599, predicted=False)


def test_efficient_page_not_logged():
    # rows over pages 0-1, 1-2 and 3 of one interval; only page 2 is inefficient
    usage = np.array([8000, 16000, 100, 4000])
    pages = np.array([[0, 0, 2], [0, 1, 3], [0, 3, 4]])
    got = log_candidates(pages, np.ones(3, bool), np.zeros(3, bool), usage, np.array([0, 4]), 16000)
    assert got.tolist() == [False, True, False]


def test_logged_entry_roundtrip(tmp_path):
    el, _ = make_log(tmp_path)
    nbrs = [5, 9, 11, 40]
    assert el.maybe_log(view(7, nbrs)) is True
    el.begin_superstep(1)  # rotate: entry becomes readable
    assert el.indexed(7)
    got = el.fetch_batch([7])
    assert rows_of(got) == {7: nbrs}
    assert got.pages.tolist() == [[0, 0, 0]]  # no colIdx page: never a candidate again


def test_edge_log_rows_are_never_candidates(tmp_path):
    el, _ = make_log(tmp_path)
    el.maybe_log(view(2, [5, 6]))
    el.begin_superstep(1)
    csr_rows = adjacency([1, 3], [[4], [7]])
    csr_rows.pages = np.array([[0, 0, 1], [0, 0, 1]])
    adj = csr_rows
    adj.put(el.fetch_batch([2]))
    got = log_candidates(adj.pages, np.ones(3, bool), np.zeros(3, bool), np.array([4]), np.array([0, 1]), 256)
    assert adj.ids.tolist() == [1, 2, 3] and got.tolist() == [True, False, True]


def test_entries_span_pages(tmp_path):
    el, reg = make_log(tmp_path, page_size=128)  # region 112 bytes
    big = list(range(100, 160))  # 8 + 240 bytes, spans 3 pages
    assert el.maybe_log(view(3, big))
    el.begin_superstep(1)
    assert rows_of(el.fetch_batch([3])) == {3: big}


def test_budget_exhaustion_stops_logging(tmp_path):
    el, _ = make_log(tmp_path, budget=100)
    assert el.maybe_log(view(1, list(range(20))))  # 88 bytes
    assert not el.maybe_log(view(2, [1, 2]))  # would cross 100
    assert not el.maybe_log(view(3, []))  # stopped for the superstep
    el.begin_superstep(1)
    assert el.indexed(1) and not el.indexed(2)


def test_dirty_vertex_not_logged_and_not_served():
    assert candidates(1599) and not candidates(1599, dirty=True)


def test_index_mismatch_is_corruption(tmp_path):
    el, _ = make_log(tmp_path)
    el.maybe_log(view(1, [2, 3]))
    el.begin_superstep(1)
    ids = el._consumable[0]
    ids[ids == 1] = 99  # tamper: 99 indexes vertex 1's entry
    with pytest.raises(CorruptPageError):
        el.fetch_batch([99])


def test_degree_field_disagreeing_with_index_is_corruption(tmp_path):
    el, _ = make_log(tmp_path)
    el.maybe_log(view(7, [5, 9, 11]))
    el.begin_superstep(1)
    store = el._consumable[2]
    page = bytearray(store.read_page(0))
    page[PAGE_HEADER + 4 : PAGE_HEADER + 8] = np.uint32(7).tobytes()  # degree 3 -> 7
    store.write_page(0, bytes(page))
    with pytest.raises(CorruptPageError):
        el.fetch_batch([7])


def test_a_page_whose_count_misses_an_entry_is_corruption(tmp_path):
    el, _ = make_log(tmp_path)
    el.maybe_log(view(1, [2, 3]))  # records 0-3
    el.maybe_log(view(7, [5, 9, 11]))  # records 4-8
    el.begin_superstep(1)
    store = el._consumable[2]
    page = bytearray(store.read_page(0))
    PAGE_COUNT.pack_into(page, 0, 6)  # 9 -> 6: cuts vertex 7's entry
    store.write_page(0, bytes(page))
    assert rows_of(el.fetch_batch([1])) == {1: [2, 3]}
    with pytest.raises(CorruptPageError, match="page 0 holds 6 entries, entry 8 wanted"):
        el.fetch_batch([1, 7])


def test_fetch_of_an_unindexed_vertex_is_a_contract_violation(tmp_path):
    el, _ = make_log(tmp_path)
    el.maybe_log(view(3, [1]))
    el.begin_superstep(1)
    for vids in ([4], [2, 3], [3, 4]):
        with pytest.raises(ContractViolation, match="unindexed vertex"):
            el.fetch_batch(vids)


def test_consumed_log_discarded_after_rotation(tmp_path):
    el, reg = make_log(tmp_path)
    el.maybe_log(view(1, [2]))
    el.begin_superstep(1)
    assert el.indexed(1)
    el.begin_superstep(2)  # superstep-1 log replaces it; old file unlinked
    assert not el.indexed(1)


def reference_candidates(usage, ineff, pstats, rows, page_size):
    """The per-page rule the array predicate replaced: after each fetch, a
    Python loop adds each fetched page's useful bytes to the (interval,
    page) -> bytes dict usage and files the page in or out of the set
    ineff; then a row is a candidate when it is predicted, clean, read from
    the CSR and one of its colIdx pages is in ineff."""
    for key, useful in pstats.items():
        usage[key] = usage.get(key, 0) + useful
        if 0 < usage[key] < INEFFICIENT_THRESHOLD * page_size:
            ineff.add(key)
        else:
            ineff.discard(key)
    return [
        predicted and not dirty and source == "csr" and any((k, p) in ineff for p in range(first, end))
        for (k, first, end), source, predicted, dirty in rows
    ]


@pytest.mark.parametrize("seed", range(6))
def test_candidate_mask_logs_what_the_per_view_rule_logs(tmp_path, seed):
    # a superstep of random batches: the useful bytes of the colIdx pages
    # each fetched, then rows with page spans, sources and predicted/dirty
    # bits; an edge-log row has an empty span and an overlay row is dirty
    rng = np.random.default_rng(seed)
    page_size, n = 256, 60
    num_pages = rng.integers(0, 10, 3)
    base = np.concatenate([[0], np.cumsum(num_pages)])
    usage, ref_usage, ref_ineff, picked = np.zeros(base[-1], np.int64), {}, set(), []
    for batch in range(5):
        flat = np.flatnonzero(rng.random(base[-1]) < 0.4)
        k = np.searchsorted(base, flat, side="right") - 1
        pstats = {(int(j), int(f - base[j])): 4 * int(rng.integers(1, 9)) for j, f in zip(k, flat)}
        for (j, p), useful in pstats.items():
            usage[base[j] + p] += useful

        adj = adjacency(batch * n + np.arange(n), [rng.integers(0, 99, d) for d in rng.integers(0, 6, n)])
        k = rng.integers(0, 3, n)
        first = rng.integers(0, num_pages[k] + 1)
        adj.pages = np.stack([k, first, rng.integers(first, num_pages[k] + 1)], 1)
        source = rng.choice(["csr", "overlay", "edgelog"], n, p=[0.7, 0.15, 0.15])
        adj.pages[source == "edgelog"] = 0
        predicted, dirty = rng.random(n) < 0.7, (rng.random(n) < 0.2) | (source == "overlay")

        rows = zip(adj.pages.tolist(), source, predicted.tolist(), dirty.tolist())
        want = reference_candidates(ref_usage, ref_ineff, pstats, rows, page_size)
        got = log_candidates(adj.pages, predicted, dirty, usage, base, page_size)
        assert got.tolist() == want
        picked += [adj.view(i) for i in np.flatnonzero(got)]
    assert np.count_nonzero(usage) == len(ref_usage)
    assert np.count_nonzero(inefficient(usage, page_size)) == len(ref_ineff)

    # logged in order until the first entry that would pass the budget
    sizes = np.cumsum([8 + 4 * len(v) for v in picked])
    el, _ = make_log(tmp_path, budget=int(sizes[-1]) // 2)
    logged = [v.vertex_id for v in picked if el.maybe_log(v)]
    assert logged == [v.vertex_id for v in picked[: np.searchsorted(sizes, el.budget, side="right")]]
    assert 0 < len(logged) < len(picked) and el.bytes_logged == sizes[len(logged) - 1]


def test_engine_adds_up_page_usage_over_the_batches_of_a_superstep(tmp_path, monkeypatch):
    # one interval, each vertex forced and sent 45 self-messages: the
    # superstep runs in 4 destination passes whose fetches share colIdx
    # pages, each page's last share inefficient on its own, the sum not
    from loggraph.engine import EngineConfig, VertexProgram, run_app

    class Forced(VertexProgram):
        payload_fields = [("x", "<u4")]

        def init_all(self, n, indeg):
            return np.zeros(n, self.state_dtype), np.ones(n, bool), [(v, (1,)) for v in range(n) for _ in range(45)]

        def process_batch(self, ctx, batch):
            pass

    n = 80
    src = np.repeat(np.arange(n), 3)
    g = build_graph(tmp_path, src, (src + np.tile([1, 2, 3], n)) % n, n, page_size=256, sort_budget=1 << 20)
    fetched, load = [], csr.load_adjacency

    def spy(graph, active):
        adj, pstats = load(graph, active)
        fetched.append(pstats)
        return adj, pstats

    monkeypatch.setattr(csr, "load_adjacency", spy)
    cfg = EngineConfig(memory_budget=16 << 10, page_size=256, max_supersteps=1, edge_log=True)
    (st,) = run_app(g, Forced(), cfg, str(tmp_path / "run")).stats

    usage, ineff = {}, set()
    for pstats in fetched:
        reference_candidates(usage, ineff, pstats, [], 256)
    assert (st.csr_pages_accessed, st.csr_pages_inefficient) == (len(usage), len(ineff))
    last = {key: useful for pstats in fetched for key, useful in pstats.items()}
    assert len(fetched) == 4 and not ineff and inefficient(np.array(list(last.values())), 256).sum() == 3


def test_indexed_answers_for_an_array_of_ids(tmp_path):
    el, _ = make_log(tmp_path)
    for v in (9, 2, 5):
        el.maybe_log(view(v, [1]))
    assert el.indexed(np.arange(10)).tolist() == [False] * 10  # not readable before the rotation
    el.begin_superstep(1)
    assert np.flatnonzero(el.indexed(np.arange(10))).tolist() == [2, 5, 9]
    el.close()
    assert not el.indexed(np.arange(10)).any()


def test_transparency_on_engine_run(tmp_path, monkeypatch):
    """Edge log on vs off never changes results (MIS-style scattered access),
    and the log saves csr reads of its own: with no resident pages, which
    would hold this whole graph and leave the log nothing to save."""
    from loggraph.apps import Mis
    from loggraph.engine import EngineConfig, run_app

    ledger_off(monkeypatch)

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
    adj, stats = csr.load_adjacency(g, active)
    base = np.cumsum([0] + [part.colidx.num_pages for part in g.partitions])
    usage = np.zeros(base[-1], np.int64)
    for (k, p), useful in stats.items():
        usage[base[k] + p] = useful
    assert np.count_nonzero(inefficient(usage, 256)) >= 2
    rows = log_candidates(adj.pages, np.ones(len(adj), bool), np.zeros(len(adj), bool), usage, base, 256)
    logged = [int(adj.ids[i]) for i in np.flatnonzero(rows) if el.maybe_log(adj.view(i))]
    assert len(logged) >= 2
    el.begin_superstep(1)

    csr_before = g.registry.totals()["csr"][0]
    got = el.fetch_batch(logged)
    el_reads = g.registry.totals()["edgelog"][0]
    assert rows_of(got) == {v: rows_of(adj)[v] for v in logged}
    # k entries share one edge-log page; CSR would have needed k colidx pages
    assert g.registry.totals()["csr"][0] == csr_before
    assert el_reads <= 1 + (len(logged) * 16 + 8 * len(logged) * 4) // 240
    assert len(logged) - 1 >= el_reads  # saving >= k-1 versus k sparse pages


def test_a_walk_batch_reads_only_the_pages_of_its_picks_each_once(tmp_path, monkeypatch):
    """With no ledger room every page a batch wants is a storage read. A
    random walk's batch reads only the colIdx pages that hold its walkers'
    picked entries, each at most once, and the rows the edge log then logs
    (on those pages) cost no read of their own."""
    from loggraph.apps import RandomWalk
    from loggraph.engine import EngineConfig, run_app

    ledger_off(monkeypatch)
    n = 3000
    src, dst = random_graph(n, 6, seed=11)
    g = build_graph(tmp_path, src, dst, n, page_size=256)
    rowptr = [part.full_rowptr() for part in g.partitions]
    cap = g.partitions[0].cap_ci
    batches = []  # per batch: its Adjacency, the pages its takes want, the pages read

    take, views, logging = csr.Adjacency.take, csr.Adjacency.views, []

    def spy_take(adj, at=None):
        if not batches or batches[-1][0] is not adj:
            batches.append((adj, set(), []))
        if logging:  # the rows the edge log logs are not picks
            return take(adj, at)
        at = np.arange(adj.offsets[-1]) if at is None else np.asarray(at)
        row = np.searchsorted(adj.offsets, at, side="right") - 1
        k, first, end = adj.pages[row].T
        stored = first < end  # an edge-log row has no colIdx page span
        for j, r, p in zip(k[stored].tolist(), row[stored].tolist(), at[stored].tolist()):
            local = int(adj.ids[r]) - g.partitions[j].lo
            batches[-1][1].add((j, int(rowptr[j][local] + p - adj.offsets[r]) // cap))
        return take(adj, at)

    def spy_views(adj, rows):
        logging.append(True)
        try:
            return views(adj, rows)
        finally:
            logging.pop()

    monkeypatch.setattr(csr.Adjacency, "take", spy_take)
    monkeypatch.setattr(csr.Adjacency, "views", spy_views)
    for part in g.partitions:
        def read_page(p, part=part, read=part.colidx.read_page):
            batches[-1][2].append((part.k, p))
            return read(p)

        monkeypatch.setattr(part.colidx, "read_page", read_page)
    cfg = EngineConfig(memory_budget=1 << 20, page_size=256, max_supersteps=12, edge_log=True)
    res = run_app(g, RandomWalk(steps=10, stride=3, seed=4), cfg, str(tmp_path / "run"))

    assert sum(st.edgelog_logged for st in res.stats) > 0 and sum(st.edgelog_served for st in res.stats) > 0
    assert sum(len(reads) for _, _, reads in batches) > 0
    spanned = 0
    for adj, wanted, reads in batches:
        assert len(reads) == len(set(reads))  # no page read twice in a batch
        assert set(reads) <= wanted  # only pages holding picked entries
        spanned += len({(k, p) for k, a, b in adj.pages.tolist() for p in range(a, b)})
    assert sum(len(reads) for _, _, reads in batches) < spanned  # rows are not read whole

