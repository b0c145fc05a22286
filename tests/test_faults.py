"""Fault injection on the read path: a missing, truncated or corrupt file
raises a typed error and is never silently misread, and no resident page
hides a change to the file under it."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from loggraph import csr, errors
from loggraph.apps import Bfs, Community, PageRank
from loggraph.csr import GraphDir
from loggraph.engine import Engine, EngineConfig, VertexProgram, run_app
from loggraph.errors import CorruptPageError
from loggraph.multilog import MultiLog, RecordFormat, read_log_records
from loggraph.pager import PAGE_COUNT, PageStore, StoreRegistry
from loggraph.state import VertexStateStore

from util import build_graph, op_rows, ring_graph, spill_tails, stored_rows

FMT16 = RecordFormat([("val", "<u8")])
STATE_DT = np.dtype([("a", "<u4"), ("b", "<f8")])


def set_count(store, page_id, count):
    """Overwrite the header record count of one page."""
    page = bytearray(store.read_page(page_id))
    PAGE_COUNT.pack_into(page, 0, count)
    store.write_page(page_id, bytes(page))


def sealed_log(tmp_path, n):
    """One sealed interval log of n records in 256-byte pages, all on disk."""
    mlog = MultiLog([0, 4], FMT16, StoreRegistry(256), str(tmp_path / "logs"), 64 * 256)
    for i in range(n):
        mlog.send(i % 4, 0, i)
    handle = mlog.seal().handles[0]
    spill_tails(mlog)
    return handle


def state_store(tmp_path):
    """50 states, 9 to a 128-byte page: pages of 9, 9, 9, 9, 9 and 5
    states."""
    init = np.zeros(50, STATE_DT)
    init["a"] = np.arange(50)
    return VertexStateStore.create(StoreRegistry(128), str(tmp_path / "st"), init)


def test_open_rejects_a_length_that_is_not_a_page_multiple(tmp_path):
    path = str(tmp_path / "s.pages")
    with open(path, "wb") as f:
        f.write(bytes(256 + 100))
    with pytest.raises(CorruptPageError, match="not a page multiple"):
        PageStore(path, 256, create=False)


@pytest.mark.parametrize("damage", ["removed-colidx", "extra-interval", "removed-indeg"])
def test_opening_a_graph_with_a_missing_part_file_creates_nothing(tmp_path, damage):
    # indeg.bin is required too: no code counts the in-degrees from the CSR
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    g.close()
    if damage.startswith("removed"):
        path = os.path.join(g.path, "part0.colidx" if damage == "removed-colidx" else "indeg.bin")
        os.remove(path)
    else:
        # meta.json names one interval past the part files
        k = g.meta.num_intervals
        g.meta.interval_bounds.append(6)
        with open(os.path.join(g.path, "meta.json"), "w") as f:
            json.dump(g.meta.to_dict(), f)
        path = os.path.join(g.path, f"part{k}.rowptr")
    before = {name: Path(g.path, name).read_bytes() for name in os.listdir(g.path)}
    with pytest.raises(FileNotFoundError, match=os.path.basename(path)) as raised:
        GraphDir(g.path)
    assert isinstance(raised.value, errors.MissingStoreError)
    assert {name: Path(g.path, name).read_bytes() for name in os.listdir(g.path)} == before


@pytest.mark.parametrize("damage", ["removed-colidx", "long-rowptr"])
def test_a_graph_that_fails_to_open_leaves_no_store_open(tmp_path, damage):
    # the stores of the intervals before the damaged one, and the damaged
    # interval's rowPtr, are dropped from the caller's registry too
    g = build_graph(tmp_path, *ring_graph(50), 50, page_size=32)
    g.close()
    assert g.meta.num_intervals > 3
    if damage == "removed-colidx":
        os.remove(os.path.join(g.path, "part2.colidx"))
    else:
        with open(os.path.join(g.path, "part2.rowptr"), "ab") as f:
            f.write(bytes(32))
    registry = StoreRegistry(32)
    with pytest.raises(errors.MissingStoreError if damage == "removed-colidx" else CorruptPageError):
        GraphDir(g.path, registry)
    assert registry._stores["csr"] == []


def test_a_count_overflowing_a_log_page_is_corrupt(tmp_path):
    handle = sealed_log(tmp_path, 40)
    set_count(handle.store, 1, 0xFFFF)
    with pytest.raises(CorruptPageError, match="overflows"):
        read_log_records(handle, FMT16)


def test_log_page_counts_that_still_sum_to_the_log_fail_its_load(tmp_path):
    # 20 records, 15 to a page: one moved from page 0's count to page 1's
    # keeps the total, but the load would drop record 14 and hand vertex 0
    # the zeroed slot past page 1's last record
    handle = sealed_log(tmp_path, 20)
    set_count(handle.store, 0, 14)
    set_count(handle.store, 1, 6)
    with pytest.raises(CorruptPageError, match="page 0 holds 14 entries, entry 14 wanted"):
        read_log_records(handle, FMT16)


def test_a_count_overflowing_a_resident_tail_page_is_corrupt(tmp_path):
    # the tail is parsed by the parser that reads the pages on disk
    mlog = MultiLog([0, 4], FMT16, StoreRegistry(256), str(tmp_path / "logs"), 64 * 256)
    for i in range(40):
        mlog.send(i % 4, 0, i)
    handle = mlog.seal().handles[0]
    PAGE_COUNT.pack_into(handle.tail[1], 0, 0xFFFF)
    with pytest.raises(CorruptPageError, match="interval 0 tail: the record count of page 1 overflows it"):
        read_log_records(handle, FMT16)
    mlog.close()


@pytest.mark.parametrize("vector", ["rowptr", "colidx"])
def test_a_count_overflowing_a_csr_page_is_corrupt(tmp_path, vector):
    src, dst = ring_graph(100)
    g = build_graph(tmp_path, src, dst, 100, page_size=256)
    set_count(getattr(g.partitions[0], vector), 0, 0xFFFF)
    with pytest.raises(CorruptPageError, match="overflows"):
        g.all_edges()


def test_a_count_overflowing_a_state_page_is_corrupt(tmp_path):
    st = state_store(tmp_path)
    set_count(st.store, 2, 10)  # capacity 9
    with pytest.raises(CorruptPageError, match="overflows"):
        st.read_all()


def test_a_nonzero_count_with_an_empty_chain_is_corrupt(tmp_path):
    handle = sealed_log(tmp_path, 40)
    handle.store = None
    with pytest.raises(CorruptPageError, match="manifest count 40 != 0 tail records and no log file"):
        read_log_records(handle, FMT16)


def test_a_short_state_page_fails_a_whole_read(tmp_path):
    st = state_store(tmp_path)
    set_count(st.store, 1, 4)  # states 9-17 on page 1; 13-17 lost
    with pytest.raises(CorruptPageError):
        st.read_all()


def test_page_counts_that_still_sum_to_the_interval_fail_a_whole_read(tmp_path):
    # one state moved from page 0 to page 5: the total is still 50, but
    # states 8-49 would shift down one slot
    st = state_store(tmp_path)
    set_count(st.store, 0, 8)
    set_count(st.store, 5, 6)
    with pytest.raises(CorruptPageError, match="page 0 holds 8 entries, entry 8 wanted"):
        st.read_all()


@pytest.mark.parametrize(
    "damage, named",
    [("last-count", "page 5 overflows the 50-record vector"), ("extra-page", "7 pages for 50 records, not 6")],
    ids=["last-count", "extra-page"],
)
def test_a_state_file_holding_more_than_its_interval_fails_a_whole_read(tmp_path, damage, named):
    st = state_store(tmp_path)
    if damage == "last-count":
        set_count(st.store, 5, 6)  # capacity 9, so only the vector's length rules it out
    else:
        st.store.append_page(bytes(128))
    with pytest.raises(CorruptPageError, match=named):
        st.read_all()


def test_a_short_state_page_fails_a_checkout_past_its_count(tmp_path):
    st = state_store(tmp_path)
    set_count(st.store, 1, 4)
    with st.store.registry.scope():
        assert st.checkout(np.array([12, 30])).rows["a"].tolist() == [12, 30]  # slot 3 is still counted
        with pytest.raises(CorruptPageError):
            st.checkout(np.array([2, 13]))


def test_a_short_aux_page_fails_a_checkout_of_a_table_on_it(tmp_path):
    # tables of 3 8-byte entries, 14 entries to a 128-byte page: vertex 5's
    # table is entries 15-17 (slots 1-3 of page 1), vertex 6's 18-20
    init = np.zeros(50, STATE_DT)
    aux_dt = np.dtype([("src", "<u4"), ("val", "<u4")])
    st = VertexStateStore.create(StoreRegistry(128), str(tmp_path / "st"), init, aux_dt, np.full(50, 3))
    set_count(st.aux_store, 1, 4)
    with st.aux_store.registry.scope():
        assert len(st.checkout_aux(np.array([5, 30])).entries) == 6
        with pytest.raises(CorruptPageError, match="page 1 holds 4 entries, entry 6 wanted"):
            st.checkout_aux(np.array([6]))


@pytest.mark.parametrize("change", [-4, 4, 2], ids=["one-entry-short", "one-entry-long", "half-entry-long"])
def test_an_indeg_file_of_the_wrong_length_is_corrupt(tmp_path, change):
    g = build_graph(tmp_path, *ring_graph(50), 50, page_size=256)
    path = os.path.join(g.path, "indeg.bin")
    if change < 0:
        os.truncate(path, os.path.getsize(path) + change)
    else:
        with open(path, "ab") as f:
            f.write(bytes(change))
    with pytest.raises(CorruptPageError, match="in-degrees"):
        g.in_degrees()
    for i, app in enumerate((PageRank(), Bfs(0), Community())):
        with pytest.raises(CorruptPageError, match="in-degrees"):
            run_app(g, app, EngineConfig(page_size=256), str(tmp_path / f"run{i}"))


def test_a_page_corrupted_between_two_runs_is_caught_on_its_first_read(tmp_path):
    # the first run holds every page resident; its end releases them, so
    # the second run reads the damaged page from storage
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    config = EngineConfig(memory_budget=1 << 20, page_size=256, max_supersteps=3)
    first = run_app(g, PageRank(), config, str(tmp_path / "run1"))
    assert sum(first.stats[-1].hits.values()) > 0
    set_count(g.partitions[0].rowptr, 0, 0)
    with pytest.raises(CorruptPageError, match="holds 0 entries"):
        run_app(g, PageRank(), config, str(tmp_path / "run2"))
    assert (g.registry.resident, g.registry.budget) == (0, 0)


def test_rows_fetched_after_a_merge_are_the_merged_ones(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    g.registry.budget = 1 << 20
    assert stored_rows(g, np.arange(6))[0] == [1, 5]
    old = (g.partitions[0].rowptr, g.partitions[0].colidx)
    assert min(store.resident_bytes for store in old) > 0
    csr.merge_structural_updates(g, 0, op_rows(("del_edge", 0, 1), ("add_edge", 0, 3)))
    assert [store.resident_bytes for store in old] == [0, 0]
    assert stored_rows(g, np.arange(6))[0] == [3, 5]
    assert g.registry.resident == sum(store.resident_bytes for store in g.registry._stores["csr"])


class RaiseAtOne(VertexProgram):
    """Every vertex sets its state to 7 and messages itself at superstep 0;
    the program raises at superstep 1."""

    name = "raise-at-one"
    payload_fields = [("x", "<u4")]
    state_dtype = np.dtype([("v", "<u4")])

    def init_all(self, n, indeg):
        return np.zeros(n, self.state_dtype), np.ones(n, bool), []

    def process_batch(self, ctx, batch):
        if ctx.superstep == 1:
            raise RuntimeError("boom")
        batch.states["v"] = 7
        ctx.send_many(batch.ids, batch.ids, 0)


def test_a_program_that_raises_leaves_its_state_written_and_nothing_resident(tmp_path):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    config = EngineConfig(memory_budget=1 << 20, page_size=256)
    steps = []
    with pytest.raises(RuntimeError, match="boom"):
        Engine(g, RaiseAtOne(), config, str(tmp_path / "run")).run(on_superstep=lambda _eng, st: steps.append(st))
    assert (g.registry.resident, g.registry.budget) == (0, 0)
    # superstep 0's commits were held in memory; the run's end wrote them
    assert steps[0].writes["state"] == 0
    assert g.meta.num_intervals > 1  # one state vector across the intervals
    store = PageStore(str(tmp_path / "run" / "state" / "state.pages"), 256, create=False)
    assert store.read_vector(6, RaiseAtOne.state_dtype)["v"].tolist() == [7] * 6
    store.close()
