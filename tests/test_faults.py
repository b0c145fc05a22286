"""Fault injection on the read path: a missing, truncated or corrupt file
raises a typed error and is never silently misread."""

import json
import os

import numpy as np
import pytest

from loggraph import errors
from loggraph.apps import Bfs, Community, PageRank
from loggraph.csr import GraphDir
from loggraph.engine import EngineConfig, run_app
from loggraph.errors import CorruptPageError
from loggraph.multilog import MultiLog, RecordFormat, read_log_records
from loggraph.pager import PAGE_COUNT, PageStore, StoreRegistry
from loggraph.state import VertexStateStore

from util import build_graph, ring_graph, spill_tails

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
    """50 states in intervals of 25, 9 to a 128-byte page: interval 0 holds
    pages of 9, 9 and 7 states."""
    init = np.zeros(50, STATE_DT)
    init["a"] = np.arange(50)
    return VertexStateStore.create(StoreRegistry(128), str(tmp_path / "st"), [0, 25, 50], init)


def test_open_rejects_a_length_that_is_not_a_page_multiple(tmp_path):
    path = str(tmp_path / "s.pages")
    with open(path, "wb") as f:
        f.write(bytes(256 + 100))
    with pytest.raises(CorruptPageError, match="not a page multiple"):
        PageStore(path, 256, create=False)


@pytest.mark.parametrize("damage", ["removed-colidx", "extra-interval"])
def test_opening_a_graph_with_a_missing_part_file_creates_nothing(tmp_path, damage):
    src, dst = ring_graph(6)
    g = build_graph(tmp_path, src, dst, 6, page_size=256)
    g.close()
    if damage == "removed-colidx":
        path = os.path.join(g.path, "part0.colidx")
        os.remove(path)
    else:
        # meta.json names one interval past the part files
        k = g.meta.num_intervals
        g.meta.interval_bounds.append(6)
        g.meta.interval_indeg.append(0)
        with open(os.path.join(g.path, "meta.json"), "w") as f:
            json.dump(g.meta.to_dict(), f)
        path = os.path.join(g.path, f"part{k}.rowptr")
    before = sorted(os.listdir(g.path))
    with pytest.raises(FileNotFoundError, match=os.path.basename(path)) as raised:
        GraphDir(g.path)
    assert isinstance(raised.value, errors.MissingStoreError)
    assert sorted(os.listdir(g.path)) == before


def test_a_count_overflowing_a_log_page_is_corrupt(tmp_path):
    handle = sealed_log(tmp_path, 40)
    set_count(handle.store, handle.ordinals[1], 0xFFFF)
    with pytest.raises(CorruptPageError, match="overflows"):
        read_log_records(handle, FMT16)


@pytest.mark.parametrize("vector", ["rowptr", "colidx"])
def test_a_count_overflowing_a_csr_page_is_corrupt(tmp_path, vector):
    src, dst = ring_graph(100)
    g = build_graph(tmp_path, src, dst, 100, page_size=256)
    set_count(getattr(g.partitions[0], vector), 0, 0xFFFF)
    with pytest.raises(CorruptPageError, match="overflows"):
        g.all_edges()


def test_a_count_overflowing_a_state_page_is_corrupt(tmp_path):
    st = state_store(tmp_path)
    set_count(st.stores[1], 2, 10)  # capacity 9
    with pytest.raises(CorruptPageError, match="overflows"):
        st.read_all()


def test_a_nonzero_count_with_an_empty_chain_is_corrupt(tmp_path):
    handle = sealed_log(tmp_path, 40)
    handle.ordinals = []
    with pytest.raises(CorruptPageError, match="log empty"):
        read_log_records(handle, FMT16)


def test_a_short_state_page_fails_a_whole_read(tmp_path):
    st = state_store(tmp_path)
    set_count(st.stores[0], 1, 4)  # states 9-17 on page 1; 13-17 lost
    with pytest.raises(CorruptPageError):
        st.read_all()


def test_a_short_state_page_fails_a_checkout_past_its_count(tmp_path):
    st = state_store(tmp_path)
    set_count(st.stores[0], 1, 4)
    assert st.checkout(np.array([12, 30])).rows["a"].tolist() == [12, 30]  # slot 3 is still counted
    with pytest.raises(CorruptPageError):
        st.checkout(np.array([2, 13]))


def test_a_short_aux_page_fails_a_checkout_of_a_table_on_it(tmp_path):
    # tables of 3 8-byte entries, 14 entries to a 128-byte page: vertex 5's
    # table is entries 15-17 (slots 1-3 of page 1), vertex 6's 18-20
    init = np.zeros(50, STATE_DT)
    aux_dt = np.dtype([("src", "<u4"), ("val", "<u4")])
    st = VertexStateStore.create(StoreRegistry(128), str(tmp_path / "st"), [0, 25, 50], init, aux_dt, np.full(50, 3))
    set_count(st.aux_stores[0], 1, 4)
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
