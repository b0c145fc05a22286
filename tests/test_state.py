import os

import numpy as np

from loggraph.pager import PageStore, StoreRegistry
from loggraph.state import VertexStateStore

DT = np.dtype([("a", "<u4"), ("b", "<f8")])


def make_store(tmp_path, n=50, bounds=None, aux=None, caps=None):
    reg = StoreRegistry(128)
    init = np.zeros(n, DT)
    init["a"] = np.arange(n)
    bounds = bounds or [0, n // 2, n]
    return VertexStateStore.create(reg, str(tmp_path / "st"), bounds, init, aux, caps), reg


def test_create_and_read_all(tmp_path):
    st, _ = make_store(tmp_path)
    back = st.read_all()
    assert back["a"].tolist() == list(range(50))


def test_checkout_mutate_commit(tmp_path):
    st, _ = make_store(tmp_path)
    ids = np.array([3, 7, 30])
    sl = st.checkout(ids)
    sl.rows[1]["b"] = 2.5
    sl.commit()
    back = st.read_all()
    assert back["b"][7] == 2.5
    assert back["b"][3] == 0.0
    assert back["a"].tolist() == list(range(50))  # untouched slots survive


def test_commit_without_changes_writes_nothing(tmp_path):
    st, reg = make_store(tmp_path)
    before = reg.totals()["state"][1]
    st.checkout(np.array([1, 2, 3])).commit()
    assert reg.totals()["state"][1] == before


def test_checkout_pages_read_once_per_call(tmp_path):
    st, reg = make_store(tmp_path)
    cap = st.cap
    before = reg.totals()["state"][0]
    st.checkout(np.arange(min(cap, 25)))  # all in the first page of interval 0
    assert reg.totals()["state"][0] - before == 1


AUX_DT = np.dtype([("src", "<u4"), ("val", "<u4")])


def table(sl, i):
    return sl.entries[sl.offsets[i] : sl.offsets[i + 1]]


def spy_aux_io(monkeypatch):
    """(interval, page, "read" | "write") per aux page access, in order."""
    seen = []
    read, write = PageStore.read_page, PageStore.write_page

    def aux_interval(store):
        name = os.path.basename(store.path)
        return int(name[3:].split(".")[0]) if name.startswith("aux") else None

    def read_spy(store, pid):
        if aux_interval(store) is not None:
            seen.append((aux_interval(store), pid, "read"))
        return read(store, pid)

    def write_spy(store, pid, data):
        if aux_interval(store) is not None:
            seen.append((aux_interval(store), pid, "write"))
        return write(store, pid, data)

    monkeypatch.setattr(PageStore, "read_page", read_spy)
    monkeypatch.setattr(PageStore, "write_page", write_spy)
    return seen


def test_aux_tables_roundtrip(tmp_path):
    caps = np.full(50, 3)
    st, _ = make_store(tmp_path, aux=AUX_DT, caps=caps)
    ids = np.array([4, 26])
    sl = st.checkout_aux(ids)
    assert len(table(sl, 0)) == 3
    table(sl, 0)[0] = (9, 77)
    table(sl, 1)[2] = (1, 5)
    sl.commit()
    back = st.checkout_aux(ids)
    assert tuple(table(back, 0)[0]) == (9, 77)
    assert tuple(table(back, 1)[2]) == (1, 5)
    other = st.checkout_aux(np.array([5]))
    assert table(other, 0)["val"].tolist() == [0, 0, 0]


def test_aux_spans_cross_pages(tmp_path):
    caps = np.full(50, 9)  # 72 bytes per vertex, region is 112: guaranteed spans
    st, _ = make_store(tmp_path, aux=AUX_DT, caps=caps)
    sl = st.checkout_aux(np.arange(50))
    for i in range(50):
        table(sl, i)["val"][:] = i
    sl.commit()
    back = st.checkout_aux(np.arange(50))
    for i in range(50):
        assert (table(back, i)["val"] == i).all()


def test_aux_checkout_reads_each_covering_page_once_in_order(tmp_path, monkeypatch):
    # 72-byte tables in 112-byte regions: vertex j of an interval covers
    # stream pages 72j // 112 to (72j + 71) // 112
    st, _ = make_store(tmp_path, aux=AUX_DT, caps=np.full(50, 9))
    seen = spy_aux_io(monkeypatch)
    ids = np.array([1, 2, 9, 25, 26, 40])
    st.checkout_aux(ids)
    want = set()
    for v in ids.tolist():
        k, j = divmod(v, 25)
        want |= {(k, p) for p in range(72 * j // 112, (72 * j + 71) // 112 + 1)}
    assert seen == [(k, p, "read") for k, p in sorted(want)]


def test_aux_zero_capacity_rows_read_nothing(tmp_path, monkeypatch):
    caps = np.tile([0, 2], 25)
    st, _ = make_store(tmp_path, aux=AUX_DT, caps=caps)
    seen = spy_aux_io(monkeypatch)
    sl = st.checkout_aux(np.array([0, 2, 30]))
    assert seen == []
    assert sl.offsets.tolist() == [0, 0, 0, 0]
    sl = st.checkout_aux(np.array([0, 1, 2]))
    assert seen == [(0, 0, "read")]
    assert sl.offsets.tolist() == [0, 0, 2, 2]


def test_aux_changed_row_dirties_every_page_of_its_span(tmp_path, monkeypatch):
    # vertex 1's table is stream bytes [72, 144): its first entry lies in
    # page 0, but its span covers pages 0 and 1
    st, _ = make_store(tmp_path, aux=AUX_DT, caps=np.full(50, 9))
    seen = spy_aux_io(monkeypatch)
    sl = st.checkout_aux(np.array([1, 4]))
    table(sl, 0)[0] = (3, 3)
    seen.clear()
    sl.commit()
    assert seen == [(0, 0, "write"), (0, 1, "write")]


def test_aux_unchanged_batch_writes_nothing(tmp_path, monkeypatch):
    st, _ = make_store(tmp_path, aux=AUX_DT, caps=np.full(50, 9))
    sl = st.checkout_aux(np.arange(50))
    table(sl, 7)[1] = table(sl, 7)[1]  # rewritten with the same bytes
    seen = spy_aux_io(monkeypatch)
    sl.commit()
    assert seen == []
