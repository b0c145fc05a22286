import os

import numpy as np

from loggraph.pager import PageStore, StoreRegistry, pack_pages, page_capacity
from loggraph.state import VertexStateStore

DT = np.dtype([("a", "<u4"), ("b", "<f8")])


def make_store(tmp_path, n=50, aux=None, caps=None):
    reg = StoreRegistry(128)
    init = np.zeros(n, DT)
    init["a"] = np.arange(n)
    return VertexStateStore.create(reg, str(tmp_path / "st"), init, aux, caps), reg


def test_create_and_read_all(tmp_path):
    st, _ = make_store(tmp_path)
    back = st.read_all()
    assert back["a"].tolist() == list(range(50))


def test_checkout_mutate_commit(tmp_path):
    st, reg = make_store(tmp_path)
    ids = np.array([3, 7, 30])
    with reg.scope():
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
    with reg.scope():
        st.checkout(np.array([1, 2, 3])).commit()
    assert reg.totals()["state"][1] == before


def test_checkout_pages_read_once_per_call(tmp_path):
    st, reg = make_store(tmp_path)
    cap = page_capacity(st.page_size, st.state_width)
    before = reg.totals()["state"][0]
    with reg.scope():
        st.checkout(np.arange(cap))  # all in the first page
    assert reg.totals()["state"][0] - before == 1


AUX_DT = np.dtype([("src", "<u4"), ("val", "<u4")])


def table(sl, i):
    return sl.entries[sl.offsets[i] : sl.offsets[i + 1]]


def spy_aux_io(monkeypatch):
    """(page, "read" | "write") per aux page access, in order."""
    seen = []
    read, write = PageStore.read_page, PageStore.write_page

    def is_aux(store):
        return os.path.basename(store.path) == "aux.pages"

    def read_spy(store, pid):
        if is_aux(store):
            seen.append((pid, "read"))
        return read(store, pid)

    def write_spy(store, pid, data):
        if is_aux(store):
            seen.append((pid, "write"))
        return write(store, pid, data)

    monkeypatch.setattr(PageStore, "read_page", read_spy)
    monkeypatch.setattr(PageStore, "write_page", write_spy)
    return seen


def test_aux_tables_roundtrip(tmp_path):
    caps = np.full(50, 3)
    st, reg = make_store(tmp_path, aux=AUX_DT, caps=caps)
    ids = np.array([4, 26])
    with reg.scope():
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
    st, reg = make_store(tmp_path, aux=AUX_DT, caps=caps)
    with reg.scope():
        sl = st.checkout_aux(np.arange(50))
        for i in range(50):
            table(sl, i)["val"][:] = i
        sl.commit()
        back = st.checkout_aux(np.arange(50))
    for i in range(50):
        assert (table(back, i)["val"] == i).all()
    # every page written back is laid out as the packer lays it out
    store = st.aux_store
    want = np.zeros(50 * 9, AUX_DT)
    want["val"] = np.repeat(np.arange(50), 9)
    assert b"".join(map(store.read_page, range(store.num_pages))) == pack_pages(want.tobytes(), 8, 128).tobytes()


def test_aux_checkout_reads_each_covering_page_once_in_order(tmp_path, monkeypatch):
    # 72-byte tables in 112-byte regions: vertex v covers pages 72v // 112
    # to (72v + 71) // 112, across interval bounds alike
    st, reg = make_store(tmp_path, aux=AUX_DT, caps=np.full(50, 9))
    seen = spy_aux_io(monkeypatch)
    ids = np.array([1, 2, 9, 25, 26, 40])
    with reg.scope():
        st.checkout_aux(ids)
    want = set()
    for v in ids.tolist():
        want |= set(range(72 * v // 112, (72 * v + 71) // 112 + 1))
    assert seen == [(p, "read") for p in sorted(want)]


def test_aux_zero_capacity_rows_read_nothing(tmp_path, monkeypatch):
    caps = np.tile([0, 2], 25)
    st, reg = make_store(tmp_path, aux=AUX_DT, caps=caps)
    seen = spy_aux_io(monkeypatch)
    with reg.scope():
        sl = st.checkout_aux(np.array([0, 2, 30]))
        assert seen == []
        assert sl.offsets.tolist() == [0, 0, 0, 0]
        sl = st.checkout_aux(np.array([0, 1, 2]))
        assert seen == [(0, "read")]
        assert sl.offsets.tolist() == [0, 0, 2, 2]


def test_aux_commit_writes_only_the_pages_of_changed_entries(tmp_path, monkeypatch):
    # vertex 1's table is bytes [72, 144) of the aux vector, pages 0 and 1,
    # and its first entry lies in page 0; vertex 2's 60-entry table, 14
    # entries to a 128-byte page, is entries 18 to 77, pages 1 to 5
    st, reg = make_store(tmp_path, aux=AUX_DT, caps=np.array([9, 9, 60] + [1] * 47))
    seen = spy_aux_io(monkeypatch)
    with reg.scope():
        sl = st.checkout_aux(np.array([1, 2]))
        assert seen == [(p, "read") for p in range(6)]
        table(sl, 0)[0] = (3, 3)
        seen.clear()
        sl.commit()
        assert seen == [(0, "write")]
        sl = st.checkout_aux(np.array([2]))
        table(sl, 0)[30] = (4, 4)  # entry 48, page 3
        seen.clear()
        sl.commit()
        assert seen == [(3, "write")]
        assert tuple(table(st.checkout_aux(np.array([2])), 0)[30]) == (4, 4)


def test_aux_unchanged_batch_writes_nothing(tmp_path, monkeypatch):
    st, reg = make_store(tmp_path, aux=AUX_DT, caps=np.full(50, 9))
    with reg.scope():
        sl = st.checkout_aux(np.arange(50))
        table(sl, 7)[1] = table(sl, 7)[1]  # rewritten with the same bytes
        seen = spy_aux_io(monkeypatch)
        sl.commit()
        assert seen == []
