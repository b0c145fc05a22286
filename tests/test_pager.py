import os

import numpy as np
import pytest

from loggraph.errors import AddressError, ContractViolation, CorruptPageError
from loggraph.pager import PAGE_COUNT, PAGE_HEADER, PageStore, StoreRegistry, pack_page, pack_pages, page_capacity, record_counts


@pytest.fixture
def store(tmp_path):
    store = PageStore(str(tmp_path / "s.pages"), page_size=256)
    yield store
    store.close()


def test_read_empty_store_is_addressing_error(store):
    with pytest.raises(AddressError):
        store.read_page(0)


def test_append_read_roundtrip(store):
    payload = bytes(range(200))
    data = pack_page(256, payload, count=5)
    pid = store.append_page(data)
    assert pid == 0
    back = store.read_page(0)
    assert back == data


def test_sequential_reads_count(store):
    store.append_page(pack_page(256, b"x", 1))
    for _ in range(3):
        store.read_page(0)
    assert store.pages_read == 3


def test_append_ordinals_and_file_length(store):
    assert store.append_page(bytes(256)) == 0
    assert store.append_page(bytes(256)) == 1
    assert os.path.getsize(store.path) == 2 * 256
    assert store.pages_written == 2


def test_wrong_size_append_rejected(store):
    with pytest.raises(ContractViolation):
        store.append_page(bytes(100))


def test_read_your_writes_many(store):
    rng = np.random.default_rng(0)
    images = []
    for i in range(10):
        img = pack_page(256, rng.bytes(240), count=i)
        images.append(img)
        assert store.append_page(img) == i
    for i, img in enumerate(images):
        assert store.read_page(i) == img
    assert store.num_pages == store.pages_written == store.pages_read == 10
    assert os.path.getsize(store.path) == 10 * 256


def test_page_capacity_derives_from_page_size():
    assert page_capacity(16384, 16) == (16384 - PAGE_HEADER) // 16
    assert page_capacity(256, 16) == 15
    assert page_capacity(256, 8) == 30


def test_write_page_in_place(store):
    store.append_page(pack_page(256, b"old", 1))
    store.write_page(0, pack_page(256, b"new", 1))
    assert store.read_page(0)[PAGE_HEADER : PAGE_HEADER + 3] == b"new"
    assert store.pages_written == 2


def test_registry_totals_and_retirement(tmp_path):
    reg = StoreRegistry(page_size=128)
    a = reg.open(str(tmp_path / "a"), "csr")
    b = reg.open(str(tmp_path / "b"), "log")
    a.append_page(bytes(128))
    a.read_page(0)
    b.append_page(bytes(128))
    assert reg.totals()["csr"] == (1, 1)
    assert reg.totals()["log"] == (0, 1)
    reg.drop(b, "log", unlink=True)
    assert reg.totals()["log"] == (0, 1)  # retired traffic is kept
    assert not os.path.exists(str(tmp_path / "b"))


def test_page_record_region_parsing(store):
    store.append_page(pack_page(256, b"\x01\x02\x03\x04" * 3, count=3))
    assert store.read_records([0], "<u4").tobytes() == b"\x01\x02\x03\x04" * 3


def test_read_pages_returns_images_in_the_given_order(store):
    images = [pack_page(256, bytes([i]) * 10, count=i) for i in range(3)]
    for img in images:
        store.append_page(img)
    got = store.read_pages([2, 0, 2])
    assert [row.tobytes() for row in got] == [images[2], images[0], images[2]]
    assert store.pages_read == 3
    assert store.read_pages([]).shape == (0, 256)


@pytest.mark.parametrize("records", [0, 1, 14, 15, 16, 45, 47])
def test_pack_pages_matches_one_pack_page_per_page(store, records):
    # 16-byte records, 15 to a 256-byte page: empty, partial, exactly full
    # and several pages with and without a partial last one
    raw = np.random.default_rng(records).bytes(16 * records)
    want = [pack_page(256, raw[a * 16 : min(a + 15, records) * 16], min(15, records - a)) for a in range(0, records, 15)]
    pages = pack_pages(raw, 16, 256)
    assert pages.shape == (len(want), 256) and [p.tobytes() for p in pages] == want
    assert store.append_records(raw, 16) == list(range(len(want)))
    assert store.read_pages(range(len(want))).tobytes() == b"".join(want)


def test_pack_pages_counts_past_one_byte():
    pages = pack_pages(bytes(2 * 700), 2, 1040)  # 512 two-byte records a page
    assert record_counts(pages).tolist() == [512, 188]


def vector(store, n):
    """Store the 8-byte records 0..n-1, 30 to a 256-byte page."""
    store.append_records(np.arange(n, dtype="<u8").tobytes(), 8)


def spans(store, starts, ends):
    """read_spans of [starts[i], ends[i]) over 8-byte records: the page ids
    and each span's entries."""
    pages, images, slots, at = store.read_spans(np.array(starts), np.array(ends), "<u8")
    assert [row.tobytes() for row in images] == [store.read_page(p) for p in pages.tolist()]
    return pages.tolist(), [slots[a : a + e - s].tolist() for a, s, e in zip(at, starts, ends)]


def test_read_spans_serves_overlapping_spans(store):
    # the rowPtr shape: [v, v + 2) for ascending v; [29, 31) and [59, 61)
    # end on the page after the one they start on
    vector(store, 100)
    rows = [3, 4, 29, 30, 59]
    assert spans(store, rows, [v + 2 for v in rows]) == ([0, 1, 2], [[v, v + 1] for v in rows])


def test_read_spans_serves_spans_sharing_a_page_and_spans_crossing_pages(store):
    vector(store, 100)
    starts, ends = [0, 5, 12, 25, 95, 97], [2, 9, 13, 95, 95, 100]
    pages, got = spans(store, starts, ends)
    assert pages == [0, 1, 2, 3]
    assert got == [list(range(a, b)) for a, b in zip(starts, ends)]


def test_read_spans_reads_each_covering_page_once_in_ascending_order(store, monkeypatch):
    vector(store, 200)
    seen = []
    read = PageStore.read_page
    monkeypatch.setattr(PageStore, "read_page", lambda s, p: seen.append(p) or read(s, p))
    pages, _, slots, _ = store.read_spans(np.array([0, 1, 20, 100, 170, 175]), np.array([2, 2, 95, 100, 175, 200]), "<u8")
    assert seen == pages.tolist() == [0, 1, 2, 3, 5, 6] and store.pages_read == 6
    slots[0] = 7  # a copy: the caller may patch it and write pages back
    assert store.read_spans(np.array([50]), np.array([50]), "<u8")[0].tolist() == []
    assert store.pages_read == 6  # an empty span reads nothing


def test_read_spans_rejects_a_span_past_the_last_page_before_reading(store):
    vector(store, 100)  # pages 0-3
    for end in (121, 10**15):
        with pytest.raises(AddressError, match=f"entry {end - 1} wanted from a store of 4 pages"):
            store.read_spans(np.array([0, 5]), np.array([2, end]), "<u8")
    assert store.pages_read == 0


def test_read_spans_rejects_a_page_whose_count_misses_a_wanted_entry(store):
    vector(store, 100)
    page = bytearray(store.read_page(1))  # entries 30-59
    PAGE_COUNT.pack_into(page, 0, 5)
    store.write_page(1, bytes(page))
    assert spans(store, [31], [35])[1] == [[31, 32, 33, 34]]  # slots 1-4 are still counted
    with pytest.raises(CorruptPageError, match="page 1 holds 5 entries, entry 9 wanted"):
        store.read_spans(np.array([2, 31, 36]), np.array([4, 34, 40]), "<u8")
