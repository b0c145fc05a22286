import os

import numpy as np
import pytest

from loggraph.errors import AddressError, ContractViolation
from loggraph.pager import PAGE_HEADER, PageStore, StoreRegistry, pack_page, pack_pages, page_capacity, record_counts


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
