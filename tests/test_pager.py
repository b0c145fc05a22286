import os
import tracemalloc

import numpy as np
import pytest

from loggraph.errors import AddressError, ContractViolation, CorruptPageError
from loggraph.pager import (
    PAGE_COUNT,
    PAGE_HEADER,
    PageStore,
    StoreRegistry,
    member,
    pack_pages,
    page_capacity,
    page_records,
    ranges,
    sorted_unique,
)

from util import page_image


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
    data = page_image(256, payload, count=5)
    store.append_page(data)
    assert store.num_pages == 1
    back = store.read_page(0)
    assert back == data


def test_sequential_reads_count(store):
    store.append_page(page_image(256, b"x", 1))
    for _ in range(3):
        store.read_page(0)
    assert store.pages_read == 3


def test_append_ordinals_and_file_length(store):
    for n in (1, 2):
        store.append_page(bytes(256))
        assert store.num_pages == n
    assert os.path.getsize(store.path) == 2 * 256
    assert store.pages_written == 2


def test_wrong_size_append_rejected(store):
    with pytest.raises(ContractViolation):
        store.append_page(bytes(100))


def test_read_your_writes_many(store):
    rng = np.random.default_rng(0)
    images = []
    for i in range(10):
        img = page_image(256, rng.bytes(240), count=i)
        images.append(img)
        store.append_page(img)
        assert store.num_pages == i + 1
    for i, img in enumerate(images):
        assert store.read_page(i) == img
    assert store.num_pages == store.pages_written == store.pages_read == 10
    assert os.path.getsize(store.path) == 10 * 256


def test_page_capacity_derives_from_page_size():
    assert page_capacity(16384, 16) == (16384 - PAGE_HEADER) // 16
    assert page_capacity(256, 16) == 15
    assert page_capacity(256, 8) == 30


def test_write_page_in_place(store):
    store.append_page(page_image(256, b"old", 1))
    store.write_page(0, page_image(256, b"new", 1))
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
    reg.drop(b, unlink=True)
    assert reg.totals()["log"] == (0, 1)  # retired traffic is kept
    assert not os.path.exists(str(tmp_path / "b"))


def test_a_store_keeps_its_class_and_drops_into_it(tmp_path):
    reg = StoreRegistry(page_size=128)
    stores = {klass: reg.open(str(tmp_path / klass), klass) for klass in StoreRegistry.CLASSES}
    assert {klass: s.klass for klass, s in stores.items()} == {klass: klass for klass in StoreRegistry.CLASSES}
    stores["state"].append_page(bytes(128))
    reg.drop(stores["state"])
    assert reg.totals() == {"csr": (0, 0), "log": (0, 0), "edgelog": (0, 0), "state": (0, 1)}
    reg.close_all()
    alone = PageStore(str(tmp_path / "alone"), 128)
    assert alone.klass is None
    alone.close()


def test_page_record_region_parsing(store):
    store.append_page(page_image(256, b"\x01\x02\x03\x04" * 3, count=3))
    assert store.read_vector(3, "<u4").tobytes() == b"\x01\x02\x03\x04" * 3


@pytest.mark.parametrize("records", [0, 1, 14, 15, 16, 45, 47])
def test_pack_pages_matches_one_pack_page_per_page(store, records):
    # 16-byte records, 15 to a 256-byte page: empty, partial, exactly full
    # and several pages with and without a partial last one
    raw = np.random.default_rng(records).bytes(16 * records)
    want = [page_image(256, raw[a * 16 : min(a + 15, records) * 16], min(15, records - a)) for a in range(0, records, 15)]
    pages = pack_pages(raw, 16, 256)
    assert pages.shape == (len(want), 256) and [p.tobytes() for p in pages] == want
    store.append_records(raw, 16)
    assert store.num_pages == len(want)
    assert [store.read_page(p) for p in range(len(want))] == want


def test_pack_pages_counts_past_one_byte():
    pages = pack_pages(bytes(2 * 700), 2, 1040)  # 512 two-byte records a page
    assert [PAGE_COUNT.unpack_from(page)[0] for page in pages] == [512, 188]


def test_page_records_counts_past_one_byte_in_any_page_buffer(tmp_path):
    # 300 four-byte records in one 4096-byte page: the count's high byte is 1
    pages = pack_pages(np.arange(300, dtype="<u4").tobytes(), 4, 4096)
    for given in (list(pages), [p.tobytes() for p in pages], [bytearray(p.tobytes()) for p in pages]):
        assert page_records(given, "<u4", "test").tolist() == list(range(300))
    # 1,500 records on two pages, read from storage and from the arena
    reg = StoreRegistry(page_size=4096)
    store = reg.open(str(tmp_path / "r.pages"), "log")
    store.append_records(np.arange(1500, dtype="<u4").tobytes(), 4)
    assert store.read_vector(1500, "<u4").tolist() == list(range(1500))
    reg.set_budget(2 * 4096)
    for _ in range(2):
        assert store.read_vector(1500, "<u4").tolist() == list(range(1500))
    assert (store.pages_read, store.pages_hit) == (4, 2)
    reg.drop(store, unlink=True)


def vector(store, n):
    """Store the 8-byte records 0..n-1, 30 to a 256-byte page."""
    store.append_records(np.arange(n, dtype="<u8").tobytes(), 8)


def spans(store, starts, ends):
    """read_spans of [starts[i], ends[i]) over 8-byte records: the page ids
    and each span's entries, gathered from the arena rows, which hold the
    pages' images."""
    with store.registry.scope():
        pages, counts, rows, at = store.read_spans(np.array(starts), np.array(ends), "<u8")
        images = [store.read_page(p) for p in pages.tolist()]
        assert counts.tolist() == [PAGE_COUNT.unpack_from(image)[0] for image in images]
        assert store.registry.arena[rows].tobytes() == b"".join(images)
        gather = store.registry.gather
        return pages.tolist(), [gather(rows, np.arange(a, a + e - s), "<u8").tolist() for a, s, e in zip(at, starts, ends)]


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
    with store.registry.scope():
        pages, _, rows, _ = store.read_spans(np.array([0, 1, 20, 100, 170, 175]), np.array([2, 2, 95, 100, 175, 200]), "<u8")
        assert seen == pages.tolist() == [0, 1, 2, 3, 5, 6] and store.pages_read == 6
        # each page in its own arena row, pinned until the scope exits
        assert len(set(rows.tolist())) == 6 and store.registry._pinned[rows].all()
        assert store.read_spans(np.array([50]), np.array([50]), "<u8")[0].tolist() == []
    assert store.pages_read == 6  # an empty span reads nothing


def test_read_spans_rejects_a_span_past_the_last_page_before_reading(store):
    vector(store, 100)  # pages 0-3
    for end in (121, 10**15):
        with store.registry.scope(), pytest.raises(AddressError, match=f"entry {end - 1} wanted from a store of 4 pages"):
            store.read_spans(np.array([0, 5]), np.array([2, end]), "<u8")
    assert store.pages_read == 0


def three_vectors(tmp_path):
    """A registry holding stores a, b and c, each the 8-byte records 0..99
    in pages 0-3, 30 to a 256-byte page."""
    reg = StoreRegistry(page_size=256)
    stores = [reg.open(str(tmp_path / f"{name}.pages"), "csr") for name in "abc"]
    for store in stores:
        vector(store, 100)
    return reg, stores


def test_read_spans_rejects_a_span_starting_before_its_store_before_reading(tmp_path):
    # b's span [10, 12) lies in a's pages, and a negative start lies before
    # every store: each names the store whose span it is, in its numbering
    reg, (a, b, _) = three_vectors(tmp_path)
    with reg.scope(), pytest.raises(AddressError, match=f"{b.path}: entry -110 wanted from a store of 4 pages"):
        reg.read_spans([a, b], [0, 1, 2], np.array([0, 10]), np.array([3, 12]), "<u8")
    with reg.scope(), pytest.raises(AddressError, match=f"{a.path}: entry -5 wanted from a store of 4 pages"):
        a.read_spans(np.array([-5]), np.array([3]), "<u8")
    assert a.pages_read == b.pages_read == 0
    reg.close_all()


def test_read_spans_fetches_only_from_the_stores_its_pages_lie_in(tmp_path, monkeypatch):
    # b has no span and c only an empty one: only a's and the last c's pages are read
    reg, (a, b, c) = three_vectors(tmp_path)
    fetched = []
    fetch = PageStore._fetch
    monkeypatch.setattr(PageStore, "_fetch", lambda s, ids: fetched.append(s) or fetch(s, ids))
    starts, ends = np.array([5, 40, 250, 400, 410]), np.array([9, 42, 250, 403, 410])
    with reg.scope():
        pages, _, rows, at = reg.read_spans([a, b, c, c], [0, 2, 2, 3, 5], starts, ends, "<u8")
        got = [reg.gather(rows, np.arange(i, i + e - s), "<u8").tolist() for i, s, e in zip(at, starts, ends)]
    assert fetched == [a, c] and pages.tolist() == [0, 1, 13]
    assert got == [[5, 6, 7, 8], [40, 41], [], [40, 41, 42], []]
    reg.close_all()


def test_read_spans_rejects_a_page_whose_count_misses_a_wanted_entry(store):
    vector(store, 100)
    page = bytearray(store.read_page(1))  # entries 30-59
    PAGE_COUNT.pack_into(page, 0, 5)
    store.write_page(1, bytes(page))
    assert spans(store, [31], [35])[1] == [[31, 32, 33, 34]]  # slots 1-4 are still counted
    with store.registry.scope(), pytest.raises(CorruptPageError, match="page 1 holds 5 entries, entry 9 wanted"):
        store.read_spans(np.array([2, 31, 36]), np.array([4, 34, 40]), "<u8")


@pytest.mark.parametrize("n", [0, 29, 30, 31, 100])
def test_read_vector_reads_a_whole_vector_once(store, n):
    vector(store, n)  # 30 entries to a page
    got = store.read_vector(n, "<u8")
    assert got.tolist() == list(range(n)) and store.pages_read == store.num_pages
    got[:1] = 7  # a copy
    with pytest.raises(CorruptPageError, match=f"{store.num_pages} pages for {n + 30} records"):
        store.read_vector(n + 30, "<u8")


def ledger(tmp_path, pages, budget_pages, page_size=128):
    """A registry whose ledger holds budget_pages pages, and a csr store of
    `pages` pages, appended before the budget was set: none is resident."""
    reg = StoreRegistry(page_size=page_size)
    store = reg.open(str(tmp_path / "s.pages"), "csr")
    images = [page_image(page_size, bytes([i + 1]) * 8, 8) for i in range(pages)]
    for image in images:
        store.append_page(image)
    reg.set_budget(budget_pages * page_size)
    return reg, store, images


def first_bytes(store, ids):
    """The spans of the first byte of each page ids, read as 1-byte records."""
    starts = np.asarray(ids, np.int64) * page_capacity(store.page_size, 1)
    return starts, starts + 1


def read(store, ids):
    """The images of the pages ids (distinct, ascending), read through
    read_spans in a scope of their own."""
    with store.registry.scope():
        _, _, rows, _ = store.read_spans(*first_bytes(store, ids), "u1")
        return [row.tobytes() for row in store.registry.arena[rows]]


def write(store, ids, images):
    """Overwrite the pages ids (distinct, ascending) with images as a state
    commit does: read them through read_spans in a scope, change their arena
    rows in place and write them back with write_back_rows."""
    reg = store.registry
    with reg.scope():
        pages, _, rows, _ = store.read_spans(*first_bytes(store, ids), "u1")
        reg.arena[rows] = np.frombuffer(b"".join(images), np.uint8).reshape(len(rows), -1)
        store.write_back_rows(pages, rows)


def test_the_ledger_is_empty_without_a_budget(tmp_path):
    reg, store, _ = ledger(tmp_path, 3, 0)
    read(store, [0, 1, 2])
    read(store, [0, 1, 2])
    assert (store.pages_read, store.pages_hit, reg.resident) == (6, 0, 0)


def test_a_read_page_stays_resident_while_the_budget_has_room(tmp_path):
    reg, store, images = ledger(tmp_path, 3, 2)
    read(store, [0, 2])  # 0 and 2 fill the ledger
    assert (store.pages_read, store.pages_hit, reg.resident) == (2, 0, 2 * 128)
    assert read(store, [0, 1, 2]) == images
    assert (store.pages_read, store.pages_hit) == (3, 2)
    assert reg.counts()["csr"] == (3, 3, 2) and reg.totals()["csr"] == (3, 3)


def test_an_appended_page_is_admitted_and_read_from_memory(tmp_path):
    reg = StoreRegistry(page_size=128)
    reg.set_budget(2 * 128)
    store = reg.open(str(tmp_path / "s.pages"), "log")
    images = [page_image(128, bytes([i + 1]) * 8, 8) for i in range(3)]
    for image in images:
        store.append(image)
    assert store.num_pages == 3
    assert read(store, [0, 1, 2]) == images
    assert (store.pages_written, store.pages_read, store.pages_hit) == (1, 1, 2)
    reg.drop(store, unlink=True)


def appended(tmp_path, pages, budget_pages, klass="state", page_size=128):
    """A registry whose ledger holds budget_pages pages, and a store of
    `pages` pages appended through PageStore.append."""
    reg = StoreRegistry(page_size=page_size)
    reg.set_budget(budget_pages * page_size)
    store = reg.open(str(tmp_path / "a.pages"), klass)
    images = [page_image(page_size, bytes([i + 1]) * 8, 8) for i in range(pages)]
    for image in images:
        store.append(image)
    assert store.num_pages == pages
    return reg, store, images


def test_an_append_with_room_is_neither_written_nor_counted(tmp_path):
    reg, store, images = appended(tmp_path, 2, 2)
    assert (store.num_pages, store.pages_written, reg.totals()["state"]) == (2, 0, (0, 0))
    assert os.path.getsize(store.path) == 0 and reg.resident == 2 * 128
    assert read(store, [0, 1]) == images
    assert (store.pages_read, store.pages_hit) == (0, 2)
    with pytest.raises(ContractViolation):
        store.append(bytes(100))
    reg.drop(store, unlink=True)


def test_an_append_with_no_room_is_written_at_once(tmp_path, monkeypatch):
    calls = []
    append_page = PageStore.append_page
    monkeypatch.setattr(PageStore, "append_page", lambda s, data: calls.append(len(data)) or append_page(s, data))
    reg, store, images = appended(tmp_path, 3, 1)  # page 0 fills the ledger
    assert calls == [128, 128] and store.pages_written == 2 and reg.resident == 128
    on_disk = PageStore(store.path, 128, create=False)
    assert [on_disk.read_page(p) for p in (1, 2)] == images[1:]
    on_disk.close()
    assert read(store, [0, 1, 2]) == images
    assert (store.pages_read, store.pages_hit) == (2, 1)
    reg.drop(store, unlink=True)


def test_a_shrinking_budget_writes_appended_pages_once_in_page_order(tmp_path, monkeypatch):
    reg, store, images = appended(tmp_path, 4, 4)
    order = []
    write_page = PageStore.write_page
    monkeypatch.setattr(PageStore, "write_page", lambda s, p, data: order.append(p) or write_page(s, p, data))
    reg.set_budget(2 * 128)  # gives back the newest two
    assert order == [2, 3] and store.pages_written == 2 and reg.evicted["state"] == 2
    assert read(store, [0, 1, 2, 3]) == images
    assert (store.pages_read, store.pages_hit) == (2, 2)  # what went back is read from storage
    reg.set_budget(0)
    assert order == [2, 3, 0, 1] and store.pages_written == 4 == reg.totals()["state"][1]
    reg.drop(store)
    assert order == [2, 3, 0, 1]


def test_a_drop_that_deletes_the_file_writes_no_appended_page(tmp_path, monkeypatch):
    reg, store, _ = appended(tmp_path, 3, 3, klass="log")
    monkeypatch.setattr(PageStore, "write_page", lambda *_: pytest.fail("a deleted page was written"))
    reg.drop(store, unlink=True)
    assert reg.totals()["log"] == (0, 0) and reg.resident == 0 and not os.path.exists(store.path)


def test_an_appended_page_that_write_back_updates_is_written_once_with_the_newest_image(tmp_path):
    reg, store, images = appended(tmp_path, 2, 2)
    new = [page_image(128, b"new", 3), page_image(128, b"newer", 5)]
    write(store, [1], new[:1])
    write(store, [1], new[1:])
    assert store.pages_written == 0 and read(store, [1]) == new[1:]
    reg.drop(store)
    assert reg.totals()["state"][1] == 2  # each page once, at the drop
    on_disk = PageStore(store.path, 128, create=False)
    assert [on_disk.read_page(p) for p in (0, 1)] == [images[0], new[1]]
    on_disk.close()


def test_a_closed_store_holds_every_appended_page(tmp_path):
    # pages 0 and 1 wait in the ledger while 2 to 4 are written at once
    reg, store, images = appended(tmp_path, 5, 2)
    assert store.pages_written == 3
    store.close()
    assert store.pages_written == 5 and reg.resident == 0
    assert os.path.getsize(store.path) == store.num_pages * 128
    again = PageStore(store.path, 128, create=False)
    assert again.num_pages == 5 and [again.read_page(p) for p in range(5)] == images
    again.close()


def test_a_full_ledger_evicts_nothing_until_a_dropped_store_frees_room(tmp_path):
    reg, store, images = ledger(tmp_path, 2, 1)
    other = reg.open(str(tmp_path / "o.pages"), "state")
    read(store, [0])
    other.append(images[0])  # no room: written, not admitted
    read(other, [0])
    read(store, [0, 1])  # 1 is not admitted over 0
    assert (store.pages_read, store.pages_hit, other.pages_read) == (2, 1, 1)
    reg.drop(store)
    assert reg.resident == 0
    read(other, [0])
    read(other, [0])
    assert (other.pages_read, other.pages_hit, reg.resident) == (2, 1, 128)


def test_write_back_defers_a_resident_page_and_writes_any_other_at_once(tmp_path):
    reg, store, images = ledger(tmp_path, 2, 1)
    new = [page_image(128, b"new", 3), page_image(128, b"newer", 5)]
    written = store.pages_written
    write(store, [0, 1], new)  # 0 is admitted, 1 takes a transient row
    assert store.pages_written == written + 1
    on_disk = PageStore(store.path, 128, create=False)
    assert on_disk.read_page(0) == images[0] and on_disk.read_page(1) == new[1]
    assert read(store, [0]) == new[:1]  # read your writes, from memory
    # a page given back and read into another row in the same scope is no
    # longer in the row its caller changed: that row is written at once, and
    # the page's resident copy takes the image
    with reg.scope():
        _, _, old, _ = store.read_spans(*first_bytes(store, [0]), "u1")
        reg.hold("sort", 128)  # gives the dirty page 0 back: written
        reg.hold("sort", 0)
        _, _, again, _ = store.read_spans(*first_bytes(store, [0]), "u1")
        assert again.tolist() != old.tolist() and reg.resident == 128
        reg.arena[old] = np.frombuffer(new[1], np.uint8)
        store.write_back_rows(np.zeros(1, np.int64), old)
    assert store.pages_written == written + 3 and on_disk.read_page(0) == new[1]
    assert read(store, [0]) == new[1:]
    reg.drop(store)
    assert reg.totals()["csr"][1] == written + 3  # the resident copy is clean
    on_disk.close()


def test_write_back_rows_defers_a_page_still_in_its_row_and_writes_any_other_at_once(tmp_path):
    # 14 8-byte records to a 128-byte page: the spans cover pages 0 to 2,
    # of which the one-page ledger keeps 0; 1 and 2 get transient rows
    reg, store, images = ledger(tmp_path, 3, 1)
    with reg.scope():
        pages, _, rows, _ = store.read_spans(np.array([0, 14, 28]), np.array([1, 15, 29]), "<u8")
        assert pages.tolist() == [0, 1, 2] and store.resident_bytes == 128
        reg.arena[rows[[0, 2]], 16] = 0xAA
        written = store.pages_written
        store.write_back_rows(pages[[0, 2]], rows[[0, 2]])
        assert store.pages_written == written + 1  # page 2, at once
    reg.drop(store)
    assert reg.totals()["csr"][1] == written + 2  # page 0, dirty, at the drop
    on_disk = PageStore(store.path, 128, create=False)
    want = [image[:16] + b"\xaa" + image[17:] for image in images]
    assert [on_disk.read_page(p) for p in range(3)] == [want[0], images[1], want[2]]
    on_disk.close()


def test_write_page_on_a_resident_page_updates_its_copy(tmp_path):
    reg, store, _ = ledger(tmp_path, 2, 2)
    read(store, [0, 1])
    new = [page_image(128, b"dirty", 5), page_image(128, b"direct", 6)]
    write(store, [0], new[:1])  # resident and dirty
    store.write_page(0, new[1])
    store.write_page(1, new[1])
    written = store.pages_written
    assert read(store, [0, 1]) == [new[1]] * 2
    assert store.pages_read == 2  # both served from memory
    reg.drop(store)
    assert reg.totals()["csr"][1] == written  # no stale dirty copy is flushed
    on_disk = PageStore(store.path, 128, create=False)
    assert on_disk.read_page(0) == new[1] and on_disk.read_page(1) == new[1]
    on_disk.close()


def test_dirty_pages_are_written_in_page_order(tmp_path, monkeypatch):
    reg, store, images = ledger(tmp_path, 3, 3)
    read(store, [0, 1, 2])
    order = []
    write_page = PageStore.write_page
    monkeypatch.setattr(PageStore, "write_page", lambda s, p, data: order.append(p) or write_page(s, p, data))
    for page_id in (2, 0, 1):
        write(store, [page_id], images[:1])
    assert order == []
    reg.set_budget(0)
    assert order == [0, 1, 2] and reg.resident == 0
    reg.set_budget(3 * 128)
    read(store, [1])
    assert store.pages_read == 4  # released pages come from storage again...
    assert reg.resident == 128  # ...and are admitted again


def test_a_shrinking_budget_gives_back_the_newest_admitted_pages_first(tmp_path):
    reg, store, images = ledger(tmp_path, 4, 6)
    other = reg.open(str(tmp_path / "o.pages"), "state")
    read(store, [0])  # admissions, oldest first: csr 0, state 0, csr 2,
    other.append(images[0])  # csr 1, state 1, csr 3
    read(store, [2])
    read(store, [1])
    other.append(images[1])
    read(store, [3])
    assert reg.resident == reg.resident_peak == 6 * 128
    reg.set_budget(3 * 128 + 5)  # a partial page holds no page
    assert reg.evicted == {"csr": 2, "log": 0, "edgelog": 0, "state": 1}
    assert (reg.resident, reg.resident_peak) == (3 * 128, 3 * 128)
    counted = (store.pages_read, other.pages_read)
    read(store, [0, 2])
    read(other, [0])
    assert (store.pages_read, other.pages_read) == counted  # the oldest three stayed
    read(store, [1, 3])
    read(other, [1])
    assert (store.pages_read, other.pages_read) == (counted[0] + 2, counted[1] + 1)
    assert reg.resident == 3 * 128  # a full ledger admits nothing


def test_a_given_back_dirty_page_is_written_once_and_a_clean_one_never(tmp_path, monkeypatch):
    reg, store, images = ledger(tmp_path, 4, 4)
    read(store, [0, 1, 2, 3])
    new = [page_image(128, bytes([9, i]), 2) for i in range(4)]
    for page_id in (3, 0, 2):
        write(store, [page_id], new[page_id : page_id + 1])
    order = []
    write_page = PageStore.write_page
    monkeypatch.setattr(PageStore, "write_page", lambda s, p, data: order.append(p) or write_page(s, p, data))
    reg.set_budget(128)  # gives back 3, 2 and the clean 1; 0 stays dirty
    assert order == [2, 3] and reg.resident == 128
    reg.set_budget(0)
    assert order == [2, 3, 0] and reg.resident == reg.resident_peak == store.resident_bytes == 0
    # what was given back is read from storage, as written, and admitted
    # again once the budget grows
    reg.set_budget(4 * 128)
    want = [new[0], images[1], new[2], new[3]]
    assert read(store, [0, 1, 2, 3]) == want
    assert store.pages_read == 8 and reg.resident == reg.resident_peak == 4 * 128
    assert read(store, [0, 1, 2, 3]) == want
    assert store.pages_read == 8 and order == [2, 3, 0]


def test_a_drop_that_deletes_the_file_discards_its_dirty_pages(tmp_path):
    reg, store, images = ledger(tmp_path, 2, 2)
    read(store, [0, 1])
    written = store.pages_written
    write(store, [0, 1], images[::-1])
    reg.drop(store, unlink=True)
    assert reg.totals()["csr"][1] == written and reg.resident == 0


@pytest.mark.parametrize("bad", [-1, 3])
def test_write_page_rejects_a_page_out_of_range(tmp_path, bad):
    reg, store, _ = ledger(tmp_path, 3, 3)
    read(store, [0, 1, 2])
    with pytest.raises(AddressError):
        store.write_page(bad, bytes(128))


def test_a_growing_hold_gives_back_the_newest_pages_across_stores(tmp_path, monkeypatch):
    reg, store, images = ledger(tmp_path, 4, 6)
    other = reg.open(str(tmp_path / "o.pages"), "state")
    read(store, [0])  # admissions, oldest first: csr 0, state 0, csr 2,
    other.append(images[0])  # csr 1, state 1, csr 3
    read(store, [2])
    read(store, [1])
    other.append(images[1])
    read(store, [3])
    for page_id in (3, 1, 2):
        write(store, [page_id], images[:1])
    order = []
    write_page = PageStore.write_page
    monkeypatch.setattr(PageStore, "write_page", lambda s, p, data: order.append((s.path, p)) or write_page(s, p, data))
    reg.hold("sort", 2 * 128 + 5)  # a partial page takes a whole one back
    assert reg.evicted == {"csr": 2, "log": 0, "edgelog": 0, "state": 1}
    # the dirty csr 1 and 3 once, in page order, then the appended state 1
    assert order == [(store.path, 1), (store.path, 3), (other.path, 1)]
    assert (reg.resident, reg.held, reg.holds) == (3 * 128, 2 * 128 + 5, {"sort": 2 * 128 + 5})
    counted = (store.pages_read, other.pages_read)
    read(store, [0, 2])
    read(other, [0])
    assert (store.pages_read, other.pages_read) == counted  # the oldest three stayed
    reg.hold("multilog", 128)
    assert reg.evicted["csr"] == 3 and reg.resident == 2 * 128 and reg.held == 3 * 128 + 5
    assert order[3:] == [(store.path, 2)]
    reg.set_budget(0)  # the appended state 0 is dirty, csr 0 clean
    assert order[4:] == [(other.path, 0)] and reg.resident == 0


def test_a_shrinking_hold_reopens_room_but_admits_nothing_by_itself(tmp_path):
    reg, store, _ = ledger(tmp_path, 4, 4)
    read(store, [0, 1, 2, 3])
    reg.hold("sort", 3 * 128)
    assert reg.resident == 128
    reg.hold("sort", 128)
    assert reg.resident == 128 and reg.evicted["csr"] == 3
    read(store, [1, 2, 3])  # two pages of room: 1 and 2 are admitted
    assert reg.resident == 3 * 128 and store.pages_read == 7
    read(store, [1, 2, 3])
    assert store.pages_read == 8 and store.pages_hit == 2


def test_holds_do_nothing_while_the_budget_is_0(tmp_path):
    reg, store, _ = ledger(tmp_path, 3, 0)
    reg.hold("multilog", 5 * 128)
    assert (reg.held, reg.holds) == (0, {})
    reg.set_budget(3 * 128)
    read(store, [0, 1, 2])  # no hold from before the budget takes room
    assert reg.resident == 3 * 128
    reg.hold("sort", 128)
    reg.set_budget(0)  # a budget of 0 forgets every hold
    assert (reg.resident, reg.held, reg.holds) == (0, 0, {})
    reg.set_budget(3 * 128)
    read(store, [0, 1, 2])
    assert reg.resident == 3 * 128


def test_a_negative_hold_is_a_contract_violation(tmp_path):
    reg, _, _ = ledger(tmp_path, 1, 1)
    with pytest.raises(ContractViolation, match="sort holds -1 bytes"):
        reg.hold("sort", -1)
    assert reg.held == 0


def test_a_hold_that_leaves_room_touches_no_store(tmp_path, monkeypatch):
    # the multi-log reports its bytes once per send block
    reg, store, _ = ledger(tmp_path, 4, 4)
    read(store, [0, 1, 2])
    reg.hold("multilog", 128)  # the ledger is full
    with monkeypatch.context() as patch:
        patch.setattr(PageStore, "release", lambda s, *a, **kw: pytest.fail("a hold with room released pages"))
        for _ in range(1000):
            reg.hold("multilog", 128)
            reg.hold("sort", 0)
        reg.hold("multilog", 0)
    assert (reg.resident, reg.held) == (3 * 128, 0)


def test_holds_give_back_the_pages_a_brute_force_ranking_of_every_admission_picks(tmp_path):
    # reads and appends interleave admissions across three stores; before
    # each hold, rank every resident page by admission number: the hold
    # gives back exactly the newest ones that no longer fit
    rng = np.random.default_rng(21)
    reg = StoreRegistry(page_size=128)
    stores = {klass: reg.open(str(tmp_path / f"{klass}.pages"), klass) for klass in ("csr", "state", "log")}
    image = page_image(128, bytes(8), 8)
    for s in stores.values():
        for _ in range(30):
            s.append_page(image)
    reg.set_budget(48 * 128)
    gave = 0
    for step in range(300):
        s = list(stores.values())[rng.integers(3)]
        if rng.random() < 0.3:
            s.append(image)
        else:
            read(s, sorted_unique(rng.integers(0, s.num_pages, rng.integers(1, 5))))
        if step % 3:
            continue
        resident = sorted(
            (reg._admitted[s._slot[p]], klass, p)
            for klass, s in stores.items()
            for p in np.flatnonzero(s._slot[: s.num_pages] >= 0).tolist()
        )
        nbytes = int(rng.integers(0, 40)) * 128 + int(rng.integers(0, 2)) * 5
        holds = dict(reg.holds, sort=nbytes)
        excess = max(0, -(-(reg.resident + sum(holds.values()) - reg.budget) // 128))
        keep = resident[: len(resident) - excess]
        evicted = dict(reg.evicted)
        reg.hold("sort", nbytes)
        got = sorted(
            (reg._admitted[s._slot[p]], klass, p)
            for klass, s in stores.items()
            for p in np.flatnonzero(s._slot[: s.num_pages] >= 0).tolist()
        )
        assert got == keep
        for klass in stores:
            went = sum(1 for _, k, _ in resident[len(keep) :] if k == klass)
            assert reg.evicted[klass] - evicted[klass] == went
        gave += len(resident) - len(keep)
    assert gave > 50
    reg.close_all()


def _set_cases():
    """Seeded int64 arrays for the set helpers: empty, one value, all equal,
    negative, small ranges full of repeats, and packed row << 32 | nbr keys."""
    rng = np.random.default_rng(7)
    packed = rng.integers(0, 1 << 20, 300) << 32 | rng.integers(0, 1 << 32, 300)
    yield np.zeros(0, np.int64)
    yield np.array([5], np.int64)
    yield np.full(40, -3, np.int64)
    yield rng.integers(-50, 50, 200)
    yield rng.integers(0, 16, 500)
    yield rng.integers(-(1 << 62), 1 << 62, 400)
    yield packed
    yield np.concatenate([packed, packed[::3]])


def test_sorted_unique_matches_np_unique():
    for values in _set_cases():
        got = sorted_unique(values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, np.unique(values))


def test_member_matches_np_isin():
    rng = np.random.default_rng(8)
    cases = list(_set_cases())
    for values in cases:
        for pool in cases:
            # half the set drawn from the values themselves, so both answers occur
            drawn = rng.choice(values, len(values) // 2) if len(values) else values
            sorted_set = np.sort(np.concatenate([pool, drawn]))
            got = member(values, sorted_set)
            assert got.dtype == bool and got.shape == values.shape
            assert np.array_equal(got, np.isin(values, sorted_set))


def test_member_of_empty_set_and_scalar():
    assert not member(np.arange(4), np.zeros(0, np.int64)).any()
    assert member(np.zeros(0, np.int64), np.arange(3)).shape == (0,)
    assert member(7, np.array([3, 7, 9])) and not member(8, np.array([3, 7, 9]))
    assert not member(7, np.zeros(0, np.int64))
    # a value above the largest entry is not taken for it
    assert member(np.array([10, 9]), np.array([3, 9])).tolist() == [False, True]


@pytest.mark.parametrize("budget_pages", [0, 5, 40], ids=["none", "some", "all"])
def test_read_spans_and_gather_match_the_entries_read_page_by_page(tmp_path, budget_pages):
    # random ascending spans over 21 pages of random 8-byte entries, at a
    # budget that admits none, some or all of the pages they cover
    rng = np.random.default_rng(budget_pages)
    n = 30 * 20 + 7
    reg = StoreRegistry(page_size=256)
    store = reg.open(str(tmp_path / "v.pages"), "csr")
    store.append_records(rng.integers(0, 1 << 63, n).astype("<u8").tobytes(), 8)
    pages = [np.frombuffer(store.read_page(p)[PAGE_HEADER:], "<u8")[:30] for p in range(store.num_pages)]
    reg.set_budget(budget_pages * 256)
    for _ in range(40):
        k = int(rng.integers(1, 12))
        starts = np.sort(rng.integers(0, n, k))
        ends = np.minimum(np.sort(starts + rng.integers(0, 70, k)), n)
        with reg.scope():
            _, _, rows, at = store.read_spans(starts, ends, "<u8")
            got = reg.gather(rows, ranges(at, ends - starts), "<u8")
        assert got.tolist() == [int(pages[e // 30][e % 30]) for a, b in zip(starts, ends) for e in range(a, b)]
        assert reg.resident <= reg.budget
    assert (store.pages_hit > 0) == (budget_pages > 0)
    reg.close_all()


def test_a_sparse_read_of_resident_pages_copies_no_page(tmp_path):
    reg = StoreRegistry(page_size=4096)
    reg.set_budget(256 * 4096)
    store = reg.open(str(tmp_path / "v.pages"), "csr")
    cap = page_capacity(4096, 4)
    store.append_records(np.arange(256 * cap, dtype="<u4").tobytes(), 4)  # all resident
    want = np.arange(256) * cap + 7  # one entry of each page
    tracemalloc.start()
    try:
        with reg.scope():
            _, _, rows, at = store.read_spans(want, want + 1, "<u4")
            got = reg.gather(rows, at, "<u4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want.tolist() and (store.pages_read, store.pages_hit) == (0, 256)
    assert peak < 64 * 1024  # the pages themselves are 1 MiB
    reg.drop(store, unlink=True)


def pages_spans(first, end):
    """Spans of the 8 entries of each `ledger` page in [first, end), read
    as 8-byte records, 14 to a 128-byte page."""
    starts = np.arange(first, end) * 14
    return starts, starts + 8


def test_rows_given_back_or_transient_are_free_only_when_the_scope_exits(tmp_path):
    reg, store, images = ledger(tmp_path, 6, 3)
    with reg.scope():
        _, _, rows, _ = store.read_spans(*pages_spans(0, 6), "<u8")
        held = set(rows.tolist())
        assert reg.resident == 3 * 128 and (reg._admitted[rows] >= 0).sum() == 3  # three transient
        reg.hold("sort", 2 * 128)  # gives back two of the three resident pages
        assert reg.resident == 128 and not held & set(reg._free)
        assert reg.arena[rows].tobytes() == b"".join(images)  # the batch still sees its pages
    assert not reg._pinned.any() and held - set(reg._free) == set(rows[reg._admitted[rows] >= 0].tolist())
    used = reg._used
    with reg.scope():
        store.read_spans(*pages_spans(0, 6), "<u8")
    assert reg._used == used  # the freed rows serve again: no untouched row is taken
    reg.set_budget(0)
    assert reg._mm is None and reg.arena.shape == (0, 128)


def test_read_spans_outside_a_scope_is_a_contract_violation(tmp_path):
    reg, store, _ = ledger(tmp_path, 2, 2)
    with pytest.raises(ContractViolation, match="outside a StoreRegistry.scope"):
        store.read_spans(*pages_spans(0, 2), "<u8")
    with reg.scope():
        pass
    with pytest.raises(ContractViolation):
        reg.read_spans([store], [0, 2], *pages_spans(0, 2), "<u8")
    assert store.pages_read == 0 and not reg._pinned.any()


def test_a_nested_scope_leaves_the_outer_rows_pinned_until_the_outer_scope_exits(tmp_path):
    reg, store, images = ledger(tmp_path, 4, 0)
    with reg.scope():
        _, _, outer, _ = store.read_spans(*pages_spans(0, 2), "<u8")
        with reg.scope():
            _, _, inner, _ = store.read_spans(*pages_spans(2, 4), "<u8")
        assert reg._pinned[outer].all() and reg._pinned[inner].all() and not reg._free
        assert reg.arena[np.concatenate([outer, inner])].tobytes() == b"".join(images)
    # the outermost exit frees them, and at a budget of 0 unmaps the arena
    assert not reg._pinned.any() and reg._mm is None and reg.arena.shape == (0, 128)
    assert reg.rows_peak == 4


def test_read_vector_at_a_budget_of_0_leaves_no_row_pinned_and_no_arena(store):
    vector(store, 100)
    reg = store.registry
    assert store.read_vector(100, "<u8").tolist() == list(range(100))
    assert not reg._pinned.any() and reg._mm is None and reg.rows_peak == store.num_pages


@pytest.mark.parametrize("view", [False, True], ids=["remapped", "copied-under-a-view"])
def test_the_arena_grows_without_losing_a_row(tmp_path, view):
    reg, store, images = ledger(tmp_path, 12, 2)
    with reg.scope():
        _, _, first, _ = store.read_spans(*pages_spans(0, 2), "<u8")  # admitted
        assert len(reg.arena) == 4  # two budgets' worth of rows
        alive = memoryview(reg._mm) if view else None
        _, _, rows, _ = store.read_spans(*pages_spans(0, 12), "<u8")  # ten transient rows
        assert len(reg.arena) == 12 and rows[:2].tolist() == first.tolist()
        assert reg.arena[rows].tobytes() == b"".join(images)
        if view:
            # the old mapping stays readable
            assert [bytes(alive[r * 128 : (r + 1) * 128]) for r in first.tolist()] == images[:2]
    reg.close_all()
