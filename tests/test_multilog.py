import os

import numpy as np
import pytest

from loggraph.errors import ConfigError, ContractViolation
from loggraph.multilog import (
    LogManifest,
    MultiLog,
    RecordFormat,
    read_log_records,
)
from loggraph.pager import PAGE_HEADER, StoreRegistry, record_counts

FMT16 = RecordFormat([("val", "<u8")])  # 4+4+8 = 16-byte records


def make_mlog(tmp_path, bounds=(0, 3, 6), page_size=256, budget_pages=None):
    reg = StoreRegistry(page_size)
    n_int = len(bounds) - 1
    budget = (budget_pages if budget_pages is not None else 4 * n_int) * page_size
    return MultiLog(list(bounds), FMT16, reg, str(tmp_path / "logs"), budget)


def test_vid_to_interval_boundaries(tmp_path):
    mlog = make_mlog(tmp_path)  # bounds [0, 3, 6]
    for d in (0, 2, 3, 5):
        mlog.send(d, 0, 0)
    # a boundary vertex belongs to the right interval
    assert [log.message_count for log in mlog.logs] == [2, 2]


def test_capacity_from_page_size(tmp_path):
    mlog = make_mlog(tmp_path)
    assert mlog.capacity == (256 - PAGE_HEADER) // 16 == 15


def test_single_message_stays_in_top_page(tmp_path):
    mlog = make_mlog(tmp_path)
    mlog.send(1, 0, 7)
    assert mlog.logs[0].message_count == 1
    assert mlog.logs[0].fill == 1
    assert not mlog.logs[0].chain  # nothing written to storage yet


def test_overflow_closes_page_capacity_plus_one(tmp_path):
    mlog = make_mlog(tmp_path)
    cap = mlog.capacity
    for i in range(cap + 1):
        mlog.send(0, 0, i)
    log = mlog.logs[0]
    assert len(log.closed) == 1  # one full page buffered
    assert log.fill == 1  # one record in the fresh top page
    assert log.message_count == cap + 1


def test_two_intervals_two_chains(tmp_path):
    mlog = make_mlog(tmp_path)
    mlog.send(0, 0, 1)
    mlog.send(5, 0, 2)
    manifest = mlog.seal()
    assert manifest.handles[0].message_count == 1
    assert manifest.handles[1].message_count == 1
    assert manifest.handles[0].store is not manifest.handles[1].store


def test_routing_correctness(tmp_path):
    mlog = make_mlog(tmp_path)
    rng = np.random.default_rng(0)
    for d in rng.integers(0, 6, 200):
        mlog.send(int(d), 0, 0)
    manifest = mlog.seal()
    for k, handle in enumerate(manifest.handles):
        recs = read_log_records(handle, FMT16)
        if len(recs):
            assert all(3 * k <= d < 3 * (k + 1) for d in recs["dest"].tolist())


def test_drop_and_close_delete_every_log_file(tmp_path):
    mlog = make_mlog(tmp_path, budget_pages=2)
    mlog.send(0, 0, 1)
    mlog.send(5, 0, 2)
    first = mlog.seal()
    mlog.open_superstep(1)
    mlog.send(0, 0, 3)
    mlog.seal()
    mlog.open_superstep(2)
    for i in range(3 * mlog.capacity):  # past the budget: evicts to an open log
        mlog.send(0, 0, i)
    assert mlog.logs[0].store is not None and not mlog.logs[0].sealed
    mlog.drop(first)
    assert len(mlog.registry._stores["log"]) == 2
    mlog.close()  # the sealed second superstep and the open third
    assert mlog.registry._stores["log"] == []
    assert os.listdir(tmp_path / "logs") == []


def test_evict_noop_below_budget(tmp_path):
    mlog = make_mlog(tmp_path, budget_pages=8)
    mlog.send(0, 0, 1)
    assert mlog.evict_if_needed() == 0


def test_evict_flushes_full_pages_then_tops_to_watermark(tmp_path):
    # budget: 4 pages across 2 intervals; overfill interval 0 with closed pages
    mlog = make_mlog(tmp_path, bounds=(0, 3, 6), budget_pages=4)
    cap = mlog.capacity
    for i in range(3 * cap + 1):  # 3 closed pages + 1 record in top
        mlog.send(0, 0, i)
    mlog.send(5, 0, 0)
    # send() auto-evicts on overflow; residency must sit at/below the watermark
    assert mlog.resident_bytes <= int(0.9 * mlog.budget)
    manifest = mlog.seal()
    recs = read_log_records(manifest.handles[0], FMT16)
    assert recs["val"].tolist() == list(range(3 * cap + 1))  # order survives eviction


def test_adversarial_spray_evicts_to_watermark(tmp_path):
    # fill 64 intervals under a loose budget, then shrink it to 64 pages and
    # evict: full pages go first, then the fullest tops, down to 90%
    mlog = make_mlog(tmp_path, bounds=tuple(range(0, 65)), budget_pages=256, page_size=256)
    cap = mlog.capacity
    for k in range(64):
        for i in range(cap):
            mlog.send(k, 0, i)
    assert mlog.resident_bytes == 64 * 256  # all tops full
    for k in range(64):
        mlog.send(k, 0, 99)  # one more record everywhere: 64 closed + 64 tops
    assert mlog.resident_bytes == 128 * 256
    mlog.budget = 64 * 256
    mlog.watermark = int(0.9 * mlog.budget)
    evicted = mlog.evict_if_needed()
    assert mlog.resident_bytes // 256 <= 58  # watermark arithmetic on 64 pages
    assert evicted == 128 - mlog.resident_bytes // 256
    # closed pages were flushed before any top: no closed pages remain
    assert all(not log.closed for log in mlog.logs)


def test_budget_below_one_page_per_interval_rejected(tmp_path):
    reg = StoreRegistry(256)
    with pytest.raises(ConfigError):
        MultiLog([0, 3, 6], FMT16, reg, str(tmp_path / "logs"), 256)


def test_seal_empty_interval_has_empty_chain(tmp_path):
    mlog = make_mlog(tmp_path)
    manifest = mlog.seal()
    assert manifest.handles[0].ordinals == []
    assert manifest.handles[0].message_count == 0
    recs = read_log_records(manifest.handles[0], FMT16)
    assert len(recs) == 0


def test_seal_partial_top_page_record_count(tmp_path):
    mlog = make_mlog(tmp_path)
    for i in range(5):
        mlog.send(0, i, i)
    handle = mlog.seal_interval(0)
    assert record_counts(handle.store.read_pages(handle.ordinals[:1])).tolist() == [5]
    recs = read_log_records(handle, FMT16)
    assert recs["val"].tolist() == [0, 1, 2, 3, 4]


def test_double_seal_rejected(tmp_path):
    mlog = make_mlog(tmp_path)
    mlog.seal_interval(0)
    with pytest.raises(ContractViolation):
        mlog.seal_interval(0)


def test_send_after_seal_rejected(tmp_path):
    mlog = make_mlog(tmp_path)
    mlog.seal()
    with pytest.raises(ContractViolation):
        mlog.send(0, 0, 1)


def test_message_count_always_matches_parseable_records(tmp_path):
    mlog = make_mlog(tmp_path, budget_pages=2 * 2)
    rng = np.random.default_rng(1)
    sent = 0
    for d in rng.integers(0, 6, 123):
        mlog.send(int(d), 1, sent)
        sent += 1
    manifest = mlog.seal()
    total = 0
    for h in manifest.handles:
        recs = read_log_records(h, FMT16)
        assert len(recs) == h.message_count
        total += len(recs)
    assert total == sent


def test_flushed_page_keeps_arrival_order(tmp_path):
    mlog = make_mlog(tmp_path)
    for d in [5, 2, 2, 1]:
        mlog.send(d, 0, 0)
    handle = mlog.seal_interval(0)
    recs = handle.store.read_records([0], FMT16.dtype)
    assert recs["dest"].tolist() == [2, 2, 1]  # interval 0 only, arrival order


def test_exactly_once_multiset_property(tmp_path):
    rng = np.random.default_rng(42)
    for trial in range(20):
        mlog = make_mlog(tmp_path / f"t{trial}", bounds=(0, 4, 8, 12), budget_pages=6)
        n_msgs = int(rng.integers(1, 400))
        dests = rng.integers(0, 12, n_msgs)
        vals = rng.integers(0, 1 << 30, n_msgs)
        # runs of 7 alternate between a loop of send and one send_many
        for a in range(0, n_msgs, 7):
            d, v = dests[a : a + 7], vals[a : a + 7]
            if a % 14:
                recs = np.zeros(len(d), FMT16.dtype)
                recs["dest"], recs["src"], recs["val"] = d, 7, v
                mlog.send_many(recs)
            else:
                for one_d, one_v in zip(d.tolist(), v.tolist()):
                    mlog.send(one_d, 7, one_v)
        manifest = mlog.seal()
        got = []
        for h in manifest.handles:
            recs = read_log_records(h, FMT16)
            got.extend(zip(recs["dest"].tolist(), recs["val"].tolist()))
        assert sorted(got) == sorted(zip(dests.tolist(), vals.tolist()))


def test_memory_bound_after_evictions(tmp_path):
    mlog = make_mlog(tmp_path, bounds=(0, 2, 4, 6), budget_pages=3)
    rng = np.random.default_rng(3)
    for d in rng.integers(0, 6, 1000):
        mlog.send(int(d), 0, 0)
        assert mlog.post_evict_peak <= mlog.budget
    assert mlog.resident_bytes <= mlog.budget


# -- send_many: page-exact with a loop of send ----------------------------------

FMT17 = RecordFormat([("val", "<u8"), ("flag", "u1")])  # odd 17-byte records


def count_evictions(mlog):
    total = [0]
    inner = mlog.evict_if_needed

    def evict():
        n = inner()
        total[0] += n
        return n

    mlog.evict_if_needed = evict
    return total


def snapshot(mlog):
    logs = [
        (log.fill, log.message_count, bytes(log.top), [bytes(p) for p in log.closed], list(log.chain))
        for log in mlog.logs
    ]
    return logs, mlog.resident_bytes, mlog.total_appends, mlog.post_evict_peak


@pytest.mark.parametrize(
    "page_size, n_intervals, budget_pages",
    [
        (64, 1, 1),  # two records per page, every page evicts
        (64, 3, 3),
        (256, 1, 2),
        (256, 4, 4),
        (256, 5, 7),
        (1024, 3, 30),
        (256, 2, 64),  # roomy: blocks of 32 pages until a large batch fills it
        (1024, 1, 96),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_send_many_matches_a_loop_of_send(tmp_path, page_size, n_intervals, budget_pages, seed):
    rng = np.random.default_rng(seed)
    bounds = list(range(0, 5 * n_intervals + 1, 5))

    def make(name):
        reg = StoreRegistry(page_size)
        return MultiLog(bounds, FMT17, reg, str(tmp_path / name), budget_pages * page_size)

    loop, many = make("loop"), make("many")
    evicted = count_evictions(loop), count_evictions(many)
    cap = loop.capacity
    for step in range(16):
        if step % 8 == 7:
            # 40-100 pages of records: crosses send_many's block boundaries,
            # and a second such batch evicts inside a later block
            size = cap * int(rng.integers(40, 101))
            dest = rng.integers(0, bounds[-1], size)
        elif step % 3 == 2:
            # one interval's records up to exactly a full top page
            k = int(rng.integers(0, n_intervals))
            size = cap - loop.logs[k].fill + cap * int(rng.integers(0, 3))
            dest = rng.integers(bounds[k], bounds[k + 1], size)
        else:
            size = int(rng.integers(0, 3 * cap * n_intervals + 2))
            dest = rng.integers(0, bounds[-1], size)
        recs = np.zeros(size, FMT17.dtype)
        recs["dest"] = dest
        recs["src"] = rng.integers(0, 1 << 32, size)
        recs["val"] = rng.integers(0, 1 << 62, size)
        recs["flag"] = rng.integers(0, 256, size)
        for r in recs.tolist():
            loop.send(*r)
        many.send_many(recs)
        assert snapshot(many) == snapshot(loop)
    assert evicted[0][0] == evicted[1][0]
    if budget_pages == n_intervals:
        assert evicted[0][0] > 0
    want, got = loop.seal(), many.seal()
    for a, b in zip(want.handles, got.handles):
        assert (a.ordinals, a.message_count) == (b.ordinals, b.message_count)
        assert [a.store.read_page(o) for o in a.ordinals] == [b.store.read_page(o) for o in b.ordinals]


def test_send_many_rejects_bad_records(tmp_path):
    mlog = make_mlog(tmp_path)
    with pytest.raises(ContractViolation):
        mlog.send_many(np.zeros(1, FMT17.dtype))  # not this log's wire format
    recs = np.zeros(2, FMT16.dtype)
    recs["dest"] = [1, 6]
    with pytest.raises(ContractViolation):
        mlog.send_many(recs)  # 6 is outside the vertex range
    assert mlog.total_appends == 0
    mlog.seal()
    with pytest.raises(ContractViolation):
        mlog.send_many(recs[:1])
