import os
from collections import deque

import numpy as np
import pytest

from loggraph.errors import ConfigError, ContractViolation
from loggraph.multilog import (
    LogManifest,
    MultiLog,
    RecordFormat,
    read_log_records,
)
from loggraph.pager import PAGE_COUNT, PAGE_HEADER, StoreRegistry, page_capacity

from util import spill_tails

FMT16 = RecordFormat([("val", "<u8")])  # 4+4+8 = 16-byte records


def make_mlog(tmp_path, bounds=(0, 3, 6), page_size=256, budget_pages=None):
    reg = StoreRegistry(page_size)
    n_int = len(bounds) - 1
    budget = (budget_pages if budget_pages is not None else 4 * n_int) * page_size
    return MultiLog(list(bounds), FMT16, reg, str(tmp_path / "logs"), budget)


def send_run(mlog, dest, vals):
    """Send one record to dest per value, as one send_many call."""
    vals = list(vals)
    recs = np.zeros(len(vals), FMT16.dtype)
    recs["dest"], recs["val"] = dest, vals
    mlog.send_many(recs)


def filed(log):
    """The pages an open or sealed log has handed to its file."""
    return 0 if log.store is None else log.store.num_pages


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
    assert mlog.logs[0].store is None  # nothing written to storage yet


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
    mlog = make_mlog(tmp_path, budget_pages=2)
    mlog.send(0, 0, 1)
    mlog.send(5, 0, 2)
    manifest = mlog.seal()
    spill_tails(mlog)  # both one-page tails go to their own files
    assert manifest.handles[0].message_count == 1
    assert manifest.handles[1].message_count == 1
    assert manifest.handles[0].store is not manifest.handles[1].store
    assert [os.path.basename(h.store.path) for h in manifest.handles] == ["log_t0_i0.pages", "log_t0_i1.pages"]
    assert [read_log_records(h, FMT16)["val"].tolist() for h in manifest.handles] == [[1], [2]]


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


def test_release_and_close_delete_every_log_file(tmp_path):
    mlog = make_mlog(tmp_path, budget_pages=2)
    mlog.send(0, 0, 1)
    mlog.send(5, 0, 2)
    first = mlog.seal()
    mlog.send(0, 0, 3)
    mlog.seal()
    for i in range(3 * mlog.capacity):  # past the budget: evicts to an open log
        mlog.send(0, 0, i)
    assert mlog.logs[0].store is not None
    mlog.release(first.handles)
    assert len(mlog.registry._stores["log"]) == 2
    mlog.close()  # the sealed second superstep and the open third
    assert mlog.registry._stores["log"] == []
    assert os.listdir(tmp_path / "logs") == []


def test_evict_noop_below_budget(tmp_path):
    mlog = make_mlog(tmp_path, budget_pages=8)
    mlog.send(0, 0, 1)
    assert mlog.evict_if_needed() == 0


def test_evict_flushes_closed_pages_oldest_first_down_to_the_budget(tmp_path):
    # budget: 4 pages across 2 intervals (bounds 0, 3, 6)
    mlog = make_mlog(tmp_path, budget_pages=4)
    cap = mlog.capacity
    evicted = count_evictions(mlog)
    mlog.send(5, 0, 99)
    (tail,) = [h for h in mlog.seal().handles if h.tail]
    send_run(mlog, 5, range(cap))  # interval 1 closes its first page,
    send_run(mlog, 0, range(cap))  # then interval 0,
    send_run(mlog, 5, range(cap, 2 * cap))  # then interval 1 again
    assert (mlog._resident_pages, evicted[0]) == (4, 0)
    mlog.send(0, 0, cap)  # a fifth page: the tail spills, no open page goes
    assert (filed(tail), tail.tail) == (1, [])
    assert ([filed(log) for log in mlog.logs], mlog._resident_pages) == ([0, 0], 4)
    mlog.send(5, 0, 2 * cap)  # the oldest closed page goes: interval 1's first
    assert ([filed(log) for log in mlog.logs], mlog._resident_pages) == ([0, 1], 4)
    send_run(mlog, 0, range(cap + 1, 2 * cap))  # closes a top, opens nothing
    assert (evicted[0], mlog._resident_pages) == (2, 4)
    mlog.send(0, 0, 2 * cap)  # now interval 0's first closed page is the oldest
    assert ([filed(log) for log in mlog.logs], mlog._resident_pages) == ([1, 1], 4)
    assert evicted[0] == 3
    first, second = mlog.seal().handles
    assert first.store.read_vector(cap, FMT16.dtype)["val"].tolist() == list(range(cap))
    assert second.store.read_vector(cap, FMT16.dtype)["val"].tolist() == list(range(cap))
    assert read_log_records(first, FMT16)["val"].tolist() == list(range(2 * cap + 1))  # order survives
    assert read_log_records(second, FMT16)["val"].tolist() == list(range(2 * cap + 1))


def test_adversarial_spray_evicts_exactly_to_the_budget(tmp_path):
    # 64 intervals under a loose budget: 8 one-page tails, then one closed
    # page per interval, closed from the last interval to the first, and a
    # one-record top everywhere. Shrinking the budget and evicting writes
    # exactly the overflow: tails first, from the log sealed last, then the
    # closed pages in the order they closed, whatever their interval
    mlog = make_mlog(tmp_path, bounds=tuple(range(0, 65)), budget_pages=256, page_size=256)
    cap = mlog.capacity
    for k in range(8):
        mlog.send(k, 0, 0)
    tails = mlog.seal().handles[:8]
    for k in reversed(range(64)):
        send_run(mlog, k, range(cap))
    for k in range(64):
        mlog.send(k, 0, cap)
    assert mlog._resident_pages == 8 + 128
    mlog.budget = 133 * 256
    assert mlog.evict_if_needed() == 3
    assert [filed(h) for h in tails] == [0] * 5 + [1] * 3
    assert mlog._resident_pages == 133 and all(log.store is None for log in mlog.logs)
    mlog.budget = 96 * 256
    assert mlog.evict_if_needed() == 37
    assert [filed(h) for h in tails] == [1] * 8 and mlog._carried_pages == 0
    assert mlog._resident_pages == 96
    # the 32 pages that closed first went: those of intervals 63 down to 32
    assert [filed(log) for log in mlog.logs] == [0] * 32 + [1] * 32
    assert [len(log.closed) for log in mlog.logs] == [1] * 32 + [0] * 32
    assert mlog.evict_if_needed() == 0


def test_budget_below_one_page_per_interval_rejected(tmp_path):
    reg = StoreRegistry(256)
    with pytest.raises(ConfigError):
        MultiLog([0, 3, 6], FMT16, reg, str(tmp_path / "logs"), 256)


def test_seal_empty_interval_has_empty_chain(tmp_path):
    mlog = make_mlog(tmp_path)
    manifest = mlog.seal()
    assert manifest.handles[0].store is None
    assert manifest.handles[0].message_count == 0
    recs = read_log_records(manifest.handles[0], FMT16)
    assert len(recs) == 0


def test_seal_partial_top_page_record_count(tmp_path):
    mlog = make_mlog(tmp_path)
    for i in range(5):
        mlog.send(0, i, i)
    handle = mlog.seal().handles[0]
    spill_tails(mlog)
    assert PAGE_COUNT.unpack_from(handle.store.read_page(0)) == (5,)
    recs = read_log_records(handle, FMT16)
    assert recs["val"].tolist() == [0, 1, 2, 3, 4]


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
    handle = mlog.seal().handles[0]
    spill_tails(mlog)
    recs = handle.store.read_vector(3, FMT16.dtype)
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


# -- sealed tails ---------------------------------------------------------------

def test_seal_writes_nothing_and_loads_the_tail_from_memory(tmp_path):
    mlog = make_mlog(tmp_path)
    cap = mlog.capacity
    for i in range(2 * cap + 3):
        mlog.send(0, 0, i)
    handle = mlog.seal().handles[0]
    assert mlog.registry.totals()["log"] == (0, 0) and handle.store is None
    assert [PAGE_COUNT.unpack_from(p)[0] for p in handle.tail] == [cap, cap, 3]
    assert read_log_records(handle, FMT16)["val"].tolist() == list(range(2 * cap + 3))
    assert mlog.registry.totals()["log"] == (0, 0)


def test_tails_spill_before_any_open_page_in_chain_order(tmp_path):
    mlog = make_mlog(tmp_path, budget_pages=4)  # bounds (0, 3, 6)
    cap = mlog.capacity
    send_run(mlog, 0, range(2 * cap + 3))  # interval 0: two full pages and a partial top
    mlog.send(5, 0, 99)  # interval 1: one partial top
    first, second = mlog.seal().handles
    assert [len(first.tail), len(second.tail)] == [3, 1]
    mlog.send(3, 0, 0)  # a fifth page: exactly one tail page spills, from the log loaded last
    assert (filed(first), filed(second)) == (0, 1)
    assert len(first.tail) == 3 and not second.tail
    assert mlog._resident_pages == 4
    send_run(mlog, 3, range(1, 2 * cap + 1))  # two more openings: two tail pages, in chain order
    assert filed(first) == 2 and len(first.tail) == 1
    assert mlog.logs[1].store is None and len(mlog.logs[1].closed) == 2  # no open page written yet
    assert mlog._resident_pages == 4
    send_run(mlog, 3, range(2 * cap + 1, 4 * cap + 1))  # two more: the last tail page, then the oldest closed page
    assert filed(first) == 3 and not first.tail
    assert filed(mlog.logs[1]) == 1 and mlog._resident_pages == 4
    # each file is its log's records as one vector
    assert first.store.read_vector(2 * cap + 3, FMT16.dtype)["val"].tolist() == list(range(2 * cap + 3))
    assert second.store.read_vector(1, FMT16.dtype)["val"].tolist() == [99]
    assert mlog.logs[1].store.read_vector(cap, FMT16.dtype)["val"].tolist() == list(range(cap))
    assert [os.path.basename(h.store.path) for h in (first, second)] == ["log_t0_i0.pages", "log_t0_i1.pages"]


def test_open_and_carried_pages_stay_within_the_budget(tmp_path):
    # the tails of the superstep being consumed are held while the next one
    # sends, and released one log at a time as if loaded: after every send
    # open and carried pages together fit the budget, and no record is lost
    mlog = make_mlog(tmp_path, bounds=(0, 2, 4, 6), budget_pages=5)
    rng = np.random.default_rng(5)
    carried, sent = None, []
    for tag in range(5):
        dests = rng.integers(0, 6, int(rng.integers(50, 400)))
        for i, d in enumerate(dests.tolist()):
            mlog.send(d, tag, i)
            assert mlog.resident_bytes <= mlog.budget
            if carried is not None and i % 40 == 39 and i // 40 < 3:
                mlog.release([carried.handles[i // 40]])
        sealed = mlog.seal()
        assert mlog.resident_bytes <= mlog.budget
        got = [(int(r["dest"]), int(r["src"]), int(r["val"])) for h in sealed.handles for r in read_log_records(h, FMT16)]
        assert sorted(got) == sorted((d, tag, i) for i, d in enumerate(dests.tolist()))
        if carried is not None:
            mlog.release(carried.handles)
        carried = sealed
    mlog.release(carried.handles)
    assert (mlog._resident_pages, mlog._carried_pages, mlog._carried) == (0, 0, [])
    assert mlog.registry._stores["log"] == []


class PageCountModel:
    """Page counts of the exact eviction rule, one record at a time. A
    record landing on an empty top opens a page; an opening past the budget
    writes one page: a tail page of the last sealed log still held, else the
    oldest closed page. Pages are counts here, never contents."""

    def __init__(self, n_intervals, cap, budget_pages):
        self.cap, self.budget = cap, budget_pages
        self.fill = [0] * n_intervals
        self.closed = deque()  # the interval of each closed page, oldest first
        self.tails = []  # [key, pages] of each held tail, in seal order
        self.open = self.written = 0

    @property
    def resident(self):
        return self.open + sum(pages for _, pages in self.tails)

    def send(self, k):
        if self.fill[k] == 0:
            if self.resident == self.budget:
                self.written += 1
                if self.tails:
                    self.tails[-1][1] -= 1
                    if self.tails[-1][1] == 0:
                        self.tails.pop()
                else:
                    self.closed.popleft()
                    self.open -= 1
            self.open += 1
        self.fill[k] = (self.fill[k] + 1) % self.cap
        if self.fill[k] == 0:
            self.closed.append(k)

    def seal(self, tag):
        for k, fill in enumerate(self.fill):
            pages = self.closed.count(k) + (fill > 0)
            if pages:
                self.tails.append([(tag, k), pages])
        self.fill = [0] * len(self.fill)
        self.closed.clear()
        self.open = 0

    def release(self, keys):
        self.tails = [t for t in self.tails if t[0] not in keys]


@pytest.mark.parametrize("seed", range(6))
def test_evictions_write_exactly_the_forced_overflow(tmp_path, seed):
    # random send streams over several supersteps, with the carried tails
    # released one log at a time mid-stream as if loaded: every call that
    # evicts leaves residency at the budget, and the log pages written are
    # the openings the model finds past the budget
    rng = np.random.default_rng(seed)
    n_int = int(rng.integers(1, 5))
    bounds = list(range(0, 3 * n_int + 1, 3))
    budget_pages = n_int + int(rng.integers(0, 6))
    mlog = make_mlog(tmp_path, bounds=bounds, budget_pages=budget_pages)
    evicted = count_evictions(mlog)
    model = PageCountModel(n_int, mlog.capacity, budget_pages)
    carried = None
    for tag in range(6):
        held = [h for h in carried.handles if h.tail] if carried is not None else []
        for _ in range(int(rng.integers(1, 10))):
            size = int(rng.integers(0, 3 * mlog.capacity * n_int))
            recs = np.zeros(size, FMT16.dtype)
            recs["dest"] = rng.integers(0, bounds[-1], size)
            before = evicted[0]
            mlog.send_many(recs)
            for d in recs["dest"].tolist():
                model.send(d // 3)
            if evicted[0] > before:
                assert mlog._resident_pages == budget_pages
            assert mlog._resident_pages == model.resident
            assert mlog.registry.totals()["log"][1] == model.written == evicted[0]
            if held and rng.random() < 0.5:
                handle = held.pop(int(rng.integers(0, len(held))))
                mlog.release([handle])
                model.release({(tag - 1, handle.interval)})
        sealed = mlog.seal()
        model.seal(tag)
        assert [len(h.tail) for h in sealed.handles if h.tail] == [p for (t, _), p in model.tails if t == tag]
        if carried is not None:
            mlog.release(carried.handles)
            model.release({(tag - 1, k) for k in range(n_int)})
        carried = sealed
    assert model.written > 0


def test_release_and_close_free_every_tail(tmp_path):
    mlog = make_mlog(tmp_path)
    mlog.send(0, 0, 1)
    mlog.send(5, 0, 2)
    manifest = mlog.seal()
    assert mlog._resident_pages == 2
    mlog.release(manifest.handles)
    assert mlog._resident_pages == 0 and all(not h.tail for h in manifest.handles)
    mlog.send(0, 0, 3)
    last = mlog.seal()
    mlog.close()  # a tail still held at the end is never written
    assert mlog._resident_pages == 0 and not last.handles[0].tail
    assert mlog.registry.totals()["log"] == (0, 0)


def test_release_is_idempotent(tmp_path):
    # interval 0's log has a page in its file and a one-page tail
    mlog = make_mlog(tmp_path, budget_pages=2)
    mlog.registry.set_budget(1 << 20)  # so that holds are kept
    for i in range(mlog.capacity + 1):
        mlog.send(0, 0, i)
    mlog.send(5, 0, 99)
    manifest = mlog.seal()
    mlog.send(5, 0, 7)
    first = manifest.handles[0]
    assert filed(first) == 1 and len(first.tail) == 1 and mlog._resident_pages == 2
    path = first.store.path
    for _ in range(2):
        mlog.release(manifest.handles)
        assert all(h.store is None and not h.tail for h in manifest.handles)
        assert not os.path.exists(path) and mlog.registry._stores["log"] == []
        assert (mlog._resident_pages, mlog._carried_pages, mlog._carried) == (1, 0, [])
        assert mlog.registry.holds["multilog"] == mlog.page_size
    mlog.close()
    mlog.registry.set_budget(0)


# -- send_many: page-exact with a loop of send ----------------------------------

FMT17 = RecordFormat([("val", "<u8"), ("flag", "u1")])  # odd 17-byte records


def count_evictions(mlog):
    total = [0]
    inner = mlog.evict_if_needed

    def evict(*args):
        n = inner(*args)
        total[0] += n
        return n

    mlog.evict_if_needed = evict
    return total


def snapshot(mlog):
    logs = [
        (log.fill, log.message_count, bytes(log.top), [bytes(p) for p in log.closed], filed(log))
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
        assert (filed(a), a.message_count) == (filed(b), b.message_count)
        assert [a.store.read_page(o) for o in range(filed(a))] == [b.store.read_page(o) for o in range(filed(b))]


def test_send_many_rejects_bad_records(tmp_path):
    mlog = make_mlog(tmp_path)
    with pytest.raises(ContractViolation):
        mlog.send_many(np.zeros(1, FMT17.dtype))  # not this log's wire format
    recs = np.zeros(2, FMT16.dtype)
    recs["dest"] = [1, 6]
    with pytest.raises(ContractViolation):
        mlog.send_many(recs)  # 6 is outside the vertex range
    assert mlog.total_appends == 0


# -- combining at the sender ----------------------------------------------------

# PageRank's wire format: dest and change, 12-byte records, and a 9-byte
# accumulator slot (the hit flag and the float64 sum)
PR_COMBINE = {"change": np.add}
PR_FMT = RecordFormat([("change", "<f8")], combine=PR_COMBINE)
# a float32 sum fed float64 columns, integer sums that wrap, and integer and
# float minima and maxima
MIXED_COMBINE = {
    "f32": np.add,
    "u8sum": np.add,
    "i16sum": np.add,
    "umin": np.minimum,
    "imax": np.maximum,
    "fmin": np.minimum,
    "fmax": np.maximum,
}
MIXED_FMT = RecordFormat(
    [("f32", "<f4"), ("u8sum", "u1"), ("i16sum", "<i2"), ("umin", "<u4"), ("imax", "<i8"), ("fmin", "<f8"), ("fmax", "<f4")],
    combine=MIXED_COMBINE,
)


def program_columns(fmt, n, span, rng):
    """Columns as a vertex program sends them: int64 ids, float64 floats
    (-0.0 among them, and some destinations sent only -0.0), int64 ints
    that overflow a narrow field's sum; a src column only if fmt has src."""
    dest = rng.integers(0, span, n)
    src = rng.integers(0, 1 << 32, n)
    cols = [dest, src] if fmt.has_src else [dest]
    for name, _ in fmt.payload_fields:
        kind = fmt.dtype[name].kind
        if kind == "f":
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            col[rng.random(n) < 0.2] = -0.0
            col[dest % 7 == 3] = -0.0
        else:
            info = np.iinfo(fmt.dtype[name])
            col = rng.integers(info.min, int(info.max) + 1, n)
        cols.append(col)
    return cols


def send_in_cuts(mlog, cols, rng):
    """Send the columns in random cuts, through send_columns and, now and
    then, as records through send_many."""
    n = len(cols[0])
    cuts = np.sort(rng.integers(0, n + 1, rng.integers(0, 8)))
    for a, b in zip([0, *cuts], [*cuts, n]):
        part = [c[a:b] for c in cols]
        if rng.random() < 0.3:
            recs = np.empty(b - a, mlog.fmt.dtype)
            for name, col in zip(mlog.fmt.dtype.names, part):
                recs[name] = col
            mlog.send_many(recs)
        else:
            mlog.send_columns(part)


@pytest.mark.parametrize("fmt, combine", [(PR_FMT, PR_COMBINE), (MIXED_FMT, MIXED_COMBINE)], ids=["pagerank", "mixed"])
@pytest.mark.parametrize("seed", range(6))
def test_the_sender_fold_gives_the_bits_of_apply_combine_over_the_raw_log(tmp_path, fmt, combine, seed):
    from loggraph.sortgroup import apply_combine

    rng = np.random.default_rng(seed)
    bounds = [0, 40, 100, 101, 160]
    n = int(rng.integers(200, 2000))
    cols = program_columns(fmt, n, bounds[-1], rng)

    def run(name, comb):
        reg = StoreRegistry(256)
        mlog = MultiLog(bounds, fmt, reg, str(tmp_path / name), 64 << 10, comb)
        send_in_cuts(mlog, cols, np.random.default_rng(seed + 100))
        sends = mlog.total_appends
        logs = [read_log_records(h, fmt) for h in mlog.seal().handles]
        mlog.close()
        return logs, sends

    raw, raw_sends = run("raw", None)
    folded, folded_sends = run("folded", combine)
    assert raw_sends == folded_sends == n
    for k, (r, f) in enumerate(zip(raw, folded)):
        lo, hi = bounds[k], bounds[k + 1]
        want = apply_combine(r, lo, hi, combine, fmt).records
        # each interval's messages were dense enough to accumulate
        assert len(f) == len(np.unique(r["dest"])) < len(r)
        assert f.tobytes() == want.tobytes(), k
        # on one record per destination the receiver's fold is the identity
        assert apply_combine(f, lo, hi, combine, fmt).records.tobytes() == f.tobytes()


def test_a_negative_zero_sum_leaves_the_sender_as_it_leaves_the_receiver(tmp_path):
    from loggraph.sortgroup import apply_combine

    reg = StoreRegistry(256)
    mlog = MultiLog([0, 2], PR_FMT, reg, str(tmp_path / "logs"), 16 << 10, PR_COMBINE)
    mlog.send_columns([np.array([0, 1, 1]), np.array([-0.0, -0.0, -0.0])])
    (handle,) = mlog.seal().handles
    got = read_log_records(handle, PR_FMT)
    raw = np.zeros(3, PR_FMT.dtype)
    raw["dest"], raw["change"] = [0, 1, 1], -0.0
    assert got.tobytes() == apply_combine(raw, 0, 2, PR_COMBINE, PR_FMT).records.tobytes()
    assert got["dest"].tolist() == [0, 1] and not np.signbit(got["change"]).any()
    mlog.close()


def combined_logs(mlog, fmt, combine):
    """Seal mlog and combine each interval's log as the receiver does."""
    from loggraph.sortgroup import apply_combine

    bounds = mlog.bounds
    handles = mlog.seal().handles
    return [
        apply_combine(read_log_records(h, fmt), bounds[k], bounds[k + 1], combine, fmt).records.tobytes()
        for k, h in enumerate(handles)
    ]


@pytest.mark.parametrize("seed", range(5))
def test_a_raw_interval_turns_into_an_accumulator_once_its_records_outgrow_it(tmp_path, seed):
    # a 9-byte accumulator over 40 vertices takes 360 bytes: 30 records of
    # 12 bytes reach it, 29 do not. Interval 0 gets 30 messages, interval
    # 1 gets 29, in one order cut at random into calls: interval 0 ends as
    # an accumulator whatever the cuts, its raw records so far folded in and
    # their pages freed, and interval 1 stays raw
    rng = np.random.default_rng(seed)
    dest = rng.permutation(np.r_[rng.integers(0, 40, 30), rng.integers(40, 80, 29)])
    cols = [dest, rng.standard_normal(59)]
    got = {}
    for name, comb in (("raw", None), ("folded", PR_COMBINE)):
        reg = StoreRegistry(256)
        mlog = MultiLog([0, 40, 80], PR_FMT, reg, str(tmp_path / name), 16 << 10, comb)
        send_in_cuts(mlog, cols, np.random.default_rng(seed + 50))
        if comb is not None:
            assert [log.acc is not None for log in mlog.logs] == [True, False]
            assert mlog.logs[0].message_count == 0 and not mlog.logs[0].closed
            assert mlog._resident_pages == len(mlog.logs[1].closed) + (mlog.logs[1].fill > 0)
        got[name] = combined_logs(mlog, PR_FMT, PR_COMBINE)
        mlog.close()
    assert got["folded"] == got["raw"]


def test_the_turn_folds_the_records_logged_so_far_and_frees_their_pages(tmp_path):
    reg = StoreRegistry(256)
    reg.set_budget(1 << 20)  # so that holds are kept
    mlog = MultiLog([0, 40, 80], PR_FMT, reg, str(tmp_path / "logs"), 16 << 10, PR_COMBINE)
    # 25 records of 12 bytes take two 256-byte pages and stay below the
    # 360 bytes of a 9-byte accumulator over 40 vertices; 30 reach it
    mlog.send_columns([np.arange(25) % 40, 1.0])
    assert mlog.logs[0].acc is None and mlog.logs[0].message_count == 25
    assert mlog._resident_pages == 2 and reg.holds["multilog"] == 2 * 256
    mlog.send_columns([np.arange(25, 30), 0.5])
    assert mlog.logs[0].acc is not None and mlog._resident_pages == 0
    assert reg.holds["multilog"] == 40 * 9 and mlog.post_evict_peak == 2 * 256 + 40 * 9
    (records, _) = [read_log_records(h, PR_FMT) for h in mlog.seal().handles]
    assert records["dest"].tolist() == list(range(30))
    assert records["change"].tolist() == [1.0] * 25 + [0.5] * 5
    mlog.close()
    reg.set_budget(0)


@pytest.mark.parametrize("seed", range(3))
def test_a_plan_of_logs_the_senders_folded_is_not_folded_again(tmp_path, monkeypatch, seed):
    # intervals 0 and 1 get enough messages to accumulate, interval 2 too
    # few and interval 3 none: a plan of folded or empty logs, in one pass
    # or in two, yields them as loaded, and one that holds a raw log folds
    # it once, in one pass or in two; every inbox has the bits of the
    # receiver's fold over the raw log, -0.0 sums and float minima among them
    from loggraph import sortgroup
    from loggraph.sortgroup import FusePlan, apply_combine, iter_plan_sorted

    rng = np.random.default_rng(seed)
    bounds = [0, 40, 80, 120, 160]
    dest = rng.permutation(np.r_[rng.integers(0, 80, 300), rng.integers(80, 120, 5)])
    cols = program_columns(MIXED_FMT, len(dest), 160, rng)
    cols[0] = dest
    logs = {}
    for name, comb in (("raw", None), ("folded", MIXED_COMBINE)):
        mlog = MultiLog(bounds, MIXED_FMT, StoreRegistry(256), str(tmp_path / name), 64 << 10, comb)
        send_in_cuts(mlog, cols, np.random.default_rng(seed + 10))
        logs[name] = (mlog, mlog.seal())
    folded = logs["folded"][1]
    assert [h.folded for h in folded.handles] == [True, True, False, True]
    hit = np.zeros(160, bool)
    hit[dest] = True
    assert [h.message_count for h in folded.handles[:2]] == [hit[:40].sum(), hit[40:80].sum()]
    raw = [read_log_records(h, MIXED_FMT) for h in logs["raw"][1].handles]
    calls = []

    def spy(*args):
        calls.append(args[1:3])
        return apply_combine(*args)

    monkeypatch.setattr(sortgroup, "apply_combine", spy)
    for intervals, passes, folds in (([0, 1], 1, 0), ([3], 1, 0), ([1, 2], 1, 1), ([0], 2, 0), ([2], 2, 1)):
        calls.clear()
        got = list(iter_plan_sorted(FusePlan(intervals, 0, passes), folded, MIXED_FMT, bounds, combine=MIXED_COMBINE))
        assert len(calls) == folds
        lo, hi = bounds[intervals[0]], bounds[intervals[-1] + 1]
        want = apply_combine(np.concatenate([raw[k] for k in intervals]), lo, hi, MIXED_COMBINE, MIXED_FMT)
        assert np.concatenate([slog.records for _, _, slog in got]).tobytes() == want.records.tobytes()
        assert np.concatenate([slog.dests for _, _, slog in got]).tolist() == want.dests.tolist()
    for mlog, _ in logs.values():
        mlog.close()


def test_an_interval_with_a_page_handed_to_the_pager_stays_raw(tmp_path):
    # interval 2 is too wide to accumulate. Its pages fill the buffer, so
    # interval 0's messages pass the point with no room for its 90-byte
    # accumulator, and its first page is handed to the pager. Interval 1's
    # 18-byte accumulator fits the 50 bytes past the last whole page and
    # frees a page; then interval 0's accumulator would fit too, but it
    # stays raw: its records in the pager cannot be folded in
    cap = page_capacity(256, PR_FMT.width)
    bounds = [0, 10, 12, 1 << 20]
    sends = [np.full(40 * cap, 50), np.arange(cap) % 10, np.full(40 * cap, 50), [10], [11], [3]]
    got = {}
    for name, comb in (("raw", None), ("folded", PR_COMBINE)):
        reg = StoreRegistry(256)
        mlog = MultiLog(bounds, PR_FMT, reg, str(tmp_path / name), 40 * 256 + 50, comb)
        for dest in sends[:-1]:
            mlog.send_columns([np.asarray(dest), 1.0])
        if comb is not None:
            assert mlog.logs[0].store is not None and mlog.logs[1].acc is not None
            assert mlog._fits(10 * mlog._acc_width)
        mlog.send_columns([np.asarray(sends[-1]), 1.0])
        assert mlog.logs[0].acc is None
        got[name] = combined_logs(mlog, PR_FMT, PR_COMBINE)
        mlog.close()
    assert got["folded"] == got["raw"]


def test_an_accumulator_that_does_not_fit_leaves_its_interval_raw(tmp_path):
    # a 9-byte accumulator over 64 vertices takes 576 bytes; a budget of
    # 38 256-byte pages holds one beside a top page per interval and a full
    # block of 32 pages, not two
    bounds = [0, 64, 128]
    rng = np.random.default_rng(3)
    cols = program_columns(PR_FMT, 600, 128, rng)
    logs = {}
    for budget in (38 * 256, 64 << 10):
        reg = StoreRegistry(256)
        reg.set_budget(1 << 20)  # so that holds are kept
        mlog = MultiLog(bounds, PR_FMT, reg, str(tmp_path / str(budget)), budget, PR_COMBINE)
        mlog.send_columns(cols)
        logs[budget] = [log.acc is not None for log in mlog.logs]
        assert reg.holds["multilog"] <= budget
        logs[budget, "records"] = combined_logs(mlog, PR_FMT, PR_COMBINE)
        mlog.close()
        assert reg.holds["multilog"] == 0
        reg.set_budget(0)
    assert logs[38 * 256] == [True, False] and logs[64 << 10] == [True, True]
    assert logs[38 * 256, "records"] == logs[64 << 10, "records"]


def test_accumulators_come_out_of_the_pages_the_budget_holds(tmp_path):
    # a 9-byte accumulator over 100 vertices in a 40-page budget: 900
    # bytes leave room for 36 pages of interval 1's records, so the 37th
    # page evicts, and the hold counts both
    reg = StoreRegistry(256)
    reg.set_budget(1 << 20)  # so that holds are kept
    bounds = [0, 100, 1 << 20]
    combine = {"val": np.add}
    fmt = RecordFormat([("val", "<u8")], combine=combine)
    mlog = MultiLog(bounds, fmt, reg, str(tmp_path / "logs"), 40 * 256, combine)
    mlog.send_columns([np.arange(100), np.arange(100)])
    assert mlog.logs[0].acc is not None and mlog._page_budget == 36
    assert reg.holds["multilog"] == 900
    evicted = count_evictions(mlog)
    cap = mlog.capacity
    mlog.send_columns([np.full(36 * cap + 1, 150), 1])  # 36 * cap + 1 records open 37 pages
    assert evicted[0] == 1 and mlog._resident_pages == 36
    assert reg.holds["multilog"] == 36 * 256 + 900
    handles = mlog.seal().handles
    assert [h.message_count for h in handles] == [100, 36 * cap + 1]
    assert read_log_records(handles[0], fmt)["val"].tolist() == list(range(100))
    mlog.close()
    reg.set_budget(0)


def test_sealing_an_accumulator_evicts_the_oldest_closed_pages_not_a_sealed_tail(tmp_path):
    # interval 1 folds 200 vertices into 1,800 bytes, leaving 36 of 44
    # pages; intervals 0 and 2, of 100 vertices each, have no room for a
    # 900-byte accumulator beside it. Interval 2's 18 pages close first,
    # then interval 0's 18, so the buffer is full. At seal interval 1's 200
    # records open 10 pages where the accumulator freed 8: 2 pages go, the
    # 2 oldest closed ones, both interval 2's. Interval 0 is loaded first in
    # the next superstep and keeps its pages resident: no tail of an
    # interval sealed before interval 1 is spilled
    reg = StoreRegistry(256)
    bounds = [0, 100, 300, 400]
    mlog = MultiLog(bounds, PR_FMT, reg, str(tmp_path / "logs"), 44 * 256, PR_COMBINE)
    cap = mlog.capacity
    mlog.send_columns([np.arange(100, 300), 1.0])
    assert mlog.logs[1].acc is not None and mlog._page_budget == 36
    mlog.send_columns([300 + np.arange(18 * cap) % 100, 1.0])
    mlog.send_columns([np.arange(18 * cap) % 100, 1.0])
    assert [log.acc is not None for log in mlog.logs] == [False, True, False]
    assert mlog._resident_pages == 36
    evicted = count_evictions(mlog)
    handles = mlog.seal().handles
    assert evicted[0] == 2
    assert [filed(h) for h in handles] == [0, 0, 2]
    assert [len(h.tail) for h in handles] == [18, -(-200 // cap), 16]
    assert [h.message_count for h in handles] == [18 * cap, 200, 18 * cap]
    assert read_log_records(handles[2], PR_FMT)["dest"].tolist() == (300 + np.arange(18 * cap) % 100).tolist()
    mlog.close()


@pytest.mark.parametrize("dest", [-1, 80, 1 << 32])
def test_a_combining_send_to_a_bad_destination_is_a_contract_violation(tmp_path, dest):
    reg = StoreRegistry(256)
    mlog = MultiLog([0, 40, 80], PR_FMT, reg, str(tmp_path / "logs"), 16 << 10, PR_COMBINE)
    with pytest.raises(ContractViolation, match="outside vertex range"):
        mlog.send_columns([np.r_[np.arange(40), dest], 1.0])
    assert mlog.total_appends == 0 and all(log.acc is None for log in mlog.logs)
    mlog.close()


@pytest.mark.parametrize("combine", [None, PR_COMBINE], ids=["raw", "combined"])
def test_a_send_to_a_negative_destination_is_refused_at_a_1_byte_id_width(tmp_path, combine):
    # cast to 1-byte ids, -1 would be 255, a vertex of these 256
    fmt = RecordFormat(PR_FMT.payload_fields, "u1", combine)
    mlog = MultiLog([0, 40, 256], fmt, StoreRegistry(256), str(tmp_path / "logs"), 16 << 10, combine)
    with pytest.raises(ContractViolation, match="destination -1 outside vertex range"):
        mlog.send_columns(fmt.fields(np.r_[np.arange(40), -1], 0, [1.0]))
    with pytest.raises(ContractViolation, match="destination 256 outside vertex range"):
        mlog.send_columns(fmt.fields(np.r_[255, 256], 0, [1.0]))
    assert mlog.total_appends == 0
    mlog.close()


@pytest.mark.parametrize(
    "row", [(-1, 0, 1.0), (1 << 32, 0, 1.0), (0, 1 << 40, 1.0)], ids=["negative-dest", "dest-past-uint32", "src-past-uint32"]
)
def test_pack_turns_an_overflow_into_a_contract_violation(row):
    fmt = RecordFormat([("x", "<f4")])
    assert fmt.pack([(0, 1, 2.0)])[["dest", "src"]].tolist() == [(0, 1)]
    with pytest.raises(ContractViolation, match="does not fit the wire format"):
        fmt.pack([(0, 1, 2.0), row])
