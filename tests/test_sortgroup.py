import os
import tracemalloc

import numpy as np
import pytest

from loggraph import multilog, sortgroup
from loggraph.errors import ContractViolation, CorruptPageError
from loggraph.multilog import MultiLog, RecordFormat, read_log_records
from loggraph.pager import StoreRegistry
from loggraph.sortgroup import FusePlan, apply_combine, plan_fusion, sort_n_group

from util import spill_tails

FMT16 = RecordFormat([("val", "<u8")])
# a val sum's format: dest and val, no src
SUM_COMBINE = {"val": np.add}
SUM_FMT = RecordFormat([("val", "<u8")], combine=SUM_COMBINE)


def records_of(pairs, fmt=FMT16):
    """(dest, src, val) tuples -> structured record array."""
    out = np.zeros(len(pairs), fmt.dtype)
    for i, (d, s, v) in enumerate(pairs):
        out[i] = (d, s, v)
    return out


# -- fusion planning ---------------------------------------------------------

def test_fusion_single_plan_exact_budget():
    plans = plan_fusion(np.array([10, 10, 10]), 16, 480)
    assert len(plans) == 1
    assert plans[0].intervals == [0, 1, 2]
    assert plans[0].est_bytes == 480


def test_fusion_greedy_split():
    plans = plan_fusion(np.array([10, 10, 10]), 16, 320)
    assert [p.intervals for p in plans] == [[0, 1], [2]]


def test_fusion_skips_empty_intervals():
    plans = plan_fusion(np.array([0, 0, 5]), 16, 480)
    assert [p.intervals for p in plans] == [[2]]


def test_fusion_oversized_interval_gets_own_multi_pass_plan():
    plans = plan_fusion(np.array([4, 100, 4]), 16, 160)
    assert [p.intervals for p in plans] == [[0], [1], [2]]
    assert plans[1].passes == 10  # ceil(1600/160)
    assert plans[0].passes == plans[2].passes == 1


def test_fusion_forced_empty_interval_joins_the_current_plan():
    forced = np.array([False, True, False, True])
    plans = plan_fusion(np.array([5, 0, 5, 0]), 16, 480, forced)
    assert [(p.intervals, p.est_bytes) for p in plans] == [([0, 1, 2, 3], 160)]
    # with no log anywhere, the forced intervals make one plan of 0 bytes
    plans = plan_fusion(np.zeros(4, np.int64), 16, 480, forced)
    assert [(p.intervals, p.est_bytes) for p in plans] == [([1, 3], 0)]


def test_fusion_unforced_empty_interval_is_still_skipped():
    plans = plan_fusion(np.array([0, 5, 0, 0]), 16, 480, np.array([False, False, True, False]))
    assert [p.intervals for p in plans] == [[1, 2]]
    assert plan_fusion(np.array([0, 5, 0]), 16, 480, np.zeros(3, bool))[0].intervals == [1]


def test_fusion_oversized_interval_stands_alone_beside_forced_ones():
    # interval 0 is forced with no log, 1 overflows the budget, 2 is forced
    # with no log and 3 has a small log: 2 starts the plan after 1's
    plans = plan_fusion(np.array([0, 100, 0, 4]), 16, 160, np.array([True, False, True, False]))
    assert [(p.intervals, p.passes) for p in plans] == [([0], 1), ([1], 10), ([2, 3], 1)]
    assert [p.est_bytes for p in plans] == [0, 1600, 64]


def test_fusion_safety_estimates_within_budget():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 50, rng.integers(1, 12))
        budget = int(rng.integers(160, 800))
        for plan in plan_fusion(counts, 16, budget):
            if plan.passes == 1:
                assert plan.est_bytes <= budget
            assert plan.intervals == sorted(plan.intervals)


def test_fusion_plans_each_logged_or_forced_interval_once_in_order():
    rng = np.random.default_rng(1)
    for _ in range(50):
        counts = rng.integers(0, 50, rng.integers(1, 12)) * rng.integers(0, 2, 1)
        forced = rng.random(len(counts)) < 0.3
        budget = int(rng.integers(160, 800))
        plans = plan_fusion(counts, 16, budget, forced)
        planned = [k for plan in plans for k in plan.intervals]
        assert planned == np.flatnonzero((counts > 0) | forced).tolist()
        for plan in plans:
            assert plan.est_bytes == 16 * counts[plan.intervals].sum()
            assert plan.passes == 1 or plan.intervals == [plan.intervals[0]]


# -- load_log ----------------------------------------------------------------

def make_sealed(tmp_path, sends, bounds=(0, 4, 8), page_size=256, spill=False, fmt=FMT16):
    """Seal the (dest, src, val) sends, logged raw in fmt (SUM_FMT drops
    src); with spill, their tails then go to disk."""
    reg = StoreRegistry(page_size)
    mlog = MultiLog(list(bounds), fmt, reg, str(tmp_path / "logs"), 64 * page_size)
    for d, s, v in sends:
        mlog.send(d, s, v)
    manifest = mlog.seal()
    if spill:
        spill_tails(mlog)
    return manifest, reg


def test_load_empty_chain(tmp_path):
    manifest, reg = make_sealed(tmp_path, [])
    recs = sortgroup.load_log(FusePlan([0], 0), manifest, FMT16)
    assert len(recs) == 0
    assert reg.totals()["log"][0] == 0


def test_load_counts_pages_exactly_once(tmp_path):
    cap = (256 - 16) // 16
    n = 2 * cap + 5  # 2 full pages + 1 partial
    manifest, reg = make_sealed(tmp_path, [(0, 1, i) for i in range(n)], spill=True)
    before = reg.totals()["log"][0]
    recs = sortgroup.load_log(FusePlan([0], n * 16), manifest, FMT16)
    assert len(recs) == n
    assert reg.totals()["log"][0] - before == 3
    assert recs["val"].tolist() == list(range(n))  # chain order = arrival order


def test_load_fused_intervals_concatenates(tmp_path):
    manifest, reg = make_sealed(tmp_path, [(0, 1, 10), (5, 1, 20)], spill=True)
    before = reg.totals()["log"][0]
    recs = sortgroup.load_log(FusePlan([0, 1], 32), manifest, FMT16)
    assert reg.totals()["log"][0] - before == 2
    assert recs["val"].tolist() == [10, 20]


def test_load_detects_manifest_mismatch(tmp_path):
    manifest, _ = make_sealed(tmp_path, [(0, 1, 1)])
    manifest.handles[0].message_count = 99
    with pytest.raises(CorruptPageError):
        sortgroup.load_log(FusePlan([0], 99 * 16), manifest, FMT16)


# -- sort_n_group ------------------------------------------------------------

def test_sort_stable_by_dest():
    recs = records_of([(4, 0, 0), (2, 0, 1), (4, 0, 2), (1, 0, 3)])
    slog = sort_n_group(recs)
    assert slog.records["dest"].tolist() == [1, 2, 4, 4]
    assert slog.records["val"].tolist() == [3, 1, 0, 2]
    assert slog.dests.tolist() == [1, 2, 4]


def test_sort_same_dest_preserves_order():
    recs = records_of([(7, 0, i) for i in range(50)])
    slog = sort_n_group(recs)
    assert slog.records["val"].tolist() == list(range(50))


def test_group_index_partitions_records():
    rng = np.random.default_rng(2)
    recs = records_of([(int(d), 0, i) for i, d in enumerate(rng.integers(0, 9, 200))])
    slog = sort_n_group(recs)
    covered = 0
    for i in range(len(slog.dests)):
        seg = slog.records[slog.starts[i] : slog.ends[i]]
        assert np.all(seg["dest"] == slog.dests[i])
        covered += len(seg)
    assert covered == 200


def reference_sort_n_group(records):
    """Stable argsort by dest, grouped by np.unique: the reference order."""
    if len(records) == 0:
        e = np.zeros(0, np.int64)
        return records, e, e, e
    out = records[np.argsort(records["dest"], kind="stable")]
    dests, starts = np.unique(out["dest"], return_index=True)
    ends = np.append(starts[1:], len(out))
    return out, dests.astype(np.int64), starts.astype(np.int64), ends.astype(np.int64)


FMT17 = RecordFormat([("val", "<u8"), ("flag", "u1")])  # odd 17-byte records


@pytest.mark.parametrize("fmt", [FMT16, FMT17])
@pytest.mark.parametrize("n, dest_range", [(0, 1), (1, 1), (1, 1 << 32), (500, 3), (500, 40), (3000, 1 << 32)])
def test_sort_n_group_matches_stable_argsort_reference(fmt, n, dest_range):
    rng = np.random.default_rng(n + dest_range % 97)
    recs = np.zeros(n, fmt.dtype)
    recs["dest"] = rng.integers(0, dest_range, n)
    recs["dest"][: n // 10] = 0
    recs["dest"][n // 10 : n // 5] = min(dest_range, 1 << 32) - 1  # 2**32 - 1 among them
    recs["dest"] = rng.permutation(recs["dest"])
    recs["src"] = rng.integers(0, 1 << 32, n)
    recs["val"] = np.arange(n)
    want = reference_sort_n_group(recs)
    got = sort_n_group(recs)
    assert got.records.tobytes() == want[0].tobytes()
    for a, b in zip((got.dests, got.starts, got.ends), want[1:]):
        assert a.dtype == np.int64
        assert a.tolist() == b.tolist()
    assert got.records.flags.writeable


def test_sorted_records_of_a_loaded_log_are_writable(tmp_path):
    manifest, _ = make_sealed(tmp_path, [(3, 1, 7), (1, 1, 8), (3, 2, 9)])
    recs = sortgroup.load_log(FusePlan([0], 48), manifest, FMT16)
    assert not recs.flags.writeable  # parsed in place from the page bytes
    slog = sort_n_group(recs)
    slog.records["val"] += 1  # a program may write into its inbox records
    assert slog.records["val"].tolist() == [9, 8, 10]


def test_extract_active_dedup_sorted():
    recs = records_of([(4, 0, 0), (2, 0, 1), (4, 0, 2), (1, 0, 3)])
    assert sort_n_group(recs).dests.tolist() == [1, 2, 4]


def test_extract_active_empty():
    slog = sort_n_group(np.zeros(0, FMT16.dtype))
    assert len(slog.dests) == 0


def test_extract_active_single_dest_flood():
    recs = records_of([(7, 0, i) for i in range(1021)])
    assert sort_n_group(recs).dests.tolist() == [7]


# -- combine -----------------------------------------------------------------

# PageRank's and BFS's wire formats: a combiner's records carry no src
PR_COMBINE = {"change": np.add}
PR_FMT = RecordFormat([("change", "<f8")], combine=PR_COMBINE)
BFS_COMBINE = {"level": np.minimum}
BFS_FMT = RecordFormat([("level", "<u4")], combine=BFS_COMBINE)


def pr_records(pairs):
    return PR_FMT.pack(pairs)


def test_combine_folds_changes():
    out = apply_combine(pr_records([(3, 0.10), (3, 0.25), (3, 0.05)]), 0, 8, PR_COMBINE, PR_FMT)
    assert len(out.records) == 1
    assert out.records["change"][0] == pytest.approx(0.40, abs=1e-12)
    assert out.records.dtype.names == ("dest", "change")  # no sender to fold


def test_combine_single_record_identity():
    recs = pr_records([(3, 0.5), (4, 0.25)])
    out = apply_combine(recs, 0, 5, PR_COMBINE, PR_FMT)
    assert out.records.tobytes() == sort_n_group(recs).records.tobytes()


def test_combine_scalar_and_vectorized_agree():
    # the scatter against a plain per-group loop
    rng = np.random.default_rng(9)
    pairs = [(int(d), float(c)) for d, c in zip(rng.integers(0, 6, 200), rng.random(200))]
    out = apply_combine(pr_records(pairs), 0, 6, PR_COMBINE, PR_FMT)
    dests = sorted({d for d, _ in pairs})
    assert out.records["dest"].tolist() == dests
    for i, d in enumerate(dests):
        group = [j for j, (dd, _) in enumerate(pairs) if dd == d]
        assert out.records["change"][i] == pytest.approx(sum(pairs[j][1] for j in group), abs=1e-12)
    assert np.array_equal(out.starts, np.arange(len(dests)))
    assert np.array_equal(out.ends, np.arange(len(dests)) + 1)


def reference_combine(records, combine):
    """Stable sort by dest, then one reduceat per field: the reduction the
    scatter replaces."""
    slog = sort_n_group(records)
    out = slog.records[slog.starts]
    for name, ufunc in combine.items():
        out[name] = ufunc.reduceat(slog.records[name], slog.starts)
    return out


@pytest.mark.parametrize("n, lo, span", [(1, 0, 1), (300, 0, 10), (2000, 7, 50), (2000, 1000, 20_000), (500, (1 << 32) - 40, 40)])
def test_combine_matches_a_stable_sort_and_reduceat_reference(n, lo, span):
    rng = np.random.default_rng(n + span)
    pr = np.zeros(n, PR_FMT.dtype)
    pr["dest"] = lo + rng.integers(0, span, n)
    pr["change"] = rng.random(n) * 10.0 ** rng.integers(-6, 3, n)
    bfs = np.zeros(n, BFS_FMT.dtype)
    bfs["dest"] = pr["dest"]
    bfs["level"] = rng.integers(0, 1 << 32, n)
    bfs["level"][::7] = 0xFFFFFFFF  # the level an unreached vertex holds
    for recs, fmt, combine in ((pr, PR_FMT, PR_COMBINE), (bfs, BFS_FMT, BFS_COMBINE)):
        want = reference_combine(recs, combine)
        got = apply_combine(recs, lo, lo + span, combine, fmt)
        assert got.dests.dtype == np.int64 and got.dests.tolist() == want["dest"].tolist()
        assert np.all(np.diff(got.dests) > 0)
        assert got.starts.tolist() == list(range(len(want))) and got.ends.tolist() == list(range(1, len(want) + 1))
        for name in fmt.dtype.names:
            if name == "change":
                assert np.allclose(got.records[name], want[name], rtol=0, atol=1e-12)
            else:
                assert got.records[name].tolist() == want[name].tolist()


def test_combine_of_an_empty_pass_is_empty():
    got = apply_combine(np.zeros(0, PR_FMT.dtype), 5, 9, PR_COMBINE, PR_FMT)
    assert got.records.dtype == PR_FMT.dtype and len(got.records) == 0
    for col in (got.dests, got.starts, got.ends):
        assert col.dtype == np.int64 and len(col) == 0
    assert len(got.inbox(6)) == 0


def random_pr_records(n, lo, span, seed):
    rng = np.random.default_rng(seed)
    recs = np.zeros(n, PR_FMT.dtype)
    recs["dest"] = lo + rng.integers(0, span, n)
    recs["change"] = rng.random(n)
    return recs


@pytest.mark.parametrize("span", [1_000, 5_000, 100_000])
def test_slots_over_the_range_and_numbered_destinations_combine_alike(monkeypatch, span):
    # both add a float sum in record order, so they agree to the bit
    recs = random_pr_records(5_000, 30, span, span)
    monkeypatch.setattr(sortgroup, "DENSE_SPAN_PER_RECORD", 0)
    numbered = apply_combine(recs, 30, 30 + span, PR_COMBINE, PR_FMT)
    monkeypatch.setattr(sortgroup, "DENSE_SPAN_PER_RECORD", 1 << 40)
    dense = apply_combine(recs, 30, 30 + span, PR_COMBINE, PR_FMT)
    assert numbered.records.tobytes() == dense.records.tobytes()
    assert numbered.dests.tolist() == dense.dests.tolist()


@pytest.mark.parametrize("n, span", [(2, 10_000_000), (100, 10_000_000), (5_000, 5_000), (5_000, 20_000), (5_000, 10_000_000)])
def test_a_combiner_pass_allocates_with_its_records_not_its_range(n, span):
    # a few records over a wide range, as when a plan fuses two intervals
    # far apart, allocate about what as many records over a narrow one do;
    # slots over ten million vertices would take over 40 MB
    recs = random_pr_records(n, 0, span, n)
    tracemalloc.start()
    try:
        apply_combine(recs, 0, span, PR_COMBINE, PR_FMT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * recs.nbytes + (8 << 10)


@pytest.mark.parametrize(
    "combine, match",
    [
        ({"val": np.multiply}, "only np.add, np.minimum and np.maximum"),
        ({"val": np.add, "other": np.add}, "'other', which is not a payload field"),
        ({"val": np.add, "src": np.minimum}, "'src', which is not a payload field"),
        ({}, "no ufunc for the payload field 'val'"),
        (lambda records, starts, out: None, "must map payload fields to ufuncs"),
    ],
)
def test_a_combiner_other_than_add_min_or_max_per_payload_field_is_a_contract_violation(combine, match):
    with pytest.raises(ContractViolation, match=match):
        multilog.check_combine(combine, FMT16)
    multilog.check_combine({"val": np.minimum}, FMT16)


def test_a_combiner_that_names_src_is_a_contract_violation():
    # a combiner reduces message values, and its records carry no sender;
    # nor may a payload field take src's name
    with pytest.raises(ContractViolation, match="'src', which is not a payload field"):
        multilog.check_combine({"val": np.add, "src": np.minimum}, SUM_FMT)
    for combine in (None, {"src": np.minimum}):
        with pytest.raises(ContractViolation, match="payload field 'src' takes the name of a message id"):
            RecordFormat([("src", "<u4")], combine=combine)


def test_a_combiner_with_a_format_that_has_src_is_a_contract_violation(tmp_path):
    assert FMT16.has_src and not SUM_FMT.has_src
    assert SUM_FMT.dtype.names == ("dest", "val") and RecordFormat([("val", "<u8")], "u1", SUM_COMBINE).width == 9
    with pytest.raises(ContractViolation, match="has no src"):
        multilog.Accumulator(0, 8, SUM_COMBINE, FMT16)
    with pytest.raises(ContractViolation, match="has no src"):
        apply_combine(np.zeros(1, FMT16.dtype), 0, 8, SUM_COMBINE, FMT16)
    with pytest.raises(ContractViolation, match="has no src"):
        MultiLog([0, 8], FMT16, StoreRegistry(256), str(tmp_path / "logs"), 16 << 10, SUM_COMBINE)
    assert not (tmp_path / "logs").exists()
    assert multilog.Accumulator(0, 8, SUM_COMBINE, SUM_FMT).nbytes == 8 * (1 + 8)


def test_a_payload_field_that_is_not_an_integer_or_a_float_does_not_combine():
    with pytest.raises(ContractViolation, match="a bool field does not combine"):
        multilog.check_combine({"flag": np.maximum}, RecordFormat([("flag", "?")]))


def test_no_combine_preserves_multiset(tmp_path):
    rng = np.random.default_rng(11)
    sends = [(int(d), int(s), int(v)) for d, s, v in zip(rng.integers(0, 8, 500), rng.integers(0, 8, 500), rng.integers(0, 1 << 20, 500))]
    manifest, _ = make_sealed(tmp_path, sends)
    got = []
    for k in (0, 1):
        slog = sort_n_group(sortgroup.load_log(FusePlan([k], 1), manifest, FMT16))
        got.extend(zip(slog.records["dest"].tolist(), slog.records["src"].tolist(), slog.records["val"].tolist()))
    assert sorted(got) == sorted(sends)


# -- oversized interval passes ------------------------------------------------

def test_multi_pass_bucketing_equals_single_pass(tmp_path):
    rng = np.random.default_rng(13)
    sends = [(int(d), 0, int(v)) for d, v in zip(rng.integers(0, 8, 400), rng.integers(0, 99, 400))]
    manifest, reg = make_sealed(tmp_path, sends, bounds=(0, 8))
    whole_plan = FusePlan([0], 400 * 16)
    whole = sortgroup.load_log(whole_plan, manifest, FMT16)
    want = sort_n_group(whole)

    plan = FusePlan([0], 400 * 16, passes=3)
    indeg = np.bincount([d for d, _, _ in sends], minlength=8)
    peak = []
    parts = list(
        sortgroup.iter_plan_sorted(plan, manifest, FMT16, [0, 8], indeg, on_resident=peak.append)
    )
    assert [(a, b) for a, b, _ in parts] == sortgroup.split_dest_range(0, 8, indeg, 3)
    got = np.concatenate([slog.records for _, _, slog in parts])
    assert got.tobytes() == want.records.tobytes()
    for a, b, slog in parts:
        assert slog.dests.tolist() == [d for d in want.dests.tolist() if a <= d < b]
        for d in range(a, b):
            assert slog.inbox(d).tobytes() == want.inbox(d).tobytes()
    # the whole log is loaded once, and each pass is a slice of its one sort
    assert peak == [whole.nbytes]
    sorted_log = parts[0][2].records.base
    assert sorted_log is not None and all(slog.records.base is sorted_log for _, _, slog in parts)


def test_a_tail_spilled_between_passes_gives_the_same_records(tmp_path):
    # the batches of the passes send enough to spill part of a 27-page tail
    # still held; but the one load of the plan released it before the first
    # pass was yielded, so nothing of it is spilled or written
    rng = np.random.default_rng(13)
    sends = [(int(d), 0, int(v)) for d, v in zip(rng.integers(0, 8, 400), rng.integers(0, 99, 400))]
    reg = StoreRegistry(256)
    mlog = MultiLog([0, 8], FMT16, reg, str(tmp_path / "logs"), 30 * 256)
    for d, s, v in sends:
        mlog.send(d, s, v)
    manifest = mlog.seal()
    handle = manifest.handles[0]
    assert (len(handle.ordinals), len(handle.tail)) == (0, 27)
    want = sort_n_group(sortgroup.load_log(FusePlan([0], 400 * 16), manifest, FMT16))
    mlog.open_superstep(1)
    plan = FusePlan([0], 400 * 16, passes=3)
    indeg = np.bincount([d for d, _, _ in sends], minlength=8)
    parts, held = [], []
    for _, _, slog in sortgroup.iter_plan_sorted(plan, manifest, FMT16, [0, 8], indeg, None, mlog.release):
        parts.append(slog.records)
        held.append((len(handle.ordinals), len(handle.tail), mlog._carried_pages))
        mlog.send_many(np.zeros(5 * mlog.capacity, FMT16.dtype))  # this pass's batch sends
    assert held == [(0, 0, 0)] * 3  # released at the first yield
    assert reg.totals()["log"] == (0, 0)
    got = np.concatenate(parts)
    assert got.tobytes() == want.records.tobytes()
    mlog.close()


def spy_loads(monkeypatch):
    """The interval of each log handle sortgroup reads, in call order."""
    loads = []

    def spy(handle, fmt):
        loads.append(handle.interval)
        return read_log_records(handle, fmt)

    monkeypatch.setattr(sortgroup, "read_log_records", spy)
    return loads


@pytest.mark.parametrize("combine", [False, True])
def test_an_oversized_plan_reads_each_log_once(tmp_path, monkeypatch, combine):
    rng = np.random.default_rng(17)
    fmt, comb = (SUM_FMT, SUM_COMBINE) if combine else (FMT16, None)
    sends = [(int(d), 0, int(v)) for d, v in zip(rng.integers(0, 8, 300), rng.integers(0, 99, 300))]
    manifest, reg = make_sealed(tmp_path, sends, bounds=(0, 8, 16), spill=True, fmt=fmt)
    indeg = np.bincount([d for d, _, _ in sends], minlength=16)
    loads = spy_loads(monkeypatch)
    before = reg.totals()["log"][0]
    parts = list(sortgroup.iter_plan_sorted(FusePlan([0], 300 * fmt.width, passes=4), manifest, fmt, [0, 8, 16], indeg, combine=comb))
    assert len(parts) == 4 and loads == [0]
    assert reg.totals()["log"][0] - before == len(manifest.handles[0].ordinals)
    # a fused plan too reads each of its logs once
    loads.clear()
    list(sortgroup.iter_plan_sorted(FusePlan([0, 1], 300 * fmt.width), manifest, fmt, [0, 8, 16], indeg, combine=comb))
    assert loads == [0, 1]


def test_an_oversized_plan_consumes_its_logs_before_its_first_pass(tmp_path):
    # a 27-page log: superstep 1's sends spill its first two tail pages to
    # its file, and the other 25 stay resident
    rng = np.random.default_rng(13)
    sends = np.zeros(400, FMT16.dtype)
    sends["dest"], sends["val"] = rng.integers(0, 8, 400), rng.integers(0, 99, 400)
    reg = StoreRegistry(256)
    reg.set_budget(1 << 20)  # so that holds are kept
    mlog = MultiLog([0, 8], FMT16, reg, str(tmp_path / "logs"), 30 * 256)
    mlog.send_many(sends)
    manifest = mlog.seal()
    mlog.open_superstep(1)
    mlog.send_many(np.zeros(5 * mlog.capacity, FMT16.dtype))
    handle = manifest.handles[0]
    path = handle.store.path
    assert (handle.ordinals, len(handle.tail)) == ([0, 1], 25)
    assert reg.holds["multilog"] == 30 * 256
    indeg = np.bincount(sends["dest"], minlength=8)
    passes = sortgroup.iter_plan_sorted(FusePlan([0], 400 * 16, passes=3), manifest, FMT16, [0, 8], indeg, None, mlog.release)
    a, b, first = next(passes)
    assert not os.path.exists(path) and handle.store is None and reg._stores["log"] == []
    assert handle.tail == [] and mlog._carried == [] and mlog._carried_pages == 0
    assert reg.holds["multilog"] == 5 * 256  # only the open superstep's pages
    rest = list(passes)
    want = sort_n_group(sends)
    assert np.concatenate([first.records] + [slog.records for _, _, slog in rest]).tobytes() == want.records.tobytes()
    mlog.close()
    reg.set_budget(0)


def test_a_multi_pass_combiner_plan_equals_its_single_pass(tmp_path):
    rng = np.random.default_rng(13)
    sends = [(int(d), int(s), int(v)) for d, s, v in zip(rng.integers(0, 8, 400), rng.integers(0, 50, 400), rng.integers(0, 99, 400))]
    manifest, _ = make_sealed(tmp_path, sends, bounds=(0, 8), fmt=SUM_FMT)
    indeg = np.bincount([d for d, _, _ in sends], minlength=8)

    def combined(passes):
        plan = FusePlan([0], 400 * 12, passes=passes)
        return list(sortgroup.iter_plan_sorted(plan, manifest, SUM_FMT, [0, 8], indeg, combine=SUM_COMBINE))

    (whole,) = combined(1)
    parts = combined(3)
    assert len(parts) == 3
    assert [(a, b) for a, b, _ in parts] == [(a, b) for a, b in sortgroup.split_dest_range(0, 8, indeg, 3)]
    assert np.concatenate([slog.records for _, _, slog in parts]).tobytes() == whole[2].records.tobytes()
    assert np.concatenate([slog.dests for _, _, slog in parts]).tolist() == whole[2].dests.tolist() == list(range(8))
    for d in range(8):
        assert whole[2].inbox(d)["val"].tolist() == [sum(v for dd, _, v in sends if dd == d)]


@pytest.mark.parametrize("passes", [1, 2])
def test_a_destination_out_of_range_fails_loudly_on_the_combiner_path(tmp_path, passes):
    # interval 0's log holds dest 3, but the bounds say the interval is [0, 2)
    manifest, _ = make_sealed(tmp_path, [(1, 0, 5), (3, 0, 6)], fmt=SUM_FMT)
    plan = FusePlan([0], 24, passes=passes)
    with pytest.raises(CorruptPageError, match="outside interval range"):
        list(sortgroup.iter_plan_sorted(plan, manifest, SUM_FMT, [0, 2, 8], combine=SUM_COMBINE))
