import numpy as np
import pytest

from loggraph import sortgroup
from loggraph.multilog import MultiLog, RecordFormat
from loggraph.pager import StoreRegistry
from loggraph.sortgroup import FusePlan, apply_combine, plan_fusion, sort_n_group

FMT16 = RecordFormat([("val", "<u8")])


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


def test_fusion_safety_estimates_within_budget():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 50, rng.integers(1, 12))
        budget = int(rng.integers(160, 800))
        for plan in plan_fusion(counts, 16, budget):
            if plan.passes == 1:
                assert plan.est_bytes <= budget
            assert plan.intervals == sorted(plan.intervals)


# -- load_log ----------------------------------------------------------------

def make_sealed(tmp_path, sends, bounds=(0, 4, 8), page_size=256):
    reg = StoreRegistry(page_size)
    mlog = MultiLog(list(bounds), FMT16, reg, str(tmp_path / "logs"), 64 * page_size)
    for d, s, v in sends:
        mlog.send(d, s, v)
    return mlog.seal(), reg


def test_load_empty_chain(tmp_path):
    manifest, reg = make_sealed(tmp_path, [])
    recs = sortgroup.load_log(FusePlan([0], 0), manifest, FMT16)
    assert len(recs) == 0
    assert reg.totals()["log"][0] == 0


def test_load_counts_pages_exactly_once(tmp_path):
    cap = (256 - 16) // 16
    n = 2 * cap + 5  # 2 full pages + 1 partial
    manifest, reg = make_sealed(tmp_path, [(0, 1, i) for i in range(n)])
    before = reg.totals()["log"][0]
    recs = sortgroup.load_log(FusePlan([0], n * 16), manifest, FMT16)
    assert len(recs) == n
    assert reg.totals()["log"][0] - before == 3
    assert recs["val"].tolist() == list(range(n))  # chain order = arrival order


def test_load_fused_intervals_concatenates(tmp_path):
    manifest, reg = make_sealed(tmp_path, [(0, 1, 10), (5, 1, 20)])
    before = reg.totals()["log"][0]
    recs = sortgroup.load_log(FusePlan([0, 1], 32), manifest, FMT16)
    assert reg.totals()["log"][0] - before == 2
    assert recs["val"].tolist() == [10, 20]


def test_load_detects_manifest_mismatch(tmp_path):
    manifest, _ = make_sealed(tmp_path, [(0, 1, 1)])
    manifest.handles[0].message_count = 99
    from loggraph.errors import CorruptPageError

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

PR_FMT = RecordFormat([("change", "<f8"), ("activate", "u1")])


def _pr_reduce(records, starts, out):
    out["change"] = np.add.reduceat(records["change"], starts)
    out["activate"] = np.maximum.reduceat(records["activate"], starts)


def pr_records(triples, activate=()):
    out = np.zeros(len(triples), PR_FMT.dtype)
    for i, (d, s, c) in enumerate(triples):
        out[i] = (d, s, c, activate[i] if len(activate) else 0)
    return out


def test_combine_folds_changes():
    slog = sort_n_group(pr_records([(3, 5, 0.10), (3, 2, 0.25), (3, 9, 0.05)]))
    out = apply_combine(slog, _pr_reduce, PR_FMT)
    assert len(out.records) == 1
    assert out.records["change"][0] == pytest.approx(0.40, abs=1e-12)
    assert out.records["src"][0] == 2  # smallest contributing src


def test_combine_single_record_identity():
    slog = sort_n_group(pr_records([(3, 5, 0.5), (4, 1, 0.25)]))
    out = apply_combine(slog, _pr_reduce, PR_FMT)
    assert out.records.tobytes() == slog.records.tobytes()


def test_combine_scalar_and_vectorized_agree():
    # the vectorized reducer against a plain per-group loop
    rng = np.random.default_rng(9)
    trips = [(int(d), int(s), float(c)) for d, s, c in zip(rng.integers(0, 6, 200), rng.integers(0, 30, 200), rng.random(200))]
    flags = rng.integers(0, 2, 200)
    slog = sort_n_group(pr_records(trips, flags))
    out = apply_combine(slog, _pr_reduce, PR_FMT)
    dests = sorted({d for d, _, _ in trips})
    assert out.records["dest"].tolist() == dests
    for i, d in enumerate(dests):
        group = [j for j, (dd, _, _) in enumerate(trips) if dd == d]
        assert out.records["change"][i] == pytest.approx(sum(trips[j][2] for j in group), abs=1e-12)
        assert out.records["src"][i] == min(trips[j][1] for j in group)
        assert out.records["activate"][i] == max(flags[j] for j in group)
    assert np.array_equal(out.starts, np.arange(len(dests)))
    assert np.array_equal(out.ends, np.arange(len(dests)) + 1)


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
    got = np.concatenate([slog.records for _, _, slog in parts])
    assert got.tobytes() == want.records.tobytes()
    assert max(peak) < whole.nbytes  # each pass held strictly less than the full log
