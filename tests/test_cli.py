import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from loggraph import shards
from loggraph.apps import KCore
from loggraph.cli import build_report, main
from loggraph.engine import EngineConfig, run_app

from util import build_graph, random_graph, ring_graph

G6_LINES = "\n".join(f"{u} {v}" for u, v in [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def g6_file(tmp_path):
    p = tmp_path / "g6.txt"
    p.write_text("# ring on six vertices\n" + G6_LINES + "\n")
    return str(p)


def convert_g6(tmp_path, g6_file):
    out = str(tmp_path / "graph")
    rc = main(["convert", g6_file, out, "--budget", "96", "--page-size", "256", "--undirected"])
    assert rc == 0
    return out


def test_convert_skips_comments_and_counts(tmp_path, g6_file, capsys):
    out = convert_g6(tmp_path, g6_file)
    assert json.loads(capsys.readouterr().out)["num_edges"] == 12  # both directions
    meta = json.loads(Path(os.path.join(out, "meta.json")).read_text())
    assert sorted(meta) == [
        "colidx_width", "dataset_hash", "interval_bounds", "num_vertices", "page_size", "rowptr_width"
    ]
    assert meta["num_vertices"] == 6 and meta["colidx_width"] == 1 and meta["rowptr_width"] == 4
    assert meta["interval_bounds"] == [0, 3, 6]
    assert os.path.exists(os.path.join(out, "mapping.tsv"))


def test_convert_reports_bad_line_number(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n2 x\n")
    rc = main(["convert", str(p), str(tmp_path / "g")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "line 2" in err["message"]


def test_convert_relabels_sparse_ids(tmp_path, capsys):
    p = tmp_path / "sparse.txt"
    p.write_text("100 900\n900 5000\n")
    out = str(tmp_path / "g")
    assert main(["convert", str(p), out]) == 0
    meta = json.loads(Path(os.path.join(out, "meta.json")).read_text())
    assert meta["num_vertices"] == 3
    mapping = dict(
        tuple(map(int, line.split())) for line in Path(out, "mapping.tsv").read_text().splitlines()
    )
    assert mapping == {0: 100, 1: 900, 2: 5000}


def test_run_bfs_levels_histogram(tmp_path, g6_file):
    out = convert_g6(tmp_path, g6_file)
    report_path = str(tmp_path / "report.json")
    rc = main(
        ["run", "--graph", out, "--app", "bfs", "--source", "0",
         "--memory-budget", str(1 << 20), "--max-supersteps", "20",
         "--report", report_path]
    )
    assert rc == 0
    report = json.loads(Path(report_path).read_text())
    assert report["summary"]["levels"] == {"0": 1, "1": 2, "2": 2, "3": 1}
    assert report["converged"] is True
    # the structural budget is a share of memory_budget, not a knob of its own
    assert sorted(report["engine"]) == [
        "edge_log", "max_supersteps", "memory_budget", "page_size", "parallel", "seed", "sort_frac"
    ]


def test_run_with_a_zero_sort_share_prints_a_config_error(tmp_path, g6_file, capsys):
    out = convert_g6(tmp_path, g6_file)
    assert main(["run", "--graph", out, "--app", "bfs", "--source", "0", "--sort-frac", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "sort_frac=0.0" in err["message"]


def test_run_with_a_sort_budget_below_one_record_prints_a_config_error(tmp_path, capsys):
    edges = tmp_path / "triangle.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    out = str(tmp_path / "graph")
    assert main(["convert", str(edges), out, "--budget", "96", "--page-size", "256"]) == 0
    capsys.readouterr()
    argv = ["run", "--graph", out, "--app", "bfs", "--source", "0", "--memory-budget", "10000", "--sort-frac", "0.00001"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "sort budget of 0 bytes" in err["message"]


def test_run_respects_superstep_cap(tmp_path, g6_file):
    out = convert_g6(tmp_path, g6_file)
    report_path = str(tmp_path / "report.json")
    rc = main(
        ["run", "--graph", out, "--app", "pagerank",
         "--memory-budget", str(1 << 20), "--max-supersteps", "15",
         "--report", report_path]
    )
    assert rc == 0
    report = json.loads(Path(report_path).read_text())
    assert report["totals"]["supersteps"] == 15
    assert report["converged"] is False


def test_run_unknown_app_fails_cleanly(tmp_path, g6_file, capsys):
    out = convert_g6(tmp_path, g6_file)
    with pytest.raises(SystemExit):  # argparse rejects the choice
        main(["run", "--graph", out, "--app", "nope"])


@pytest.mark.parametrize("flag", ["--parallel", "--multilog-frac", "--edgelog-frac", "--merge-threshold", "--threshold"])
def test_run_rejects_removed_flags(tmp_path, g6_file, flag):
    out = convert_g6(tmp_path, g6_file)
    with pytest.raises(SystemExit) as raised:  # argparse knows no such flag
        main(["run", "--graph", out, "--app", "bfs", flag, "5"])
    assert raised.value.code == 2


def test_run_same_seed_byte_identical_reports(tmp_path, g6_file):
    # the ring at 1 MiB, and a 400-vertex graph in 9 intervals at the
    # smallest budget whose multi-log holds a page per interval; 8 edges a
    # vertex send enough 2-byte-id messages that the holds make the ledger
    # give csr pages back (at 4 a vertex they fit beside every page; in 13
    # intervals, at their smallest budget, only log pages are given back)
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{u} {v}\n" for u, v in zip(*random_graph(400, 8, seed=5))))
    assert main(["convert", str(edges), str(tmp_path / "tight"), "--budget", "6000", "--page-size", "256"]) == 0
    assert len(json.loads((tmp_path / "tight" / "meta.json").read_text())["interval_bounds"]) == 10
    cases = [(convert_g6(tmp_path, g6_file), 1 << 20), (str(tmp_path / "tight"), 9 * 256 * 20)]
    reports = []
    for i, (out, budget) in enumerate(cases):
        paths = []
        for trial in range(2):
            rp = str(tmp_path / f"report{i}-{trial}.json")
            rc = main(
                ["run", "--graph", out, "--app", "mis", "--seed", "9",
                 "--memory-budget", str(budget), "--max-supersteps", "30",
                 "--report", rp]
            )
            assert rc == 0
            paths.append(rp)
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()
        reports.append(json.loads(Path(paths[0]).read_text())["supersteps"])
    # the resident hits, the ledger's peak and the pages a shrinking budget
    # gave back are part of what stays identical
    roomy, tight = reports
    assert sum(st["hits"]["csr"] for st in roomy) > 0
    assert min(st["resident_peak"] for st in roomy + tight) > 0
    assert sum(st["evicted"]["csr"] + st["evicted"]["state"] for st in tight) > 0


def test_run_csv_and_trace_outputs(tmp_path, g6_file):
    out = convert_g6(tmp_path, g6_file)
    csv_path = str(tmp_path / "steps.csv")
    trace_path = str(tmp_path / "trace.npz")
    rc = main(
        ["run", "--graph", out, "--app", "coloring",
         "--memory-budget", str(1 << 20), "--max-supersteps", "30",
         "--report", str(tmp_path / "r.json"), "--csv", csv_path, "--trace", trace_path]
    )
    assert rc == 0
    lines = Path(csv_path).read_text().strip().splitlines()
    assert lines[0].startswith("superstep,active_vertices,messages_sent")
    header = lines[0].split(",")
    assert [h for h in header if h.startswith("hits_")] == ["hits_csr", "hits_log", "hits_edgelog", "hits_state"]
    assert [h for h in header if h.startswith("evicted_")] == ["evicted_csr", "evicted_log", "evicted_edgelog", "evicted_state"]
    assert int(lines[1].split(",")[header.index("resident_peak")]) > 0
    hits_csr = header.index("hits_csr")
    assert [int(line.split(",")[hits_csr]) > 0 for line in lines[1:3]] == [False, True]
    trace = np.load(trace_path)
    assert set(trace["s0"].tolist()) == set(range(6))  # all active at superstep 0


def test_compare_all_active_single_shard_order_of_one(tmp_path, g6_file):
    out = convert_g6(tmp_path, g6_file)
    rp, tp, cp = (str(tmp_path / p) for p in ("r.json", "t.npz", "c.json"))
    assert main(
        ["run", "--graph", out, "--app", "coloring",
         "--memory-budget", str(1 << 20), "--max-supersteps", "30",
         "--report", rp, "--trace", tp]
    ) == 0
    assert main(
        ["compare", "--graph", out, "--report", rp, "--trace", tp,
         "--num-shards", "1", "--out", cp]
    ) == 0
    comp = json.loads(Path(cp).read_text())
    first = comp["rows"][0]
    assert first["active_vertices"] == 6  # everything active: both sides read it all
    assert 0.2 <= first["ratio"] <= 5.0


def test_compare_keeps_supersteps_whose_engine_pages_are_all_resident(tmp_path, g6_file):
    # after superstep 0 the engine reads nothing from storage, while the
    # shard engine still reads its shard every superstep
    out = convert_g6(tmp_path, g6_file)
    rp, tp, cp = (str(tmp_path / p) for p in ("r.json", "t.npz", "c.json"))
    assert main(
        ["run", "--graph", out, "--app", "pagerank",
         "--memory-budget", str(1 << 20), "--max-supersteps", "4",
         "--report", rp, "--trace", tp]
    ) == 0
    assert main(["compare", "--graph", out, "--report", rp, "--trace", tp, "--num-shards", "1", "--out", cp]) == 0
    rows = json.loads(Path(cp).read_text())["rows"]
    assert [row["superstep"] for row in rows] == [0, 1, 2, 3]
    assert rows[0]["ratio"] > 0
    assert all(row["engine_pages"] == 0 and row["shard_pages"] > 0 and row["ratio"] is None for row in rows[1:])


def test_report_totals_count_the_pages_moved_outside_supersteps(tmp_path):
    # a 1 MiB budget's structural share holds every k-core deletion, so the
    # CSR is merged, and written, only at the run's end
    src, dst = random_graph(200, 5, seed=43)
    g = build_graph(tmp_path / "g", src, dst, 200, page_size=256)
    config = EngineConfig(memory_budget=1 << 20, page_size=256, max_supersteps=500)
    before = g.registry.totals()
    result = run_app(g, KCore(k=4), config, str(tmp_path / "run"))
    after = g.registry.totals()
    totals = build_report(result, config, "kcore", {"k": 4}, g)["totals"]
    assert totals["reads"] == {c: after[c][0] - before[c][0] for c in after}
    assert totals["writes"] == {c: after[c][1] - before[c][1] for c in after}
    assert totals["writes"]["csr"] > 0 and sum(st.writes["csr"] for st in result.stats) == 0
    assert totals["writes"]["state"] > sum(st.writes["state"] for st in result.stats)


def test_compare_rejects_mismatched_dataset(tmp_path, g6_file, capsys):
    out = convert_g6(tmp_path, g6_file)
    rp, tp = (str(tmp_path / p) for p in ("r.json", "t.npz"))
    main(
        ["run", "--graph", out, "--app", "bfs", "--source", "0",
         "--memory-budget", str(1 << 20), "--report", rp, "--trace", tp]
    )
    report = json.loads(Path(rp).read_text())
    report["dataset_hash"] = "deadbeef"
    Path(rp).write_text(json.dumps(report))
    assert main(["compare", "--graph", out, "--report", rp, "--trace", tp]) == 2
    assert "hash" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize(
    "damage, error, named",
    [("reads", "ConfigError", "'reads'"), ("superstep", "ConfigError", "'superstep'"), ("trace", "FileNotFoundError", "t.npz")],
)
def test_compare_closes_its_shard_stores_and_temporary_directory_when_it_fails(
    tmp_path, g6_file, capsys, monkeypatch, damage, error, named
):
    out = convert_g6(tmp_path, g6_file)
    rp, tp = (str(tmp_path / p) for p in ("r.json", "t.npz"))
    assert main(["run", "--graph", out, "--app", "bfs", "--memory-budget", str(1 << 20), "--report", rp, "--trace", tp]) == 0
    if damage == "trace":
        os.remove(tp)
    else:
        report = json.loads(Path(rp).read_text())
        del report["supersteps"][-1][damage]
        Path(rp).write_text(json.dumps(report))
    built, build = [], shards.build_shards
    monkeypatch.setattr(shards, "build_shards", lambda *args: built.append(build(*args)) or built[-1])
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    capsys.readouterr()
    assert main(["compare", "--graph", out, "--report", rp, "--trace", tp]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and named in err["message"]
    assert built or damage != "trace"
    assert all(store._f.closed for shard_set in built for store in shard_set.stores)
    assert os.listdir(tmp_path / "tmp") == []


@pytest.mark.parametrize(
    "flag, named",
    [("--page-size=16", "page_size"), ("--page-size=17", "page_size"), ("--page-size=0", "page_size"),
     ("--record-size=0", "record_size"), ("--record-size=-4", "record_size")],
)
def test_convert_refuses_a_page_or_record_size_that_holds_no_record(tmp_path, g6_file, capsys, flag, named):
    # a 16-byte page is all header, and a record of 0 bytes sizes no interval
    out = tmp_path / "graph"
    assert main(["convert", g6_file, str(out), "--budget", "96", flag]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and named in err["message"]
    assert not out.exists()


def test_stats_subcommand(tmp_path, g6_file, capsys):
    out = convert_g6(tmp_path, g6_file)
    capsys.readouterr()  # drop the convert summary
    assert main(["stats", "--graph", out]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["meta"]["num_edges"] == 12 and info["meta"]["colidx_width"] == 1
    assert info["out_degree"]["max"] == 2
    assert info["pages"]["colidx"] >= 1
