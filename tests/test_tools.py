"""tools/digest.py, whose lines CI's result-digest step compares with the
base branch's: two runs of the same code print the same digests; and the
argument handling and summaries of tools/pairs.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def digest(workload: str) -> dict:
    """The lines tools/digest.py prints for one workload, parsed as the CI
    step parses them: the workload's name, then key=value fields."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "--workload", workload],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout
    return {line.split()[0]: dict(f.split("=", 1) for f in line.split()[1:]) for line in out.splitlines() if line.strip()}


def test_the_digest_repeats_and_reads_no_log_page_twice():
    # community-rmat-tight is the workload that moves log pages. Its
    # traced_peak_mib is not compared: it moves by 0.01 MiB between runs;
    # the arena rows a run touches follow from its reads alone
    name = "community-rmat-tight"
    first, second = digest(name), digest(name)
    assert list(first) == list(second) == [name]
    a, b = first[name], second[name]
    assert (a["results"], a["pages"]) == (b["results"], b["pages"])
    assert a["arena_peak_mib"] == b["arena_peak_mib"] and float(a["arena_peak_mib"]) > 0
    # a plan loads each log once and the multi-log deletes it at that load
    assert 0 < int(a["read.log"]) <= int(a["written.log"])


def load_pairs():
    """tools/pairs.py as a module."""
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_runs_every_named_workload_in_each_pair_and_sums_up_each(monkeypatch, capsys):
    # run is stubbed: head is faster on walk-rmat-sparse and slower on
    # kcore-rmat-mutate; a workload named twice runs once a pair
    pairs = load_pairs()
    calls = []

    def run(side, workload, seed, seconds):
        calls.append((side.name, workload))
        faster = (side.name == "head") == (workload == "walk-rmat-sparse")
        return {"wall_s": 1.0 if faster else 2.0, "pages_read": 7.0}

    monkeypatch.setattr(pairs, "build", lambda ref, into: ref)
    monkeypatch.setattr(pairs, "run", run)
    argv = ["B", "H", "--workload", "walk-rmat-sparse", "--workload", "kcore-rmat-mutate", "--workload", "walk-rmat-sparse"]
    assert pairs.main([*argv, "--pairs", "3", "--seconds", "1"]) == 0
    walk, kcore = "walk-rmat-sparse", "kcore-rmat-mutate"
    base_first = [("base", walk), ("head", walk), ("base", kcore), ("head", kcore)]
    head_first = [("head", walk), ("base", walk), ("head", kcore), ("base", kcore)]
    assert calls == base_first + head_first + base_first
    out = capsys.readouterr().out
    summaries = [line for line in out.splitlines() if line.endswith("3 pairs at --seconds 1.0")]
    assert summaries == ["walk-rmat-sparse seed 1, 3 pairs at --seconds 1.0", "kcore-rmat-mutate seed 1, 3 pairs at --seconds 1.0"]
    walk_lines, kcore_lines = out.split(summaries[0])[1].split(summaries[1])
    assert "3 of 3 (0 lost)" in walk_lines.split("wall_s")[1].splitlines()[0]
    assert "0 of 3 (3 lost)" in kcore_lines.split("wall_s")[1].splitlines()[0]
    assert "0 of 3 (0 lost)" in kcore_lines.split("pages_read")[1].splitlines()[0]


def test_pairs_needs_a_workload():
    with pytest.raises(SystemExit):
        load_pairs().main(["B", "H"])
