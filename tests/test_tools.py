"""tools/digest.py, whose lines CI's result-digest step compares with the
base branch's: two runs of the same code print the same digests."""

import subprocess
import sys
from pathlib import Path

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
    # traced_peak_mib is not compared: it moves by 0.01 MiB between runs
    name = "community-rmat-tight"
    first, second = digest(name), digest(name)
    assert list(first) == list(second) == [name]
    a, b = first[name], second[name]
    assert (a["results"], a["pages"]) == (b["results"], b["pages"])
    # a plan loads each log once and the multi-log deletes it at that load
    assert 0 < int(a["read.log"]) <= int(a["written.log"])
