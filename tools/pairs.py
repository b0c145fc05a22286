"""Alternating pairs of benchmark runs of two git refs.

    python3 tools/pairs.py BASE HEAD --workload NAME [--workload NAME ...] [--seed N] [--pairs N] [--seconds S]

Builds each ref by `git archive` into its own temporary directory, so both
sides are built the same way (two checkouts of identical code can differ by
a few percent in `wall_s`). Then runs `bench/run.py --trace 0` of each side
for N pairs on the named workloads and seed, flipping which side runs first
from one pair to the next. A pair runs every named workload, in the given
order, each on both sides in the pair's side order, so one invocation
measures a claimed workload and the workloads it must not slow down under
the same conditions. It prints every run's `wall_s`, then, per workload and
per end-to-end metric, each side's median and quartiles and how many pairs
HEAD won (lower is better for every end-to-end metric; ties count for
neither side). Nothing is written to the repository. Both refs must hold
`bench/run.py`.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def build(ref: str, into: Path) -> str:
    """Extract the tree of ref into the directory into; returns its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()
    tree = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO, check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(into, filter="data")
    return commit


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark invocation of the checkout at side: metric -> value."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"pairs: {' '.join(cmd)} in {side} failed:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit(f"pairs: {side} ran {workload} incorrectly: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(workload: str, runs: dict[str, list[dict]], seed: int, pairs: int, seconds: float) -> None:
    """Print one workload's per-metric quartiles of both sides and HEAD's wins."""
    print(f"{workload} seed {seed}, {pairs} pairs at --seconds {seconds}")
    print(f"  {'metric':<14} {'base q1 / median / q3':>30} {'head q1 / median / q3':>30}  head wins")
    for metric in runs["base"][0]:
        base = [r[metric] for r in runs["base"]]
        head = [r[metric] for r in runs["head"]]
        wins = sum(h < b for b, h in zip(base, head))
        losses = sum(h > b for b, h in zip(base, head))
        fmt = lambda qs: " / ".join(f"{q:.4g}" for q in qs)  # noqa: E731
        print(f"  {metric:<14} {fmt(quartiles(base)):>30} {fmt(quartiles(head)):>30}  {wins} of {pairs} ({losses} lost)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git ref of the parent side")
    ap.add_argument("head", help="git ref of the changed side")
    ap.add_argument(
        "--workload", action="append", required=True, help="a workload name of bench/workloads.py; repeat it to run several"
    )
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    ap.add_argument("--seconds", type=float, default=20.0, help="--seconds of each bench/run.py call (default 20)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = list(dict.fromkeys(args.workload))
    runs = {w: {"base": [], "head": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="pairs_") as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        for name, ref in (("base", args.base), ("head", args.head)):
            print(f"{name} {ref} = {build(ref, sides[name])}", flush=True)
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for w in workloads:
                for name in order:
                    runs[w][name].append(run(sides[name], w, args.seed, args.seconds))
                shown = "  ".join(f"{name} wall_s={runs[w][name][-1]['wall_s']:.4f}" for name in order)
                print(f"pair {i + 1} {w} ({order[0]} first): {shown}", flush=True)
    for w in workloads:
        summary(w, runs[w], args.seed, args.pairs, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
