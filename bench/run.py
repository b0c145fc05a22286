"""Seeded end-to-end benchmark of the loggraph engine.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The graph is generated from the seed, then converted and run repeatedly,
each engine run in a fresh single-threaded process, until the time budget is
spent. Every run's result is checked against an independent reference and
its exact counts against the first run's. With --trace 0 the end-to-end
metrics are reported (medians over the runs); with --trace 1 each round is
one untraced and one traced run, and the per-layer metrics come from the
traced one. The last stdout line is the JSON result. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

try:
    import numpy as np
    import loggraph
    from loggraph.ingest import convert_arrays
except ImportError as exc:
    sys.exit(f"bench: cannot import the engine from {ROOT / 'src'}: {exc}")
if Path(loggraph.__file__).resolve().parent != ROOT / "src" / "loggraph":
    sys.exit(f"bench: loggraph imported from {loggraph.__file__}, not from this checkout")

from bench.calibrate import Calibrator, scaled  # noqa: E402
from bench.reference import Reference  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

CLASSES = ("csr", "log", "edgelog", "state")
MIN_SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 45

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pages_read": "pages",
    "pages_written": "pages",
    "peak_rss_mb": "MiB",
    "disk_peak_mb": "MiB",
}

PER_LAYER_UNITS = {
    **{f"pager.{d}.{k}": "pages" for d in ("read", "write") for k in CLASSES},
    "pager.read_s": "s",
    "pager.write_s": "s",
    "multilog.sends": "count",
    "multilog.send_s": "s",
    "multilog.us_per_send": "us",
    "multilog.evict_s": "s",
    "multilog.evicted_pages": "pages",
    "multilog.seal_s": "s",
    "multilog.page_fill": "share",
    "multilog.resident_peak_bytes": "bytes",
    "sortgroup.plans": "count",
    "sortgroup.passes": "count",
    "sortgroup.load_s": "s",
    "sortgroup.sort_s": "s",
    "sortgroup.combine_s": "s",
    "sortgroup.inbox_s": "s",
    "sortgroup.inbox_calls": "count",
    "sortgroup.records": "count",
    "csr.fetch_s": "s",
    "csr.fetch_vertices": "count",
    "csr.fetch_useful_frac": "share",
    "csr.merge_s": "s",
    "csr.merges": "count",
    "csr.merge_ops": "count",
    "state.checkout_s": "s",
    "state.commit_s": "s",
    "state.aux_checkout_s": "s",
    "state.aux_commit_s": "s",
    "state.dirty_frac": "share",
    "edgelog.log_s": "s",
    "edgelog.fetch_s": "s",
    "edgelog.logged_vertices": "count",
    "edgelog.served_vertices": "count",
    "edgelog.hit_frac": "share",
    "edgelog.bytes_logged": "bytes",
    "edgelog.prediction_accuracy": "share",
    "engine.supersteps": "count",
    "engine.messages": "count",
    "engine.active_vertices": "count",
    "engine.us_per_msg": "us",
    "engine.other_s": "s",
    "engine.trace_overhead_frac": "share",
    "apps.process_s": "s",
    "apps.process_calls": "count",
    "shards.page_ratio_sparse": "ratio",
    "shards.page_ratio_dense": "ratio",
}


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "page_io": "served from the OS page cache; times are this host's, not a flash device's",
    }


def exact_counts(out: dict) -> tuple:
    """What a correct run of one seed must reproduce bit for bit."""
    return (
        out["supersteps"],
        out["messages"],
        out["active_vertices"],
        tuple(out["reads"][k] for k in CLASSES),
        tuple(out["writes"][k] for k in CLASSES),
        out["digest"],
    )


class Bench:
    """One workload on one seed: the generated graph and the runs made on it."""

    def __init__(self, name: str, seed: int, work: Path):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.src, self.dst = self.w.make_graph(seed)
        self.edges = work / "edges.npz"
        np.savez(self.edges, src=self.src, dst=self.dst)
        self.reference = Reference(self.w, seed, self.src, self.dst)
        self.calibrator = Calibrator()
        self.setup_s: list[float] = []  # reference seconds
        self.setup_raw_s: list[float] = []
        self.expected: tuple | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self._serial = 0

    def convert(self, out_dir: Path):
        before = self.calibrator.kernel()
        t0 = time.perf_counter()
        graph = convert_arrays(
            self.src, self.dst, self.w.num_vertices(), str(out_dir), **self.w.convert_args()
        )
        raw = time.perf_counter() - t0
        self.setup_raw_s.append(raw)
        self.setup_s.append(scaled(raw, (before + self.calibrator.kernel()) / 2))
        graph.registry.close_all()
        return graph.meta

    def graph_info(self) -> dict:
        n = self.w.num_vertices()
        meta = self.convert(self.work / "probe")
        shutil.rmtree(self.work / "probe")
        return {
            "n": n,
            "m": int(len(self.src)),
            "max_degree": int(np.bincount(self.src, minlength=n).max()),
            "num_intervals": meta.num_intervals,
        }

    def run(self, trace: bool) -> dict | None:
        """Convert afresh and run once in a child process; None on failure."""
        self._serial += 1
        run_dir = self.work / f"run{self._serial}"
        self.convert(run_dir / "graph")
        job = {
            "workload": self.w.name,
            "seed": self.seed,
            "graph_dir": str(run_dir / "graph"),
            "workdir": str(run_dir / "work"),
            "edges": str(self.edges),
            "trace": trace,
        }
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(job)],
                capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(run_dir, f"run {self._serial} timed out")
        if proc.returncode != 0:
            return self._fail(run_dir, f"run {self._serial} raised:\n{proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        states = np.load(run_dir / "work" / "states.npy")
        reason = self.reference.mismatch(states, out["supersteps"], self.w.max_supersteps)
        if reason is None:
            counts = exact_counts(out)
            if self.expected is None:
                self.expected = counts
            elif counts != self.expected:
                reason = f"exact counts {counts} differ from the first run's {self.expected}"
        shutil.rmtree(run_dir)
        return out if reason is None else self._fail(None, f"run {self._serial}: {reason}")

    def _fail(self, run_dir: Path | None, reason: str) -> None:
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
        self.failures.append(reason)
        print(f"FAILED {reason}", file=sys.stderr)
        return None


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        out = bench.run(trace=False)
        if out is not None:
            runs.append(out)
            print(
                f"  run {len(runs)}: wall_s={out['norm_wall_s']:.4f} (measured {out['wall_s']:.4f}) "
                f"reads={out['reads']} writes={out['writes']} rss={out['peak_rss_mb']:.1f}MiB",
                flush=True,
            )
        elif bench.attempted >= 3 and not runs:
            break
    while len(bench.setup_s) < MIN_SETUP_SAMPLES:
        bench.convert(bench.work / "extra")
        shutil.rmtree(bench.work / "extra")
    if not runs:
        return {}
    med = lambda key: statistics.median(key(r) for r in runs)  # noqa: E731
    print(
        f"  measured medians: setup {statistics.median(bench.setup_raw_s):.4f} s over "
        f"{len(bench.setup_s)} converts, wall {med(lambda r: r['wall_s']):.4f} s over {len(runs)} runs"
    )
    return {
        "setup_s": statistics.median(bench.setup_s),
        "wall_s": med(lambda r: r["norm_wall_s"]),
        "pages_read": med(lambda r: sum(r["reads"][k] for k in CLASSES)),
        "pages_written": med(lambda r: sum(r["writes"][k] for k in CLASSES)),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "disk_peak_mb": med(lambda r: r["disk_peak_mb"]),
    }


def measure_layers(bench: Bench, seconds: float) -> dict:
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        a = bench.run(trace=False)
        b = bench.run(trace=True)
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
            print(
                f"  round {len(traced)}: untraced {a['norm_wall_s']:.4f} s, traced {b['norm_wall_s']:.4f} s",
                flush=True,
            )
        elif bench.attempted >= 6 and not traced:
            break
    if not traced:
        return {}
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    wall = statistics.median(r["norm_wall_s"] for r in plain)
    layers["engine.us_per_msg"] = 1e6 * wall / layers["engine.messages"] if layers["engine.messages"] else 0.0
    layers["engine.trace_overhead_frac"] = statistics.median(r["norm_wall_s"] for r in traced) / wall - 1.0
    return layers


def report(bench: Bench, metrics: dict, units: dict) -> dict:
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    failed = len(bench.failures)
    print(f"  {'failed_frac':<32} {failed / bench.attempted:>16.6g} share ({failed} of {bench.attempted} runs)")
    return {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    work = ROOT / ".bench_work" / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(name, seed, work)
        print(f"workload {name} seed {seed}: {json.dumps(bench.graph_info())}", flush=True)
        if trace:
            metrics, units = measure_layers(bench, seconds), PER_LAYER_UNITS
        else:
            metrics, units = measure_end_to_end(bench, seconds), END_TO_END_UNITS
        if not metrics:
            print(f"bench: every run of {name} failed", file=sys.stderr)
            return None
        return report(bench, metrics, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print(f"env {json.dumps(environment())}", flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
