"""One engine run in a fresh process: `python bench/child.py '<json job>'`.

The job names the workload, seed, a converted graph directory, a work
directory and whether to trace. The run's final states go to
`<workdir>/states.npy`; everything else is printed as one JSON line. A
fresh process per run makes `ru_maxrss` the run's own peak.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402

from bench.calibrate import SpeedClock  # noqa: E402
from bench.workloads import PAGE_SIZE, WORKLOADS  # noqa: E402
from loggraph import shards  # noqa: E402
from loggraph.cli import ENGINE_READ_CLASSES  # noqa: E402
from loggraph.csr import GraphDir  # noqa: E402
from loggraph.engine import Engine  # noqa: E402
from loggraph.pager import PAGE_HEADER, StoreRegistry  # noqa: E402

def tree_bytes(*roots: str) -> int:
    total = 0
    for root in roots:
        for dirpath, _, files in os.walk(root):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_once(job: dict, program, record_trace: bool) -> tuple[dict, object, Engine]:
    """Run the workload's app; returns (measurements, RunResult, Engine).

    The run is timed by a SpeedClock. It closes a slice at most every
    SLICE_S seconds, checked on each `process` call, and after each
    superstep, where the hook also samples the disk footprint outside any
    slice.
    """
    w = WORKLOADS[job["workload"]]
    graph = GraphDir(job["graph_dir"])
    eng = Engine(graph, program, w.config(job["seed"], record_trace=record_trace), job["workdir"])
    disk_peak = tree_bytes(job["graph_dir"], job["workdir"])
    clock = SpeedClock()

    def sample_disk():
        nonlocal disk_peak
        disk_peak = max(disk_peak, tree_bytes(job["graph_dir"], job["workdir"]))

    inner = program.process

    def process(*args):
        clock.tick()
        return inner(*args)

    program.process = process
    clock.start()
    result = eng.run(on_superstep=lambda _engine, _stats: clock.lap(between=sample_disk))
    clock.lap()
    program.process = inner
    sample_disk()
    totals = graph.registry.totals()
    out = {
        "wall_s": clock.measured_s,
        "norm_wall_s": clock.reference_s,
        "paused_s": clock.paused_s,
        "supersteps": result.num_supersteps,
        "messages": sum(st.messages_sent for st in result.stats),
        "active_vertices": sum(st.active_vertices for st in result.stats),
        "reads": {k: v[0] for k, v in totals.items()},
        "writes": {k: v[1] for k, v in totals.items()},
        "disk_peak_mb": disk_peak / (1 << 20),
        "digest": hashlib.sha256(result.states.tobytes()).hexdigest(),
    }
    np.save(os.path.join(job["workdir"], "states.npy"), result.states)
    return out, result, eng


def shard_ratios(job: dict, result, num_shards: int) -> dict:
    """Shard-engine pages over engine pages at the sparsest and densest superstep.

    The run's recorded active sets are replayed through the shard baseline
    built from the generated (pre-mutation) edges with one shard per engine
    interval, so both sides get the same memory budget.
    """
    edges = np.load(job["edges"])
    w = WORKLOADS[job["workload"]]
    shard_set = shards.build_shards(
        edges["src"], edges["dst"], w.num_vertices(), num_shards,
        StoreRegistry(PAGE_SIZE), os.path.join(job["workdir"], "shards"),
    )
    rows = []
    for st, active in zip(result.stats, result.trace):
        engine_pages = sum(st.reads.get(c, 0) for c in ENGINE_READ_CLASSES)
        if len(active) and engine_pages:
            rows.append((len(active), shards.superstep_page_cost(shard_set, active) / engine_pages))
    for store in shard_set.stores:
        store.close()
    return {
        "shards.page_ratio_sparse": min(rows, key=lambda r: r[0])[1],
        "shards.page_ratio_dense": max(rows, key=lambda r: r[0])[1],
    }


def layer_metrics(tracer, result, eng: Engine, out: dict) -> dict:
    """Per-layer metrics from the tracer's aggregates and the run's stats."""
    c, s, n = tracer.counts, tracer.self_s, tracer.count
    region = PAGE_SIZE - PAGE_HEADER
    m = {}
    for kind in ("csr", "log", "edgelog", "state"):
        m[f"pager.read.{kind}"] = c[f"read.{kind}"]
        m[f"pager.write.{kind}"] = c[f"write.{kind}"]
    m["pager.read_s"] = s("pager.read_page")
    m["pager.write_s"] = s("pager.append_page", "pager.write_page")

    sends = n("multilog.send")
    m["multilog.sends"] = sends
    m["multilog.send_s"] = s("multilog.send")
    m["multilog.us_per_send"] = 1e6 * s("multilog.send") / sends if sends else 0.0
    m["multilog.evict_s"] = s("multilog.evict")
    m["multilog.evicted_pages"] = c["evicted_pages"]
    m["multilog.seal_s"] = s("multilog.seal")
    log_pages = c["write.log"]
    m["multilog.page_fill"] = c["log_records"] * eng.fmt.width / (log_pages * region) if log_pages else 0.0
    m["multilog.resident_peak_bytes"] = max(st.multilog_resident_peak for st in result.stats)

    m["sortgroup.plans"] = c["plans"]
    m["sortgroup.passes"] = c["passes"]
    m["sortgroup.load_s"] = s("sortgroup.iter_plan", "sortgroup.load_log", "sortgroup.read_log_records")
    m["sortgroup.sort_s"] = s("sortgroup.sort")
    m["sortgroup.combine_s"] = s("sortgroup.combine")
    m["sortgroup.inbox_s"] = s("sortgroup.inbox")
    m["sortgroup.inbox_calls"] = n("sortgroup.inbox")
    m["sortgroup.records"] = c["records"]

    m["csr.fetch_s"] = s("csr.fetch")
    m["csr.fetch_vertices"] = c["fetch_vertices"]
    fetched = c["colidx_pages"] * region
    m["csr.fetch_useful_frac"] = c["useful_bytes"] / fetched if fetched else 0.0
    m["csr.merge_s"] = s("csr.merge")
    m["csr.merges"] = n("csr.merge")
    m["csr.merge_ops"] = c["merge_ops"]

    m["state.checkout_s"] = s("state.checkout")
    m["state.commit_s"] = s("state.commit")
    m["state.aux_checkout_s"] = s("state.aux_checkout")
    m["state.aux_commit_s"] = s("state.aux_commit")
    m["state.dirty_frac"] = c["write.state"] / c["read.state"] if c["read.state"] else 0.0

    m["edgelog.log_s"] = s("edgelog.log")
    m["edgelog.fetch_s"] = s("edgelog.fetch")
    m["edgelog.logged_vertices"] = c["logged_vertices"]
    m["edgelog.served_vertices"] = c["served_vertices"]
    requests = c["served_vertices"] + c["fetch_vertices"]
    m["edgelog.hit_frac"] = c["served_vertices"] / requests if requests else 0.0
    m["edgelog.bytes_logged"] = c["bytes_logged"]
    scored = [(st.prediction_accuracy, st.active_vertices) for st in result.stats if st.prediction_accuracy is not None]
    weight = sum(a for _, a in scored)
    m["edgelog.prediction_accuracy"] = sum(p * a for p, a in scored) / weight if weight else 0.0

    m["engine.supersteps"] = out["supersteps"]
    m["engine.messages"] = out["messages"]
    m["engine.active_vertices"] = out["active_vertices"]
    m["engine.other_s"] = s("engine.run") - out["paused_s"]

    m["apps.process_s"] = s("apps.process")
    m["apps.process_calls"] = n("apps.process")
    return m


def main(job: dict) -> dict:
    os.makedirs(job["workdir"], exist_ok=True)
    program = WORKLOADS[job["workload"]].program(job["seed"])
    if not job["trace"]:
        out, _, _ = run_once(job, program, record_trace=False)
    else:
        from bench.trace import Tracer, traced

        tracer = Tracer()
        # installed before the graph opens its stores, so each store is
        # tagged with its traffic class
        with traced(tracer, program):
            out, result, eng = run_once(job, program, record_trace=True)
        for kind in out["reads"]:
            seen = (tracer.counts[f"read.{kind}"], tracer.counts[f"write.{kind}"])
            if seen != (out["reads"][kind], out["writes"][kind]):
                raise RuntimeError(f"traced {kind} pages {seen} disagree with the registry totals")
        out["layers"] = layer_metrics(tracer, result, eng, out)
        out["layers"].update(shard_ratios(job, result, eng.meta.num_intervals))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
