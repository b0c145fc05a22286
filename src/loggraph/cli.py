"""Command-line harness: convert, run, compare, stats.

Reports are JSON with sorted keys so a run with the same config, seed and
dataset reproduces byte-identically; per-superstep series can also be dumped
as CSV for plotting. Wall-clock timings stay out of the JSON report for that
reason and live in the CSV only.
"""

from __future__ import annotations

import argparse
import csv as csvmod
import json
import os
import sys
import tempfile

import numpy as np

from .apps import APPS, make_program
from .csr import GraphDir
from .engine import EngineConfig, run_app
from .errors import ConfigError
from . import ingest, shards


def _fail(exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return 2


def _engine_config(args, meta) -> EngineConfig:
    return EngineConfig(
        memory_budget=args.memory_budget,
        page_size=meta.page_size,
        sort_frac=args.sort_frac,
        max_supersteps=args.max_supersteps,
        edge_log=args.edge_log,
        seed=args.seed,
        record_trace=args.trace is not None,
    )


def _app_kwargs(args) -> dict:
    name = args.app
    kw = {}
    if name == "bfs":
        kw["source"] = args.source
    elif name == "pagerank":
        kw["alpha"] = args.alpha
        kw["use_combine"] = not args.no_combine
    elif name == "kcore":
        kw["k"] = args.k
    elif name == "mis":
        kw["seed"] = args.seed
    elif name == "randomwalk":
        kw["steps"] = args.steps
        kw["stride"] = args.stride
        kw["seed"] = args.seed
    return kw


def build_report(result, cfg: EngineConfig, app_name: str, app_kwargs: dict, graph: GraphDir) -> dict:
    """The run's JSON report. Its totals count the pages of the whole run,
    also those moved outside any superstep: the state file's creation, the
    run-end merges, the final state read and the write-back of dirty
    pages."""
    meta = graph.meta
    stats = result.stats
    # stopped before the cap, or its last superstep sent nothing
    converged = len(stats) < cfg.max_supersteps or (bool(stats) and stats[-1].messages_sent == 0)
    return {
        "app": app_name,
        "app_args": dict(sorted(app_kwargs.items())),
        "engine": cfg.to_dict(),
        "dataset_hash": meta.dataset_hash,
        "graph": {
            "num_vertices": meta.num_vertices,
            "num_edges": graph.num_edges,
            "num_intervals": meta.num_intervals,
        },
        "supersteps": [st.to_dict() for st in result.stats],
        "totals": {
            "supersteps": len(result.stats),
            "messages_sent": sum(st.messages_sent for st in result.stats),
            "reads": dict(sorted(result.reads.items())),
            "writes": dict(sorted(result.writes.items())),
        },
        "converged": converged,
        "structural_warnings": result.structural_warnings,
        "summary": result.summary(),
    }


def cmd_convert(args) -> int:
    with ingest.convert(
        args.input,
        args.out,
        sort_budget=args.budget,
        page_size=args.page_size,
        record_size=args.record_size,
        undirected=args.undirected,
    ) as graph:
        info = {"out": args.out, **graph.meta.to_dict(), "num_edges": graph.num_edges}
    print(json.dumps(info, sort_keys=True, indent=2))
    return 0


def cmd_run(args) -> int:
    with GraphDir(args.graph) as graph:
        cfg = _engine_config(args, graph.meta)
        kwargs = _app_kwargs(args)
        program = make_program(args.app, **kwargs)
        tmp = None
        workdir = args.workdir
        if workdir is None:
            tmp = tempfile.TemporaryDirectory(prefix="loggraph_run_")
            workdir = tmp.name
        try:
            result = run_app(graph, program, cfg, workdir)
        finally:
            if tmp is not None:
                tmp.cleanup()
    report = build_report(result, cfg, args.app, kwargs, graph)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.report:
        with open(args.report, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    if args.csv:
        _write_csv(args.csv, result.stats)
    if args.trace:
        arrays = {f"s{i}": a for i, a in enumerate(result.trace)}
        np.savez(args.trace, **arrays)
    return 0


def _write_csv(path: str, stats) -> None:
    classes = ("csr", "log", "edgelog", "state")
    with open(path, "w", newline="") as f:
        w = csvmod.writer(f)
        w.writerow(
            ["superstep", "active_vertices", "messages_sent"]
            + [f"reads_{c}" for c in classes]
            + [f"writes_{c}" for c in classes]
            + [f"hits_{c}" for c in classes]
            + [f"evicted_{c}" for c in classes]
            + ["resident_peak", "runtime_s"]
        )
        for st in stats:
            w.writerow(
                [st.superstep, st.active_vertices, st.messages_sent]
                + [st.reads.get(c, 0) for c in classes]
                + [st.writes.get(c, 0) for c in classes]
                + [st.hits.get(c, 0) for c in classes]
                + [st.evicted.get(c, 0) for c in classes]
                + [st.resident_peak, f"{st.runtime:.6f}"]
            )


ENGINE_READ_CLASSES = ("csr", "log", "edgelog")


def cmd_compare(args) -> int:
    """Replay the report's active sets on the shard baseline. The shard
    stores and their temporary directory go on every path out."""
    with GraphDir(args.graph) as graph:
        with open(args.report) as f:
            report = json.load(f)
        if report.get("dataset_hash") != graph.meta.dataset_hash:
            raise ConfigError("report was produced from a different dataset (hash mismatch)")
        for st in report["supersteps"]:
            for key in ("superstep", "reads"):
                if key not in st:
                    raise ConfigError(f"report superstep row {st} has no {key!r} key")
        src, dst = graph.all_edges()
    n = graph.meta.num_vertices
    rows = []
    tmp = tempfile.TemporaryDirectory(prefix="loggraph_shards_")
    try:
        shard_set = shards.build_shards(src, dst, n, args.num_shards, graph.registry, tmp.name)
        with np.load(args.trace) as trace:
            for st in report["supersteps"]:
                key = f"s{st['superstep']}"
                if key not in trace:
                    continue
                active = trace[key]
                engine_pages = sum(st["reads"].get(c, 0) for c in ENGINE_READ_CLASSES)
                shard_pages = shards.superstep_page_cost(shard_set, active)
                if shard_pages == 0 and engine_pages == 0:
                    continue  # 0/0 row: nothing moved on either side
                rows.append(
                    {
                        "superstep": st["superstep"],
                        "active_vertices": int(len(active)),
                        "active_fraction": len(active) / n,
                        "shard_pages": int(shard_pages),
                        "engine_pages": int(engine_pages),
                        # None when the engine read nothing, its pages all resident
                        "ratio": shard_pages / engine_pages if engine_pages else None,
                    }
                )
    finally:
        graph.registry.close_all()  # the shard stores: the graph's own were dropped when it closed
        tmp.cleanup()
    out = {
        "num_shards": shard_set.num_shards,
        "pages_per_shard": shard_set.page_counts,
        "rows": rows,
    }
    text = json.dumps(out, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _spread(values: np.ndarray) -> dict:
    if len(values) == 0:
        return {"min": 0, "max": 0, "mean": 0.0}
    return {"min": int(values.min()), "max": int(values.max()), "mean": float(values.mean())}


def cmd_stats(args) -> int:
    with GraphDir(args.graph) as graph:
        indeg = graph.in_degrees()
        pages = {"rowptr": 0, "colidx": 0}
        outdeg = np.zeros(graph.meta.num_vertices, np.int64)
        for part in graph.partitions:
            pages["rowptr"] += part.rowptr.num_pages
            pages["colidx"] += part.colidx.num_pages
            rp = part.full_rowptr()
            outdeg[part.lo : part.hi] = np.diff(rp)
    info = {
        "meta": {**graph.meta.to_dict(), "num_edges": int(indeg.sum())},
        "pages": pages,
        "out_degree": _spread(outdeg),
        "in_degree": _spread(indeg),
    }
    print(json.dumps(info, sort_keys=True, indent=2))
    return 0


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--memory-budget", dest="memory_budget", type=int, default=1 << 30)
    p.add_argument("--sort-frac", dest="sort_frac", type=float, default=0.75)
    p.add_argument("--max-supersteps", dest="max_supersteps", type=int, default=15)
    p.add_argument("--edge-log", dest="edge_log", action="store_true")
    p.add_argument("--seed", type=int, default=0)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="loggraph")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("convert", help="edge-list text -> partitioned CSR directory")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--budget", type=int, default=1 << 30, help="sort budget for interval sizing")
    p.add_argument("--page-size", dest="page_size", type=int, default=16384)
    p.add_argument("--record-size", dest="record_size", type=int, default=16)
    p.add_argument("--undirected", action="store_true", help="materialize both edge directions")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("run", help="run a vertex program")
    p.add_argument("--graph", required=True)
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.85)
    p.add_argument("--no-combine", dest="no_combine", action="store_true")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--report", default=None, help="write the JSON report here (default stdout)")
    p.add_argument("--csv", default=None, help="per-superstep stats CSV")
    p.add_argument("--trace", default=None, help="save per-superstep active sets (.npz)")
    p.add_argument("--workdir", default=None, help="run scratch dir (default: temporary)")
    _add_engine_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="replay a run's active sets against the shard baseline")
    p.add_argument("--graph", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--num-shards", dest="num_shards", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("stats", help="describe a converted graph directory")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_stats)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # structured errors, nonzero exit
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
