"""Result digest of the benchmark workloads for one seed.

    python3 tools/digest.py [ROOT] [--seed N] [--workload NAME ...]

Imports the engine and the workload definitions from the checkout at ROOT
(default: the one holding this script), then generates, converts and runs
each workload of `bench/workloads.py` once for seed N (default 1); a
repeated `--workload NAME` runs only the named ones, in the given order. It
prints one line per workload with two sha256 digests:

- `results=` covers what the app computed: the final states, each
  superstep's number, active vertices and messages sent, and
  `structural_warnings`;
- `pages=` covers how the engine stored it: the rest of every
  `SuperstepStats.to_dict()` (pages read and written per class, memory
  peaks, edge-log counters) and the per-class `registry.totals()` of
  convert and run, whose sums it also prints as `pages_read` and
  `pages_written`, and each class's as `read.CLASS` and `written.CLASS`
  (csr, log, edgelog, state).

Two checkouts that print the same lines computed the same results with the
same page counts. A change that moves pages but keeps results changes only
`pages=`, and should say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# the SuperstepStats.to_dict() keys that the results= digest covers
RESULT_FIELDS = ("superstep", "active_vertices", "messages_sent")


def digest_workload(workload, seed: int, workdir: str) -> str:
    # imported here: main first puts ROOT's sources on the path
    from loggraph.engine import Engine
    from loggraph.ingest import convert_arrays

    src, dst = workload.make_graph(seed)
    graph = convert_arrays(src, dst, workload.num_vertices(), f"{workdir}/graph", **workload.convert_args())
    result = Engine(graph, workload.program(seed), workload.config(seed), f"{workdir}/run").run()
    results = hashlib.sha256(result.states.tobytes())
    pages = hashlib.sha256()
    for st in result.stats:
        stats = st.to_dict()
        computed = {key: stats.pop(key) for key in RESULT_FIELDS}
        results.update(json.dumps(computed, sort_keys=True).encode())
        pages.update(json.dumps(stats, sort_keys=True).encode())
    results.update(str(result.structural_warnings).encode())
    totals = graph.registry.totals()
    pages.update(json.dumps(totals, sort_keys=True).encode())
    graph.registry.close_all()
    messages = sum(st.messages_sent for st in result.stats)
    read = sum(r for r, _ in totals.values())
    written = sum(w for _, w in totals.values())
    per_class = [f"{side}.{klass}={c[i]}" for i, side in enumerate(("read", "written")) for klass, c in totals.items()]
    return (
        f"{workload.name} supersteps={result.num_supersteps} messages={messages} "
        f"results={results.hexdigest()} pages={pages.hexdigest()} pages_read={read} pages_written={written} "
        + " ".join(per_class)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--workload", action="append", metavar="NAME", help="run only this workload (repeatable; default all)")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import loggraph
    from bench.workloads import WORKLOADS

    if Path(loggraph.__file__).resolve().parent != root / "src" / "loggraph":
        sys.exit(f"digest: loggraph imported from {loggraph.__file__}, not from {root}")
    unknown = sorted(set(args.workload or ()) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload {unknown[0]}; choose from {', '.join(WORKLOADS)}")
    for workload in [WORKLOADS[name] for name in args.workload] if args.workload else WORKLOADS.values():
        with tempfile.TemporaryDirectory() as workdir:
            print(digest_workload(workload, args.seed, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
