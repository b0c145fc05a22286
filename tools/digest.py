"""Result digest of the benchmark workloads for one seed.

    python3 tools/digest.py [ROOT]

Imports the engine and the workload definitions from the checkout at ROOT
(default: the one holding this script), then generates, converts and runs
each workload of `bench/workloads.py` once for seed 1. It prints one line per
workload: supersteps, messages and a sha256 over the final states, every
`SuperstepStats.to_dict()`, the per-class `registry.totals()` (convert and
run) and `structural_warnings`. Two checkouts that print the same lines
computed the same results with the same page counts; a change that alters
pages shows up here and should say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SEED = 1


def digest_workload(workload, seed: int, workdir: str) -> str:
    # imported here: main first puts ROOT's sources on the path
    from loggraph.engine import Engine
    from loggraph.ingest import convert_arrays

    src, dst = workload.make_graph(seed)
    graph = convert_arrays(src, dst, workload.num_vertices(), f"{workdir}/graph", **workload.convert_args())
    result = Engine(graph, workload.program(seed), workload.config(seed), f"{workdir}/run").run()
    h = hashlib.sha256(result.states.tobytes())
    for st in result.stats:
        h.update(json.dumps(st.to_dict(), sort_keys=True).encode())
    h.update(json.dumps(graph.registry.totals(), sort_keys=True).encode())
    h.update(str(result.structural_warnings).encode())
    graph.registry.close_all()
    messages = sum(st.messages_sent for st in result.stats)
    return f"{workload.name} supersteps={result.num_supersteps} messages={messages} sha256={h.hexdigest()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parent.parent))
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import loggraph
    from bench.workloads import WORKLOADS

    if Path(loggraph.__file__).resolve().parent != root / "src" / "loggraph":
        sys.exit(f"digest: loggraph imported from {loggraph.__file__}, not from {root}")
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as workdir:
            print(digest_workload(workload, SEED, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
