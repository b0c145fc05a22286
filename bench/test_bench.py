"""Checks of the benchmark's own machinery.

    PYTHONPATH=src:. python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from bench import run, trace
from bench.reference import Reference
from bench.workloads import WORKLOADS, rmat_graph, uniform_graph
from loggraph.engine import Engine
from loggraph.ingest import convert_arrays

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("make", [lambda s: uniform_graph(500, 4000, s), lambda s: rmat_graph(9, 8, s)])
def test_generators_are_seeded_simple_and_symmetric(make):
    src, dst = make(7)
    again = make(7)
    other = make(8)
    assert np.array_equal(src, again[0]) and np.array_equal(dst, again[1])
    assert not (len(src) == len(other[0]) and np.array_equal(src, other[0]) and np.array_equal(dst, other[1]))
    assert not np.any(src == dst)
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(pairs) == len(src)
    assert all((d, s) in pairs for s, d in pairs)


def test_uniform_graph_has_requested_size():
    src, _ = uniform_graph(500, 4000, 1)
    assert len(src) == 4000


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_agrees_with_engine_and_catches_a_wrong_state(tmp_path, name):
    w = dataclasses.replace(WORKLOADS[name], graph=("rmat", 8, 8))
    if w.app == "randomwalk":
        w = dataclasses.replace(w, app_kwargs={"steps": 6, "stride": 4})
    src, dst = w.make_graph(3)
    graph = convert_arrays(src, dst, w.num_vertices(), str(tmp_path / "g"), **w.convert_args())
    result = Engine(graph, w.program(3), w.config(3), str(tmp_path / "work")).run()
    ref = Reference(w, 3, src, dst)
    assert ref.mismatch(result.states, result.num_supersteps, w.max_supersteps) is None
    broken = result.states.copy()
    field = broken.dtype.names[0]
    broken[field][np.argmax(broken[field] != 0)] += 1
    assert ref.mismatch(broken, result.num_supersteps, w.max_supersteps) is not None


def test_self_time_excludes_wrapped_children_and_generators_time_resumptions(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(trace, "_clock", lambda: now[0])
    t = trace.Tracer()

    def tick(dt):
        now[0] += dt

    inner = t.wrap("inner", lambda: tick(2.0))

    def outer():
        tick(1.0)
        inner()
        tick(0.5)

    def gen():
        tick(3.0)
        yield 1
        tick(4.0)

    t.wrap("outer", outer)()
    for _ in t.wrap_generator("gen", gen)():
        tick(10.0)  # consumer work between resumptions is not the generator's
    assert t.calls["outer"] == [1, 3.5, 1.5]
    assert t.calls["inner"] == [1, 2.0, 2.0]
    assert t.calls["gen"] == [2, 7.0, 7.0]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
