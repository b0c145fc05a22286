"""Outside-in per-layer tracing of one engine run.

The engine is not instrumented. `traced()` replaces public functions and
methods of each `loggraph` module with timing wrappers for the duration of a
run and restores them afterwards. Every wrapped call is aggregated into
(count, total seconds, self seconds) under a layer-qualified name; nothing is
recorded per call, so per-record calls (`send`, `read_page`, `process`,
`inbox`) cost a counter update, not a span each.

Self time comes from a call stack: a call's self time is its duration minus
the durations of the wrapped calls made inside it, so `process` excludes
`send` and `load_adjacency` excludes `read_page`. The root is `Engine.run`,
whose self time is the driver and overlay cost no other wrapper covers.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from loggraph import csr, edgelog, engine, multilog, pager, sortgroup, state

_clock = time.perf_counter


class Tracer:
    """Aggregated call statistics plus the counters the wrappers feed."""

    def __init__(self):
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self.store_class: dict = {}  # PageStore -> traffic class
        self._stack = [[0.0]]  # per open call: seconds spent in wrapped children

    def _close(self, name: str, t0: float, frame: list) -> None:
        dt = _clock() - t0
        self._stack.pop()
        rec = self.calls[name]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[0]
        self._stack[-1][0] += dt

    def wrap(self, name: str, fn, note=None):
        """Time fn under name; note(result, *args) then updates counters."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0, frame)
            if note is not None:
                note(result, *args)
            return result

        return wrapper

    def wrap_generator(self, name: str, genfn):
        """Time each resumption of a generator, not its (instant) creation."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0, frame)
                yield item

        return wrapper

    def self_s(self, *names: str) -> float:
        return sum(self.calls[n][2] for n in names if n in self.calls)

    def count(self, name: str) -> int:
        return self.calls[name][0] if name in self.calls else 0


@contextlib.contextmanager
def traced(tracer: Tracer, program):
    """Install the wrappers on the loggraph modules and on `program`."""
    c = tracer.counts
    klass = tracer.store_class

    def on_open(store, _registry, _path, kind, *_):
        klass[store] = kind

    def on_read(_page, store, *_):
        c["read." + klass.get(store, "other")] += 1

    def on_append(_ordinal, store, data):
        kind = klass.get(store, "other")
        c["write." + kind] += 1
        if kind == "log":
            c["log_records"] += data[1] | (data[2] << 8)  # header count, uint16 LE

    def on_write(_none, store, *_):
        c["write." + klass.get(store, "other")] += 1

    def on_evict(evicted, *_):
        c["evicted_pages"] += evicted

    def on_plan(plans, *_):
        c["plans"] += len(plans)
        c["passes"] += sum(p.passes for p in plans)

    def on_sort(_slog, records, *_):
        c["records"] += len(records)

    def on_fetch(result, _graph, active, *_):
        _views, page_stats = result
        c["fetch_vertices"] += len(active)
        c["useful_bytes"] += sum(page_stats.values())
        c["colidx_pages"] += len(page_stats)

    def on_merge(_warnings, _graph, _k, ops):
        c["merge_ops"] += len(ops)

    def on_maybe_log(logged, _el, view, *_):
        if logged:
            c["logged_vertices"] += 1
            c["bytes_logged"] += 8 + 4 * len(view.neighbors)

    def on_edgelog_fetch(_views, _el, vids):
        c["served_vertices"] += len(vids)

    targets = [
        (pager.StoreRegistry, "open", "pager.open", on_open),
        (pager.PageStore, "read_page", "pager.read_page", on_read),
        (pager.PageStore, "append_page", "pager.append_page", on_append),
        (pager.PageStore, "write_page", "pager.write_page", on_write),
        (multilog.MultiLog, "send", "multilog.send", None),
        (multilog.MultiLog, "evict_if_needed", "multilog.evict", on_evict),
        (multilog.MultiLog, "seal", "multilog.seal", None),
        (sortgroup, "plan_fusion", "sortgroup.plan", on_plan),
        (sortgroup, "load_log", "sortgroup.load_log", None),
        (sortgroup, "read_log_records", "sortgroup.read_log_records", None),
        (sortgroup, "sort_n_group", "sortgroup.sort", on_sort),
        (sortgroup, "apply_combine", "sortgroup.combine", None),
        (sortgroup.SortedLog, "inbox", "sortgroup.inbox", None),
        (csr, "load_adjacency", "csr.fetch", on_fetch),
        (csr, "merge_structural_updates", "csr.merge", on_merge),
        (state.VertexStateStore, "checkout", "state.checkout", None),
        (state.StateSlice, "commit", "state.commit", None),
        (state.VertexStateStore, "checkout_aux", "state.aux_checkout", None),
        (state.AuxSlice, "commit", "state.aux_commit", None),
        (edgelog.EdgeLog, "maybe_log", "edgelog.log", on_maybe_log),
        (edgelog.EdgeLog, "fetch_batch", "edgelog.fetch", on_edgelog_fetch),
        (engine.Engine, "run", "engine.run", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, note in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
        saved.append((sortgroup, "iter_plan_sorted", sortgroup.iter_plan_sorted))
        sortgroup.iter_plan_sorted = tracer.wrap_generator("sortgroup.iter_plan", sortgroup.iter_plan_sorted)
        program.process = tracer.wrap("apps.process", program.process)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        program.__dict__.pop("process", None)
