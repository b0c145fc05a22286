"""Host-speed calibration for the benchmark's timings.

On a shared host the same engine run can take anywhere from 1x to 1.9x as
long depending on what else the machine is doing (measured on a 2-core Xeon
VM), in phases that last from seconds to minutes. A fixed kernel that does
the kind of work the engine does (numpy scalar indexing, small slices,
struct packing, dict inserts, a linear table scan like the apps'
per-neighbour tables, one argsort) is timed right before and after each
measured slice. The slice is then scaled to reference seconds, the time it
would have taken had the kernel run in REFERENCE_S. The kernel is the
benchmark's own code, so a change to the engine never changes it.
"""

from __future__ import annotations

import struct
import time

import numpy as np

REFERENCE_S = 0.030
SLICE_S = 0.3

_RECORD = np.dtype([("dest", "<u4"), ("src", "<u4"), ("value", "<f8")])
_ENTRY = np.dtype([("src", "<u4"), ("label", "<u4")])


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._records = np.zeros(50_000, _RECORD)
        self._records["dest"] = np.sort(rng.integers(0, 20_000, 50_000))
        self._dests = np.unique(self._records["dest"])
        self._vertices = rng.integers(0, 20_000, 1500).tolist()
        self._floats = rng.random(100_000)
        self._struct = struct.Struct("<IId")
        self.kernel()  # the first call pays for lazy numpy set-up

    def kernel(self) -> float:
        """Run the fixed kernel once; returns its seconds."""
        t0 = time.perf_counter()
        buf = bytearray(4096)
        groups: dict[int, list] = {}
        rows = np.zeros(64, _RECORD)
        for j, v in enumerate(self._vertices):
            i = int(np.searchsorted(self._dests, v))
            box = self._records[i : i + 3]
            total = float(rows[j & 63]["value"])
            for r in range(len(box)):
                total += float(box["value"][r])
            rows[j & 63]["value"] = total
            self._struct.pack_into(buf, (j & 255) * 16, v, j, total)
            groups.setdefault(v, []).append(bytes(buf[:16]))
        table = np.zeros(48, _ENTRY)
        used = 0
        for j in range(400):
            src = (j * 7919) % 64
            for i in range(used):
                if table["src"][i] == src:
                    table[i] = (src, j)
                    break
            else:
                if used < len(table):
                    table[used] = (src, j)
                    used += 1
        np.argsort(self._floats, kind="stable")
        return time.perf_counter() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    """Seconds at reference speed, given the kernel's time around the span."""
    return seconds * REFERENCE_S / kernel_s


class SpeedClock:
    """Times a span in slices of about SLICE_S, each scaled by the kernel
    times at its two ends; kernel runs are not part of the span.

    `tick()` is cheap and may be called often: it only closes a slice once
    SLICE_S has passed. `lap()` closes one unconditionally.
    """

    def __init__(self):
        self.calibrator = Calibrator()
        self.measured_s = 0.0  # the span without the kernel runs
        self.reference_s = 0.0
        self.paused_s = 0.0  # kernel runs and `between` work inside the span
        self._kernel_s = 0.0
        self._mark = 0.0

    def start(self) -> None:
        self._kernel_s = self.calibrator.kernel()
        self._mark = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._mark >= SLICE_S:
            self.lap()

    def lap(self, between=None) -> None:
        """Close the current slice; `between()` runs outside any slice."""
        now = time.perf_counter()
        kernel_s = self.calibrator.kernel()
        self.measured_s += now - self._mark
        self.reference_s += scaled(now - self._mark, (self._kernel_s + kernel_s) / 2)
        self._kernel_s = kernel_s
        if between is not None:
            between()
        self._mark = time.perf_counter()
        self.paused_s += self._mark - now
