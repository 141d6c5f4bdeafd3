"""Machine-speed calibration for timings taken on a shared machine.

On a shared 2-core sandbox the speed of the whole machine drifts by up to
2x over seconds to minutes, for every process alike.  The benchmark
therefore runs a fixed reference kernel between queries: exact ``Fraction``
Gauss-Jordan elimination of one 10x10 matrix, written here and sharing no
code with mfcat.  A query's latency is scaled by ``REFERENCE_NS`` over the
mean of the kernel's times around it, which gives the time the query would
take on a machine where the kernel takes ``REFERENCE_NS``.  A change to mfcat cannot move the kernel, so the scaled
times move only with the program.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter_ns

# The kernel's median time on the 2-core sandbox (Python 3.11.7) where the
# benchmark was defined; it fixes the unit of every reported time.
REFERENCE_NS = 5_750_000
SAMPLE_EVERY_NS = 50_000_000  # at most one kernel run per 50 ms of queries

_N = 10
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(_N)] for i in range(_N)]


def reference_kernel():
    m = [row[:] for row in _MATRIX]
    for c in range(_N):
        p = next((i for i in range(c, _N) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [inv * x for x in m[c]]
        for i in range(_N):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return m


def sample_ns():
    """One timed kernel run, with the cyclic garbage collector held off so
    that a collection of the caller's heap is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        reference_kernel()
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Scales raw times by the reference kernel runs around them.

    ``add(key, start_ns, raw_ns)`` records a raw time; the kernel runs
    again once ``SAMPLE_EVERY_NS`` have passed since its last run, and on
    ``sample()``.  ``scaled()`` divides each time by the mean of the kernel
    runs just before and just after it and multiplies by ``REFERENCE_NS``.
    (Averaging more kernel runs over a wider window tracked the machine
    worse: its speed changes within a second.)
    """

    def __init__(self):
        self.samples = []  # (time the kernel run ended, its duration) in ns
        self.times = []  # (key, start, duration) in ns
        self.sample()

    def sample(self):
        ns = sample_ns()
        self.samples.append((perf_counter_ns(), ns))

    def add(self, key, start_ns, raw_ns):
        self.times.append((key, start_ns, raw_ns))
        if perf_counter_ns() - self.samples[-1][0] >= SAMPLE_EVERY_NS:
            self.sample()

    def scaled(self):
        """{key: [scaled time in ns, ...]} in the order the times were added."""
        ends = [t for t, _ in self.samples]
        out = {}
        for key, start, raw in self.times:
            before = self.samples[bisect.bisect_right(ends, start) - 1][1]
            after = self.samples[bisect.bisect_left(ends, start + raw)][1]
            out.setdefault(key, []).append(raw * REFERENCE_NS * 2 / (before + after))
        return out

    def median_sample_ns(self):
        return statistics.median(ns for _, ns in self.samples)
