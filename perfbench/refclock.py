"""Drift-cancelled timing: wall time rescaled to reference-kernel seconds.

The benchmark shares its host with other work, so the CPU speed it gets
drifts within a run, between runs, and even from one operation to the
next.  Every timed region is therefore bracketed by a fixed reference
kernel, timed ``REPS`` times just before and just after it: a time in
reference-kernel seconds is ``wall * NOMINAL_S / kernel``, where ``kernel``
is the mean kernel time of the bracket.  It reads as wall seconds on a host
where one kernel takes ``NOMINAL_S``; a slowdown of the host that spans the
bracket scales numerator and denominator alike and cancels.  (Measured on
the plan-paper workload, a bracket of this size halves the spread of
repeated operations; a running median over the last 15 operations' kernels
removed only a tenth of it, because host speed changes faster than that.)

The kernel is the mix the mapping tool spends its time on (heap and
dictionary work in pure Python, small NumPy calls) and never calls into the
program, so a change to the program moves rescaled times while a change of
host speed does not.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Duration of one kernel on the nominal host, in seconds.
NOMINAL_S = 0.00125
#: Kernel runs on each side of a timed region.
REPS = 4


def kernel() -> float:
    """The fixed reference workload."""
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    for i in range(1500):
        key = (i * 7919) % 1543
        heapq.heappush(heap, (key, i))
        table[key] = table.get(key, 0.0) + 0.5 * i
    acc = 0.0
    while heap:
        key, i = heapq.heappop(heap)
        acc += table[key] / (i + 1)
    a = np.linspace(1.0, 2.0, 2048)
    for _ in range(40):
        a = np.sqrt(a * 1.0001 + 0.5)
    return acc + float(a.sum())


def kernel_seconds() -> float:
    """Mean wall seconds of one kernel over ``REPS`` runs."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        kernel()
    return (time.perf_counter() - t0) / REPS


def scale_now() -> float:
    """Reference-kernel seconds per wall second, measured now."""
    return NOMINAL_S / kernel_seconds()


def timed(fn, *args):
    """Run ``fn(*args)``; return ``(result, wall_s, scale)``.

    ``scale`` converts wall seconds of this region to reference-kernel
    seconds, from the kernels bracketing it.
    """
    before = kernel_seconds()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    return out, wall, 2.0 * NOMINAL_S / (before + kernel_seconds())
