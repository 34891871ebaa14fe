"""A fixed reference loop that measures how fast the CPU runs Python right now.

A shared host can change the speed it gives this process by a large factor
from one minute to the next (other tenants on the same cores), and every
timing moves with it.  The benchmark therefore runs this loop before and after
each timed stretch and reports the stretch in *reference seconds*:

    reference seconds = measured seconds * NOMINAL_S / (loop time around it)

that is, the time the stretch would take on a CPU that runs the loop in
NOMINAL_S.  A change to the program moves this figure as much as it moves wall
time; a change in host speed that hits the loop and the program alike cancels.
The loop uses nothing from bladesim, so no change to the program can alter it.
The measured wall-clock figures are written to the run record beside the
scaled ones.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# The loop's time on an idle core of the host the benchmark was tuned on
# (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4).  Any fixed value would do; this
# one keeps reference seconds close to wall seconds on that host.
NOMINAL_S = 0.0103


class _Row:
    __slots__ = ("x", "z", "k")

    def __init__(self, x: int, z: int, k: int):
        self.x, self.z, self.k = x, z, k


def _mul(a: _Row, b: _Row) -> _Row:
    return _Row(a.x ^ b.x, a.z ^ b.z, (a.k + b.k + 2 * (a.x & b.z).bit_count()) & 3)


def loop() -> int:
    """Interpreter work of the kinds bladesim does: wide masks, small objects, small arrays."""
    n = 96
    mask = (1 << n) - 1
    rows = [_Row((i * 0x9E3779B97F4A7C15) & mask, (i * 0xC2B2AE3D27D4EB4F) & mask, 0) for i in range(2 * n)]
    acc = _Row(0, 0, 0)
    seen = {}
    for r in range(2 * n + 32):
        for row in rows:
            if row.x >> (r % n) & 1:
                acc = _mul(acc, row)
        seen[r] = acc.k
    v = np.zeros(8)
    for _ in range(500):
        v = v + np.abs(v[::-1]) * 0.5
    return acc.k + len(seen) + int(v[0])


def measure() -> float:
    """Seconds one run of the loop takes now.

    The garbage collector is paused, so that the program's heap, which a
    collection would have to walk, cannot change the loop's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between loop times `before` and `after`, in reference seconds."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
