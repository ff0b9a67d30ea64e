"""Speed calibration for a host whose CPU speed drifts while it runs.

On a shared machine the same Python code can run half again as slow for
seconds at a time (frequency scaling and neighbours on the same cores),
which swamps any change worth measuring.  The benchmark therefore times
a fixed pure-Python kernel between operations and reports every time
scaled to the speed at which the kernel takes `REF_S` seconds.  The
kernel runs no package code, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

# kernel time at the reference speed: about its median on a 2-vCPU
# x86-64 container running CPython 3.11.7 while that host ran fast
REF_S = 0.0006

# a fixed integer matrix, reduced to echelon form by the kernel
_ROWS = [[((i + 1) * (j + 3) * 7919) % 211 - 105 for j in range(10)] for i in range(24)]


def _kernel() -> int:
    """Integer row reduction on lists of ints: the package's kind of work."""
    pivots = {}
    for row in _ROWS:
        r = list(row)
        while True:
            c = next((k for k, x in enumerate(r) if x), None)
            if c is None:
                break
            if c not in pivots:
                pivots[c] = r
                break
            b = pivots[c]
            if abs(r[c]) < abs(b[c]):
                pivots[c], r = r, b
                b = pivots[c]
            f = r[c] // b[c]
            r = [x - f * y for x, y in zip(r, b)]
    return len(pivots)


def sample() -> float:
    """Current kernel time in seconds: the median of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two samples to the reference speed."""
    return 2 * REF_S / (before + after)
