"""Correction of measured times for the speed the machine runs at.

On a shared 2-core x86-64 host the machine's speed drifts by up to a factor
of two over seconds: a fixed pure-Python loop, timed back to back, ranges
from 0.7x to 1.5x its median, and its medians over 20 s windows have an
interquartile range of about 30%.  Raw wall times of two runs therefore
differ by more than any regression worth catching.

So every operation time is scaled to a nominal speed: the reference loop
below is timed right before each operation, and the operation's wall time is
multiplied by ``NOMINAL_S / local reference time``, where the local reference
time is the median over the nine nearest operations.  The timed loop allocates
nothing (every value is a cached small integer), so the garbage collector
and the allocator state the previous operation left behind do not enter it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# the reference loop's time at the nominal speed: about its median on a shared 2-core x86-64 host, Python 3.11
NOMINAL_S = 0.00115
WINDOW = 9


def reference_loop() -> float:
    """Seconds a fixed loop over a 4096-entry dict takes."""
    d = dict.fromkeys(range(4096), 0)
    keys = list(range(4096)) * 2
    start = perf_counter()
    for x in keys:
        d[x] = (d[x] + x) & 127
    return perf_counter() - start


def corrected(times: list[float], references: list[float]) -> list[float]:
    """Each time scaled by the nominal over the median reference time around it."""
    half = WINDOW // 2
    out = []
    for i, t in enumerate(times):
        local = statistics.median(references[max(0, i - half): i + half + 1])
        out.append(t * NOMINAL_S / local)
    return out
