"""The host's current speed, for the CPU-bound timings.

The 2-core x86 container the benchmark was tuned on runs the same Python
code at two speeds, about 1.8x apart, in spells of seconds to minutes that
cover both cores alike (a build timed back to back read 0.12 s or 0.22 s).
A timing of pure CPU work therefore follows the spell it fell in, and two
sets of runs taken minutes apart can differ by more than a bound although
the code is the same.  ``reference_work`` times a fixed piece of
interpreter work (dict and frozenset operations, like the set-up's own);
dividing a timing by the slowdown measured just before and just after it
gives the seconds the work takes on a host where the reference work takes
``REFERENCE_WORK_S``.  Over 90 s of builds alternating with reference
work, the raw build time spread 0.64 (interquartile range over median)
and the corrected one 0.10; medians over 20 builds stayed within 3 %.

Only ``sim-gtpcc`` is corrected: its timings are one process running
Python.  A process cluster's set-up (processes spawned on both cores,
readiness polled) did not follow the slowdown measured in the driver, and
dividing by it widened its spread, so those timings stay raw.
"""

from __future__ import annotations

import time

#: Seconds ``reference_work`` took on that container in a fast spell.  Only
#: the scale of the corrected timings depends on it.
REFERENCE_WORK_S = 0.027


def reference_work() -> float:
    """Seconds the fixed reference work takes now."""
    started = time.perf_counter()
    counts: dict = {}
    shapes = set()
    for j in range(60_000):
        k = j * 7919 % 1009
        counts[k] = counts.get(k, 0) + 1
        shapes.add(frozenset((k, j % 13)))
    return time.perf_counter() - started


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference host the host ran between two
    ``reference_work`` timings."""
    return (before + after) / 2.0 / REFERENCE_WORK_S
