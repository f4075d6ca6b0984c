"""A fixed pure-Python kernel that measures how fast the host is running.

On a shared host the same code runs at different speeds from one second
to the next: a fixed loop was seen alternating between about 31 ms and
48 ms, with no steal time and CPU time equal to wall time, and every
stage of a build slowed by a similar factor. Whole runs of half a
minute can fall into a slow spell. The benchmark probes the host's
speed right before and right after each timed call and scales the
call's wall time by REFERENCE_S / (mean probe time around the call):
the call's time on a host where one kernel pass takes REFERENCE_S. The
kernel touches nothing of the program.

A probe is the median of three kernel passes: two passes in a row
differ by about 5% (median) and by over 10% one time in four, and a
single pass made the scaled samples noisier than the raw ones whenever
the host held still.
"""

from __future__ import annotations

import statistics
import time

# About one kernel pass on an idle 2 GHz Xeon vCPU with Python 3.11.
REFERENCE_S = 0.025
PROBE_PASSES = 3


def kernel_seconds() -> float:
    """Wall time of one kernel pass: integer arithmetic, string keys and
    a sort, then scattered reads from a dict too large for the L2 cache,
    like the program's own mix."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    table = {f"k{i}": (i * 0.5, i) for i in range(4_000)}
    for key in sorted(table, reverse=True):
        acc += table[key][1]
    big = {i: (i, i * 0.5) for i in range(30_000)}
    for i in range(30_000):
        acc += big[i * 7919 % 30_000][0]
    return time.perf_counter() - t0


def probe_seconds() -> float:
    """The host's current speed, as the median of PROBE_PASSES kernel passes."""
    return statistics.median(kernel_seconds() for _ in range(PROBE_PASSES))


def scaled(samples: list[list[float]]) -> list[float]:
    """Each [seconds, probe before, probe after] sample at the reference
    host speed."""
    return [t * REFERENCE_S / ((k1 + k2) / 2) for t, k1, k2 in samples]
