"""A fixed pure-Python loop, timed between the benchmark's repetitions.

A shared host can change speed by 20-35 % over tens of seconds as other
tenants come and go; on a 2-vCPU Xeon cloud VM even 60 s windows did not
average it out. Work on the program does not touch this loop, so dividing
a median wall time by the median time of the loop, sampled in the same
window, cancels most of that drift: on that VM the ratio's spread across
30 s windows was 5 %, against 20 % for raw seconds.
"""

from __future__ import annotations

import time

ITERATIONS = 400_000  # about 30 ms on a 2020s server core
SHARE = 0.1  # reference time spent per second of workload


def loop_s() -> float:
    """Seconds for one pass of the loop."""
    t = time.perf_counter()
    s = 0
    for j in range(ITERATIONS):
        s += j * j
    return time.perf_counter() - t


def samples(workload_s: float) -> list[float]:
    """Time the loop for about SHARE of `workload_s`, at least once."""
    out = [loop_s()]
    while sum(out) < SHARE * workload_s:
        out.append(loop_s())
    return out
