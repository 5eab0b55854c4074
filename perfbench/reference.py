"""The reference loop, which gauges the speed of the host a run lands on.

The machine the benchmark runs on is a virtual machine on a shared host, and
the host's speed changes by a third or more for minutes at a time.  The
launcher (run.py) times this fixed pure-Python loop between the measuring
process's passes, while that process waits, and reports every time scaled
to the speed at which the loop takes REFERENCE_S:

    reported = measured * REFERENCE_S / (the loop's fastest time in the run)

The launcher never imports wordfibers, so nothing the program does in its
own process changes the loop's time.
"""

from __future__ import annotations

import time

# About the loop's fastest time on the 2-core machine whose figures
# README.md gives; at that speed a reported time is the measured one.
REFERENCE_S = 0.008
LOOP_N = 100_000
REPS = 10


def loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


def fastest(reps: int = REPS) -> float:
    """The loop's fastest time over `reps` runs, in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


def speed(loop_seconds: float) -> float:
    """The factor that scales a time measured when the loop took
    `loop_seconds` to the reference speed."""
    return REFERENCE_S / loop_seconds
