"""Host-speed calibration: read measured times at the host's quiet speed.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU switches,
within a second and independently of the other, between its quiet speed
and one about 1.7x slower, and a slow phase can cover a whole run, so
no fastest-of-N estimator removes it.  Instead every piece of timed work
is paired with a calibration: a fixed pure-Python loop timed on the CPU
that did the work, right before and right after it.  The work's seconds
are multiplied by ``REFERENCE_S / calibration``, which reads them at the
speed where the loop takes ``REFERENCE_S``: this host's quiet speed.

The loop is the benchmark's own code, so no change to the program under
test moves it, and a change to the program moves the scaled times just
as it moves the raw ones.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Tuple

#: Seconds the calibration loop takes on a quiet vCPU of the benchmark
#: host (2-vCPU Intel Xeon VM, Python 3.11.7).  It fixes the scale of
#: every reported time, not the comparison between two runs.
REFERENCE_S = 85e-6


def _loop() -> int:
    acc = 0
    words = [0] * 64
    for i in range(400):
        x = (i * 2654435761) & 0xFFFFFFFF
        x ^= x >> 13
        words[i & 63] = x
        acc = (acc + words[(i * 5) & 63]) & 0xFFFFFFFF
    return acc


def calibrate() -> float:
    """Fastest of three timings of the loop on the calling thread's CPU."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """The factor that reads work timed between two calibrations at the
    reference speed."""
    return 2 * REFERENCE_S / (before + after)


def cpus() -> Tuple[int, int]:
    """Two CPUs this process may run on: one for the load generator and
    service supervisor, one for the worker (the same CPU twice when
    there is only one)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


@contextmanager
def pinned(cpu: int) -> Iterator[None]:
    """Run the calling thread on ``cpu`` alone, then restore its
    affinity."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def calibrate_on(cpu: int) -> float:
    """:func:`calibrate` on ``cpu``, from a thread that runs elsewhere."""
    with pinned(cpu):
        return calibrate()
