"""Host speed reference for the benchmark's timings.

The benchmark runs on a shared host whose CPU speed moves under it: on a
2-vCPU Xeon VM the same code ran in two states about 1.7x apart, each
lasting from a second to a minute, and no counter inside the guest showed
it (CPU time moved with wall time, steal time stayed 0, and there are no
hardware counters).  A run that fell in a slow stretch then read 1.7x
slower, whatever the program did.

So a fixed pure-Python kernel, exact Fraction elimination that does not
touch crnmss, is timed between the program's calls, at most every
``EVERY_S`` seconds and right before and after each timed span.  A span's
wall time is scaled by ``REF_MS`` over the kernel's time around that span
(the mean of the last probe before it and the first probe after it).  The
scaled time reads as the span's wall time on a host where the kernel
takes ``REF_MS``: runs made in a slow stretch and in a fast one compare,
and a change to crnmss moves the scaled time just as it moves wall time.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from time import perf_counter

# The kernel's time in the host's fast state (2-vCPU Xeon VM, Python
# 3.11.7); only a scale, so that scaled times read close to wall times
# there.
REF_MS = 0.3
EVERY_S = 0.1
REPEATS = 3
_N = 6


def kernel() -> Fraction:
    """Gaussian elimination of a fixed 6x6 rational matrix."""
    a = [[Fraction((i * i * 7 + j * j * j * 3 + i * j + 1) % 23 + 1, j + 2)
          for j in range(_N)] for i in range(_N)]
    for k in range(_N):
        for i in range(k + 1, _N):
            f = a[i][k] / a[k][k]
            for j in range(k, _N):
                a[i][j] -= f * a[k][j]
    return a[_N - 1][_N - 1]


class HostSpeed:
    """Probes of the kernel over a run, and scaling of spans by them."""

    def __init__(self) -> None:
        self.times: list[float] = []  # probe end times, ascending
        self.ms: list[float] = []     # the kernel's ms at each probe
        kernel()

    def probe(self) -> None:
        """Time the kernel, keeping the fastest of a few back-to-back
        repeats so that one interrupt does not read as a slow host."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        self.times.append(perf_counter())
        self.ms.append(best * 1000)

    def maybe_probe(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """REF_MS over the kernel's ms around the span [t0, t1]; the
        caller probes before the span starts and after it ends."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        around = self.ms[max(before, 0)] + self.ms[min(after, len(self.ms) - 1)]
        return REF_MS / (around / 2)
