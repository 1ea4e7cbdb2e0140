"""Host-speed sampling: wall times normalised to a fixed host speed.

On a shared VM one core's speed swings up to 2x within seconds as other
tenants load the physical core.  The guest sees no steal time and no
pauses, only slower instructions, so CPU time tracks wall time and neither
removes the swing.

``Sampler`` measures the swing where it happens.  A ``SIGALRM`` interval
timer interrupts the benchmark every ``INTERVAL_S`` seconds, and the handler
times one pass of ``_probe``, a fixed ~0.15 ms of heap and dict work, the
interpreter-bound kind the package's hot paths do.  It touches a few KB, so
it measures the core's speed more than the state of its caches.

A call's *normalised* time is its wall time minus the probe time inside
it, times the mean of ``NOMINAL_S / probe time`` over the probes inside it:
the call's duration on a host where the probe takes ``NOMINAL_S``.
``_probe`` never changes and imports nothing from ``src/``, so a change to
the package moves the calls and never the yardstick.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

#: seconds between two probes
INTERVAL_S = 0.01
#: seconds one probe takes on a quiet host (the scale of normalised times)
NOMINAL_S = 0.00014


def _probe() -> int:
    heap: List[int] = []
    table = {}
    total = 0
    for i in range(200):
        heapq.heappush(heap, (i * 7919) % 1009)
        table[i % 61] = table.get(i % 61, 0) + i
    while heap:
        total += heapq.heappop(heap)
    return total + len(table)


class Sampler:
    """Probes the host speed on a timer while installed; one per process."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._installed = False
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.probes.append(time.perf_counter() - start)

    def install(self) -> "Sampler":
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._previous = signal.SIG_DFL if previous is None else previous
        self._installed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def restore(self) -> None:
        """Stop the timer and put the previous handler back; safe to repeat."""
        if self._installed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._installed = False

    def mark(self) -> int:
        """Position in the probe record; pass it to ``normalised`` later."""
        return len(self.probes)

    def normalised(self, wall_s: float, since: int, until: int) -> float:
        """``wall_s`` of a call timed between ``mark()``s ``since`` and ``until``,
        at nominal host speed."""
        probes = self.probes[since:until]
        if not probes:
            return wall_s
        # Work done is the integral of speed over time, and probes sample
        # the wall clock evenly, so the mean *speed* (1 / probe time) is the
        # right average; the mean probe time under-corrects whenever the
        # core flips between its levels inside the call.
        speed = statistics.fmean(NOMINAL_S / p for p in probes)
        return (wall_s - sum(probes)) * speed
