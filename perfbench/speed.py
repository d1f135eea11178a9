"""Hold the machine still, and measure how fast it ran.

The benchmark runs on a few cores of a shared host.  Its speed switches
between a fast and a slow state (a warm HTTP hit takes about 1.85x as
long in the slow one) for stretches of a fraction of a second to
seconds, and the share of slow time moves a lot between runs minutes
apart.  A request that hops between processes
on different CPUs also waits for an idle CPU to wake.  Two measures keep
the timings comparable from run to run:

* :func:`pin_one_cpu` puts the benchmark and every child it starts on
  one CPU, so a request's path through client, gateway and servers
  never waits for a wake-up on another CPU;
* :class:`Speed` runs a short fixed pure-Python slice between the timed
  requests, in proportion to the time the requests took, and scales
  each request by the slices timed next to it, to the reference speed
  of :data:`REFERENCE_SLICE_S`.  The slices are the benchmark's own
  code, so a change to the program does not move them.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from typing import List

# between the fast (0.55 ms) and slow (1.0 ms) slice times of a 2-core
# x86-64 host, Python 3.11, one CPU pinned
REFERENCE_SLICE_S = 0.75e-3
# calibration time run after each request, as a share of its latency
SHARE = 0.05
# a request is scaled by the median of this many slices on each side of it
NEIGHBOURS = 2

_rng = random.Random(5)
_DATA = [
    {"k": _rng.random(), "s": str(_rng.random()), "l": [_rng.randrange(100) for _ in range(5)]}
    for _ in range(60)
]


def pin_one_cpu() -> int:
    """Restrict this process, and so its children, to one allowed CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return -1
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibration_slice_s() -> float:
    """Time one fixed slice of interpreter work: JSON, sort, dict.

    Object and memory traffic rather than arithmetic, because that is
    what the slow state slows most, as it does the program: a tight
    arithmetic loop slows 1.35x where this slice and a warm HTTP hit
    both slow about 1.85x."""
    start = time.perf_counter()
    for _ in range(3):
        json.loads(json.dumps(_DATA))
        sorted(_DATA, key=lambda d: d["s"])
        {d["s"]: d for d in _DATA}
    return time.perf_counter() - start


class Speed:
    """Calibration slices taken between the timed requests of one run.

    Slices take turns on every CPU the run may use, so a run whose
    work spreads over several CPUs is scaled by all of them.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self.first_after: List[int] = []  # per request, its first slice after it
        self.owed = 0.0
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def after(self, elapsed: float) -> None:
        """Run slices worth :data:`SHARE` of a request that took *elapsed*."""
        self.first_after.append(len(self.slices))
        self.owed += SHARE * elapsed
        while self.owed > 0 or not self.slices:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {self.cpus[len(self.slices) % len(self.cpus)]})
                try:
                    took = calibration_slice_s()
                finally:
                    os.sched_setaffinity(0, self.cpus)
            else:
                took = calibration_slice_s()
            self.slices.append(took)
            self.owed -= took

    def scaled(self, elapsed: List[float]) -> List[float]:
        """The times of the requests (in the order timed) at reference speed,
        each scaled by the :data:`NEIGHBOURS` slices on either side of it."""
        out = []
        for took, first in zip(elapsed, self.first_after):
            near = self.slices[max(0, first - NEIGHBOURS): first + NEIGHBOURS]
            out.append(took * REFERENCE_SLICE_S / statistics.median(near))
        return out

    def factor(self) -> float:
        """A total time of the requests times this is at reference speed.

        Slices are taken in proportion to the requests' time, so their
        mean weighs the fast and slow stretches as the total does."""
        return REFERENCE_SLICE_S / statistics.fmean(self.slices)
