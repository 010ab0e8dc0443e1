"""The machine's speed, sampled while the benchmark runs, and times scaled by it.

On a shared virtual machine the same pass of a workload took from 3.8 to
7.1 CPU seconds: the speed of a core switches between levels about 1.6x
apart for stretches of a tenth of a second to a minute, and drifts by a
fifth over minutes.  The benchmark therefore times a fixed reference
probe, which calls nothing of pdfa, every ``EVERY_S`` seconds of wall time
from a ``SIGALRM`` handler, and scales each stretch of CPU time between
two probes by ``NOMINAL_PROBE_S`` over the probe's time there.  A scaled
time ("reference seconds") is the CPU time the same work takes on a machine
on which the probe takes ``NOMINAL_PROBE_S``.  Over fourteen passes of
``bounds-suite`` the coefficient of variation of the pass time fell from
0.120 in CPU seconds to 0.016 in reference seconds.

Each probe runs twice with the garbage collector off and only the second
run is timed: the first run, between two stretches of the workload, found
its code and data out of the cache and took a fifth longer during
``sweep-binary`` than with nothing else running, and a collection would
charge the workload's heap to the probe.  The probes' own time is left out
of every clock here, so the workloads' timings do not include them.  ``ITIMER_REAL`` is used, not ``ITIMER_PROF``:
an armed process CPU timer makes Linux serve ``CLOCK_PROCESS_CPUTIME_ID``
from a tick-granular cache, and the probes then read zero.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from array import array
from time import perf_counter, process_time

EVERY_S = 0.02
# On the 2-core Intel Xeon virtual machine the benchmark was written on, the
# (second, warm) probe took 82-90 us of CPU when the machine ran at its fast
# level and 130-150 us in its slow stretches; reference seconds there are
# CPU seconds at the fast level.
NOMINAL_PROBE_S = 85e-6


def probe() -> int:
    """Fixed pure-Python work in the style of the workloads: tuples, a dict, a sort."""
    d: dict = {}
    acc = 0
    for i in range(300):
        k = ((i * 40503) & 63, i & 7)
        d[k] = d.get(k, 0) + 1
        acc += len(d)
    return acc + len(sorted(d, key=lambda t: (t[1], t[0])))


class Meter:
    """Probes the speed while started; gives clocks that leave the probes out."""

    def __init__(self) -> None:
        self.marks = array("d")  # the CPU clock below when each probe ran
        self.probe_s = array("d")  # the CPU time each probe took
        self.spent = (0.0, 0.0)  # wall and CPU seconds in probes; replaced whole
        self._cum: list[float] | None = None
        self._factor: list[float] = []

    def clock(self) -> tuple[float, float]:
        """Wall and CPU seconds, less the time spent in probes."""
        while True:  # a probe can run between any two bytecodes
            spent = self.spent
            wall, cpu = perf_counter(), process_time()
            if self.spent is spent:
                return wall - spent[0], cpu - spent[1]

    def _probe(self, *_signal) -> None:
        w0, c0 = perf_counter(), process_time()
        collecting = gc.isenabled()
        gc.disable()
        probe()  # warms the cache
        c1 = process_time()
        probe()
        c2 = process_time()
        if collecting:
            gc.enable()
        w2 = perf_counter()
        spent = self.spent
        self.marks.append(c0 - spent[1])
        self.probe_s.append(c2 - c1)
        self.spent = (spent[0] + w2 - w0, spent[1] + c2 - c0)
        self._cum = None

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()  # at least one probe, however short the run
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _prepare(self) -> None:
        # The stretch of CPU time that ends at probe j is scaled by the
        # median of probes j-1, j and j+1, so one probe slowed by an
        # interrupt does not count; after the last probe its factor holds.
        n = len(self.marks)
        self._factor = [
            NOMINAL_PROBE_S / statistics.median(self.probe_s[max(0, j - 1):j + 2])
            for j in range(n)
        ]
        cum = [0.0]
        for j in range(1, n):
            cum.append(cum[-1] + (self.marks[j] - self.marks[j - 1]) * self._factor[j])
        self._cum = cum

    def _at(self, t: float) -> float:
        """Reference seconds from the first probe to CPU clock ``t``."""
        if self._cum is None:
            self._prepare()
        j = bisect.bisect_left(self.marks, t)
        if j == 0:
            return (t - self.marks[0]) * self._factor[0]
        if j == len(self.marks):
            return self._cum[-1] + (t - self.marks[-1]) * self._factor[-1]
        return self._cum[j - 1] + (t - self.marks[j - 1]) * self._factor[j]

    def scaled(self, start: float, seconds: float) -> float:
        """Reference seconds of ``seconds`` of CPU time from CPU clock ``start``."""
        return self._at(start + seconds) - self._at(start)


METER = Meter()
