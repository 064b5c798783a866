"""The machine's speed, sampled while a run measures, to scale its times.

On a shared virtual machine the processor's speed moves by up to 1.5 times
within seconds, so two runs of the same code can differ by more than a
regression worth catching.  While ``Pace.ticking()`` is active, a timer
signal runs a fixed probe loop every ``TICK_S`` seconds; the handler runs
between the benchmark's own bytecodes, inside the calls it times.  The probe
durations trace the speed over time, and ``scaled(t0, t1)`` turns a measured
interval into seconds at the reference speed, at which one probe takes
``REFERENCE_S``: each stretch between two probes is scaled by the median
duration of the probes around it, and the probes' own time is left out.

The end-to-end times of an untraced run are scaled this way; the raw times
are kept in the result file.  ``perf_counter`` is system-wide, so intervals
measured by a child process can be scaled too.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

REFERENCE_S = 150e-6   # one probe at the reference speed
TICK_S = 0.02
WINDOW = 3             # probes on each side of a stretch that set its speed

_BITS = (1 << 700) - 12345


def probe():
    """Fixed work like the package's: small dicts, ints and 700-bit masks."""
    d, x = {}, 0
    for i in range(400):
        d[i & 63] = x
        x ^= _BITS >> (i & 31)
        x = d.get((i + 7) & 63, x) | i
    return x


class Pace:
    def __init__(self):
        self.starts, self.ends = [], []   # of every probe, in time order
        self._speeds = []

    def sample(self):
        t0 = perf_counter()
        probe()
        self.ends.append(perf_counter())
        self.starts.append(t0)

    def _tick(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def ticking(self):
        self.sample()
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.sample()

    def speed(self, k):
        """Seconds per probe in the stretch after probe ``k``."""
        if len(self._speeds) != len(self.starts):
            took = [e - s for s, e in zip(self.starts, self.ends)]
            self._speeds = [
                statistics.median(took[max(0, j - WINDOW + 1):j + WINDOW + 1])
                for j in range(len(took))]
        return self._speeds[k]

    def scaled(self, t0, t1):
        """Seconds at the reference speed of the work done from ``t0`` to
        ``t1``, both taken while ticking and outside a probe."""
        k = bisect.bisect_right(self.ends, t0) - 1
        if k < 0 or t1 > self.starts[-1]:
            raise ValueError("interval not inside the sampled time")
        total, t = 0.0, t0
        while True:
            stop = min(t1, self.starts[k + 1])
            total += (stop - t) * REFERENCE_S / self.speed(k)
            if stop == t1:
                return total
            k += 1
            t = self.ends[k]
