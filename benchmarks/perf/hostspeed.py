"""Host-speed meter: puts CPU-bound timings on a host whose speed drifts.

The shared hosts this benchmark runs on change speed under it: a fixed
pure-Python loop takes 0.55 ms in one second and 1.1 ms in the next, and
slow spells last from under a second to tens of seconds, so raw wall
times of one workload spread by 20-40% from run to run.  The meter
samples that speed while the benchmark runs: every ``INTERVAL_S`` a
``SIGALRM`` handler times a fixed kernel of object and method work that
does not touch the program under test.  Dividing a measured interval by
the kernel's mean slowdown over that interval (against ``NOMINAL_S``)
gives its duration at reference speed.  Of the kernels tried, this one
tracked the workloads' own slowdown best; normalized ``churn`` passes
spread 3% where raw ones spread 14%.

While the benchmark's own processes load both cores the kernel would
time that load too, so such stretches are judged by samples taken while
the benchmark idles just before and after them (:meth:`SpeedMeter.paused`).  The handler runs on
the main thread; threads the benchmark starts block ``SIGALRM`` (see
:func:`block_in_this_thread`) so the signal never lands in their system
calls.  ``setitimer`` timers are not inherited across ``fork``, so the
program's worker processes are never sampled.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager
from typing import List

#: seconds between samples
INTERVAL_S = 0.005

#: the kernel's time at reference speed (its fast state on a 2-vCPU
#: Intel Xeon VM); normalized times are seconds on a host this fast
NOMINAL_S = 90e-6

#: an interval holding fewer samples borrows its nearest neighbours, so
#: no estimate rests on less than 100 ms of samples
MIN_SAMPLES = 20

#: seconds the benchmark idles, sampling, on each side of a paused stretch
SETTLE_S = 0.05


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = 0

    def step(self, x: int) -> int:
        return self.a + x


_OBJECTS = [_Obj(i) for i in range(20000)]


def kernel() -> int:
    """Attribute loads and stores and method calls at pseudo-random
    places in a working set larger than the first-level caches."""
    objects, count = _OBJECTS, len(_OBJECTS)
    acc = index = 0
    for i in range(400):
        index = (index * 1103515245 + 12345) % count
        obj = objects[index]
        acc += obj.step(i)
        obj.b = acc
    return acc


def block_in_this_thread() -> None:
    """Keep ``SIGALRM`` out of the calling thread (and threads it starts)."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})


class SpeedMeter:
    """Samples the kernel's duration from ``start()`` to ``stop()``."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self._busy = False
        self._armed = False

    def _sample(self, _signum, _frame) -> None:
        # a signal landing inside the handler would time the kernel twice
        if self._busy:
            return
        self._busy = True
        try:
            began = time.perf_counter()
            kernel()
            self.durations.append(time.perf_counter() - began)
            self.times.append(began)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._armed = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._armed = False

    @contextmanager
    def paused(self):
        """For a stretch in which the benchmark's own processes load both
        cores.  A kernel timed then measures that load as much as the
        host (a busier stretch would read as a slower host), so sampling
        stops, and the stretch is judged by the samples of ``SETTLE_S``
        of idling just before and just after it."""
        if not self._armed:
            yield
            return
        time.sleep(SETTLE_S)
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            time.sleep(SETTLE_S)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]`` against ``NOMINAL_S``."""
        times = self.times
        if not times:
            return 1.0
        low = bisect.bisect_left(times, start)
        high = bisect.bisect_right(times, end)
        while high - low < MIN_SAMPLES and (low > 0 or high < len(times)):
            if low > 0 and (high == len(times) or start - times[low - 1] <= times[high] - end):
                low -= 1
            else:
                high += 1
        window = self.durations[low:high]
        return sum(window) / len(window) / NOMINAL_S

    def normalize(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.slowdown(start, end)
