"""Host-speed probe for the snapcheck benchmark.

The benchmark runs on a few cores of a shared machine, whose speed drifts by
20-40% over tens of seconds as load elsewhere on the host comes and goes;
the checker's operation times drift with it, run to run, far past any useful
regression bound.  A :class:`SpeedProbe` times a small fixed computation of
the benchmark's own (:func:`reference_work`) from a timer signal, every
``INTERVAL_S`` seconds, in the thread that runs the checker, so it sees the
same core at the same moment.  An operation's time is then reported *at
reference speed*: its wall time, less the probes that ran inside it, times
``REFERENCE_NS`` over the mean probe time within ``WINDOW_NS`` of it.

The speed moves within tens of milliseconds, so the window is short: for an
operation of a few milliseconds it holds the two or three nearest probes,
for one of seconds every probe that ran inside it.  The mean, not the
median, because an operation's time adds up every slow moment in it, the
rare long stall too.

The reference work is part of the benchmark, never of the program, so a
change to the checker moves only the operation times, never the scale.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

INTERVAL_S = 0.02
WINDOW_NS = 30_000_000
# About the mean time of reference_work(), sampled between the checker's
# steps, on a 2-vCPU shared virtual machine under its usual load (Python
# 3.11.7): there, a time at reference speed reads about as its wall time.
REFERENCE_NS = 120_000


def reference_work(n: int = 100) -> int:
    """Interpreter-bound work in the checker's idiom: small tuples, dict
    updates, frozensets and hashing, over a working set of a few KB."""
    seen: dict = {}
    acc = 0
    for i in range(n):
        key = (i & 7, i >> 3, i % 5)
        seen[key] = seen.get(key, 0) + 1
        acc ^= hash(frozenset((i & 15, (i >> 4) & 15))) ^ hash(key)
    return acc ^ len(seen)


class SpeedProbe:
    """Probe samples (start, duration) in ns, in start order.  As a context
    manager it samples from SIGALRM every ``INTERVAL_S``; :meth:`sample`
    takes one by hand."""

    def __init__(self):
        self.starts: list[int] = []
        self.durs: list[int] = []
        self._busy = False
        self._old = None

    def sample(self) -> None:
        t0 = perf_counter_ns()
        reference_work()
        self.durs.append(perf_counter_ns() - t0)
        self.starts.append(t0)

    def _tick(self, _signum, _frame) -> None:
        if not self._busy:  # a late signal must not nest a probe in a probe
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def inside_ns(self, t0: int, t1: int) -> int:
        """Time the probe itself took within [t0, t1], in this thread."""
        return sum(self.durs[bisect_left(self.starts, t0) : bisect_left(self.starts, t1)])

    def scale(self, t0: int, t1: int) -> float:
        """REFERENCE_NS over the mean probe time within WINDOW_NS of
        [t0, t1]: what turns a wall time then into one at reference speed."""
        lo = bisect_left(self.starts, t0 - WINDOW_NS)
        hi = bisect_right(self.starts, t1 + WINDOW_NS)
        if lo == hi:  # no sample near: use the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return REFERENCE_NS / statistics.fmean(self.durs[lo:hi])
