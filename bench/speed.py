"""Timings scaled to a reference speed of the host.

On a shared host the speed of one core drifts: on the 2-core machine the
reference figures come from, a fixed loop took anywhere from 1x to 1.7x its
fastest time, in spells of seconds to minutes, with nothing else running in
the benchmark's container.  Raw wall times of a 25-second run then measure
the neighbours as much as the program (README.md gives the figures).

So while timed work runs, a timer signal interrupts it every PERIOD_S and
times `sample`, a fixed ~1.5 ms pure-Python loop.  Each timed operation is
then scaled by REF_S / (mean sample time during it, or over the last RECENT
samples if it was shorter): the result is the time the operation would take
at the speed where a sample takes REF_S.  The samples' own time is taken out
of the operation's time.  A change to the program moves the scaled time as
it moves wall time; a change of the host's speed mostly does not.  Raw wall
times are kept next to the scaled ones in bench/out/.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

REF_S = 0.0013  # one sample's time at the reference speed: about its fastest
PERIOD_S = 0.1
RECENT = 10  # samples taken before timing starts, and the floor per operation


def sample():
    """Seconds for a fixed mix of small-int, dict, tuple and big-int work."""
    t0 = time.perf_counter()
    table = {}
    x = 1
    for i in range(2000):
        x = (x * 2654435761 + i) & 0xFFFFFFFF
        key = (i & 255, x & 7)
        table[key] = table.get(key, 0) + x
    big = 3**4000
    mask = (1 << 6400) - 1
    for i in range(25):
        big = (big * (big + i)) & mask
    return time.perf_counter() - t0


class ScaledClock:
    """Times operations, raw and scaled; samples the speed while it is open.

    Use as `with ScaledClock() as clock:` and time each operation with
    `with clock.timing():`.  Only one clock may be open at a time, in the
    main thread, because it owns SIGALRM.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.last = 0.0  # raw seconds of the latest operation
        self._samples = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        d = sample()
        self._samples.append(d)
        self._spent += d

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._samples += [sample() for _ in range(RECENT)]
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def timing(self):
        n0, spent0 = len(self._samples), self._spent
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0 - (self._spent - spent0)
            recent = self._samples[-max(RECENT, len(self._samples) - n0):]
            self.last = wall
            self.raw += wall
            self.scaled += wall * REF_S / statistics.fmean(recent)
