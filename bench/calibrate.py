"""Speed sampling for the benchmark.

On a shared host the CPU speed drifts by up to 2x within seconds and stays
shifted for seconds to minutes.  While a timed call runs, a SpeedSampler
interrupts it at a fixed wall-clock interval and times a short fixed burst
of pure-Python work that does not touch walgebra.  The mean of
BURST_REF_S / burst time over the samples is the mean speed of the CPU
during the call, relative to a reference CPU that runs the burst in
BURST_REF_S; the call's seconds times that speed are reference seconds.
The bursts' own time is counted in ``spent`` so that callers can take it
out of what they measured.

The bursts share the caches and the heap with the program they interrupt,
so a change to the program's memory use can move the sampled speed a
little; the raw seconds are kept next to every scaled figure.  Code with
little memory traffic slows more than the straightening product when the
host is busy, and interpreter start-up less, so the scaling cancels most
of the drift, not all of it.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

BURST_REF_S = 0.0005


def burst_s() -> float:
    """Time of a fixed burst of small-Fraction arithmetic and of filling a
    fresh dict of tuple keys.  The dict part follows the allocation-heavy
    straightening cache, which the arithmetic alone tracks poorly."""
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(100):
        x = Fraction(i % 7 - 3, 1 + i % 5)
        acc = x * x + acc / 3 if i % 8 else Fraction(1, 2)
        table[(i & 63, i % 3)] = acc
    fresh = {}
    for i in range(300):
        fresh[(i, i & 7, i >> 3)] = {(i,): i}
    return perf_counter() - t0


def quiet_burst_s() -> float:
    """Time of a burst run after a first one has warmed the caches, with
    the cyclic garbage collector held off: a collection of the program's
    heap inside the burst would be charged to the CPU's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        burst_s()
        return burst_s()
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples the CPU speed every ``every`` seconds while measuring.

    Entering the sampler arms a SIGALRM interval timer; a tick times a
    burst only while ``measuring()`` is open, so the samples are spread
    evenly over the measured time.
    """

    def __init__(self, every: float):
        self.every = every
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds taken by the bursts
        self._active = False
        self._in_tick = False

    def _tick(self, signum, frame):
        # A tick that arrives while a burst runs would nest inside it.
        if self._active and not self._in_tick:
            self._in_tick = True
            t0 = perf_counter()
            self.speeds.append(BURST_REF_S / quiet_burst_s())
            self.spent += perf_counter() - t0
            self._in_tick = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    @contextmanager
    def measuring(self):
        self._active = True
        try:
            yield self
        finally:
            self._active = False

    def clock(self) -> float:
        """Seconds that stand still while a burst runs."""
        return perf_counter() - self.spent

    def speed(self) -> float:
        """Mean speed over the samples; one burst now if there are none."""
        if not self.speeds:
            t0 = perf_counter()
            self.speeds.append(BURST_REF_S / quiet_burst_s())
            self.spent += perf_counter() - t0
        return sum(self.speeds) / len(self.speeds)
