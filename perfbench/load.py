"""Correction of measured times for the load other tenants put on the
machine.

On a shared host, foreign load comes and goes within seconds and slows
every instruction of this process by up to 1.6x, for tens of seconds at a
time; neither CPU time nor steal time shows it. A fixed reference loop,
timed at regular intervals while the items run, tracks that speed. A
corrected time is the measured time scaled by REFERENCE_S over the
reference loop's time around the item: the seconds the item would take
when the loop runs at its unloaded speed. The loop uses numpy and plain
Python in the proportions of the program's hot paths (gathers on arrays
of thousands of rows, and many calls on 2-vectors), and nothing of the
program itself.

The samples are taken by a SIGALRM handler on the main thread, so they
also land inside long in-process items; the handler's own time is paused
time that the caller subtracts from the item. While a child process runs
(a set-up probe, a CLI item) the handler takes no samples: the child's own
CPU use would slow the loop and be divided back out of the child's time.
Such items are bracketed by samples taken just before and just after.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# Seconds per reference_loop() on an unloaded 2-vCPU x86-64 sandbox
# (Python 3.11, numpy 2.4), the machine the baseline was measured on.
REFERENCE_S = 0.0027

_RNG = np.random.default_rng(0)
_V = _RNG.normal(size=(150, 2))
_IA = _RNG.integers(0, 150, 4000)
_IB = _RNG.integers(0, 150, 4000)


def _norm(v):
    return float(np.hypot(v[0], v[1]))


def reference_loop():
    s = 0.0
    for _ in range(10):
        d = _V[_IB] - _V[_IA]
        s += float(np.sqrt((d * d).sum(axis=1)).max())
    for i in range(400):
        s += _norm(_V[i % 150] - _V[(i * 7) % 150])
    return s


class LoadMeter:
    """Times the reference loop every `every` seconds while running.

    Use as a context manager around the measured phase. `paused` is the
    total time spent in the loop so far.
    """

    def __init__(self, every=0.1, window=0.3):
        self.every, self.window = every, window
        self.times, self.loop_s = [], []
        self.paused = 0.0
        self._previous = None
        self._held = False

    def _tick(self, *_):
        if not self._held:
            self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.loop_s.append(t1 - t0)
        self.paused += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextlib.contextmanager
    def outside(self, bracket=5):
        """Around a child process: `bracket` samples before and after, none
        during. Time the caller measures inside the block is unpaused."""
        self._held = True
        try:
            for _ in range(bracket):
                self._sample()
            yield
        finally:
            for _ in range(bracket):
                self._sample()
            self._held = False

    def factor(self, t0, t1):
        """REFERENCE_S over the median loop time of the samples taken from
        `window` seconds before t0 to `window` seconds after t1, or of the
        nearest sample when there is none."""
        lo = bisect.bisect_left(self.times, t0 - self.window)
        hi = bisect.bisect_right(self.times, t1 + self.window)
        if hi > lo:
            local = statistics.median(self.loop_s[lo:hi])
        else:
            local = self.loop_s[min(lo, len(self.times) - 1)]
        return REFERENCE_S / local
