"""Host-speed calibration for item latencies and set-up times.

On a shared host the speed of pure-Python code drifts by tens of percent,
in bursts of a fraction of a second and in phases of minutes.  A median
of item latencies then jumps between the host's fast and slow states.
So while anything is timed, a timer signal runs a fixed calibration loop
every PERIOD_S seconds and records how long it took.  The loop (about
0.2 ms) multiplies polynomials over F_7 held in lists, in a small class,
and counts them in a dict, so that it works the interpreter the way
drinlat's own code does.  A time is reported at reference speed:

    time * REFERENCE_MS / (median of the samples taken during it,
                           and of WINDOW samples on either side)

A slower program gives a longer time; a slower host does not.  The loop
never calls drinlat, and the time spent in it is taken out of the times
it interrupts.  Samples are taken only inside the process being timed
(worker or CLI process), from its start.  With a second timer in the
waiting parent, one worker in seven read its samples at twice the
parent's, as if the two timers fired in step on one vCPU.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# Median time of one calibration loop on the host the baseline was taken
# on (2 vCPUs, Python 3.11).  It only sets the scale of reported times.
REFERENCE_MS = 0.25
PERIOD_S = 0.01
WINDOW = 3


class _Elt:
    """A polynomial over F_p as a list of coefficients."""
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other, p):
        a, b = self.c, other.c
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return _Elt(out)


def _loop() -> int:
    x, y = _Elt([1, 3, 0, 5, 2]), _Elt([4, 0, 6, 1, 3])
    seen = {}
    for _ in range(60):
        z = x.mul(y, 7)
        key = tuple(z.c[:3])
        seen[key] = seen.get(key, 0) + 1
        x = _Elt(z.c[2:7])
    return len(seen)


class Meter:
    """Calibration samples from a timer signal, between start() and stop().

    `times` holds the perf_counter at the end of each sample, `samples`
    its duration, and `spent` the total time spent calibrating."""

    def __init__(self):
        self.times, self.samples, self.spent = [], [], 0.0
        self._previous = None

    def _tick(self, signum, frame):
        # No collection inside the handler: the interrupted item's garbage
        # is collected, and timed, in the item.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _loop()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t1)
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def start(self):
        t0 = perf_counter()
        _loop()  # warm up, so that the first sample is not the slowest
        self.spent += perf_counter() - t0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def record(self):
        return {"times": self.times, "samples": self.samples}


def at_reference(seconds: float, start: float, end: float, record) -> float:
    """`seconds`, spent between perf_counter readings `start` and `end`,
    at reference speed, given a Meter's record()."""
    times, samples = record["times"], record["samples"]
    lo = max(0, bisect_left(times, start) - WINDOW)
    near = samples[lo: bisect_right(times, end) + WINDOW]
    if not near:
        raise ValueError("no calibration samples")
    near = sorted(near)
    mid = len(near) // 2
    median = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2
    return seconds * REFERENCE_MS / 1000 / median
