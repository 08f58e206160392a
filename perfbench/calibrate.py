"""Probes that measure how fast the machine runs while the benchmark runs.

On a shared host the same single-threaded solve can take twice as long
from one second to the next, and process CPU time slows down with it (the
slowdown is contention for the core, not time off it), so no clock the
process can read is steady.  So while the benchmark measures, a fixed
probe runs every ``INTERVAL_S`` of process CPU time (on ``SIGVTALRM``),
and every time is reported in *calibrated seconds*: the raw time, less
the probes' own time, scaled by ``REFERENCE_S`` over the mean probe time
around it.  A calibrated second is the time the work would take on the
machine at the speed at which one probe takes ``REFERENCE_S``.

The probe uses only numpy and scipy, in the mix the solver spends its
time on (small Cholesky factorisations and triangular solves through the
scipy wrappers, numpy reductions and outer products, and a Python loop
over array entries, as in the simplex pricing), and none of the solver's
own code, so a change to the solver moves calibrated times as it moves
raw ones.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

DIM = 12
REPS = 30
INTERVAL_S = 0.05
# about what one probe took on the 2-core Xeon (Sapphire Rapids) VM the
# benchmark was written on, in its faster phases; it only sets the unit
REFERENCE_S = 0.0015

_rng = np.random.default_rng(7)
_G = _rng.standard_normal((DIM, DIM))
_M = _G @ _G.T + DIM * np.eye(DIM)
_B = _rng.standard_normal(DIM)


def probe_seconds():
    """Run the probe once; return its elapsed time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(REPS):
        L = np.linalg.cholesky(_M + (k % 3) * np.eye(DIM))
        y = scipy.linalg.solve_triangular(L, _B, lower=True)
        x = scipy.linalg.solve_triangular(L.T, y, lower=False)
        H = np.outer(x, x)
        acc += float(H.sum()) + float(np.abs(x).max())
        best, arg = 0.0, -1
        for j in range(DIM):
            v = x[j] * y[j]
            if v < best:
                best, arg = v, j
        acc += best + arg
    if not np.isfinite(acc):
        raise ArithmeticError("calibration probe produced %r" % acc)
    return time.perf_counter() - t0


class Sampler:
    """Runs the probe periodically and converts raw intervals.

    ``mark()`` before and after a piece of work, then ``calibrated(a, b)``
    gives the work's time in calibrated seconds, from the probes taken
    during it and the last one before it.
    """

    def __init__(self):
        self.probes = []  # probe durations, in the order taken
        self.spent = 0.0  # total time spent in probes
        self._busy = False

    def probe(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            c = probe_seconds()
            self.probes.append(c)
            self.spent += c
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        """Probe now, then every ``INTERVAL_S`` of CPU time until exit."""
        previous = signal.signal(signal.SIGVTALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
            signal.signal(signal.SIGVTALRM, previous)

    def mark(self):
        return time.perf_counter(), self.spent, len(self.probes)

    def raw(self, a, b):
        """Seconds between two marks, less the probes' time."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def scale(self, a, b):
        """``REFERENCE_S`` over the mean probe from just before ``a`` to ``b``."""
        window = self.probes[max(a[2] - 1, 0):b[2]]
        return REFERENCE_S * len(window) / sum(window)

    def calibrated(self, a, b):
        return self.raw(a, b) * self.scale(a, b)
