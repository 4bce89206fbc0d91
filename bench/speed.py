"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the CPU time of fixed work is not fixed: while other
guests load the machine it grows, by 10-20% from one second to the next
and by up to 2x over spells of tens of seconds.  ``kernel`` is fixed
work that calls nothing of heatpade's and mixes the kinds of work
heatpade does: interpreted float arithmetic (as in mpmath), small-array
numpy calls (as in the solver's residuals) and long-array numpy passes
(as in quadrature and path generation).  Its CPU time, as a multiple of
``REFERENCE_S``, is the host's slowdown at that moment.  ``Sampler``
times the kernel every ``INTERVAL_S`` of CPU time inside a timed section,
so every round is paired with the slowdown it ran under.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from numpy.linalg import solve
from numpy.random import default_rng

# The kernel's CPU time on the machine the baseline in README.md was
# measured on, in a fast spell; it only sets the scale of the normalised
# times.
REFERENCE_S = 0.015
# Process CPU time between two samples inside a timed section.
INTERVAL_S = 0.25


def kernel():
    # It may run inside the program's np.errstate(..., "raise") blocks;
    # it raises nothing anyway, but must never raise into the program.
    with np.errstate(all="ignore"):
        x = 0.0
        for i in range(22_500):
            x = (x * 1.0000001 + i) % 1000.0
        a = np.arange(8.0)
        m = np.eye(4) + 0.1
        for _ in range(350):
            a = np.sin(a) * 0.5 + np.dot(a, a) * 1e-3
            solve(m, a[:4])
        y = default_rng(0).normal(size=50_000)
        for _ in range(6):
            y = np.cos(y) + y * 0.5
    return x, a, y


# The kernel may interrupt the program in the middle of an import, so
# everything it calls is loaded here, never first inside a signal handler.
kernel()


def sample(k: int):
    """CPU seconds of ``k`` kernel runs, one each."""
    out = []
    for _ in range(k):
        c0 = time.process_time()
        kernel()
        out.append(time.process_time() - c0)
    return out


def slowdown(samples) -> float:
    """The host's slowdown over ``samples``: their harmonic mean over the reference.

    Samples taken every ``INTERVAL_S`` of CPU time each stand for an equal
    slice of it, and a slice done at slowdown k does 1/k of the work, so
    the work in a round is its CPU time times the mean of 1/k.  A sample
    slowed by a one-off stall barely moves a harmonic mean.
    """
    return statistics.harmonic_mean(samples) / REFERENCE_S


class Sampler:
    """Kernel samples taken on a CPU-time timer (SIGPROF) while ``active``."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self._busy = False

    def _tick(self, signum, frame):
        # A tick that lands while the kernel runs is dropped, not nested.
        if self._busy:
            return
        self._busy = True
        try:
            self.samples += sample(1)
        finally:
            self._busy = False

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
