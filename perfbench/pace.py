"""The host's pace, sampled while the benchmark works.

On a shared host the same code runs at different speeds from one minute to
the next: other tenants' load moves this machine's cores between a fast and
a slow state, and all code, asymlab's and any other, slows by a similar
factor (1.5x to 1.9x on the host the README describes).  A rate in wall
seconds then reports the host as much as the program.

A ``Pacer`` runs a fixed reference loop, made of the same kinds of work as
asymlab's (a Python-level loop over a dict, ufuncs on a 16-element array,
64 x 32, 256 x 32 and 2048 x 32 matrix products), every ``INTERVAL_S`` of
wall time.  It runs from a ``SIGALRM`` handler in the main thread, so the
samples fall inside the timed work and see the same state of the host;
there it takes about 1 ms.  A reference second is the time the loop takes
to run ``LOOPS_PER_REF_S`` times at the pace measured meanwhile, about one
wall second on that host.  ``clock()`` is a wall clock that stops while the
handler runs, so timed intervals leave the samples out.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
LOOPS_PER_REF_S = 1070

_spent = 0.0  # wall time spent in the handler, over the whole process


def clock() -> float:
    """Wall seconds, not counting the time spent sampling the pace."""
    return perf_counter() - _spent


def sampling_s() -> float:
    """Wall seconds this process has spent sampling the pace."""
    return _spent


def ref_seconds(wall_s: float, loop_s: float) -> float:
    """``wall_s`` seconds of work, done while the reference loop took
    ``loop_s`` seconds on average, in reference seconds."""
    return wall_s / (LOOPS_PER_REF_S * loop_s)


_X = np.linspace(-1.0, 1.0, 16)
_A = np.random.default_rng(0).standard_normal((64, 32))
_A_TALL = np.random.default_rng(2).standard_normal((256, 32))
_A_LARGE = np.random.default_rng(3).standard_normal((2048, 32))
_B = np.random.default_rng(1).standard_normal((32, 32)) * 0.1


def reference_loop() -> None:
    """A fixed piece of work that depends on nothing in asymlab."""
    acc = {}
    for i in range(400):
        acc[i % 13] = acc.get(i % 13, 0.0) + i * 0.5
    y = _X
    for _ in range(40):
        y = np.sin(y) * 0.5 + y.mean()
    c = _A
    for _ in range(8):
        c = np.tanh(c @ _B)
    c = _A_TALL
    for _ in range(3):
        c = np.tanh(c @ _B)
    # a product whose operands leave the first-level caches, as the batched
    # decoder's do; without it the pace missed part of train's slowdowns
    _A_LARGE @ _B


class Pacer:
    """Samples the reference loop's wall time while the block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        global _spent
        t0 = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - t0)
        _spent += perf_counter() - t0

    def __enter__(self) -> "Pacer":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a block shorter than one interval
            self._sample(None, None)

    @property
    def loop_s(self) -> float:
        """The reference loop's mean wall time over the block."""
        return statistics.fmean(self.samples)
