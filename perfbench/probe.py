"""A fixed reference computation, timed between calls, that tracks the
speed of a shared host.

On the host the reference figures come from, the same bp-box search
took anywhere from 1.65 to 3.75 s within five minutes, in a smooth drift
that CPU time follows too; a median over one run cannot shed that.  The
probe runs the same kinds of work as linkatlas (Python integer loops,
`Fraction` arithmetic, dict and JSON handling, numpy cumulative sums over
signature-sized arrays), 5 to 10 ms of each, without importing it: a
change to the program never changes the probe, while a slow stretch of
the host slows both.  `run.py` reports the median round's time as a
multiple of the probe's median time in the same run.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

import numpy as np


def _ints() -> int:
    s = 0
    for i in range(50000):
        s += i * i % 7
    return s


def _fractions() -> Fraction:
    f = Fraction(0)
    for i in range(1000):
        f += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 5 + 1)
    return f


def _dicts() -> int:
    d = {}
    for i in range(4000):
        d["k%d" % i] = (i, str(i))
    return len(json.dumps(sorted(d.items())[:1500]))


def _numpy() -> int:
    """Cyclic window sums over a 90,090-cell int64 array, the size of
    the histograms a 5-exponent signature works on."""
    windows = (5, 7, 9, 11)
    cells = 2 * 5 * 7 * 9 * 11 * 13
    x = np.arange(cells, dtype=np.int64) % 3
    for a in windows:
        m = x.reshape(2 * a, cells // (2 * a))
        pref = np.zeros((4 * a + 1, m.shape[1]), dtype=np.int64)
        np.cumsum(np.concatenate([m, m], axis=0), axis=0, out=pref[1:])
        idx = np.arange(2 * a) + 2 * a
        x = (pref[idx] - pref[idx - (a - 1)]).reshape(cells) % 1000
    return int(x.sum())


class Probe:
    """The probe's timings in one run."""

    def __init__(self, every: float, burst: int):
        self.every = every  # seconds of run per probe taken between calls
        self.burst = burst  # most probes taken at once between calls
        self.seconds: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        _ints(), _fractions(), _dicts(), _numpy()
        self.last = perf_counter()
        self.seconds.append(self.last - t0)

    def between_calls(self) -> None:
        """Probe once per `every` seconds since the last probe, so that a
        long call is followed by as many probes as short calls of the
        same total length would be."""
        due = int((perf_counter() - self.last) / self.every)
        for _ in range(min(due, self.burst)):
            self.sample()
