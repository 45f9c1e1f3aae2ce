"""Machine-speed reference: job times corrected for the speed of the
shared machine while each job ran.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent, in phases of seconds to minutes.  Raw job times of one
pass, and medians over the passes of one run, move with those phases; a
program change of a few percent would be lost in them.

So every pass interleaves a fixed reference unit with its jobs:
`EDGE_UNITS` units before the first job and after the last, and, once
`EVERY_S` of jobs has run since the last unit, units for `SHARE` of that
time (at least one).  A long job is thus followed by a long stretch of
units, which averages out the fast fluctuations the job itself averages
out.  The unit evaluates permutation words and freely reduces words with
`algebra.py`, the benchmark's own code, so no change to the program
moves it.  A job's speed is the mean duration of the units within
`WINDOW_S` of it (for the set-up, of the first edge units), and its
corrected time is

    measured time * NOMINAL_S / that mean,

the time the job would take where one unit takes `NOMINAL_S` (about its
duration on a 2-vCPU Intel Xeon VM with Python 3.11).  A faster program
lowers the corrected time as it lowers the measured one; a slow phase of
the machine raises the unit's time with the job's, so the ratio moves
less than either.  The correction is only as good as the unit's likeness
to the jobs: it removes most of the drift from small pure-Python jobs
and less from multi-second, memory-heavy ones.
"""

from __future__ import annotations

import random
import time
from typing import List, Sequence, Tuple

import algebra

NOMINAL_S = 0.02
EVERY_S = 0.25
SHARE = 0.08
EDGE_UNITS = 8
WINDOW_S = 1.0

_rng = random.Random("gpforge-bench:speed-reference")
_IMAGES = {g: tuple(_rng.sample(range(6), 6)) for g in "abc"}
_WORDS = [[(_rng.choice("abc"), _rng.choice((1, -1, 2))) for _ in range(30)] for _ in range(40)]


def reference_unit(rounds: int = 7) -> int:
    """A fixed piece of pure-Python work: tuples, dicts, small lists."""
    out = 0
    for _ in range(rounds):
        seen = {}
        for w in _WORDS:
            p = algebra.perm_eval(w, _IMAGES, 6)
            seen[p] = seen.get(p, 0) + 1
            out += len(algebra.free_reduce(w + algebra.inverse(w[:10])))
        out += len(seen)
    return out


class Reference:
    """The reference units of one pass, as (midpoint, duration)."""

    def __init__(self) -> None:
        self.units: List[Tuple[float, float]] = []
        self._last = 0.0

    def _unit(self) -> None:
        start = time.perf_counter()
        reference_unit()
        end = time.perf_counter()
        self.units.append(((start + end) / 2, end - start))
        self._last = end

    def edge(self) -> None:
        for _ in range(EDGE_UNITS):
            self._unit()

    def between_jobs(self) -> None:
        since = time.perf_counter() - self._last
        if since >= EVERY_S:
            until = self._last + (1 + SHARE) * since
            self._unit()
            while self._last < until:
                self._unit()

    def setup_scale(self) -> float:
        """The correction factor for the pass's set-up, which ends where the
        first edge units begin."""
        first = [d for _, d in self.units[:EDGE_UNITS]]
        return NOMINAL_S * len(first) / sum(first)

    def corrected(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Corrected times of the jobs that ran over `spans` (start, end)."""
        out = []
        for start, end in spans:
            near = [d for mid, d in self.units if start - WINDOW_S <= mid <= end + WINDOW_S]
            out.append((end - start) * NOMINAL_S * len(near) / sum(near))
        return out
