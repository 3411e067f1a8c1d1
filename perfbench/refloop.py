"""Reference loop: a fixed pure-Python Fraction workload used as a clock.

The machine this benchmark was designed on is shared, and its speed drifts
by tens of percent over seconds; CPU time drifts with it. Every benchmark
time is therefore divided by the measured speed of this loop, run between
operations, and reported in reference-speed seconds:

    normalised = raw * NOMINAL_CHUNK_S / measured chunk time

This module never imports conelogic, so a change to the program cannot
change the clock.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The reference speed: seconds per chunk, fixed once. It is a round figure
# near the median chunk time on the machine the benchmark was designed on
# (2 shared x86-64 cores, Python 3.11); see README.md.
NOMINAL_CHUNK_S = 0.0004

_A = tuple(Fraction(i % 11 + 1, i % 5 + 2) for i in range(48))
_B = tuple(Fraction(i % 7 + 1, i % 3 + 3) for i in range(48))
_KEYS = tuple((i % 5, i % 3) for i in range(48))


def chunk() -> Fraction:
    """One unit of reference work: Fraction products, sums and dict traffic
    in the proportions the program's exact kernels use them."""
    acc: dict = {}
    s = Fraction(0)
    for a, b, k in zip(_A, _B, _KEYS):
        p = a * b
        s += p
        acc[k] = acc.get(k, 0) + p
    return s + acc[(0, 0)]


class RefClock:
    """Runs the reference loop between operations and normalises op times.

    After each operation, `measure(busy)` runs whole chunks until at least
    `share * busy` seconds (and `min_s`) have passed. An operation's speed
    factor is NOMINAL_CHUNK_S over the mean chunk time of the segments on
    either side of it.
    """

    def __init__(self, share: float = 0.25, min_s: float = 0.005):
        self.share = share
        self.min_s = min_s
        self.ref_s = 0.0
        self.last_chunk_s = self.segment(min_s)

    def segment(self, target: float) -> float:
        """Run chunks for at least `target` seconds; return seconds per chunk."""
        n = 0
        t0 = time.perf_counter()
        while True:
            chunk()
            n += 1
            el = time.perf_counter() - t0
            if el >= target:
                break
        self.ref_s += el
        return el / n

    @staticmethod
    def factor(before: float, after: float) -> float:
        return NOMINAL_CHUNK_S / (0.5 * (before + after))

    def measure(self, busy: float) -> float:
        """Run the segment after an operation that took `busy` raw seconds;
        return the speed factor for that operation."""
        after = self.segment(max(self.share * busy, self.min_s))
        f = self.factor(self.last_chunk_s, after)
        self.last_chunk_s = after
        return f
