"""The reference loop: fixed stdlib-only work that never calls finsum.

Its time, taken on the same CPU just before and just after each timed piece
of work, is the yardstick ``ref_time`` divides by, so that a slowdown of the
machine that outlasts a piece cancels out.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

ITERATIONS = 3000
REPEATS = 5                 # loops per reference point; their median is used


def loop():
    """Seconds taken by small Fraction arithmetic, tuple keys and dict
    traffic, the engine's kind of work.  The cyclic collector is off while
    it runs: the loop makes no cycles, and a full collection of the calling
    process's heap would time the heap, not the machine."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(ITERATIONS):
            a = Fraction(i % 97 + 1, i % 13 + 2)
            b = Fraction(i % 31 + 1, i % 7 + 3)
            key = (i % 61, i & 3)
            table[key] = a * b - a / b + table.get((key[0], 0), 0) * 0
        return time.perf_counter() - start
    finally:
        gc.enable()


def point():
    """Median of REPEATS reference loops."""
    return statistics.median(loop() for _ in range(REPEATS))
