"""The reference loop: a fixed exact-rational workload that defines a reference second.

The loop uses only the standard library and lives in the benchmark, so no
change to hahnforge can alter it.  Timing it right beside each request tells
how fast the machine is at that moment; a request's wall time is converted to
reference seconds by ``wall * NOMINAL_S / loop_time``.  NOMINAL_S is a
constant of the benchmark, close to the loop's time on a quiet 2-core x86-64
VM under Python 3.11, so reference seconds read roughly like wall seconds
there.
"""

from __future__ import annotations

import time
from fractions import Fraction

ITERATIONS = 400
NOMINAL_S = 0.004


def run_loop() -> Fraction:
    acc = Fraction(0)
    for k in range(1, ITERATIONS + 1):
        acc += Fraction(k % 7 + 1, k % 11 + 2) * Fraction(3, k % 13 + 5)
        if acc > 10:
            acc -= 10
    return acc


def loop_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    run_loop()
    return time.perf_counter() - start
