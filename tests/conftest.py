"""Shared generators for randomized exact tests.

Random PL functions are drawn with breakpoints on the 16ths grid and values
p/q in [-2, 2] with q <= 16, matching the coefficient ranges used throughout
the randomized suites.  Everything is seeded for reproducibility.
"""

from __future__ import annotations

import contextlib
import random
import sys
from fractions import Fraction

import pytest

from hahnforge.plalg import PLFunc, RatSet, uniform_grid


def dyadic_grid(level: int) -> list[tuple[int, int]]:
    """The 2**level + 1 dyadic rationals k / 2**level in [0, 1], as the grid
    of reduced (p, q) pairs the walkers read; Fraction(*x) is the point."""
    return uniform_grid(2**level)


def random_value(rng: random.Random, lo: int = -2, hi: int = 2, max_den: int = 16) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_plfunc(rng: random.Random, max_interior: int = 3) -> PLFunc:
    k = rng.randint(0, max_interior)
    interior = sorted(rng.sample([Fraction(i, 16) for i in range(1, 16)], k))
    grid = [Fraction(0)] + interior + [Fraction(1)]
    return PLFunc(tuple(grid), tuple(random_value(rng) for _ in grid))


def random_family(rng: random.Random, max_size: int = 6) -> tuple[PLFunc, ...]:
    n = rng.randint(1, max_size)
    return tuple(random_plfunc(rng) for _ in range(n))


def random_ratset(rng: random.Random, max_components: int = 3) -> RatSet:
    k = rng.randint(0, max_components)
    comps = []
    for _ in range(k):
        a = random_value(rng, 0, 1, 12)
        b = random_value(rng, 0, 1, 12)
        lo, hi = min(a, b), max(a, b)
        if rng.random() < 0.3:
            hi = lo
        comps.append((lo, hi))
    return RatSet.of(comps)


# The seed of the rng fixture, for module-scoped fixtures that build what
# tests seeded by it would build.
SEED = 0xA1FA


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


@contextlib.contextmanager
def int_str_digits(limit: int):
    """Python's int-to-str digit limit set to limit, and restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
