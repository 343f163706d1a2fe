"""Exact piecewise-linear function algebra on [0, 1].

Continuous functions are :class:`PLFunc`: affine interpolation between
strictly increasing rational breakpoints covering [0, 1].  The lattice
operations (min, max, sum, scaling, absolute value) are closed on this class
and computed exactly: result breakpoints are the union of input breakpoints
plus every pairwise crossing point, so no tolerance parameter exists anywhere
in this module.  Evaluation derives each segment's (slope, intercept) once
per function, on first use, so a point value costs a bisection, one product
and one sum.

Possibly discontinuous functions are :class:`PwFunc`: affine pieces on the
open subintervals of a partition plus an explicit value at each partition
point.  On this representation upper/lower semicontinuity is decidable by
comparing point values against one-sided limits.

Finite unions of closed rational intervals (singletons included) are
:class:`RatSet`; they arise as equality sets {x : f(x) = g(x)} of PL
functions and as zero sets of distance functions.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .rational import rat, rat_str

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Verdict:
    """Decision with an optional witness for the failing case."""

    ok: bool
    witness: Fraction | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PLFunc:
    """Continuous piecewise-linear function on [0, 1] with rational data."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bps, vals = self.breakpoints, self.values
        if len(bps) < 2 or len(bps) != len(vals):
            raise ValueError("need matching breakpoint/value lists of length >= 2")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @staticmethod
    def constant(c: int | str | Fraction) -> "PLFunc":
        c = rat(c)
        return PLFunc((ZERO, ONE), (c, c))

    @staticmethod
    def identity() -> "PLFunc":
        return PLFunc((ZERO, ONE), (ZERO, ONE))

    @staticmethod
    def affine(slope: int | str | Fraction, intercept: int | str | Fraction) -> "PLFunc":
        a, b = rat(slope), rat(intercept)
        return PLFunc((ZERO, ONE), (b, a + b))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int | str | Fraction, int | str | Fraction]]) -> "PLFunc":
        pts = [(rat(x), rat(v)) for x, v in pairs]
        return PLFunc(tuple(x for x, _ in pts), tuple(v for _, v in pts))

    @cached_property
    def pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(slope, intercept) of each segment, derived once per function.

        A cached attribute, not a field: equality, hashing, repr and JSON
        see only the breakpoints and values.
        """
        bps, vals = self.breakpoints, self.values
        out = []
        for a, b, va, vb in zip(bps, bps[1:], vals, vals[1:]):
            slope = (vb - va) / (b - a)
            out.append((slope, va - slope * a))
        return tuple(out)

    def __call__(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        if x < 0 or x > 1:
            raise ValueError(f"argument {x} outside the domain [0, 1]")
        i = bisect_right(self.breakpoints, x) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        slope, intercept = self.pieces[i]
        return slope * x + intercept

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Exact (min, max) over [0, 1]; attained at breakpoints."""
        return min(self.values), max(self.values)

    def __add__(self, other: "PLFunc") -> "PLFunc":
        return pl_sum((self, other))

    def __sub__(self, other: "PLFunc") -> "PLFunc":
        return pl_sum((self, pl_neg(other)))

    def __neg__(self) -> "PLFunc":
        return pl_neg(self)

    def scaled(self, c: int | str | Fraction) -> "PLFunc":
        return pl_scale(c, self)

    def to_pw(self) -> "PwFunc":
        return PwFunc.from_pl(self)

    def to_json(self) -> list[list[str]]:
        return [[rat_str(x), rat_str(v)] for x, v in zip(self.breakpoints, self.values)]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]]) -> "PLFunc":
        return PLFunc.from_pairs((x, v) for x, v in data)

    def dumps(self) -> str:
        return json.dumps(self.to_json())


def merged_grid(fs: Sequence[PLFunc]) -> list[Fraction]:
    grid: set[Fraction] = set()
    for f in fs:
        grid.update(f.breakpoints)
    return sorted(grid)


def _crossing_grid(fs: Sequence[PLFunc]) -> list[Fraction]:
    """Merged breakpoints plus every pairwise crossing point.

    Between consecutive points of the result no two inputs change order, so
    pointwise min/max at the grid points interpolate to the exact envelope.
    """
    grid = merged_grid(fs)
    crossings: set[Fraction] = set()
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            f, g = fs[i], fs[j]
            for a, b in zip(grid, grid[1:]):
                da = f(a) - g(a)
                db = f(b) - g(b)
                if (da > 0 and db < 0) or (da < 0 and db > 0):
                    crossings.add(a + (b - a) * da / (da - db))
    if crossings:
        return sorted(set(grid) | crossings)
    return grid


def _envelope(fs: Sequence[PLFunc], pick) -> PLFunc:
    """Exact envelope; large inputs are folded pairwise (divide and conquer).

    The two-function base case carries the full crossing grid, so every
    intermediate result is an exact PL function and the fold stays exact.
    """
    if not fs:
        raise ValueError("pointwise envelopes need at least one function")
    if len(fs) <= 3:
        grid = _crossing_grid(fs)
        return PLFunc(tuple(grid), tuple(pick(f(x) for f in fs) for x in grid))
    mid = len(fs) // 2
    return _envelope((_envelope(fs[:mid], pick), _envelope(fs[mid:], pick)), pick)


def pl_min(fs: Sequence[PLFunc]) -> PLFunc:
    return _envelope(fs, min)


def pl_max(fs: Sequence[PLFunc]) -> PLFunc:
    return _envelope(fs, max)


def pl_sum(fs: Sequence[PLFunc]) -> PLFunc:
    if not fs:
        raise ValueError("sum needs at least one function")
    grid = merged_grid(fs)
    return PLFunc(tuple(grid), tuple(sum(f(x) for f in fs) for x in grid))


def pl_scale(c: int | str | Fraction, f: PLFunc) -> PLFunc:
    c = rat(c)
    return PLFunc(f.breakpoints, tuple(c * v for v in f.values))


def pl_neg(f: PLFunc) -> PLFunc:
    return pl_scale(-1, f)


def pl_abs(f: PLFunc) -> PLFunc:
    return pl_max((f, pl_neg(f)))


def pl_equal(f: PLFunc, g: PLFunc) -> bool:
    """Pointwise equality, decided on the merged breakpoint grid."""
    return all(f(x) == g(x) for x in merged_grid((f, g)))


def dominates(f: PLFunc, g: PLFunc) -> Verdict:
    """Whether f(x) <= g(x) everywhere on [0, 1].

    The difference g - f is affine between merged breakpoints, so checking the
    grid decides the global inequality; the witness is a violating grid point.
    """
    for x in merged_grid((f, g)):
        if f(x) > g(x):
            return Verdict(False, x)
    return Verdict(True)


@dataclass(frozen=True)
class RatSet:
    """Finite union of disjoint closed rational intervals within [0, 1].

    Singleton points are stored as degenerate intervals.  The stored form is
    normalized: sorted, with a strict gap between consecutive components.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        prev_hi: Fraction | None = None
        for lo, hi in self.intervals:
            if not (0 <= lo <= hi <= 1):
                raise ValueError(f"component [{lo}, {hi}] is not a closed interval in [0, 1]")
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("components must be sorted and disjoint")
            prev_hi = hi

    @staticmethod
    def of(pairs: Iterable[tuple[int | str | Fraction, int | str | Fraction]]) -> "RatSet":
        """Normalize arbitrary closed intervals: sort and merge overlaps."""
        items = sorted((rat(a), rat(b)) for a, b in pairs)
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in items:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return RatSet(tuple(merged))

    @staticmethod
    def point(x: int | str | Fraction) -> "RatSet":
        x = rat(x)
        return RatSet(((x, x),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __contains__(self, x: int | str | Fraction) -> bool:
        x = rat(x)
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def union(self, other: "RatSet") -> "RatSet":
        return RatSet.of((*self.intervals, *other.intervals))

    def intersect(self, other: "RatSet") -> "RatSet":
        out: list[tuple[Fraction, Fraction]] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return RatSet.of(out)

    def to_json(self) -> list[list[str]]:
        return [[rat_str(lo), rat_str(hi)] for lo, hi in self.intervals]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]]) -> "RatSet":
        return RatSet.of((a, b) for a, b in data)


EMPTY_SET = RatSet(())
FULL_SET = RatSet(((ZERO, ONE),))


def equality_set(f: PLFunc, g: PLFunc) -> RatSet:
    """Exact {x : f(x) = g(x)} as a finite union of intervals and points.

    The difference is piecewise affine, so on each merged-grid segment it is
    identically zero, has one interior root, or has no zero at all.
    """
    d = f - g
    grid = d.breakpoints
    pieces: list[tuple[Fraction, Fraction]] = []
    for a, b in zip(grid, grid[1:]):
        da, db = d(a), d(b)
        if da == 0 and db == 0:
            pieces.append((a, b))
        elif da == 0:
            pieces.append((a, a))
        elif db == 0:
            pieces.append((b, b))
        elif (da > 0) != (db > 0):
            r = a + (b - a) * da / (da - db)
            pieces.append((r, r))
    return RatSet.of(pieces)


def dist_to(x: Fraction, s: RatSet) -> Fraction:
    """Euclidean distance from x to the set; s must be nonempty."""
    best: Fraction | None = None
    for lo, hi in s.intervals:
        d = lo - x if x < lo else (x - hi if x > hi else ZERO)
        if best is None or d < best:
            best = d
    assert best is not None
    return best


def distance_function(s: RatSet) -> PLFunc:
    """PL function x -> min(1, dist(x, s)); constant 1 for the empty set.

    The zero set is exactly s when s is nonempty.  All slopes lie in
    {-1, 0, 1}, so the result is 1-Lipschitz.
    """
    if s.is_empty:
        return PLFunc.constant(1)
    knots: set[Fraction] = {ZERO, ONE}
    comps = s.intervals
    for lo, hi in comps:
        knots.add(lo)
        knots.add(hi)
    for (_, hi), (lo, _) in zip(comps, comps[1:]):
        knots.add((hi + lo) / 2)
    grid = sorted(knots)
    dist = PLFunc(tuple(grid), tuple(dist_to(x, s) for x in grid))
    return pl_min((dist, PLFunc.constant(1)))


@dataclass(frozen=True)
class PwFunc:
    """Piecewise-affine function on [0, 1], possibly jumping at partition points.

    ``pieces[i]`` is the (slope, intercept) of the affine map on the open
    interval (partition[i], partition[i+1]); ``point_values[i]`` is the actual
    value at partition[i].  Discontinuities can occur only at partition points,
    which makes one-sided limits, and hence semicontinuity, exactly decidable.
    """

    partition: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction], ...]
    point_values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        p = self.partition
        if len(p) < 2 or p[0] != 0 or p[-1] != 1:
            raise ValueError("partition must run from 0 to 1")
        if any(a >= b for a, b in zip(p, p[1:])):
            raise ValueError("partition must be strictly increasing")
        if len(self.pieces) != len(p) - 1 or len(self.point_values) != len(p):
            raise ValueError("pieces/point_values lengths must match the partition")

    @staticmethod
    def from_pl(f: PLFunc) -> "PwFunc":
        return PwFunc(f.breakpoints, f.pieces, f.values)

    @staticmethod
    def step(jump_at: int | str | Fraction, left: Fraction, right: Fraction, at_jump: Fraction) -> "PwFunc":
        """Two-piece step with an explicit value at the jump point."""
        c = rat(jump_at)
        return PwFunc(
            (ZERO, c, ONE),
            ((ZERO, left), (ZERO, right)),
            (left, at_jump, right),
        )

    def value(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        if x < 0 or x > 1:
            raise ValueError(f"argument {x} outside the domain [0, 1]")
        i = bisect_right(self.partition, x) - 1
        if x == self.partition[i]:
            return self.point_values[i]
        slope, intercept = self.pieces[i]
        return slope * x + intercept

    def _limits(self, i: int) -> list[Fraction]:
        """One-sided limits at partition[i] (left limit first when present)."""
        x = self.partition[i]
        out = []
        if i > 0:
            s, c = self.pieces[i - 1]
            out.append(s * x + c)
        if i < len(self.pieces):
            s, c = self.pieces[i]
            out.append(s * x + c)
        return out

    def negate(self) -> "PwFunc":
        return PwFunc(
            self.partition,
            tuple((-s, -c) for s, c in self.pieces),
            tuple(-v for v in self.point_values),
        )


def semicontinuity_check(f: PwFunc, kind: str) -> Verdict:
    """Decide upper ("usc") or lower ("lsc") semicontinuity of a PwFunc.

    Off the partition points the function is affine, hence continuous; at a
    partition point upper semicontinuity means the point value dominates both
    one-sided limits, and lower semicontinuity is the dual.
    """
    if kind not in ("usc", "lsc"):
        raise ValueError(f"kind must be 'usc' or 'lsc', got {kind!r}")
    for i, v in enumerate(f.point_values):
        for lim in f._limits(i):
            if kind == "usc" and v < lim:
                return Verdict(False, f.partition[i])
            if kind == "lsc" and v > lim:
                return Verdict(False, f.partition[i])
    return Verdict(True)


def dyadic_grid(level: int) -> list[Fraction]:
    """The 2**level + 1 dyadic rationals k / 2**level in [0, 1]."""
    n = 2**level
    return [Fraction(k, n) for k in range(n + 1)]


def uniform_grid(denominator: int) -> list[Fraction]:
    """The denominator + 1 points k / denominator in [0, 1]."""
    if denominator < 1:
        raise ValueError("grid denominator must be positive")
    return [Fraction(k, denominator) for k in range(denominator + 1)]
