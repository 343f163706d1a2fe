"""Exact piecewise-linear function algebra on [0, 1].

Continuous functions are :class:`PLFunc`: affine interpolation between
strictly increasing rational breakpoints covering [0, 1].  The lattice
operations (min, max, sum, scaling, absolute value) are closed on this class
and computed exactly, with no tolerance parameter anywhere in this module.
Each binary operation is one linear merge-walk over the knots of both inputs
(envelopes add the crossing points; n-ary envelopes and sums fold walks), and
envelope and sum results keep only 0, 1 and the slope changes as knots, so
equal functions have equal knots.  Evaluation derives each segment's (slope,
intercept) once per function, on first use, so a point value ``f(x)`` costs
a bisection, one product and one sum.  A grid is evaluated by ``sample(f,
xs)``: one forward pass over non-decreasing xs that yields the values in
turn, a cursor over the breakpoints compared with x in integers, and one
``Fraction(num, den)`` per value.

Possibly discontinuous functions are :class:`PwFunc`: affine pieces on the
open subintervals of a partition plus an explicit value at each partition
point.  On this representation upper/lower semicontinuity is decidable by
comparing point values against one-sided limits.

Finite unions of closed rational intervals (singletons included) are
:class:`RatSet`; they arise as equality sets {x : f(x) = g(x)} of PL
functions and as zero sets of distance functions, and ``subset`` decides
containment between two of them with a witness point.  ``first_containing``
is the one "who attains it" rule: over the equality sets {f_i = envelope},
or over increasing stage sets, the least index whose set holds x, found for
all of a non-decreasing list of xs with one cursor per set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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

    def to_pw(self) -> "PwFunc":
        return PwFunc.from_pl(self)

    def to_json(self) -> list[list[str]]:
        return [[rat_str(x), rat_str(v)] for x, v in zip(self.breakpoints, self.values)]

    @staticmethod
    def from_json(data: object) -> "PLFunc":
        """What to_json writes, a list of [a, b] string pairs; else a ValueError."""
        if not isinstance(data, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(s, str) for s in p)
            for p in data
        ):
            raise ValueError('expected a list of two-element lists of "num/den" strings')
        return PLFunc.from_pairs(data)


def _walk(f: PLFunc, g: PLFunc) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Yield (x, f(x), g(x)) at each merged breakpoint of f and g, left to right,
    reading values off the current affine pieces: linear time, no bisection."""
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    gb, gv, gp = g.breakpoints, g.values, g.pieces
    i = j = 0
    while True:
        a, b = fb[i], gb[j]
        if a == b:
            yield a, fv[i], gv[j]
            if a == 1:
                return
            i, j = i + 1, j + 1
        elif a < b:
            yield a, fv[i], gp[j - 1][0] * a + gp[j - 1][1]
            i += 1
        else:
            yield b, fp[i - 1][0] * b + fp[i - 1][1], gv[j]
            j += 1


def _canonical(points: Iterable[tuple[Fraction, Fraction]]) -> PLFunc:
    """The PL function through the points without collinear interior knots: only
    0, 1 and the slope changes remain, so equal functions get equal knots."""
    xs: list[Fraction] = []
    vs: list[Fraction] = []
    for x, v in points:
        if len(xs) >= 2 and (vs[-1] - vs[-2]) * (x - xs[-1]) == (v - vs[-1]) * (xs[-1] - xs[-2]):
            xs[-1], vs[-1] = x, v
        else:
            xs.append(x)
            vs.append(v)
    return PLFunc(tuple(xs), tuple(vs))


def _envelope(fs: Sequence[PLFunc], pick) -> PLFunc:
    """Exact envelope, folded pairwise (divide and conquer).

    Between merged knots the difference of two functions is affine, so it
    changes sign at most once, at the crossing point inserted there.
    """
    if not fs:
        raise ValueError("pointwise envelopes need at least one function")
    if len(fs) == 1:
        return _canonical(zip(fs[0].breakpoints, fs[0].values))
    mid = len(fs) // 2
    points, da = [], 0  # da = 0 before the first point: no crossing there
    for x, fx, gx in _walk(_envelope(fs[:mid], pick), _envelope(fs[mid:], pick)):
        d = fx - gx
        if d < 0 < da or da < 0 < d:
            t = da / (da - d)
            points.append((xa + (x - xa) * t, fa + (fx - fa) * t))
        points.append((x, pick(fx, gx)))
        xa, fa, da = x, fx, d
    return _canonical(points)


def pl_min(fs: Sequence[PLFunc]) -> PLFunc:
    return _envelope(fs, min)


def pl_max(fs: Sequence[PLFunc]) -> PLFunc:
    return _envelope(fs, max)


def pl_sum(fs: Sequence[PLFunc]) -> PLFunc:
    if not fs:
        raise ValueError("sum needs at least one function")
    acc = _canonical(zip(fs[0].breakpoints, fs[0].values))
    for f in fs[1:]:
        acc = _canonical((x, a + b) for x, a, b in _walk(acc, f))
    return acc


def pl_scale(c: int | str | Fraction, f: PLFunc) -> PLFunc:
    c = rat(c)
    return PLFunc(f.breakpoints, tuple(c * v for v in f.values))


def pl_neg(f: PLFunc) -> PLFunc:
    return pl_scale(-1, f)


def pl_abs(f: PLFunc) -> PLFunc:
    return pl_max((f, pl_neg(f)))


def pl_equal(f: PLFunc, g: PLFunc) -> bool:
    """Pointwise equality, decided at the merged breakpoints."""
    return all(fx == gx for _, fx, gx in _walk(f, g))


def dominates(f: PLFunc, g: PLFunc) -> Verdict:
    """Whether f(x) <= g(x) everywhere on [0, 1].

    The difference g - f is affine between merged breakpoints, so checking
    them decides the global inequality; the witness is the first violating one.
    """
    x = next((x for x, fx, gx in _walk(f, g) if fx > gx), None)
    return Verdict(x is None, x)


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


EMPTY_SET = RatSet(())
FULL_SET = RatSet(((ZERO, ONE),))


def subset(a: RatSet, b: RatSet) -> Verdict:
    """Whether a is contained in b, decided in one pass over both.

    The components of b are closed with a strict gap between them, so a
    component of a whose left end lies in one of b is contained iff it ends
    inside that same one.  At the first component of a that is not contained,
    the witness is its left end if that lies outside b; otherwise the part
    outside b starts with an open gap, which has no least point, and the
    witness is the midpoint of the gap within the component.
    """
    bs = b.intervals
    j = 0
    for lo, hi in a.intervals:
        while j < len(bs) and bs[j][1] < lo:
            j += 1
        if j == len(bs) or bs[j][0] > lo:
            return Verdict(False, lo)
        if hi > bs[j][1]:
            end = min(hi, bs[j + 1][0]) if j + 1 < len(bs) else hi
            return Verdict(False, (bs[j][1] + end) / 2)
    return Verdict(True)


def _forward(xs: Iterable[Fraction]) -> Iterator[tuple[int, int]]:
    """(numerator, denominator) of each x in turn; a ValueError at the first
    x outside [0, 1] or below the x before it."""
    last = ZERO
    for x in xs:
        p, q = x.numerator, x.denominator
        if p < 0 or p > q:
            raise ValueError(f"argument {x} outside the domain [0, 1]")
        if p * last.denominator < last.numerator * q:
            raise ValueError(f"arguments must not decrease: {x} after {last}")
        last = x
        yield p, q


def sample(f: PLFunc, xs: Iterable[Fraction]) -> Iterator[Fraction]:
    """Yield f(x) for each of the non-decreasing xs in [0, 1], in one
    forward pass that holds no values.

    A cursor moves over the breakpoints, each compared with x = p/q by
    integer cross-multiplication.  The piece slope * x + intercept is held
    as integers (a, b, d) with value (a*p + b*q) / (d*q), so each value is
    one Fraction(num, den), normalized once: the same reduced Fraction as
    f(x).  A decreasing or out-of-domain x is a ValueError when reached.
    """
    bps, pieces = f.breakpoints, f.pieces
    last = len(pieces) - 1
    i, piece = 0, None
    end_p, end_q = bps[1].numerator, bps[1].denominator
    for p, q in _forward(xs):
        while i < last and p * end_q >= end_p * q:
            i += 1
            end_p, end_q = bps[i + 1].numerator, bps[i + 1].denominator
            piece = None
        if piece is None:
            slope, intercept = pieces[i]
            piece = (
                slope.numerator * intercept.denominator,
                intercept.numerator * slope.denominator,
                slope.denominator * intercept.denominator,
            )
        a, b, d = piece
        yield Fraction(a * p + b * q, d * q)


def first_containing(sets: Sequence[RatSet], xs: Iterable[Fraction]) -> list[int | None]:
    """For each of the non-decreasing xs in [0, 1], the least i with x in
    sets[i], or None if no set holds x.

    Each set keeps a cursor at its first component that does not end before
    the last x that reached it, so every component is passed once over all
    of xs; ends are compared with x in integers.  A decreasing or
    out-of-domain x is a ValueError.
    """
    comps = [
        [(lo.numerator, lo.denominator, hi.numerator, hi.denominator) for lo, hi in s.intervals]
        for s in sets
    ]
    cursors = [0] * len(sets)
    out: list[int | None] = []
    for p, q in _forward(xs):
        found = None
        for i, cs in enumerate(comps):
            j = cursors[i]
            while j < len(cs) and cs[j][2] * q < p * cs[j][3]:
                j += 1
            cursors[i] = j
            if j < len(cs) and cs[j][0] * q <= p * cs[j][1]:
                found = i
                break
        out.append(found)
    return out


def equality_set(f: PLFunc, g: PLFunc) -> RatSet:
    """Exact {x : f(x) = g(x)} as a finite union of intervals and points.

    The difference is affine between merged breakpoints, so on each such
    segment it is identically zero, has one interior root, or has no zero.
    """
    pieces: list[tuple[Fraction, Fraction]] = []
    a, da = ZERO, ZERO  # a zero placed before x = 0 can add only the point 0
    for b, fb, gb in _walk(f, g):
        db = fb - gb
        if db == 0:
            pieces.append((a, b) if da == 0 else (b, b))
        elif db < 0 < da or da < 0 < db:
            r = a + (b - a) * da / (da - db)
            pieces.append((r, r))
        a, da = b, db
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


def uniform_grid(denominator: int) -> list[Fraction]:
    """The denominator + 1 points k / denominator in [0, 1]."""
    if denominator < 1:
        raise ValueError("grid denominator must be positive")
    return [Fraction(k, denominator) for k in range(denominator + 1)]
