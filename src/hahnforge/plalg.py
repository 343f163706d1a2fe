"""Exact piecewise-linear function algebra on [0, 1].

Continuous functions are :class:`PLFunc`: affine interpolation between
strictly increasing rational breakpoints covering [0, 1].  The lattice
operations (min, max, sum, scaling, absolute value) are closed on this class
and computed exactly, with no tolerance parameter anywhere in this module.

Every operation reads one integer form of its inputs (``line_form``), derived
once per function and cached: each knot is a reduced pair (p, q) for x = p/q,
and each segment is one reduced line (a, b, d), with d > 0 and
gcd(a, b, d) = 1, whose value at x = p/q is (a*p + b*q) / (d*q); equal affine
maps have equal line tuples.  Each binary operation is one linear walk over
the cells between the merged knots of its two inputs (``_cells``), on each
of which both inputs are a single line.  Two lines are compared at a point
by cross-multiplication; an envelope keeps the lower (upper) line of a cell
unless the comparison changes sign between its two ends, and then splits it
at the crossing (b2*d1 - b1*d2) / (a1*d2 - a2*d1), reduced with one gcd.
n-ary envelopes fold walks pairwise (divide and conquer) and sums left to
right, on integer forms; consecutive equal lines merge (``_joined``), so a
result keeps only 0, 1 and the slope changes as knots, and equal functions
have equal knots.  ``envelope_form``, ``sum_form`` and ``scale_form`` are
these kernels on forms, so a caller such as the DSL elaborator can chain
them and build only the last result.  A result becomes a :class:`PLFunc`
once, holding only its form, whose knots are checked in integers (from
(0, 1) to (1, 1), strictly increasing).  A grid is a list of
non-decreasing xs in [0, 1], each a reduced pair (p, q) for x = p/q:
``uniform_grid`` builds one, and ``grid_pairs`` checks xs that arrive as
Fractions once and turns them into one.  ``cell_lines(fs, grid)`` walks a
grid for several functions at once: one cursor moves over the cells of
their merged knots, compared with x in integers, and gives each x the line
of every function on its cell; the caller evaluates (a*p + b*q, d*q) and
reduces, with one gcd (``line_value``), only the pairs it prints or
compares with ==.  No Fraction is built.  A point value ``f(x)`` is the
single-point oracle: a bisection and the (slope, intercept) ``pieces``
derived from the lines.

The integer form is the stored state.  A kernel result's Fraction
breakpoints and values, and a :class:`RatSet`'s Fraction intervals, are
views built on first read and cached: equality, hashing, repr and every
public read still see Fractions, and a result that no caller reads as
Fractions builds none.  A function or set built from Fractions holds them
and derives its integer form on first read.  ``to_json`` writes the reduced
knot values (``knot_values``), and the RatSet operations read each
component as a reduced (p0, q0, p1, q1) (``components``).

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
every x of a grid with one cursor per set.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Sequence

from .rational import rat, rat_text, ratio_str
from .record import record

ZERO = Fraction(0)
ONE = Fraction(1)

# A knot (p, q) is x = p/q in lowest terms with q > 0; a line (a, b, d) has
# value (a*p + b*q) / (d*q) at x = p/q, with d > 0 and gcd(a, b, d) = 1.  A
# form is (knots, lines), one more knot than lines, from (0, 1) to (1, 1).
Knot = tuple[int, int]
Line = tuple[int, int, int]
Form = tuple[Sequence[Knot], Sequence[Line]]
# A value num/den in lowest terms with den > 0, as ``line_value`` gives it.
Pair = tuple[int, int]
# A closed interval [p0/q0, p1/q1] as reduced (p0, q0, p1, q1).
Component = tuple[int, int, int, int]


@record
class Verdict:
    """Decision with an optional witness for the failing case."""

    ok: bool
    witness: Fraction | None = None

    def __bool__(self) -> bool:
        return self.ok


def reduced_line(a: int, b: int, d: int) -> Line:
    """(a, b, d) in lowest terms, for d > 0."""
    g = gcd(a, b, d)
    return (a // g, b // g, d // g) if g > 1 else (a, b, d)


@record
class PLFunc:
    """Continuous piecewise-linear function on [0, 1] with rational data.

    The fields are the Fraction breakpoints and values, which equality,
    hashing and repr read.  A function built from them holds both; a kernel
    result holds only its ``line_form``, and each field is a view of it,
    built on first read and cached.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __init__(self, breakpoints: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "values", values)
        if len(breakpoints) < 2 or len(breakpoints) != len(values):
            raise ValueError("need matching breakpoint/value lists of length >= 2")
        if breakpoints[0] != 0 or breakpoints[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(breakpoints, breakpoints[1:])):
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
    def from_form(knots: Sequence[Knot], lines: Sequence[Line]) -> "PLFunc":
        """The function of a form (knots, lines), checked in integers,
        holding only the form."""
        return _built(knots, lines)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int | str | Fraction, int | str | Fraction]]) -> "PLFunc":
        pts = [(rat(x), rat(v)) for x, v in pairs]
        return PLFunc(tuple(x for x, _ in pts), tuple(v for _, v in pts))

    @cached_property
    def line_form(self) -> tuple[tuple[Knot, ...], tuple[Line, ...]]:
        """(knots, lines), derived once per function; a kernel result is
        built holding it.  A cached attribute, not a field: equality,
        hashing and repr see only the breakpoints and values.

        Through (p0/q0, n0/m0) and (p1/q1, n1/m1), with w = p1*q0 - p0*q1 > 0,
        the line is ((n1*m0 - n0*m1)*q0*q1, n0*m1*p1*q0 - n1*m0*p0*q1, m0*m1*w).
        """
        knots = tuple((x.numerator, x.denominator) for x in self.breakpoints)
        ends = [(v.numerator, v.denominator) for v in self.values]
        lines = tuple(
            reduced_line(
                (n1 * m0 - n0 * m1) * q0 * q1,
                n0 * m1 * p1 * q0 - n1 * m0 * p0 * q1,
                m0 * m1 * (p1 * q0 - p0 * q1),
            )
            for (p0, q0), (p1, q1), (n0, m0), (n1, m1) in zip(knots, knots[1:], ends, ends[1:])
        )
        return knots, lines

    # The fields as views of line_form, for a kernel result; a function
    # built from Fractions holds both, so these never run for it.
    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, q) for p, q in self.line_form[0])

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self.knot_values)

    @cached_property
    def knot_values(self) -> tuple[Pair, ...]:
        """The value at each knot as a reduced pair (``line_value``), read off
        the line that starts there (the last line at x = 1)."""
        knots, lines = self.line_form
        out = [line_value(line, x) for x, line in zip(knots, lines)]
        out.append(line_value(lines[-1], knots[-1]))
        return tuple(out)

    @cached_property
    def pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(slope, intercept) of each segment, read off the lines: the form
        ``__call__`` and :class:`PwFunc` use."""
        return tuple((Fraction(a, d), Fraction(b, d)) for a, b, d in self.line_form[1])

    def __call__(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        if x < 0 or x > 1:
            raise ValueError(f"argument {rat_text(x)} outside the domain [0, 1]")
        i = bisect_right(self.breakpoints, x) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        slope, intercept = self.pieces[i]
        return slope * x + intercept

    def __add__(self, other: "PLFunc") -> "PLFunc":
        return pl_sum((self, other))

    def __sub__(self, other: "PLFunc") -> "PLFunc":
        return pl_sum((self, pl_neg(other)))

    def __neg__(self) -> "PLFunc":
        return pl_neg(self)

    def to_json(self) -> list[list[str]]:
        """["num/den", "num/den"] per knot, written from the reduced pairs."""
        return [
            [ratio_str(*x), ratio_str(*v)] for x, v in zip(self.line_form[0], self.knot_values)
        ]

    @staticmethod
    def from_json(data: object) -> "PLFunc":
        """What to_json writes, a list of [a, b] string pairs; else a ValueError."""
        if not isinstance(data, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(s, str) for s in p)
            for p in data
        ):
            raise ValueError('expected a list of two-element lists of "num/den" strings')
        return PLFunc.from_pairs(data)


def _built(knots: Sequence[Knot], lines: Sequence[Line]) -> PLFunc:
    """The PLFunc of a form, holding only the form: its breakpoints and
    values are built when first read.

    The form is checked in integers, with the messages of PLFunc's own
    checks: at least two knots and one line fewer, the first knot (0, 1) and
    the last (1, 1), and p0*q1 < p1*q0 for consecutive knots.
    """
    if len(knots) < 2 or len(lines) != len(knots) - 1:
        raise ValueError("need matching breakpoint/value lists of length >= 2")
    if knots[0] != (0, 1) or knots[-1] != (1, 1):
        raise ValueError("breakpoints must start at 0 and end at 1")
    for (p0, q0), (p1, q1) in zip(knots, knots[1:]):
        if p0 * q1 >= p1 * q0:
            raise ValueError("breakpoints must be strictly increasing")
    f = object.__new__(PLFunc)
    f.__dict__["line_form"] = (tuple(knots), tuple(lines))
    return f


def _cells(f: Form, g: Form) -> Iterator[tuple[Knot, Knot, Line, Line]]:
    """(lo, hi, f's line, g's line) for each cell between consecutive merged
    knots of f and g, left to right: linear time, knots compared in integers."""
    fk, fl = f
    gk, gl = g
    i = j = 0
    lo = fk[0]
    while True:
        (fp, fq), (gp, gq) = fk[i + 1], gk[j + 1]
        c = fp * gq - gp * fq
        hi = fk[i + 1] if c <= 0 else gk[j + 1]
        yield lo, hi, fl[i], gl[j]
        if hi[0] == hi[1]:
            return
        if c <= 0:
            i += 1
        if c >= 0:
            j += 1
        lo = hi


def _side(f: Line, g: Line, x: Knot) -> int:
    """An integer with the sign of f(x) - g(x)."""
    (a1, b1, d1), (a2, b2, d2), (p, q) = f, g, x
    return (a1 * p + b1 * q) * d2 - (a2 * p + b2 * q) * d1


def _crossing(f: Line, g: Line) -> Knot:
    """Where f and g meet, for lines that cross: x = (b2*d1 - b1*d2) / (a1*d2 - a2*d1)."""
    (a1, b1, d1), (a2, b2, d2) = f, g
    num, den = b2 * d1 - b1 * d2, a1 * d2 - a2 * d1
    if den < 0:
        num, den = -num, -den
    k = gcd(num, den)
    return num // k, den // k


def _joined(pieces: Iterable[tuple[Line, Knot]]) -> tuple[list[Knot], list[Line]]:
    """The form of consecutive (line, right end) pieces from x = 0, with
    consecutive equal lines merged: only 0, 1 and slope changes stay knots."""
    knots: list[Knot] = [(0, 1)]
    lines: list[Line] = []
    for line, hi in pieces:
        if lines and lines[-1] == line:
            knots[-1] = hi
        else:
            lines.append(line)
            knots.append(hi)
    return knots, lines


def _merged(form: Form) -> tuple[list[Knot], list[Line]]:
    """The form with consecutive equal lines merged."""
    knots, lines = form
    return _joined(zip(lines, knots[1:]))


def _crossed(f: Form, g: Form, lower: bool) -> Iterator[tuple[Line, Knot]]:
    """Pieces of min(f, g) (max(f, g) unless lower): a cell keeps one line
    unless the comparison changes sign between its ends; then it splits at
    the crossing."""
    for lo, hi, l1, l2 in _cells(f, g):
        if l1 == l2:
            yield l1, hi
            continue
        s_lo, s_hi = _side(l1, l2, lo), _side(l1, l2, hi)
        if s_lo < 0 < s_hi or s_hi < 0 < s_lo:
            first, second = (l1, l2) if (s_lo < 0) == lower else (l2, l1)
            yield first, _crossing(l1, l2)
            yield second, hi
        else:
            # the lines differ, so at most one end is a tie: s_lo + s_hi != 0
            yield (l1 if (s_lo + s_hi < 0) == lower else l2), hi


def envelope_form(forms: Sequence[Form], lower: bool) -> Form:
    """The form of the exact lower (upper, unless lower) envelope of forms,
    folded pairwise (divide and conquer)."""
    if not forms:
        raise ValueError("pointwise envelopes need at least one function")

    def fold(lo: int, hi: int) -> Form:
        if hi - lo == 1:
            return forms[lo]
        mid = (lo + hi) // 2
        return _joined(_crossed(fold(lo, mid), fold(mid, hi), lower))

    if len(forms) == 1:
        return _merged(forms[0])
    return fold(0, len(forms))


def pl_min(fs: Sequence[PLFunc]) -> PLFunc:
    return _built(*envelope_form([f.line_form for f in fs], True))


def pl_max(fs: Sequence[PLFunc]) -> PLFunc:
    return _built(*envelope_form([f.line_form for f in fs], False))


def _added(f: Form, g: Form) -> Iterator[tuple[Line, Knot]]:
    """Pieces of f + g: on each cell, the sum of the two lines."""
    for _, hi, (a1, b1, d1), (a2, b2, d2) in _cells(f, g):
        yield reduced_line(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2), hi


def sum_form(forms: Sequence[Form]) -> Form:
    """The form of the sum of forms, added left to right."""
    if not forms:
        raise ValueError("sum needs at least one function")
    acc: Form = _merged(forms[0])
    for form in forms[1:]:
        acc = _joined(_added(acc, form))
    return acc


def pl_sum(fs: Sequence[PLFunc]) -> PLFunc:
    return _built(*sum_form([f.line_form for f in fs]))


def scale_form(n: int, m: int, form: Form) -> Form:
    """The form of (n/m) * f, for m > 0, on the knots of f."""
    knots, lines = form
    return knots, [reduced_line(a * n, b * n, d * m) for a, b, d in lines]


def pl_scale(c: int | str | Fraction, f: PLFunc) -> PLFunc:
    """c * f on the knots of f."""
    c = rat(c)
    return _built(*scale_form(c.numerator, c.denominator, f.line_form))


def pl_neg(f: PLFunc) -> PLFunc:
    return pl_scale(-1, f)


def pl_abs(f: PLFunc) -> PLFunc:
    return pl_max((f, pl_neg(f)))


def pl_equal(f: PLFunc, g: PLFunc) -> bool:
    """Pointwise equality: the same line on every cell of the merged knots."""
    return all(l1 == l2 for _, _, l1, l2 in _cells(f.line_form, g.line_form))


def dominates(f: PLFunc, g: PLFunc) -> Verdict:
    """Whether f(x) <= g(x) everywhere on [0, 1].

    The difference g - f is affine between merged breakpoints, so checking
    them decides the global inequality; the witness is the first violating one.
    """
    for lo, hi, l1, l2 in _cells(f.line_form, g.line_form):
        if _side(l1, l2, lo) > 0:
            return Verdict(False, Fraction(*lo))
    # the last cell ends at x = 1
    if _side(l1, l2, hi) > 0:
        return Verdict(False, ONE)
    return Verdict(True)


@record
class RatSet:
    """Finite union of disjoint closed rational intervals within [0, 1].

    Singleton points are stored as degenerate intervals.  The stored form is
    normalized: sorted, with a strict gap between consecutive components.
    The field is the Fraction intervals, which equality, hashing and repr
    read.  A set built from them holds them; a kernel result holds only its
    ``components``, and ``intervals`` is their view, built on first read and
    cached.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: tuple[tuple[Fraction, Fraction], ...]) -> None:
        object.__setattr__(self, "intervals", intervals)
        prev_hi: Fraction | None = None
        for lo, hi in intervals:
            if not (0 <= lo <= hi <= 1):
                raise ValueError(
                    f"component [{rat_text(lo)}, {rat_text(hi)}] is not a closed interval in [0, 1]"
                )
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("components must be sorted and disjoint")
            prev_hi = hi

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """Each component [p0/q0, p1/q1] as reduced (p0, q0, p1, q1), in
        order: the form every operation reads."""
        return tuple(
            (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
            for lo, hi in self.intervals
        )

    # The field as a view of components, for a kernel result; a set built
    # from Fractions holds it, so this never runs for it.
    @cached_property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(p0, q0), Fraction(p1, q1)) for p0, q0, p1, q1 in self.components)

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
        return not self.components

    def __contains__(self, x: int | str | Fraction) -> bool:
        x = rat(x)
        p, q = x.numerator, x.denominator
        return any(p0 * q <= p * q0 and p * q1 <= p1 * q for p0, q0, p1, q1 in self.components)

    def union(self, other: "RatSet") -> "RatSet":
        return RatSet.of((*self.intervals, *other.intervals))

    def intersect(self, other: "RatSet") -> "RatSet":
        """One pass over both: each pair of overlapping components gives
        [greater left end, lesser right end], ends compared in integers."""
        out: list[Component] = []
        i = j = 0
        a, b = self.components, other.components
        while i < len(a) and j < len(b):
            (a0, a1, a2, a3), (b0, b1, b2, b3) = a[i], b[j]
            lo = (a0, a1) if a0 * b1 >= b0 * a1 else (b0, b1)
            a_first = a2 * b3 < b2 * a3
            hi = (a2, a3) if a_first else (b2, b3)
            if lo[0] * hi[1] <= hi[0] * lo[1]:
                out.append(lo + hi)
            if a_first:
                i += 1
            else:
                j += 1
        return _set_of(out)


def _set_of(components: Sequence[Component]) -> RatSet:
    """The RatSet of sorted components with strict gaps, holding only them:
    its intervals are built when first read."""
    s = object.__new__(RatSet)
    s.__dict__["components"] = tuple(components)
    return s


EMPTY_SET = RatSet(())
FULL_SET = RatSet(((ZERO, ONE),))


def subset(a: RatSet, b: RatSet) -> Verdict:
    """Whether a is contained in b, decided in one pass over both, with ends
    compared in integers.

    The components of b are closed with a strict gap between them, so a
    component of a whose left end lies in one of b is contained iff it ends
    inside that same one.  At the first component of a that is not contained,
    the witness is its left end if that lies outside b; otherwise the part
    outside b starts with an open gap, which has no least point, and the
    witness is the midpoint of the gap within the component.  Only the
    witness is built as a Fraction.
    """
    bs = b.components
    j = 0
    for p0, q0, p1, q1 in a.components:
        while j < len(bs) and bs[j][2] * q0 < p0 * bs[j][3]:
            j += 1
        if j == len(bs) or bs[j][0] * q0 > p0 * bs[j][1]:
            return Verdict(False, Fraction(p0, q0))
        _, _, e, f = bs[j]
        if p1 * f > e * q1:
            # the gap ends at the next component of b, or at the end of a's
            if j + 1 < len(bs) and bs[j + 1][0] * q1 < p1 * bs[j + 1][1]:
                p1, q1 = bs[j + 1][:2]
            return Verdict(False, Fraction(e * q1 + p1 * f, 2 * f * q1))
    return Verdict(True)


def grid_pairs(xs: Iterable[Fraction]) -> list[Knot]:
    """The grid of xs that arrive as Fractions: the reduced (p, q) of each
    x = p/q, for the forward passes of ``cell_lines`` and ``first_containing``.
    The xs are checked once, here; a ValueError names the first x outside
    [0, 1] or below the x before it."""
    pairs: list[Knot] = []
    lp, lq = 0, 1
    for x in xs:
        p, q = x.numerator, x.denominator
        if p < 0 or p > q:
            raise ValueError(f"argument {rat_text(x)} outside the domain [0, 1]")
        if p * lq < lp * q:
            raise ValueError(
                f"arguments must not decrease: {rat_text(x)} after {rat_text(Fraction(lp, lq))}"
            )
        lp, lq = p, q
        pairs.append((p, q))
    return pairs


def cell_lines(fs: Sequence[PLFunc], grid: Iterable[Knot]) -> Iterator[tuple[Line, ...]]:
    """For each x = p/q of a grid (``uniform_grid``, ``grid_pairs``), the
    line (a, b, d) of each of fs on the cell of their merged knots that holds
    x, in one forward pass: each f(x) is (a*p + b*q) / (d*q), not reduced.

    One cursor holds the cell, from the greatest merged knot at or below x
    to the least one above it (x = 1 is in the last cell), and the same
    tuple is yielded until an x reaches the cell's right end; then each
    function's cursor moves past the knots at or below x, knots compared
    with x in integers.  At a knot, the line that starts there gives the
    stored value, as a PLFunc is continuous.
    """
    forms = [f.line_form for f in fs]
    at = [0] * len(forms)
    # The right end of the cell; (0, 1) puts the first x at or past it.
    hp, hq = 0, 1
    cell: tuple[Line, ...] = ()
    for p, q in grid:
        if p * hq >= hp * q:
            hp = hq = 1
            for j, (knots, _) in enumerate(forms):
                i, last = at[j], len(knots) - 2
                kp, kq = knots[i + 1]
                while i < last and p * kq >= kp * q:
                    i += 1
                    kp, kq = knots[i + 1]
                at[j] = i
                if kp * hq < hp * kq:
                    hp, hq = kp, kq
            cell = tuple([lines[i] for (_, lines), i in zip(forms, at)])
        yield cell


def line_value(line: Line, x: Knot) -> Pair:
    """The value of a line (a, b, d) at x = p/q as a reduced pair:
    (a*p + b*q, d*q) over their gcd."""
    (a, b, d), (p, q) = line, x
    num, den = a * p + b * q, d * q
    common = gcd(num, den)
    return num // common, den // common


def first_containing(sets: Sequence[RatSet], grid: Iterable[Knot]) -> list[int | None]:
    """For each x = p/q of a grid (``uniform_grid``, ``grid_pairs``), the
    least i with x in sets[i], or None if no set holds x.

    Each set keeps a cursor at its first component that does not end before
    the last x that reached it, so every component is passed once over the
    whole grid; ends are compared with x in integers.  Only live sets are
    scanned: an empty set never is, and a set leaves the scan once its
    cursor passes its last component, as no later x can be in it.
    """
    comps = [s.components for s in sets]
    cursors = [0] * len(sets)
    live = [i for i, cs in enumerate(comps) if cs]
    out: list[int | None] = []
    for p, q in grid:
        found = None
        passed = False
        for i in live:
            cs = comps[i]
            j = cursors[i]
            while j < len(cs) and cs[j][2] * q < p * cs[j][3]:
                j += 1
            cursors[i] = j
            if j == len(cs):
                passed = True
            elif cs[j][0] * q <= p * cs[j][1]:
                found = i
                break
        if passed:
            live = [i for i in live if cursors[i] < len(comps[i])]
        out.append(found)
    return out


def equality_set(f: PLFunc, g: PLFunc) -> RatSet:
    """Exact {x : f(x) = g(x)} as a finite union of intervals and points.

    On each cell of the merged knots the difference is affine: it is
    identically zero (the same line), has a zero at an end, one interior
    root, or no zero.  Components arrive in order, so one that starts where
    the last ends extends it.
    """
    comps: list[list[Knot]] = []

    def add(lo: Knot, hi: Knot) -> None:
        if comps and comps[-1][1] == lo:
            comps[-1][1] = hi
        else:
            comps.append([lo, hi])

    for lo, hi, l1, l2 in _cells(f.line_form, g.line_form):
        if l1 == l2:
            add(lo, hi)
            continue
        s_lo, s_hi = _side(l1, l2, lo), _side(l1, l2, hi)
        if s_lo == 0:
            add(lo, lo)
        if s_hi == 0:
            add(hi, hi)
        elif s_lo < 0 < s_hi or s_hi < 0 < s_lo:
            r = _crossing(l1, l2)
            add(r, r)
    return _set_of([lo + hi for lo, hi in comps])


def distance_function(s: RatSet) -> PLFunc:
    """PL function x -> min(1, dist(x, s)); constant 1 for the empty set.

    The zero set is exactly s when s is nonempty.  For a nonempty s in
    [0, 1] the distance is at most 1, so the clamp never binds, and the form
    is built from s's components as reduced pairs: slope -1 into the first
    component (unless it starts at 0), 0 on each component of positive
    length, +1 out to the midpoint of each gap and -1 into the next
    component, and +1 after the last one (unless it ends at 1).  Into
    lo = p/q the line is lo - x, (-q, p, q), and out of hi = p/q it is
    x - hi, (q, -p, q), both already reduced.  Knots are 0, 1 and the slope
    changes only, as a kernel result keeps them.
    """
    if s.is_empty:
        return _built(((0, 1), (1, 1)), ((0, 1, 1),))
    comps = s.components
    knots: list[Knot] = [(0, 1)]
    lines: list[Line] = []
    p, q = comps[0][:2]
    if p:
        lines.append((-q, p, q))
        knots.append((p, q))
    for i, (p0, q0, p1, q1) in enumerate(comps):
        if (p0, q0) != (p1, q1):
            lines.append((0, 0, 1))
            knots.append((p1, q1))
        if i + 1 < len(comps):
            p2, q2 = comps[i + 1][:2]
            num, den = p1 * q2 + p2 * q1, 2 * q1 * q2
            g = gcd(num, den)
            lines += [(q1, -p1, q1), (-q2, p2, q2)]
            knots += [(num // g, den // g), (p2, q2)]
        elif p1 != q1:
            lines.append((q1, -p1, q1))
            knots.append((1, 1))
    return _built(knots, lines)


@record
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

    @cached_property
    def line_form(self) -> tuple[tuple[Knot, ...], tuple[Line, ...]]:
        """(knots, lines) of the partition and the pieces, as for PLFunc."""
        knots = tuple((x.numerator, x.denominator) for x in self.partition)
        ends = [(s.numerator, s.denominator, c.numerator, c.denominator) for s, c in self.pieces]
        lines = tuple(reduced_line(sn * cd, cn * sd, sd * cd) for sn, sd, cn, cd in ends)
        return knots, lines

    def value(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        if x < 0 or x > 1:
            raise ValueError(f"argument {rat_text(x)} outside the domain [0, 1]")
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


def uniform_grid(denominator: int) -> list[Knot]:
    """The denominator + 1 points k / denominator of [0, 1] as a grid: the
    reduced (p, q) that ``grid_pairs`` returns for them, with no Fraction built."""
    if denominator < 1:
        raise ValueError("grid denominator must be positive")
    return [(k // (g := gcd(k, denominator)), denominator // g) for k in range(denominator + 1)]
