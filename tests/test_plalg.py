"""Exact PL algebra: evaluation, lattice ops, equality sets, distance, semicontinuity."""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SEED,
    dyadic_grid,
    int_str_digits,
    random_family,
    random_plfunc,
    random_ratset,
    random_value,
)
from hahnforge.plalg import (
    EMPTY_SET,
    FULL_SET,
    Knot,
    PLFunc,
    Pair,
    PwFunc,
    RatSet,
    Verdict,
    cell_lines,
    distance_function,
    dominates,
    equality_set,
    first_containing,
    grid_pairs,
    line_value,
    pl_abs,
    pl_max,
    pl_min,
    pl_neg,
    pl_scale,
    pl_sum,
    reduced_line,
    scale_form,
    semicontinuity_check,
    subset,
    uniform_grid,
)
from hahnforge.rational import rat_str
from hahnforge.specdsl import MAX_GRID

X = PLFunc.affine(1, 0)
ZERO_F = PLFunc.constant(0)
ONE_F = PLFunc.constant(1)
X_MINUS_HALF = PLFunc.affine(1, "-1/2")


def value_bounds(f: PLFunc) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of f over [0, 1]; attained at knots, whose values
    are compared as pairs."""
    lo = hi = f.knot_values[0]
    for n, d in f.knot_values[1:]:
        if n * lo[1] < lo[0] * d:
            lo = (n, d)
        elif n * hi[1] > hi[0] * d:
            hi = (n, d)
    return Fraction(*lo), Fraction(*hi)


def dense_grid() -> list[Fraction]:
    return [Fraction(k, 97) for k in range(98)]


class TestEval:
    def test_affine_at_three_quarters(self):
        assert X_MINUS_HALF(Fraction(3, 4)) == Fraction(1, 4)

    def test_min_eval_quarter(self):
        # Oracle: the scalar min of the two evaluations.
        f = pl_min((ZERO_F, X_MINUS_HALF))
        x = Fraction(1, 4)
        assert min(ZERO_F(x), X_MINUS_HALF(x)) == Fraction(-1, 4)
        assert f(x) == Fraction(-1, 4)

    def test_constant_everywhere(self):
        c = PLFunc.constant("5/3")
        for x in dense_grid():
            assert c(x) == Fraction(5, 3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            X(Fraction(3, 2))
        with pytest.raises(ValueError):
            X(Fraction(-1, 10))

    def test_string_breakpoint_roundtrip(self):
        f = PLFunc.from_pairs([("0", "1/2"), ("1/3", "0"), ("1", "2")])
        assert f(Fraction(1, 3)) == 0
        assert f.to_json() == [["0/1", "1/2"], ["1/3", "0/1"], ["1/1", "2/1"]]
        assert PLFunc.from_json(f.to_json()) == f


def interpolate(f: PLFunc, x: Fraction) -> Fraction:
    """The two-point interpolation formula: the definition of f(x)."""
    i = bisect_right(f.breakpoints, x) - 1
    if i == len(f.breakpoints) - 1:
        return f.values[-1]
    a, b = f.breakpoints[i], f.breakpoints[i + 1]
    va, vb = f.values[i], f.values[i + 1]
    return va + (vb - va) * (x - a) / (b - a)


class TestAffinePieces:
    """Evaluation through the cached (slope, intercept) pieces."""

    @staticmethod
    def probes(f: PLFunc, rng: random.Random) -> list[Fraction]:
        bps = f.breakpoints
        mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        randoms = [Fraction(rng.randint(0, 997), 997) for _ in range(12)]
        return list(bps) + mids + [Fraction(1)] + randoms

    @staticmethod
    def functions(rng: random.Random) -> list[PLFunc]:
        """Random PL functions on the 16ths grid and on a finer 1/997 grid."""
        fs = [random_plfunc(rng, max_interior=6) for _ in range(100)]
        for _ in range(100):
            interior = sorted(Fraction(k, 997) for k in rng.sample(range(1, 997), 8))
            grid = [Fraction(0)] + interior + [Fraction(1)]
            fs.append(PLFunc(tuple(grid), tuple(random_value(rng) for _ in grid)))
        return fs

    def test_matches_interpolation(self, rng: random.Random):
        for f in self.functions(rng):
            for x in self.probes(f, rng):
                assert f(x) == interpolate(f, x)

    def test_pieces_reproduce_segment_ends(self, rng: random.Random):
        for f in self.functions(rng):
            assert len(f.pieces) == len(f.breakpoints) - 1
            for (slope, icpt), a, b, va, vb in zip(
                f.pieces, f.breakpoints, f.breakpoints[1:], f.values, f.values[1:]
            ):
                assert slope * a + icpt == va and slope * b + icpt == vb

    def test_evaluated_equals_fresh_copy(self, rng: random.Random):
        for _ in range(50):
            f = random_plfunc(rng)
            f(Fraction(1, 3))
            fresh = PLFunc(f.breakpoints, f.values)
            assert "pieces" in vars(f) and "pieces" not in vars(fresh)
            assert f == fresh and hash(f) == hash(fresh)
            assert repr(f) == repr(fresh) and f.to_json() == fresh.to_json()

    def test_reduced_line_is_lowest_terms(self):
        assert reduced_line(-4, 6, 12) == (-2, 3, 6)
        assert reduced_line(0, 0, 5) == (0, 0, 1)
        assert reduced_line(3, -5, 7) == (3, -5, 7)
        assert PLFunc.affine("-1/3", "1/2").line_form[1] == (reduced_line(-4, 6, 12),)

class TestLattice:
    def test_min_breakpoints(self):
        f = pl_min((ZERO_F, X_MINUS_HALF))
        assert f.breakpoints == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert f.values == (Fraction(-1, 2), Fraction(0), Fraction(0))

    def test_abs_symmetric(self):
        f = pl_abs(X_MINUS_HALF)
        assert f.breakpoints == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert f.values == (Fraction(1, 2), Fraction(0), Fraction(1, 2))

    def test_max_idempotent(self, rng: random.Random):
        for _ in range(20):
            f = random_plfunc(rng)
            assert pl_max((f, f)) == f

    def test_min_matches_scalar_min_on_dense_grid(self, rng: random.Random):
        # Randomized exact check against the pointwise scalar oracle.
        for _ in range(30):
            fam = random_family(rng)
            g = pl_min(fam)
            h = pl_max(fam)
            for x in dense_grid():
                vals = [f(x) for f in fam]
                assert g(x) == min(vals)
                assert h(x) == max(vals)

    def test_sum_scale_negate(self, rng: random.Random):
        for _ in range(20):
            f = random_plfunc(rng)
            g = random_plfunc(rng)
            s = pl_sum((f, g))
            sc = pl_scale("3/2", f)
            n = pl_neg(f)
            for x in dense_grid():
                assert s(x) == f(x) + g(x)
                assert sc(x) == Fraction(3, 2) * f(x)
                assert n(x) == -f(x)

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError):
            pl_min(())
        with pytest.raises(ValueError):
            pl_max(())


class TestEqualitySet:
    def test_flat_tail(self):
        s = equality_set(ZERO_F, pl_min((ZERO_F, X_MINUS_HALF)))
        assert s == RatSet.of([(Fraction(1, 2), Fraction(1))])

    def test_reflexive(self, rng: random.Random):
        for _ in range(10):
            f = random_plfunc(rng)
            assert equality_set(f, f) == FULL_SET

    def test_single_root(self):
        assert equality_set(ZERO_F, X_MINUS_HALF) == RatSet.of([(Fraction(1, 2), Fraction(1, 2))])

    def test_symmetric_and_sound(self, rng: random.Random):
        # Soundness oracle: membership must match f(x) == g(x) exactly,
        # checked on the merged grid, set endpoints, and set midpoints.
        for _ in range(30):
            f, g = random_plfunc(rng), random_plfunc(rng)
            s = equality_set(f, g)
            assert s == equality_set(g, f)
            probes = set(f.breakpoints) | set(g.breakpoints)
            for lo, hi in s.intervals:
                probes.update((lo, hi, (lo + hi) / 2))
            for x in probes:
                assert (x in s) == (f(x) == g(x))


def dist_to(x: Fraction, s: RatSet) -> Fraction:
    """Euclidean distance from x to the nonempty set s: the pointwise oracle
    that distance_function is held to."""
    return min(lo - x if x < lo else (x - hi if x > hi else Fraction(0)) for lo, hi in s.intervals)


def clamped_interpolation(s: RatSet) -> PLFunc:
    """The definitional construction of min(1, dist(., s)) for a nonempty s:
    dist_to interpolated on 0, 1, the component ends and the gap midpoints,
    then clamped by pl_min with the constant 1."""
    comps = s.intervals
    knots = {Fraction(0), Fraction(1)}
    for lo, hi in comps:
        knots.update((lo, hi))
    for (_, hi), (lo, _) in zip(comps, comps[1:]):
        knots.add((hi + lo) / 2)
    grid = sorted(knots)
    dist = PLFunc(tuple(grid), tuple(dist_to(x, s) for x in grid))
    return pl_min((dist, PLFunc.constant(1)))


def distance_sets(rng: random.Random) -> list[RatSet]:
    """Nonempty sets: the ends of [0, 1], components at either end, pieces
    that touch (merged by RatSet.of), and random sets of up to five
    components, some with 2**40-sized denominators."""
    fixed = [
        [(0, 0)],
        [(1, 1)],
        [(0, 1)],
        [(0, 0), (1, 1)],
        [(0, "1/3"), ("2/3", 1)],
        [(0, 0), ("1/2", 1)],
        [(0, "1/2"), (1, 1)],
        [(0, "1/3"), ("1/3", "1/2")],
        [("1/5", "1/4"), ("1/4", "1/4"), ("1/4", "3/7"), ("5/7", "5/7")],
        [("1/2", "1/2")],
    ]
    sets = [RatSet.of(pairs) for pairs in fixed]
    while len(sets) < 120:
        den = rng.choice((12, 97, 2**40 + 15))
        ends = sorted(Fraction(rng.randint(0, den), den) for _ in range(2 * rng.randint(1, 5)))
        pairs = [(lo, lo if rng.random() < 0.3 else hi) for lo, hi in zip(ends[::2], ends[1::2])]
        if rng.random() < 0.3:
            # pieces that share an end, so RatSet.of joins them
            pairs += [(hi, (hi + 1) / 2) for _, hi in pairs[:2]]
        sets.append(RatSet.of(pairs))
    return sets


class TestDistance:
    def test_point(self):
        f = distance_function(RatSet.of([("1/2", "1/2")]))
        assert f.breakpoints == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert f.values == (Fraction(1, 2), Fraction(0), Fraction(1, 2))

    def test_empty_set_convention(self):
        assert distance_function(EMPTY_SET) == PLFunc.constant(1)

    def test_full_interval(self):
        assert distance_function(FULL_SET) == ZERO_F

    def test_matches_clamped_distance_pointwise(self, rng: random.Random):
        # min(1, dist_to) at every knot, every component end and the 65
        # dyadic points.
        dyadic = [Fraction(*x) for x in dyadic_grid(6)]
        for s in distance_sets(rng):
            f = distance_function(s)
            ends = [x for comp in s.intervals for x in comp]
            for x in [*f.breakpoints, *ends, *dyadic]:
                assert f(x) == min(Fraction(1), dist_to(x, s)), (s, x)

    def test_matches_clamped_interpolation(self, rng: random.Random):
        # The same function as the pl_min construction, with the same form.
        for s in distance_sets(rng):
            f, oracle = distance_function(s), clamped_interpolation(s)
            assert f == oracle, s
            assert f.line_form == oracle.line_form, s
            assert collinear_knots(f) == [], s

    def test_lipschitz_and_zero_set(self, rng: random.Random):
        for _ in range(40):
            s = random_ratset(rng)
            f = distance_function(s)
            assert all(-1 <= m <= 1 for m, _ in f.pieces)
            if not s.is_empty:
                assert equality_set(f, ZERO_F) == s


class TestDominates:
    def test_min_below_max(self):
        assert dominates(pl_min((ZERO_F, X_MINUS_HALF)), pl_max((ZERO_F, X_MINUS_HALF))).ok

    def test_witness(self):
        v = dominates(X_MINUS_HALF, ZERO_F)
        assert not v.ok
        assert X_MINUS_HALF(v.witness) > 0

    def test_partial_order(self, rng: random.Random):
        for _ in range(30):
            f, g, h = (random_plfunc(rng) for _ in range(3))
            assert dominates(f, f).ok
            if dominates(f, g).ok and dominates(g, f).ok:
                assert f == g
            if dominates(f, g).ok and dominates(g, h).ok:
                assert dominates(f, h).ok


class TestSubset:
    def test_witnesses(self):
        half = RatSet.of([(0, "1/2")])
        assert subset(half, FULL_SET).ok and subset(EMPTY_SET, half).ok
        assert subset(FULL_SET, EMPTY_SET) == Verdict(False, Fraction(0))
        assert subset(RatSet.of([(1, 1)]), half) == Verdict(False, Fraction(1))
        # (1/2, 1] has no least point: the witness is the midpoint of the gap.
        assert subset(FULL_SET, half) == Verdict(False, Fraction(3, 4))
        gapped = RatSet.of([(0, "1/4"), ("1/2", 1)])
        assert subset(FULL_SET, gapped) == Verdict(False, Fraction(3, 8))
        assert subset(RatSet.of([(0, "1/8"), ("5/8", "3/4")]), gapped).ok

    def test_matches_intersection(self, rng: random.Random):
        for _ in range(300):
            a, b = random_ratset(rng), random_ratset(rng)
            v = subset(a, b)
            assert v.ok == (a.intersect(b) == a), (a, b)
            if not v.ok:
                assert v.witness in a and v.witness not in b, (a, b, v)


class TestIntersect:
    def test_matches_membership(self, rng: random.Random):
        # At every component end and midpoint, and every gap midpoint, of
        # both sets, x is in the intersection iff it is in both; the result
        # is already normalized, so RatSet.of leaves it as it is.
        for _ in range(300):
            a, b = random_ratset(rng), random_ratset(rng)
            both = a.intersect(b)
            probes = {Fraction(0), Fraction(1)}
            for s in (a, b):
                ends = [q for iv in s.intervals for q in iv]
                probes.update(ends)
                bounds = [Fraction(0), *ends, Fraction(1)]
                probes.update((lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:]))
            for x in probes:
                assert (x in both) == (x in a and x in b), (a, b, x)
            assert both == RatSet.of(both.intervals), (a, b)


# -- forward passes over non-decreasing points, against point evaluation -------

BATCH = settings(max_examples=300, deadline=None)


def unit_rationals(bits: int):
    """Rationals in [0, 1] with denominators of up to the given bit length."""
    return st.builds(
        lambda num, den: Fraction(num % (den + 1), den),
        st.integers(0, 2**bits),
        st.integers(1, 2**bits),
    )


def rationals(bits: int):
    """Rationals with numerator and denominator of up to the given bit length."""
    return st.builds(Fraction, st.integers(-(2**bits), 2**bits), st.integers(1, 2**bits))


@st.composite
def functions_and_points(draw, sizes=(4, 64, 4000)):
    """A PL function and non-decreasing points in [0, 1] that hit its
    breakpoints, 0, 1 and repeated points; numbers have up to one of the
    given bit sizes."""
    bits = draw(st.sampled_from(sizes))
    knots = sorted({Fraction(0), Fraction(1), *draw(st.lists(unit_rationals(bits), max_size=6))})
    value = rationals(bits)
    f = PLFunc(tuple(knots), tuple(draw(value) for _ in knots))
    xs = draw(st.lists(st.one_of(st.sampled_from(knots), unit_rationals(bits)), max_size=24))
    repeats = draw(st.lists(st.sampled_from(xs), max_size=4)) if xs else []
    return f, sorted(xs + repeats)


@st.composite
def ratsets_and_points(draw):
    """Sets that need not be nested, with singletons and empty sets, and
    non-decreasing points in [0, 1] that hit their ends."""
    point = unit_rationals(4)
    sets = []
    for _ in range(draw(st.integers(0, 6))):
        comps = []
        for a, b, single in draw(st.lists(st.tuples(point, point, st.booleans()), max_size=4)):
            lo, hi = min(a, b), max(a, b)
            comps.append((lo, lo if single else hi))
        sets.append(RatSet.of(comps))
    ends = [q for s in sets for iv in s.intervals for q in iv]
    xs = draw(st.lists(st.one_of(point, st.sampled_from(ends)) if ends else point, max_size=30))
    return sets, sorted(xs)


@st.composite
def jumping_functions_and_points(draw):
    """A PwFunc whose point values may jump off its pieces, and non-decreasing
    points in [0, 1] that hit its partition points."""
    bits = draw(st.sampled_from((4, 64, 4000)))
    f, xs = draw(functions_and_points(sizes=(bits,)))
    pieces = f.pieces
    if draw(st.booleans()):
        pieces = tuple((draw(rationals(bits)), draw(rationals(bits))) for _ in pieces)
    point_values = tuple(draw(st.one_of(st.just(v), rationals(bits))) for v in f.values)
    return PwFunc(f.breakpoints, pieces, point_values), xs


def sample(f: PLFunc | PwFunc, grid: Iterable[Knot]) -> Iterator[Pair]:
    """The one-function grid pass that cell_lines is held to: f(x)
    (``f.value(x)`` for a PwFunc) as a reduced (num, den) pair with den > 0,
    for each x = p/q of a grid, in one forward pass.

    A cursor moves over the knots, each compared with x by integer
    cross-multiplication.  At a knot the pair is the stored value's (the
    point value of a PwFunc); elsewhere it is the segment's line (a, b, d)
    at x, (a*p + b*q, d*q), reduced with one gcd.
    """
    knots, lines = f.line_form
    values = f.values if isinstance(f, PLFunc) else f.point_values
    last = len(lines) - 1
    i = 0
    end_p, end_q = knots[1]
    for p, q in grid:
        while i < last and p * end_q >= end_p * q:
            i += 1
            end_p, end_q = knots[i + 1]
        if p != q and (p, q) != knots[i]:
            a, b, d = lines[i]
            num, den = a * p + b * q, d * q
            g = gcd(num, den)
            yield num // g, den // g
        else:
            v = values[-1] if p == q else values[i]
            yield v.numerator, v.denominator


def run_answers(runs: Sequence[tuple[int, object]], size: int) -> list:
    """The answer of each x of a grid of size points, read off the runs
    (stop, answer) of first_containing, after checking that the runs
    partition the grid in order and are maximal: each starts where the last
    stopped, the last stops at size, and neighbouring runs differ."""
    out: list = []
    for stop, answer in runs:
        assert stop > len(out)
        out += [answer] * (stop - len(out))
    assert len(out) == size
    assert all(a != b for (_, a), (_, b) in zip(runs, runs[1:]))
    return out


class TestForwardPasses:
    @BATCH
    @given(functions_and_points())
    def test_sample_matches_point_evaluation(self, case):
        f, xs = case
        assert [Fraction(*v) for v in sample(f, grid_pairs(xs))] == [f(x) for x in xs]

    @BATCH
    @given(jumping_functions_and_points())
    def test_sample_matches_pw_value(self, case):
        f, xs = case
        assert [Fraction(*v) for v in sample(f, grid_pairs(xs))] == [f.value(x) for x in xs]

    @BATCH
    @given(st.one_of(functions_and_points(), jumping_functions_and_points()))
    def test_sample_pairs_are_reduced(self, case):
        # Every knot or partition point, x = 1 and repeated points included:
        # each pair is in lowest terms with a positive denominator, and it is
        # the numerator and denominator of the point value.
        f, xs = case
        knots = f.breakpoints if isinstance(f, PLFunc) else f.partition
        xs = sorted(xs + list(knots) + [Fraction(1)])
        value = f if isinstance(f, PLFunc) else f.value
        pairs = list(sample(f, grid_pairs(xs)))
        assert len(pairs) == len(xs)
        for x, (num, den) in zip(xs, pairs):
            assert den > 0 and gcd(num, den) == 1, (x, num, den)
            v = value(x)
            assert (num, den) == (v.numerator, v.denominator), x

    @BATCH
    @given(functions_and_points(sizes=(4, 64)), st.data())
    def test_out_of_domain_or_decreasing_is_a_value_error(self, case, data):
        f, xs = case
        step = data.draw(st.builds(Fraction, st.integers(1, 64), st.integers(1, 64)))
        outside = data.draw(st.sampled_from((-step, 1 + step)))
        with pytest.raises(ValueError) as point:
            f(outside)
        message = re.escape(str(point.value))
        assert "outside the domain [0, 1]" in str(point.value)
        with pytest.raises(ValueError, match=message):
            list(cell_lines([f], grid_pairs(sorted(xs + [outside]))))
        with pytest.raises(ValueError, match=message):
            first_containing([FULL_SET], grid_pairs(sorted(xs + [outside])))
        a, b = sorted(data.draw(st.lists(unit_rationals(8), min_size=2, max_size=2, unique=True)))
        falling = sorted(xs + [b]) + [a]
        for batch in (
            lambda: list(cell_lines([f], grid_pairs(falling))),
            lambda: first_containing([FULL_SET], grid_pairs(falling)),
        ):
            with pytest.raises(ValueError, match=re.escape(f"arguments must not decrease: {a} after")):
                batch()

    def test_messages_past_str_limit(self):
        # Each domain message prints its rationals in full, as str does with
        # no limit, at the lowest permitted int-to-str limit.
        tiny, big = Fraction(1, 7**6000), Fraction(7**6000 + 1, 7**6000)
        f = PLFunc.affine(1, 0)
        pw = PwFunc((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(0)),), (Fraction(0),) * 2)
        cases = [
            (lambda: grid_pairs([Fraction(1, 2), tiny]), "arguments must not decrease: {} after 1/2", tiny),
            (lambda: grid_pairs([big]), "argument {} outside the domain [0, 1]", big),
            (lambda: f(big), "argument {} outside the domain [0, 1]", big),
            (lambda: pw.value(big), "argument {} outside the domain [0, 1]", big),
            (lambda: RatSet(((tiny, big),)), "component [{}, {}] is not a closed interval in [0, 1]", tiny, big),
        ]
        for call, template, *values in cases:
            with int_str_digits(0):
                expected = template.format(*map(str, values))
            with int_str_digits(640), pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == expected

    @BATCH
    @given(ratsets_and_points())
    def test_first_containing_matches_definition(self, case):
        # The runs partition the grid and are maximal, and each x of a run
        # has its answer: the least set that holds x, by brute membership.
        sets, xs = case
        expected = [next((i for i, s in enumerate(sets) if x in s), None) for x in xs]
        assert run_answers(first_containing(sets, grid_pairs(xs)), len(xs)) == expected

    def test_first_containing_matches_membership_oracle(self):
        # Up to 33 sets, most of them empty as among tail_sections' equality
        # sets, with one-point components and components whose ends touch
        # across sets, at every component end, at random and repeated xs
        # and at 0 and 1: maximal runs that partition the grid, each x's
        # the least set that holds it, by brute membership.
        rng = random.Random(51)
        ends = [Fraction(k, 8) for k in range(9)]
        points = [Fraction(k, 16) for k in range(17)]
        singletons = 0
        for _ in range(400):
            sets = []
            for _ in range(rng.randint(0, 33)):
                comps = []
                if rng.random() < 0.3:
                    for _ in range(rng.randint(1, 3)):
                        lo = rng.choice(ends)
                        hi = lo if rng.random() < 0.4 else rng.choice(ends)
                        comps.append((min(lo, hi), max(lo, hi)))
                sets.append(RatSet.of(comps))
            bounds = [q for s in sets for iv in s.intervals for q in iv]
            singletons += sum(lo == hi for s in sets for lo, hi in s.intervals)
            xs = rng.choices(points, k=rng.randint(0, 40)) + bounds
            xs = sorted(xs + [Fraction(0), Fraction(1)] * 2)
            expected = [next((i for i, s in enumerate(sets) if x in s), None) for x in xs]
            assert run_answers(first_containing(sets, grid_pairs(xs)), len(xs)) == expected
        assert singletons > 100

    @staticmethod
    def assert_cell_lines_are_point_values(fs: Sequence[PLFunc], xs: list[Fraction]) -> None:
        """The runs cell_lines gives partition the grid in order and are
        maximal: each starts where the last stopped, the last stops at the
        end, the xs of a run lie in one cell of the merged knots of fs, and
        neighbouring runs lie in different cells.  Each line a run gives is
        one of its function's lines, and its value at each x of the run,
        unreduced and as line_value reduces it, is the function's point
        value and the pair the one-function pass sample gives there."""
        grid = grid_pairs(xs)
        runs = list(cell_lines(fs, grid))
        merged = sorted({Fraction(0), Fraction(1), *(x for f in fs for x in f.breakpoints)})
        # The cell that holds x, from the greatest knot at or below it; x = 1 is in the last.
        cells = [min(bisect_right(merged, x), len(merged) - 1) - 1 for x in xs]
        passes = [list(sample(f, grid)) for f in fs]
        start = 0
        for stop, lines in runs:
            assert start < stop and len(lines) == len(fs)
            assert len(set(cells[start:stop])) == 1, (start, stop)
            for k in range(start, stop):
                x, (p, q) = xs[k], grid[k]
                for f, line, pairs in zip(fs, lines, passes):
                    a, b, d = line
                    v = f(x)
                    assert line in f.line_form[1], (x, line)
                    assert Fraction(a * p + b * q, d * q) == v, x
                    assert line_value(line, (p, q)) == pairs[k] == (v.numerator, v.denominator), x
            start = stop
        assert start == len(xs)
        assert all(cells[stop - 1] != cells[stop] for stop, _ in runs[:-1])

    def test_cell_lines_match_point_evaluation(self):
        # Random families with a constant and an envelope of two members (so
        # knots shared across functions, and knots of one function only),
        # at every merged knot or a sample of them, the midpoints between
        # them, 0 and 1, and repeated xs.
        rng = random.Random(29)
        for _ in range(300):
            fs = list(random_family(rng, 6)) + [PLFunc.constant(random_value(rng))]
            fs.append(pl_max(fs[:2]))
            rng.shuffle(fs)
            knots = sorted({x for f in fs for x in f.breakpoints})
            mids = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
            xs = rng.sample(knots + mids, rng.randint(0, len(knots) + len(mids)))
            xs += rng.choices(knots + mids, k=3) + [Fraction(0), Fraction(1), Fraction(1)]
            self.assert_cell_lines_are_point_values(fs, sorted(xs))
        self.assert_cell_lines_are_point_values([X, ZERO_F], [])
        self.assert_cell_lines_are_point_values([], [Fraction(0), Fraction(1, 2), Fraction(1)])

    @BATCH
    @given(st.lists(functions_and_points(), min_size=1, max_size=4))
    def test_cell_lines_match_point_evaluation_at_any_size(self, cases):
        # Up to four functions with values of up to 4000 bits, at the knots
        # of each, at points between them and at repeated points.
        fs = [f for f, _ in cases]
        self.assert_cell_lines_are_point_values(fs, sorted(x for _, xs in cases for x in xs))


# The grid-and-bisect algebra, kept as the oracle for the integer line kernel:
# every operation evaluates its inputs through PLFunc.__call__ at each point
# of a merged grid, in Fraction arithmetic, and the equality set subtracts
# with the oracle sum.


def oracle_merged_grid(fs: Sequence[PLFunc]) -> list[Fraction]:
    grid: set[Fraction] = set()
    for f in fs:
        grid.update(f.breakpoints)
    return sorted(grid)


def oracle_crossing_grid(fs: Sequence[PLFunc]) -> list[Fraction]:
    """Merged breakpoints plus every pairwise crossing point.

    Between consecutive points of the result no two inputs change order, so
    pointwise min/max at the grid points interpolate to the exact envelope.
    """
    grid = oracle_merged_grid(fs)
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


def oracle_envelope(fs: Sequence[PLFunc], pick) -> PLFunc:
    """Exact envelope; large inputs are folded pairwise (divide and conquer).

    The two-function base case carries the full crossing grid, so every
    intermediate result is an exact PL function and the fold stays exact.
    """
    if not fs:
        raise ValueError("pointwise envelopes need at least one function")
    if len(fs) <= 3:
        grid = oracle_crossing_grid(fs)
        return PLFunc(tuple(grid), tuple(pick(f(x) for f in fs) for x in grid))
    mid = len(fs) // 2
    return oracle_envelope(
        (oracle_envelope(fs[:mid], pick), oracle_envelope(fs[mid:], pick)), pick
    )


def oracle_sum(fs: Sequence[PLFunc]) -> PLFunc:
    if not fs:
        raise ValueError("sum needs at least one function")
    grid = oracle_merged_grid(fs)
    return PLFunc(tuple(grid), tuple(sum(f(x) for f in fs) for x in grid))


def oracle_scale(c: Fraction, f: PLFunc) -> PLFunc:
    return PLFunc(f.breakpoints, tuple(c * f(x) for x in f.breakpoints))


def oracle_equal(f: PLFunc, g: PLFunc) -> bool:
    return all(f(x) == g(x) for x in oracle_merged_grid((f, g)))


def oracle_dominates(f: PLFunc, g: PLFunc) -> Verdict:
    for x in oracle_merged_grid((f, g)):
        if f(x) > g(x):
            return Verdict(False, x)
    return Verdict(True)


def oracle_equality_set(f: PLFunc, g: PLFunc) -> RatSet:
    d = oracle_sum((f, pl_neg(g)))
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


def collinear_knots(f: PLFunc) -> list[Fraction]:
    """Interior knots with the same slope on both sides."""
    return [
        x
        for x, (s1, _), (s2, _) in zip(f.breakpoints[1:], f.pieces, f.pieces[1:])
        if s1 == s2
    ]


def canonical(f: PLFunc) -> PLFunc:
    """f rebuilt from its knots with the collinear interior ones dropped:
    as no PLFunc has one, f itself."""
    keep = set(collinear_knots(f))
    pts = [(x, v) for x, v in zip(f.breakpoints, f.values) if x not in keep]
    return PLFunc.from_pairs(pts)


def refined(f: PLFunc) -> PLFunc:
    """f rebuilt from its knots with a collinear knot inserted in the middle
    of every segment, which the constructor merges away: f itself."""
    bps = f.breakpoints
    xs = sorted(set(bps) | {(a + b) / 2 for a, b in zip(bps, bps[1:])})
    return PLFunc(tuple(xs), tuple(interpolate(f, x) for x in xs))


def tent(p: Fraction, c: Fraction) -> PLFunc:
    """c * |x - p| for 0 < p < 1: zero only at p."""
    return PLFunc((Fraction(0), p, Fraction(1)), (c * p, Fraction(0), c * (1 - p)))


def kernel_families(rng: random.Random) -> list[tuple[PLFunc, ...]]:
    """Seeded families: random (16ths and 1/997 grids), large, with repeated
    and identical members, with members rebuilt through collinear knots,
    and with members that touch without crossing."""
    fine = TestAffinePieces.functions(rng)
    fams: list[tuple[PLFunc, ...]] = []
    for _ in range(40):
        fams.append(random_family(rng))
    for _ in range(10):
        fams.append(random_family(rng, max_size=12))
    for _ in range(20):
        fams.append(tuple(rng.sample(fine, rng.randint(2, 5))))
    for _ in range(15):
        fam = random_family(rng)
        fams.append(fam + tuple(rng.choice(fam) for _ in range(rng.randint(1, 4))))
    for _ in range(10):
        f = rng.choice(fine) if rng.random() < 0.5 else random_plfunc(rng)
        fams.append((f,) * rng.randint(2, 5))
        fams.append((f, refined(f), PLFunc(f.breakpoints, f.values)))
    for _ in range(20):
        f = random_plfunc(rng)
        p = Fraction(rng.randint(1, 15), 16)
        above = oracle_sum((f, tent(p, random_value(rng, 0, 2) or Fraction(1))))
        below = oracle_sum((f, tent(p, random_value(rng, -2, 0) or Fraction(-1))))
        flat = oracle_sum((f, oracle_envelope((ZERO_F, PLFunc.affine(1, -p)), max)))
        fams.append((f, above, below, flat))
    return fams


@pytest.fixture(scope="module")
def kernel_fams() -> list[tuple[PLFunc, ...]]:
    """kernel_families of the rng fixture's seed, built once per module."""
    return kernel_families(random.Random(SEED))


class TestKernelOracle:
    """The merge-walk kernel against the grid-and-bisect oracle."""

    def test_envelopes_and_sums(self, kernel_fams: list[tuple[PLFunc, ...]]):
        for fam in kernel_fams:
            for new, old in (
                (pl_min(fam), oracle_envelope(fam, min)),
                (pl_max(fam), oracle_envelope(fam, max)),
                (pl_sum(fam), oracle_sum(fam)),
            ):
                assert new == old and oracle_equal(new, old)
                assert collinear_knots(new) == []
                assert new == canonical(old)
                assert len(new.breakpoints) <= len(old.breakpoints)

    def test_binary_decisions(self, kernel_fams: list[tuple[PLFunc, ...]]):
        for fam in kernel_fams:
            for f in fam:
                for g in fam:
                    assert equality_set(f, g) == oracle_equality_set(f, g)
                    assert (f == g) == oracle_equal(f, g)
                    v, w = dominates(f, g), oracle_dominates(f, g)
                    assert v.ok == w.ok
                    if not v.ok:
                        assert f(v.witness) > g(v.witness)

    def test_canonical_form(self, rng: random.Random):
        for _ in range(40):
            f, g = random_plfunc(rng), random_plfunc(rng)
            assert pl_min((f, g)) == pl_min((g, f))
            assert pl_max((f, g)) == pl_max((refined(g), refined(f)))
            assert pl_sum((f, pl_neg(f))) == PLFunc.constant(0)
            assert pl_max((f, f)) == canonical(f) == pl_min((refined(f),))
            assert pl_sum((f, g)) == pl_sum((refined(g), f))
            assert refined(f) == f and canonical(f) == f
            assert refined(f).line_form == f.line_form == canonical(f).line_form

    def test_no_point_evaluation(self, kernel_fams: list[tuple[PLFunc, ...]], monkeypatch):
        fams = kernel_fams[:60]
        calls = []
        evaluate = PLFunc.__call__

        def counted(f, x):
            calls.append(x)
            return evaluate(f, x)

        monkeypatch.setattr(PLFunc, "__call__", counted)
        for fam in fams:
            pl_min(fam)
            pl_max(fam)
            pl_sum(fam)
            f, g = fam[0], fam[-1]
            equality_set(f, g)
            dominates(f, g)
            dominates(g, f)
            f == g
        assert calls == []
        assert X(Fraction(1, 2)) == Fraction(1, 2) and len(calls) == 1


@st.composite
def big_families(draw):
    """Families with knots and values of up to 4,000 bits: random members, a
    member plus and minus a tent that touches it at one point, and repeated
    members; and a scale that is zero, negative or positive."""
    bits = draw(st.sampled_from((4, 64, 4000)))
    fs = [draw(functions_and_points(sizes=(bits,)))[0] for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        k, d = draw(st.integers(0)), draw(st.integers(1, 2**bits))
        p = Fraction(1 + k % d, d + 1)  # in (0, 1)
        c = abs(draw(rationals(bits))) or Fraction(1)
        fs += [oracle_sum((fs[0], tent(p, c))), oracle_sum((fs[0], tent(p, -c)))]
    fs += draw(st.lists(st.sampled_from(fs), max_size=2))
    fs = draw(st.permutations(fs))
    negative = rationals(bits).map(lambda q: -abs(q))
    scale = draw(st.one_of(st.just(Fraction(0)), negative, rationals(bits)))
    return tuple(fs), scale


def fresh_form(f: PLFunc):
    return PLFunc(f.breakpoints, f.values).line_form


class TestKernelAtLargeBitSizes:
    """The integer line kernel against the oracle at up to 4,000 bits."""

    @BATCH
    @given(big_families())
    def test_matches_oracle(self, case):
        fs, c = case
        f, g = fs[0], fs[-1]
        envelopes = (pl_min(fs), oracle_envelope(fs, min)), (pl_max(fs), oracle_envelope(fs, max))
        for new, old in (*envelopes, (pl_sum(fs), oracle_sum(fs))):
            assert new == canonical(old)
            assert vars(new)["line_form"] == fresh_form(new)
        scaled = pl_scale(c, f)
        assert scaled == oracle_scale(c, f) and vars(scaled)["line_form"] == fresh_form(scaled)
        pairs = [(f, g), (g, f), (f, f), *((m, env) for m in fs for env, _ in envelopes)]
        for a, b in pairs:
            assert equality_set(a, b) == oracle_equality_set(a, b)
            assert dominates(a, b) == oracle_dominates(a, b)
            assert (a == b) == oracle_equal(a, b)


class TestBuiltChecks:
    """Every constructor checks its knots with one integer routine: a form
    is rejected with the message its Fraction twin gets."""

    @pytest.mark.parametrize(
        "knots",
        [
            ((0, 1),),  # fewer than two knots
            ((1, 4), (1, 1)),  # not from 0
            ((0, 1), (3, 4)),  # not to 1
            ((0, 1), (1, 2), (1, 2), (1, 1)),  # a repeated knot
            ((0, 1), (2, 3), (1, 3), (1, 1)),  # a decreasing knot
        ],
    )
    def test_rejected_forms(self, knots):
        lines = [(1, 0, 1)] * (len(knots) - 1)
        with pytest.raises(ValueError) as checked:
            PLFunc(tuple(Fraction(p, q) for p, q in knots), (Fraction(0),) * len(knots))
        with pytest.raises(ValueError) as built:
            PLFunc.from_form(knots, lines)
        assert str(built.value) == str(checked.value)

    def test_line_count_must_match(self):
        for lines in ([], [(1, 0, 1)] * 2):
            with pytest.raises(ValueError, match="matching breakpoint/value lists"):
                PLFunc.from_form(((0, 1), (1, 1)), lines)
        for values in ((Fraction(0),), (Fraction(0),) * 3):
            with pytest.raises(ValueError, match="matching breakpoint/value lists"):
                PLFunc((Fraction(0), Fraction(1)), values)

    @BATCH
    @given(big_families())
    def test_results_pass_the_fraction_checks(self, case):
        # Each result equals the function built from its own Fraction views.
        fs, c = case
        for f in (pl_min(fs), pl_max(fs), pl_sum(fs), pl_scale(c, fs[0]), pl_abs(fs[-1])):
            assert f == PLFunc(f.breakpoints, f.values)
            assert collinear_knots(f) == []


class TestCanonicalForm:
    """Every constructor stores the merged form, so == is pointwise equality."""

    def test_collinear_knot_merges(self):
        half = Fraction(1, 2)
        f = PLFunc((Fraction(0), half, Fraction(1)), (Fraction(0), half, Fraction(1)))
        assert f == X and hash(f) == hash(X)
        assert f.breakpoints == (0, 1) and f.line_form == X.line_form
        stored = [["0/1", "0/1"], ["1/2", "1/2"], ["1/1", "1/1"]]
        assert PLFunc.from_json(stored) == PLFunc.from_pairs(stored) == X
        assert PLFunc.from_json(stored).to_json() == [["0/1", "0/1"], ["1/1", "1/1"]]

    def test_from_form_merges(self):
        # x on [0, 2/3] in two pieces, then the constant 2/3.
        f = PLFunc.from_form(((0, 1), (1, 3), (2, 3), (1, 1)), [(1, 0, 1), (1, 0, 1), (0, 2, 3)])
        assert f.line_form == (((0, 1), (2, 3), (1, 1)), ((1, 0, 1), (0, 2, 3)))
        assert f == pl_min((X, PLFunc.constant("2/3")))
        flat = PLFunc.from_form(((0, 1), (1, 4), (1, 1)), [(0, 1, 3)] * 2)
        assert flat.line_form == PLFunc.constant("1/3").line_form

    def test_zero_scale_is_one_line(self):
        bump = tent(Fraction(1, 3), Fraction(5, 2))
        assert len(bump.breakpoints) == 3
        assert scale_form(0, 1, bump.line_form) == (((0, 1), (1, 1)), [(0, 0, 1)])
        zero = pl_scale(0, bump)
        assert zero == ZERO_F and len(zero.breakpoints) == 2
        assert zero.line_form == ZERO_F.line_form


INDICATOR_HALF_ONE = PwFunc(
    (Fraction(0), Fraction(1, 2), Fraction(1)),
    ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),
    (Fraction(0), Fraction(1), Fraction(1)),
)


class TestSemicontinuity:
    def test_indicator_usc(self):
        assert semicontinuity_check(INDICATOR_HALF_ONE, "usc").ok

    def test_indicator_not_lsc(self):
        v = semicontinuity_check(INDICATOR_HALF_ONE, "lsc")
        assert not v.ok
        assert v.witness == Fraction(1, 2)

    def test_continuous_passes_both(self, rng: random.Random):
        for _ in range(20):
            f = PwFunc.from_pl(random_plfunc(rng))
            assert semicontinuity_check(f, "usc").ok
            assert semicontinuity_check(f, "lsc").ok

    def test_usc_lsc_duality(self, rng: random.Random):
        # usc(F) must agree with lsc(-F), including on genuinely jumping data.
        for _ in range(30):
            base = PwFunc.from_pl(random_plfunc(rng))
            jumped = PwFunc(
                base.partition,
                base.pieces,
                tuple(
                    v + Fraction(rng.randint(-1, 1), rng.randint(1, 4))
                    for v in base.point_values
                ),
            )
            negated = PwFunc(
                jumped.partition,
                tuple((-s, -c) for s, c in jumped.pieces),
                tuple(-v for v in jumped.point_values),
            )
            assert (
                semicontinuity_check(jumped, "usc").ok
                == semicontinuity_check(negated, "lsc").ok
            )

    def test_pw_values(self):
        assert INDICATOR_HALF_ONE.value(Fraction(1, 4)) == 0
        assert INDICATOR_HALF_ONE.value(Fraction(1, 2)) == 1
        assert INDICATOR_HALF_ONE.value(Fraction(3, 4)) == 1


@given(
    num=st.integers(min_value=-32, max_value=32),
    den=st.integers(min_value=1, max_value=32),
)
def test_eval_affine_hypothesis(num: int, den: int):
    x = Fraction(num, den)
    if 0 <= x <= 1:
        assert X_MINUS_HALF(x) == x - Fraction(1, 2)


def test_dyadic_grid():
    g = dyadic_grid(6)
    assert len(g) == 65
    assert g[0] == (0, 1) and g[-1] == (1, 1)
    assert g[32] == (1, 2)


def test_uniform_grid_is_the_checked_grid():
    # The reduced pairs that grid_pairs returns for the Fractions k/n.
    for n in [*range(1, 257), MAX_GRID]:
        assert uniform_grid(n) == grid_pairs([Fraction(k, n) for k in range(n + 1)]), n


def test_ratset_normalization():
    s = RatSet.of([("1/2", "3/4"), ("0", "1/2")])
    assert s.intervals == ((Fraction(0), Fraction(3, 4)),)


# -- the integer form is the stored state; Fractions are views -----------------


def wide_plfunc(rng: random.Random, bits: int) -> PLFunc:
    """A PL function with up to four interior knots and values of up to
    ``bits`` bits, built from Fractions."""
    top = 2**bits
    knots = {Fraction(0), Fraction(1)}
    for _ in range(rng.randint(0, 4)):
        den = rng.randint(1, top)
        knots.add(Fraction(rng.randint(0, den), den))
    grid = sorted(knots)
    values = tuple(Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in grid)
    return PLFunc(tuple(grid), values)


def form_families(rng: random.Random) -> list[tuple[PLFunc, ...]]:
    """Seeded families: random ones on the 16ths grid with repeated members,
    and ones with knots and values of 4, 64 and 4,000 bits.  Each has a
    member that touches the first at one point and one that agrees with it
    on an interval."""
    fams = []
    for bits in (None, None, 4, 64, 4000):
        for _ in range(4):
            if bits is None:
                fs = random_family(rng, 4)
                fs += (rng.choice(fs),)
            else:
                fs = tuple(wide_plfunc(rng, bits) for _ in range(rng.randint(1, 2)))
            den = rng.randint(2, 2 ** (bits or 4))
            p = Fraction(rng.randint(1, den - 1), den)
            fams.append(fs + (oracle_sum((fs[0], tent(p, Fraction(1)))), pl_max((fs[0], fs[-1]))))
    return fams


def kernel_results(fs: Sequence[PLFunc]) -> list[PLFunc]:
    """What each kernel returns for a family: envelopes, sum, scalings,
    abs and distance functions."""
    f, g = fs[0], fs[-1]
    return [
        pl_min(fs),
        pl_max(fs),
        pl_sum(fs),
        pl_scale(Fraction(-3, 7), f),
        pl_neg(g),
        pl_abs(f),
        distance_function(equality_set(f, g)),
        distance_function(EMPTY_SET),
    ]


def family_sets(fs: Sequence[PLFunc]) -> list[RatSet]:
    """Equality sets of a family with its envelopes and with each other:
    points, intervals and empty sets."""
    lo, hi = pl_min(fs), pl_max(fs)
    sets = [equality_set(u, env) for u in fs for env in (lo, hi)]
    return sets + [equality_set(fs[0], fs[-1]), equality_set(lo, hi)]


def fraction_intersect(a: RatSet, b: RatSet) -> RatSet:
    """RatSet.intersect as it was on Fraction intervals: the oracle the
    integer form is held to."""
    out: list[tuple[Fraction, Fraction]] = []
    i = j = 0
    x, y = a.intervals, b.intervals
    while i < len(x) and j < len(y):
        lo, hi = max(x[i][0], y[j][0]), min(x[i][1], y[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if x[i][1] < y[j][1]:
            i += 1
        else:
            j += 1
    return RatSet(tuple(out))


def fraction_subset(a: RatSet, b: RatSet) -> Verdict:
    """subset as it was on Fraction intervals, witness included."""
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


def member(s: RatSet, x: Fraction) -> bool:
    """x in s, read off the Fraction intervals."""
    return any(lo <= x <= hi for lo, hi in s.intervals)


def probes(*sets: RatSet) -> set[Fraction]:
    """0, 1, and the ends and midpoints of every component of the sets."""
    out = {Fraction(0), Fraction(1)}
    for s in sets:
        for lo, hi in s.intervals:
            out.update((lo, hi, (lo + hi) / 2))
    return out


class FormCases(NamedTuple):
    """form_families of the rng fixture's seed, with each family's kernel
    results and sets, and the state of the rng after the families."""

    families: list[tuple[PLFunc, ...]]
    results: list[list[PLFunc]]
    sets: list[list[RatSet]]
    rng_state: object


@pytest.fixture(scope="module")
def form_cases() -> FormCases:
    """Built once per module.  The views of the results and sets are read by
    the tests that share them, so a test of laziness builds its own."""
    rng = random.Random(SEED)
    families = form_families(rng)
    results = [kernel_results(fs) for fs in families]
    return FormCases(families, results, [family_sets(fs) for fs in families], rng.getstate())


class TestIntegerForm:
    """Every PLFunc stores only its integer ``line_form``, and every RatSet
    only its ``components``, whether a kernel built it or a caller did from
    Fractions, JSON or a form.  The Fraction fields are views, built on
    first read, equal to those a function or set built from them has."""

    def test_views_are_built_on_first_read(self, form_cases: FormCases):
        for fs, shared_sets in zip(form_cases.families, form_cases.sets):
            f, g = fs[0], fs[-1]
            built = [
                PLFunc.constant("-2/3"),
                PLFunc.affine(3, "1/5"),
                PLFunc.from_form(*f.line_form),
                PLFunc(f.breakpoints, f.values),
                PLFunc.from_json(g.to_json()),
            ]
            for r in (*kernel_results(fs), *built):
                assert set(vars(r)) == {"line_form"}
                # Kernels, exports, checks, == and hash read the form and build no view.
                pl_sum((r, fs[0]))
                equality_set(r, fs[0])
                r.to_json()
                value_bounds(r)
                assert r == PLFunc.from_form(*r.line_form) and r != pl_sum((r, ONE_F))
                assert hash(r) == hash(PLFunc.from_form(*r.line_form))
                assert not {"breakpoints", "values"} & set(vars(r))
                r.breakpoints
                assert "breakpoints" in vars(r) and "values" not in vars(r)
                assert r.values is r.values and "values" in vars(r)
            twins = [RatSet(shared_sets[-1].intervals), RatSet.of([(0, "1/3"), ("1/2", "1/2")])]
            for s in (*family_sets(fs), *twins):
                assert set(vars(s)) == {"components"}
                s.intersect(FULL_SET)
                subset(s, FULL_SET)
                subset(FULL_SET, s)
                distance_function(s)
                first_containing([s], uniform_grid(8))
                s.is_empty
                Fraction(1, 3) in s
                assert s == s.intersect(FULL_SET) and hash(s) == hash(s.intersect(FULL_SET))
                assert (s == FULL_SET) == (s.components == ((0, 1, 1, 1),))
                assert "intervals" not in vars(s)
                assert s.intervals is s.intervals and "intervals" in vars(s)

    def test_results_equal_their_fraction_twins(self, form_cases: FormCases):
        for results in form_cases.results:
            for r in results:
                assert collinear_knots(r) == []
                twin = PLFunc(r.breakpoints, r.values)
                assert r == twin and twin == r and hash(r) == hash(twin)
                with int_str_digits(0):
                    assert repr(r) == repr(twin)
                assert twin.line_form == r.line_form and twin.knot_values == r.knot_values
                assert value_bounds(r) == (min(r.values), max(r.values))
                assert value_bounds(twin) == value_bounds(r)

    def test_sets_equal_their_fraction_twins(self, form_cases: FormCases):
        for sets in form_cases.sets:
            for s in sets:
                twin = RatSet.of(s.intervals)
                assert s == twin and twin == s and hash(s) == hash(twin)
                with int_str_digits(0):
                    assert repr(s) == repr(twin)
                assert twin.components == s.components

    def test_intersect_and_subset_match_the_fraction_forms(
        self, form_cases: FormCases, rng: random.Random
    ):
        rng.setstate(form_cases.rng_state)
        for fam_sets in form_cases.sets:
            sets = fam_sets + [random_ratset(rng) for _ in range(4)]
            sets += [EMPTY_SET, FULL_SET]
            for a in sets:
                for b in sets:
                    both = a.intersect(b)
                    assert both == fraction_intersect(a, b), (a, b)
                    v = subset(a, b)
                    assert v == fraction_subset(a, b), (a, b)
                    points = probes(a, b)
                    for x in points:
                        assert (x in both) == member(both, x) == (member(a, x) and member(b, x))
                    if v.ok:
                        assert all(member(b, x) for x in points if member(a, x)), (a, b)
                    else:
                        assert member(a, v.witness) and not member(b, v.witness), (a, b, v)

    def test_to_json_is_rat_str_of_the_views(self, form_cases: FormCases):
        for fs, results in zip(form_cases.families, form_cases.results):
            for f in (*fs, *results):
                written = [[rat_str(x), rat_str(v)] for x, v in zip(f.breakpoints, f.values)]
                assert f.to_json() == written
                assert PLFunc.from_json(written) == f
