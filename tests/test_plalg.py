"""Exact PL algebra: evaluation, lattice ops, equality sets, distance, semicontinuity."""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_family, random_plfunc, random_ratset, random_value
from hahnforge.plalg import (
    EMPTY_SET,
    FULL_SET,
    PLFunc,
    PwFunc,
    RatSet,
    distance_function,
    dominates,
    dyadic_grid,
    equality_set,
    merged_grid,
    pl_abs,
    pl_equal,
    pl_max,
    pl_min,
    pl_neg,
    pl_scale,
    pl_sum,
    semicontinuity_check,
)

X = PLFunc.identity()
ZERO_F = PLFunc.constant(0)
X_MINUS_HALF = PLFunc.affine(1, "-1/2")


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
            assert pl_equal(pl_max((f, f)), f)

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
        assert equality_set(ZERO_F, X_MINUS_HALF) == RatSet.point(Fraction(1, 2))

    def test_symmetric_and_sound(self, rng: random.Random):
        # Soundness oracle: membership must match f(x) == g(x) exactly,
        # checked on the merged grid, set endpoints, and set midpoints.
        for _ in range(30):
            f, g = random_plfunc(rng), random_plfunc(rng)
            s = equality_set(f, g)
            assert s == equality_set(g, f)
            probes = set(merged_grid((f, g)))
            for lo, hi in s.intervals:
                probes.update((lo, hi, (lo + hi) / 2))
            for x in probes:
                assert (x in s) == (f(x) == g(x))


class TestDistance:
    def test_point(self):
        f = distance_function(RatSet.point("1/2"))
        assert f.breakpoints == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert f.values == (Fraction(1, 2), Fraction(0), Fraction(1, 2))

    def test_empty_set_convention(self):
        assert pl_equal(distance_function(EMPTY_SET), PLFunc.constant(1))

    def test_full_interval(self):
        assert pl_equal(distance_function(FULL_SET), ZERO_F)

    def test_lipschitz_and_zero_set(self, rng: random.Random):
        for _ in range(40):
            s = random_ratset(rng)
            f = distance_function(s)
            assert all(-1 <= m <= 1 for m, _ in f.pieces)
            if not s.is_empty:
                assert equality_set(f, ZERO_F) == s


class TestDominates:
    def test_min_below_max(self):
        assert dominates(pl_min((ZERO_F, X_MINUS_HALF)), pl_max((ZERO_F, X_MINUS_HALF)))

    def test_witness(self):
        v = dominates(X_MINUS_HALF, ZERO_F)
        assert not v.ok
        assert X_MINUS_HALF(v.witness) > 0

    def test_partial_order(self, rng: random.Random):
        for _ in range(30):
            f, g, h = (random_plfunc(rng) for _ in range(3))
            assert dominates(f, f).ok
            if dominates(f, g).ok and dominates(g, f).ok:
                assert pl_equal(f, g)
            if dominates(f, g).ok and dominates(g, h).ok:
                assert dominates(f, h).ok


INDICATOR_HALF_ONE = PwFunc.step("1/2", Fraction(0), Fraction(1), Fraction(1))


class TestSemicontinuity:
    def test_indicator_usc(self):
        assert semicontinuity_check(INDICATOR_HALF_ONE, "usc").ok

    def test_indicator_not_lsc(self):
        v = semicontinuity_check(INDICATOR_HALF_ONE, "lsc")
        assert not v.ok
        assert v.witness == Fraction(1, 2)

    def test_continuous_passes_both(self, rng: random.Random):
        for _ in range(20):
            f = random_plfunc(rng).to_pw()
            assert semicontinuity_check(f, "usc").ok
            assert semicontinuity_check(f, "lsc").ok

    def test_usc_lsc_duality(self, rng: random.Random):
        # usc(F) must agree with lsc(-F), including on genuinely jumping data.
        for _ in range(30):
            base = random_plfunc(rng).to_pw()
            jumped = PwFunc(
                base.partition,
                base.pieces,
                tuple(
                    v + Fraction(rng.randint(-1, 1), rng.randint(1, 4))
                    for v in base.point_values
                ),
            )
            assert (
                semicontinuity_check(jumped, "usc").ok
                == semicontinuity_check(jumped.negate(), "lsc").ok
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
    assert g[0] == 0 and g[-1] == 1
    assert g[32] == Fraction(1, 2)


def test_ratset_normalization():
    s = RatSet.of([("1/2", "3/4"), ("0", "1/2")])
    assert s.intervals == ((Fraction(0), Fraction(3, 4)),)
    assert RatSet.from_json(s.to_json()) == s
