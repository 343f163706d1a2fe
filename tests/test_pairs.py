"""Envelope pairs, stabilization thresholds, and squeezed approximants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_family
from hahnforge.plalg import (
    PLFunc,
    dominates,
    dyadic_grid,
    pl_abs,
    pl_equal,
    pl_max,
    pl_min,
    pl_scale,
)
from hahnforge.builder import synthesize
from hahnforge.pairs import (
    HahnPair,
    StableFamily,
    constrained_approximants,
    envelopes,
    insert_intermediate,
    stability_witness,
)

ZERO_F = PLFunc.constant(0)
X = PLFunc.identity()
X_MINUS_HALF = PLFunc.affine(1, "-1/2")
SP1 = StableFamily((ZERO_F, X_MINUS_HALF))


class TestEnvelopes:
    def test_canonical_pair(self):
        pair = envelopes(SP1)
        assert pl_equal(pair.g, pl_min((ZERO_F, X_MINUS_HALF)))
        assert pl_equal(pair.h, pl_max((ZERO_F, X_MINUS_HALF)))

    def test_singleton(self, rng: random.Random):
        f = random_family(rng, 1)[0]
        pair = envelopes(StableFamily((f,)))
        assert pl_equal(pair.g, f) and pl_equal(pair.h, f)

    def test_duplicate_constants(self):
        c = PLFunc.constant("2/3")
        pair = envelopes(StableFamily((c, c)))
        assert pl_equal(pair.g, c) and pl_equal(pair.h, c)

    def test_members_between_envelopes_200_random(self, rng: random.Random):
        for _ in range(200):
            fam = StableFamily(random_family(rng))
            pair = envelopes(fam)
            for u in fam.members:
                assert dominates(pair.g, u).ok
                assert dominates(u, pair.h).ok


def running_envelope_witness(family: StableFamily, x: Fraction) -> int:
    """Oracle: fold the partial envelopes until both reach (g(x), h(x))."""
    values = [u(x) for u in family.members]
    g, h = min(values), max(values)
    lo = hi = values[0]
    for k, v in enumerate(values, start=1):
        lo = min(lo, v)
        hi = max(hi, v)
        if lo == g and hi == h:
            return k
    raise AssertionError("envelopes are attained within the family")


def family_with_ties(rng: random.Random) -> StableFamily:
    """A random family that, every other time, repeats one of its members."""
    members = list(random_family(rng))
    if rng.random() < 0.5:
        members.insert(rng.randint(0, len(members)), rng.choice(members))
    return StableFamily(tuple(members))


class TestStabilityWitness:
    def test_three_quarters(self):
        assert stability_witness(SP1, "3/4") == 2

    def test_crossing_point(self):
        assert stability_witness(SP1, "1/2") == 1

    def test_singleton_family(self, rng: random.Random):
        fam = StableFamily((random_family(rng, 1)[0],))
        assert stability_witness(fam, "1/3") == 1

    def test_partial_envelopes_constant_from_witness(self, rng: random.Random):
        # Direct restatement: for k >= k_x the partial envelopes sit at (g, h).
        for _ in range(50):
            fam = StableFamily(random_family(rng))
            for x in dyadic_grid(3):
                k_x = stability_witness(fam, x)
                values = [u(x) for u in fam.members]
                g, h = min(values), max(values)
                for k in range(k_x, len(fam) + 1):
                    assert min(values[:k]) == g
                    assert max(values[:k]) == h

    def test_matches_running_envelope_oracle(self, rng: random.Random):
        for _ in range(100):
            fam = family_with_ties(rng)
            for x in dyadic_grid(4):
                assert stability_witness(fam, x) == running_envelope_witness(fam, x)

    def test_first_of_equal_members_counts(self):
        fam = StableFamily((X_MINUS_HALF, ZERO_F, X_MINUS_HALF, ZERO_F))
        assert [stability_witness(fam, x) for x in ("0", "1/2", "1")] == [2, 1, 2]

    def test_equals_active_stage_of_synthesis(self, rng: random.Random):
        # The block active at x is where the partial envelopes stop changing.
        for _ in range(60):
            fam = family_with_ties(rng)
            f = synthesize(fam)
            for x in dyadic_grid(5):
                assert f.active_stage(x) == stability_witness(fam, x)


class TestInsertIntermediate:
    def test_sp1_gives_zero(self):
        theta = insert_intermediate(envelopes(SP1))
        assert pl_equal(theta, ZERO_F)

    def test_singleton(self):
        f = pl_abs(X_MINUS_HALF)
        pair = envelopes(StableFamily((f,)))
        assert pl_equal(insert_intermediate(pair), f)

    def test_symmetric_pair(self):
        one_minus_x = PLFunc.affine(-1, 1)
        pair = envelopes(StableFamily((X, one_minus_x)))
        theta = insert_intermediate(pair)
        assert pl_equal(theta, X)
        assert dominates(pair.g, theta).ok and dominates(theta, pair.h).ok

    def test_always_between_envelopes(self, rng: random.Random):
        for _ in range(100):
            pair = envelopes(StableFamily(random_family(rng)))
            theta = insert_intermediate(pair)
            assert dominates(pair.g, theta).ok
            assert dominates(theta, pair.h).ok

    def test_broken_pair_detected(self):
        good = envelopes(SP1)
        with pytest.raises(ValueError):
            HahnPair(good.family, good.h, good.g)  # swapped envelopes fail g <= h


def approx_sequences(g: PLFunc, h: PLFunc, length: int) -> tuple[list[PLFunc], list[PLFunc]]:
    """g_n decreasing to g and h_n increasing to h, all [0, 1]-valued."""
    gs = [pl_max((g, PLFunc.constant(Fraction(1, n)))) for n in range(1, length + 1)]
    hs = [pl_min((h, PLFunc.constant(Fraction(n, n + 1)))) for n in range(1, length + 1)]
    return gs, hs


class TestConstrainedApproximants:
    def test_formula_substitution(self):
        gseq = [PLFunc.constant(-1)] * 2
        hseq = [PLFunc.constant(1)] * 2
        u2, v2 = constrained_approximants(gseq, hseq, ZERO_F, X, 2)
        assert pl_equal(u2, pl_max((PLFunc.constant(-1), pl_scale(-2, X))))
        assert pl_equal(v2, pl_min((PLFunc.constant(1), pl_scale(2, X))))

    def test_zero_set_pins_f0(self):
        # Where phi vanishes the pair is (max(g_n, f0), min(h_n, f0)).
        gseq = [PLFunc.constant(Fraction(1, n)) for n in range(1, 4)]
        hseq = [PLFunc.constant(Fraction(-1, n)) for n in range(1, 4)]
        f0 = PLFunc.constant("1/4")
        phi = pl_abs(X_MINUS_HALF)
        for n in (1, 2, 3):
            u, v = constrained_approximants(gseq, hseq, f0, phi, n)
            x = Fraction(1, 2)
            assert u(x) == max(gseq[n - 1](x), f0(x))
            assert v(x) == min(hseq[n - 1](x), f0(x))

    def test_phi_identically_zero(self):
        gseq, hseq = [PLFunc.constant(-1)], [PLFunc.constant(1)]
        f0 = X
        u, v = constrained_approximants(gseq, hseq, f0, ZERO_F, 1)
        assert pl_equal(u, pl_max((gseq[0], f0)))
        assert pl_equal(v, pl_min((hseq[0], f0)))

    def test_monotone_in_n(self):
        gseq = [PLFunc.constant(Fraction(1, n)) for n in range(1, 6)]
        hseq = [PLFunc.constant(Fraction(-1, n)) for n in range(1, 6)]
        f0 = ZERO_F
        phi = X
        prev = None
        for n in range(1, 6):
            u, v = constrained_approximants(gseq, hseq, f0, phi, n)
            if prev is not None:
                pu, pv = prev
                assert dominates(u, pu).ok  # u_n decreasing
                assert dominates(pv, v).ok  # v_n increasing
            prev = (u, v)

    def test_eventual_collapse_where_phi_positive(self):
        # With [0, 1]-valued data, u_n(x) = g_n(x) once n >= ceil(1 / phi(x)).
        g = pl_min((X, PLFunc.affine(-1, 1)))
        h = pl_max((X, PLFunc.affine(-1, 1)))
        length = 20
        gseq, hseq = approx_sequences(g, h, length)
        f0 = PLFunc.constant("1/2")
        phi = pl_abs(X_MINUS_HALF)
        for x in dyadic_grid(4):
            p = phi(x)
            if p == 0:
                continue
            n0 = -(-p.denominator // p.numerator)  # ceil(1 / phi(x))
            for n in range(n0, min(n0 + 3, length) + 1):
                u, v = constrained_approximants(gseq, hseq, f0, phi, n)
                assert u(x) == gseq[n - 1](x)
                assert v(x) == hseq[n - 1](x)

    def test_precondition_witnesses(self):
        gseq = [PLFunc.constant(0), PLFunc.constant(1)]  # increasing: invalid
        hseq = [PLFunc.constant(0), PLFunc.constant(1)]
        with pytest.raises(ValueError, match="g-sequence"):
            constrained_approximants(gseq, hseq, ZERO_F, X, 1)
        with pytest.raises(ValueError, match="negative"):
            constrained_approximants([ZERO_F], [ZERO_F], ZERO_F, PLFunc.constant(-1), 1)
        with pytest.raises(ValueError, match="h-sequence"):
            constrained_approximants(
                [PLFunc.constant(1), PLFunc.constant(0)],
                [PLFunc.constant(1), PLFunc.constant(0)],
                ZERO_F,
                X,
                1,
            )
