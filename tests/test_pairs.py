"""Envelope pairs and stabilization thresholds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import dyadic_grid, random_family
from hahnforge.plalg import (
    PLFunc,
    dominates,
    pl_max,
    pl_min,
)
from hahnforge.builder import synthesize
from hahnforge.pairs import HahnPair, StableFamily, envelopes

ZERO_F = PLFunc.constant(0)
X_MINUS_HALF = PLFunc.affine(1, "-1/2")
SP1 = StableFamily((ZERO_F, X_MINUS_HALF))


class TestEnvelopes:
    def test_canonical_pair(self):
        pair = envelopes(SP1)
        assert pair.g == pl_min((ZERO_F, X_MINUS_HALF))
        assert pair.h == pl_max((ZERO_F, X_MINUS_HALF))

    def test_singleton(self, rng: random.Random):
        f = random_family(rng, 1)[0]
        pair = envelopes(StableFamily((f,)))
        assert pair.g == f and pair.h == f

    def test_duplicate_constants(self):
        c = PLFunc.constant("2/3")
        pair = envelopes(StableFamily((c, c)))
        assert pair.g == c and pair.h == c

    def test_members_between_envelopes_200_random(self, rng: random.Random):
        for _ in range(200):
            fam = StableFamily(random_family(rng))
            pair = envelopes(fam)
            for u in fam.members:
                assert dominates(pair.g, u).ok
                assert dominates(u, pair.h).ok


def stability_witness(family: StableFamily, x: int | str | Fraction) -> int:
    """Smallest k such that both partial envelopes at x already equal (g(x), h(x)).

    It is the larger of the first indices attaining g(x) and h(x).  From this
    k on, the partial-envelope sequences at x are constant, which is the
    pointwise-stabilization property of finite-envelope pairs.
    """
    values = [u(x) for u in family.members]
    return max(values.index(min(values)), values.index(max(values))) + 1


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
                x = Fraction(*x)
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
                x = Fraction(*x)
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
                x = Fraction(*x)
                assert f.active_stage(x) == stability_witness(fam, x)


class TestHahnPair:
    def test_broken_pair_detected(self):
        good = envelopes(SP1)
        with pytest.raises(ValueError):
            HahnPair(good.family, good.h, good.g)  # swapped envelopes fail g <= h
