"""Exact tail sections against the enumerating twin, with certified bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import dyadic_grid, random_plfunc, random_value
from hahnforge import sections
from hahnforge.pairs import StableFamily, envelopes
from hahnforge.plalg import PLFunc, pl_neg, pl_scale, pl_sum
from hahnforge.sections import INFINITY, SectionPair, TailFamily, brute_sections, tail_sections
from hahnforge.tailrules import TailRule

X = PLFunc.affine(1, 0)
ZERO_F = PLFunc.constant(0)
X_MINUS_HALF = PLFunc.affine(1, "-1/2")

CANONICAL = TailFamily(
    head=(ZERO_F, X_MINUS_HALF),
    limit=ZERO_F,
    tail_coeff=TailRule.harmonic(1),
    tail_shape=pl_neg(X),
)

GRID = dyadic_grid(6)
XS = [Fraction(*x) for x in GRID]


def random_tail_family(rng: random.Random, allow_alternating: bool = False) -> TailFamily:
    n = rng.randint(0, 3)
    head = tuple(random_plfunc(rng) for _ in range(n))
    limit = random_plfunc(rng)
    shape = random_plfunc(rng)
    kinds = ["harmonic", "geometric", "zero"]
    kind = rng.choice(kinds)
    if kind == "harmonic":
        coeff = TailRule.harmonic(random_value(rng, -2, 2, 4))
    elif kind == "geometric":
        ratios = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
        if allow_alternating:
            ratios += [Fraction(-1, 2), Fraction(-2, 3)]
        coeff = TailRule.geometric(random_value(rng, -2, 2, 4), rng.choice(ratios))
    else:
        coeff = TailRule.zero()
    return TailFamily(head, limit, coeff, shape)


def assert_pairs_agree(a: SectionPair, b: SectionPair, grid) -> None:
    for x in grid:
        x = Fraction(*x)
        assert a.g(x) == b.g(x)
        assert a.h(x) == b.h(x)


def assert_witnesses_attain(family: TailFamily, pair: SectionPair) -> None:
    # Each row's g(x) and h(x) are the envelopes' values, and its witnesses attain them.
    for (p, q), gx, hx, lo_w, hi_w in pair.points:
        x = Fraction(p, q)
        lo = family.limit(x) if lo_w == INFINITY else family.member(lo_w)(x)
        hi = family.limit(x) if hi_w == INFINITY else family.member(hi_w)(x)
        assert lo == pair.g(x) == Fraction(*gx)
        assert hi == pair.h(x) == Fraction(*hx)


def oracle_witness(candidates, x: Fraction, target: Fraction):
    """Evaluate-and-compare: the first candidate, in order, whose value at x is target."""
    for idx, f in candidates:
        if f(x) == target:
            return idx
    raise AssertionError("envelope value must be attained by a candidate")


def tail_candidates(family: TailFamily):
    """The candidates of tail_sections, in witness order: head, n+1, n+2, inf."""
    n = family.head_size
    return [
        *enumerate(family.head, start=1),
        (n + 1, family.member(n + 1)),
        (n + 2, family.member(n + 2)),
        (INFINITY, family.limit),
    ]


def brute_candidates(family: TailFamily, m: int):
    """The candidates of brute_sections, in witness order: 1..m, inf."""
    return [(i, family.member(i)) for i in range(1, m + 1)] + [(INFINITY, family.limit)]


def assert_oracle_witnesses(candidates, pair: SectionPair) -> None:
    for x, _, _, lo_w, hi_w in pair.points:
        x = Fraction(*x)
        assert lo_w == oracle_witness(candidates, x, pair.g(x))
        assert hi_w == oracle_witness(candidates, x, pair.h(x))


def witnesses(pair: SectionPair) -> dict:
    """Grid x -> (min witness, max witness), read off the rows."""
    return {x: (lo_w, hi_w) for x, _, _, lo_w, hi_w in pair.points}


def tied_tail_family(rng: random.Random) -> TailFamily:
    """A random family whose head repeats a head slice, the limit and the first
    tail slice, so that several candidates attain the envelopes at once."""
    fam = random_tail_family(rng, allow_alternating=True)
    size = fam.head_size + 3  # the first tail slice follows the extended head
    first_tail = pl_sum((fam.limit, pl_scale(fam.tail_coeff.value(size + 1), fam.tail_shape)))
    head = [*fam.head, fam.limit, first_tail, rng.choice(fam.head or (fam.limit,))]
    rng.shuffle(head)
    return TailFamily(tuple(head), fam.limit, fam.tail_coeff, fam.tail_shape)


class TestCanonicalFamily:
    def test_exact_envelopes(self):
        pair = tail_sections(CANONICAL, GRID)
        third_slice = pl_scale(Fraction(-1, 3), X)
        for x in XS:
            assert pair.g(x) == min(X_MINUS_HALF(x), third_slice(x))
            assert pair.h(x) == max(Fraction(0), X_MINUS_HALF(x))

    def test_min_at_one_attained_by_third_slice(self):
        pair = tail_sections(CANONICAL, [(1, 1)])
        assert pair.g(1) == Fraction(-1, 3)
        assert witnesses(pair)[(1, 1)][0] == 3

    def test_brute_m3_identical_with_quarter_bound(self):
        brute, bound = brute_sections(CANONICAL, 3, GRID)
        exact = tail_sections(CANONICAL, GRID)
        assert bound == Fraction(1, 4)
        assert_pairs_agree(exact, brute, GRID)

    def test_member_formula(self):
        assert CANONICAL.member(1) == ZERO_F
        assert CANONICAL.member(5) == pl_scale(Fraction(-1, 5), X)


class TestDegenerateFamilies:
    def test_zero_tail_collapses_to_head_envelopes(self, rng: random.Random):
        for _ in range(10):
            head = tuple(random_plfunc(rng) for _ in range(rng.randint(1, 3)))
            limit = random_plfunc(rng)
            fam = TailFamily(head, limit, TailRule.zero(), random_plfunc(rng))
            pair = tail_sections(fam, GRID)
            ref = envelopes(StableFamily(head + (limit,)))
            for x in XS:
                assert pair.g(x) == ref.g(x)
                assert pair.h(x) == ref.h(x)

    def test_empty_head_constant(self):
        c = PLFunc.constant("5/7")
        fam = TailFamily((), c, TailRule.zero(), X)
        pair = tail_sections(fam, GRID)
        for x in XS:
            assert pair.g(x) == Fraction(5, 7)
            assert pair.h(x) == Fraction(5, 7)

    def test_zero_tail_bound_is_zero(self):
        fam = TailFamily((ZERO_F,), ZERO_F, TailRule.zero(), X)
        _, bound = brute_sections(fam, 7, GRID)
        assert bound == 0

    def test_cutoff_must_exceed_head(self):
        with pytest.raises(ValueError):
            brute_sections(CANONICAL, 2, GRID)

    def test_nonnull_tail_rejected(self):
        with pytest.raises(ValueError):
            TailFamily((), ZERO_F, TailRule("constant", Fraction(1)), X)


class TestOracleEquivalence:
    def test_sign_constant_families(self, rng: random.Random):
        for _ in range(30):
            fam = random_tail_family(rng)
            exact = tail_sections(fam, GRID)
            brute, _ = brute_sections(fam, fam.head_size + 1, GRID)
            assert_pairs_agree(exact, brute, GRID)
            assert_witnesses_attain(fam, exact)
            assert_witnesses_attain(fam, brute)

    def test_alternating_needs_second_slice(self):
        # Ratio -1/2: the maximum over the tail sits at the second tail slice.
        fam = TailFamily((), ZERO_F, TailRule.geometric(2, "-1/2"), PLFunc.constant(1))
        exact = tail_sections(fam, GRID)
        assert exact.g("1/2") == Fraction(-1)  # 2 * (-1/2)^1
        assert exact.h("1/2") == Fraction(1, 2)  # 2 * (-1/2)^2
        brute, bound = brute_sections(fam, 6, GRID)
        assert_pairs_agree(exact, brute, GRID)
        short, bound1 = brute_sections(fam, 1, GRID)
        # The one-slice truncation misses the max but stays within its bound.
        assert short.h("1/2") == 0
        assert bound1 == Fraction(1, 2)
        assert exact.h("1/2") - short.h("1/2") <= bound1

    def test_alternating_random_families(self, rng: random.Random):
        for _ in range(20):
            fam = random_tail_family(rng, allow_alternating=True)
            exact = tail_sections(fam, GRID)
            brute, _ = brute_sections(fam, fam.head_size + 6, GRID)
            assert_pairs_agree(exact, brute, GRID)
            assert_witnesses_attain(fam, exact)

    def test_bound_certifies_truncation(self, rng: random.Random):
        for _ in range(20):
            fam = random_tail_family(rng, allow_alternating=True)
            exact = tail_sections(fam, GRID)
            for m in (fam.head_size + 1, fam.head_size + 3):
                approx, bound = brute_sections(fam, m, GRID)
                for x in XS:
                    assert abs(exact.g(x) - approx.g(x)) <= bound
                    assert abs(exact.h(x) - approx.h(x)) <= bound


class TestWitnessRule:
    """Witnesses are the first attaining candidate in candidate order."""

    def test_canonical_ties_at_zero(self):
        # u1, slices 3 and 4 and inf all attain h(0) = 0; u1 comes first.
        pair = tail_sections(CANONICAL, GRID)
        assert witnesses(pair)[(0, 1)] == (2, 1)
        assert_oracle_witnesses(tail_candidates(CANONICAL), pair)

    def test_tail_sections_match_oracle_on_ties(self, rng: random.Random):
        for _ in range(30):
            fam = tied_tail_family(rng)
            assert_oracle_witnesses(tail_candidates(fam), tail_sections(fam, GRID))

    def test_brute_sections_match_oracle_on_ties(self, rng: random.Random):
        for _ in range(20):
            fam = tied_tail_family(rng)
            m = fam.head_size + rng.randint(1, 4)
            brute, _ = brute_sections(fam, m, GRID)
            assert_oracle_witnesses(brute_candidates(fam, m), brute)

    def test_zero_tail_prefers_first_tail_slice(self):
        # n+1, n+2 and inf all equal the limit 1/4, which tops the head on (1/4, 3/4).
        fam = TailFamily((X_MINUS_HALF, pl_neg(X_MINUS_HALF)), PLFunc.constant("1/4"), TailRule.zero(), X)
        pair = tail_sections(fam, GRID)
        assert witnesses(pair)[(1, 2)][1] == 3
        assert witnesses(pair)[(1, 4)][1] == 2
        brute, _ = brute_sections(fam, 5, GRID)
        assert witnesses(brute) == witnesses(pair)


class TestStructure:
    def test_g_below_h_and_reencoding(self, rng: random.Random):
        # Sections of a sign-constant family coincide with the envelopes of
        # the finite family {head, limit, first tail slice}.
        for _ in range(20):
            fam = random_tail_family(rng)
            pair = tail_sections(fam, GRID)
            finite = StableFamily(
                fam.head + (fam.limit, fam.member(fam.head_size + 1))
            )
            ref = envelopes(finite)
            for x in XS:
                assert pair.g(x) <= pair.h(x)
                assert pair.g(x) == ref.g(x)
                assert pair.h(x) == ref.h(x)

    def test_json_export(self):
        pair = tail_sections(CANONICAL, [(0, 1), (1, 1)])
        data = pair.to_json()
        assert data["grid"][0]["x"] == "0/1"
        assert data["grid"][1]["min_witness"] == 3
        rows = pair.rows()
        assert rows[0][0] == "0/1"

    def test_points_evaluated_once(self, monkeypatch):
        # tail_sections builds the rows in its one walk: the walker is called
        # once, for g and h over the whole grid, and read to its end, one run
        # after another, so its cursor passes the grid once; the witnesses
        # come from one first_containing pass per envelope.  sections --out,
        # which writes both to_json and rows, walks nothing more.
        walks = []
        passes = []
        walk, first = sections.cell_lines, sections.first_containing

        def counted(fs, xs):
            stops: list[int] = []
            walks.append((len(fs), xs, stops))
            for stop, lines in walk(fs, xs):
                stops.append(stop)
                yield stop, lines

        def counted_first(sets, xs):
            passes.append(xs)
            return first(sets, xs)

        monkeypatch.setattr(sections, "cell_lines", counted)
        monkeypatch.setattr(sections, "first_containing", counted_first)
        pair = tail_sections(CANONICAL, GRID)
        ((n, xs, stops),) = walks
        assert (n, xs, passes) == (2, GRID, [GRID, GRID])
        assert stops == sorted(set(stops)) and stops[-1] == len(GRID)
        data, rows = pair.to_json(), pair.rows()
        assert len(walks) == 1 and len(passes) == 2
        assert [r[:3] for r in rows] == [(e["x"], e["g"], e["h"]) for e in data["grid"]]
        assert [r[0] for r in pair.points] == GRID
