"""Continuity and cocountable-constancy case analysis on compactified discrete spaces."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hahnforge.alphat import (
    AlphaTFunc,
    CountableSet,
    DiagBlock,
    DiagProductFunc,
    FiniteBlock,
    TailBlock,
    UncountableBlock,
    at_baire_one_cocountable,
    at_is_continuous,
    at_sections,
    diag_example,
)
from hahnforge.tailrules import TailRule

HARMONIC_TAIL = AlphaTFunc(Fraction(0), (TailBlock("t", TailRule.harmonic(1)),))
CHI_T1 = AlphaTFunc(Fraction(0), (UncountableBlock("T1", Fraction(1)),))


class TestContinuity:
    def test_harmonic_tail_continuous(self):
        assert at_is_continuous(HARMONIC_TAIL).ok

    def test_uncountable_indicator_not_continuous(self):
        v = at_is_continuous(CHI_T1)
        assert not v.ok
        assert v.witness == Fraction(1, 2)

    def test_constant_continuous(self):
        assert at_is_continuous(AlphaTFunc.const("7/3")).ok

    def test_finite_block_continuous(self):
        f = AlphaTFunc(Fraction(0), (FiniteBlock(("a", "b"), Fraction(100)),))
        assert at_is_continuous(f).ok

    def test_tail_with_wrong_limit(self):
        f = AlphaTFunc(Fraction(1), (TailBlock("t", TailRule("constant", Fraction(1, 3))),))
        v = at_is_continuous(f)
        assert not v.ok
        assert v.witness == Fraction(1, 3)

    def test_continuous_implies_cocountable(self):
        # Every continuous function here admits a countable constancy set.
        for f in (HARMONIC_TAIL, AlphaTFunc.const(0), diag_example().x_section("T1")):
            if at_is_continuous(f).ok:
                assert at_baire_one_cocountable(f) is not None


class TestCocountable:
    def test_single_exception(self):
        f = AlphaTFunc(Fraction(0), (FiniteBlock(("t0",), Fraction(5)),))
        s = at_baire_one_cocountable(f)
        assert s == CountableSet(("t0",), ())

    def test_uncountable_indicator_rejected(self):
        assert at_baire_one_cocountable(CHI_T1) is None

    def test_tail_support_collected(self):
        s = at_baire_one_cocountable(HARMONIC_TAIL)
        assert s == CountableSet((), ("t",))

    def test_uncountable_block_at_limit_is_harmless(self):
        f = AlphaTFunc(Fraction(2), (UncountableBlock("T", Fraction(2)),))
        s = at_baire_one_cocountable(f)
        assert s == CountableSet()


class TestDiagExample:
    def test_sections_continuous_each_region(self):
        f = diag_example()
        for region in ("T0", "T1", "T2", "infinity"):
            assert at_is_continuous(f.x_section(region)).ok
            assert at_is_continuous(f.y_section(region)).ok

    def test_section_shapes(self):
        f = diag_example()
        s1 = f.x_section("T1")
        assert s1.limit_value == 0
        assert s1.blocks == (FiniteBlock(("x@T1",), Fraction(1)),)
        s2 = f.y_section("T2")
        assert s2.blocks == (FiniteBlock(("x@T2",), Fraction(-1)),)
        assert f.x_section("infinity") == AlphaTFunc.const(0)

    def test_extremal_sections(self):
        lo, hi = at_sections(diag_example())
        assert hi == CHI_T1
        assert lo == AlphaTFunc(Fraction(0), (UncountableBlock("T2", Fraction(-1)),))

    def test_extremal_sections_not_baire_one(self):
        lo, hi = at_sections(diag_example())
        assert at_baire_one_cocountable(lo) is None
        assert at_baire_one_cocountable(hi) is None

    def test_zero_function_sections(self):
        f = DiagProductFunc(
            (DiagBlock("T0", Fraction(0)), DiagBlock("T1", Fraction(0)), DiagBlock("T2", Fraction(0)))
        )
        lo, hi = at_sections(f)
        assert lo == AlphaTFunc.const(0)
        assert hi == AlphaTFunc.const(0)

    def test_min_below_zero_below_max(self):
        lo, hi = at_sections(diag_example())
        assert all(b.value <= 0 for b in lo.blocks)
        assert all(b.value >= 0 for b in hi.blocks)


def test_block_disjointness_enforced():
    with pytest.raises(ValueError):
        AlphaTFunc(
            Fraction(0),
            (FiniteBlock(("a",), Fraction(1)), FiniteBlock(("a",), Fraction(2))),
        )
