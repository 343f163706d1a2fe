"""Scattered rank against an iteration of the derivative, plus the dyadic partition."""

from __future__ import annotations

import itertools

import pytest

from conftest import int_str_digits
from hahnforge.rational import int_str
from hahnforge.spaces import (
    OrdinalCNF,
    OrdinalCompact,
    Pow2OddSet,
    parse_ordinal,
    scattered_rank,
)


def interval(text: str) -> OrdinalCompact:
    return OrdinalCompact(parse_ordinal(text))


def ordinal_text(o: OrdinalCNF) -> str:
    """o in the grammar parse_ordinal reads, e.g. "w^2*3 + w + 4"."""
    if not o.terms:
        return "0"
    parts = []
    for e, c in o.terms:
        if e == 0:
            parts.append(int_str(c))
        else:
            head = "w" if e == 1 else f"w^{int_str(e)}"
            parts.append(head if c == 1 else f"{head}*{int_str(c)}")
    return " + ".join(parts)


# -- independent oracle ------------------------------------------------------
# The derivative iterated on a different data structure from the closed
# form's: the top ordinal as a descending list of exponents repeated by
# coefficient (w^2*3 + 4 -> [2, 2, 2, 0, 0, 0, 0]).


def _oracle_derive(exps: list[int]) -> list[int] | None:
    shifted = [e - 1 for e in exps if e >= 1]
    if not shifted:
        return None
    if all(e == 0 for e in shifted):
        return [0] * (len(shifted) - 1)
    return shifted


def oracle_rank(exps: list[int]) -> int:
    steps = 0
    state: list[int] | None = exps
    while state is not None:
        state = _oracle_derive(state)
        steps += 1
    return steps


def expand(o: OrdinalCNF) -> list[int]:
    out: list[int] = []
    for e, c in o.terms:
        out.extend([e] * c)
    return out


class TestRank:
    def test_anchors(self):
        assert scattered_rank(interval("5")) == 1
        assert scattered_rank(interval("0")) == 1
        assert scattered_rank(interval("w")) == 2
        assert scattered_rank(interval("w^2*3")) == 3

    def test_two_implementation_agreement(self):
        for k in range(4):
            for m in range(1, 6):
                top = OrdinalCNF(((k, m),)) if k > 0 else OrdinalCNF.from_int(m)
                space = OrdinalCompact(top)
                assert scattered_rank(space) == oracle_rank(expand(top))

    def test_mixed_terms_agreement(self):
        for text in ("w^3 + w^2*2 + 3", "w*5 + 1", "w^2 + w", "w^3*4"):
            top = parse_ordinal(text)
            assert scattered_rank(OrdinalCompact(top)) == oracle_rank(expand(top))

    def test_closed_form_matches_derivative_iteration(self):
        # Every ordinal with leading exponent <= 6 and coefficients <= 3.
        for coeffs in itertools.product(range(4), repeat=7):
            top = OrdinalCNF(tuple((e, c) for e, c in zip(range(6, -1, -1), coeffs) if c))
            assert scattered_rank(OrdinalCompact(top)) == oracle_rank(expand(top))

    def test_huge_exponent_is_immediate(self):
        assert scattered_rank(interval("w^200000000*3 + w + 1")) == 200_000_001


class TestOrdinalLiterals:
    def test_parse_print_roundtrip(self):
        for text in ("w^2*3 + w + 4", "0", "7", "w", "w^5*2"):
            o = parse_ordinal(text)
            assert parse_ordinal(ordinal_text(o)) == o

    def test_roundtrip_past_str_limit(self):
        # A 700-digit exponent is past the lowest int-to-str limit Python permits.
        text = "w^" + "9" * 700 + "*3 + w + 4"
        with int_str_digits(640):
            o = parse_ordinal(text)
            assert ordinal_text(o) == "w^" + "9" * 700 + "*3 + w + 4"
            assert parse_ordinal(ordinal_text(o)) == o

    def test_canonical_star_one(self):
        assert parse_ordinal("w^2*3 + w*1 + 4") == parse_ordinal("w^2*3 + w + 4")

    def test_absorption(self):
        assert parse_ordinal("w + w^2") == parse_ordinal("w^2")
        assert parse_ordinal("w*2 + w*3") == parse_ordinal("w*5")

    def test_bad_literal(self):
        with pytest.raises(ValueError):
            parse_ordinal("w^-1")
        with pytest.raises(ValueError):
            parse_ordinal("w ** 2")


class TestPow2OddSet:
    def test_alphan_infinite_partitions_naturals(self):
        members = [Pow2OddSet(p) for p in range(14)]
        for m in range(1, 10_001):
            hits = [p for p, s in enumerate(members) if s.index_of(m) is not None]
            assert len(hits) == 1
        # Enumerations agree with membership.
        for s in members[:6]:
            for j in range(1, 50):
                assert s.index_of(s.element(j)) == j

    def test_first_powers(self):
        g2 = Pow2OddSet(1)
        assert [g2.element(j) for j in range(1, 5)] == [2, 6, 10, 14]
        assert g2.index_of(30) == 8
        assert g2.index_of(5) is None

    def test_index_of_matches_division(self):
        # The textbook form: m = 2**power * q with q odd, and q = 2j - 1.
        def oracle(power: int, m: int) -> int | None:
            if m < 1 or m % 2**power != 0 or (m // 2**power) % 2 == 0:
                return None
            return (m // 2**power + 1) // 2

        for power in range(12):
            s = Pow2OddSet(power)
            for m in range(-20, 20_001):
                assert s.index_of(m) == oracle(power, m), (power, m)
