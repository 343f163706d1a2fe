"""Ordinal derivatives/rank against a second implementation, plus the dyadic partition."""

from __future__ import annotations

import itertools

import pytest

from hahnforge.spaces import (
    EMPTY_SPACE,
    EmptySpace,
    OrdinalCNF,
    OrdinalCompact,
    Pow2OddSet,
    cb_derivative,
    parse_ordinal,
    scattered_rank,
)


def interval(text: str) -> OrdinalCompact:
    return OrdinalCompact(parse_ordinal(text))


# -- independent oracle ------------------------------------------------------
# Second implementation of the derivative iteration on a different data
# structure: the top ordinal as a descending list of exponents repeated by
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


def iterated_rank(k: OrdinalCompact) -> int:
    """Rank by applying cb_derivative until the space vanishes."""
    steps = 0
    current: OrdinalCompact | EmptySpace = k
    while not isinstance(current, EmptySpace):
        current = cb_derivative(current)
        steps += 1
    return steps


def expand(o: OrdinalCNF) -> list[int]:
    out: list[int] = []
    for e, c in o.terms:
        out.extend([e] * c)
    return out


class TestDerivative:
    def test_omega(self):
        d = cb_derivative(interval("w"))
        assert isinstance(d, OrdinalCompact)
        assert d.top == OrdinalCNF.from_int(0)

    def test_omega_squared(self):
        d = cb_derivative(interval("w^2"))
        assert d == interval("w")

    def test_finite_is_empty(self):
        assert cb_derivative(interval("5")) is EMPTY_SPACE
        assert cb_derivative(interval("0")) is EMPTY_SPACE

    def test_empty_is_distinguished_from_singleton(self):
        assert not isinstance(EMPTY_SPACE, OrdinalCompact)
        assert isinstance(cb_derivative(interval("w")), OrdinalCompact)

    def test_matches_oracle_stepwise(self):
        for text in ("w^3*2 + w*4 + 7", "w^2*5", "w + 1", "w^3 + w^2 + w + 1"):
            k = interval(text)
            exps = expand(k.top)
            while True:
                nxt = cb_derivative(k)
                oracle_nxt = _oracle_derive(exps)
                if isinstance(nxt, EmptySpace):
                    assert oracle_nxt is None
                    break
                assert expand(nxt.top) == oracle_nxt
                k, exps = nxt, oracle_nxt


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
            assert scattered_rank(OrdinalCompact(top)) == iterated_rank(OrdinalCompact(top))

    def test_huge_exponent_is_immediate(self):
        assert scattered_rank(interval("w^200000000*3 + w + 1")) == 200_000_001

    def test_derivative_decreases_cnf_key(self):
        k = interval("w^3*2 + w + 9")
        prev = k.top.key()
        while True:
            nxt = cb_derivative(k)
            if isinstance(nxt, EmptySpace):
                break
            assert nxt.top.key() < prev
            prev, k = nxt.top.key(), nxt


class TestOrdinalLiterals:
    def test_parse_print_roundtrip(self):
        for text in ("w^2*3 + w + 4", "0", "7", "w", "w^5*2"):
            o = parse_ordinal(text)
            assert parse_ordinal(str(o)) == o

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


class TestDisjointOpens:
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
