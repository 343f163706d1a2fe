"""Ordinal compacta, Cantor-Bendixson rank, and the dyadic partition of N.

Ordinals below omega**omega are kept in Cantor normal form, written in the
CLI grammar as e.g. ``w^2*3 + w + 4``.  The compact space attached to an
ordinal lam is the order-topology interval [0, lam]; its derived set is the
set of limit ordinals <= lam, which is again order-isomorphic to an interval
of ordinals, so the Cantor-Bendixson derivative stays inside the model and
every rank is a finite natural, which ``scattered_rank`` gives in closed form.

The dyadic partition ``Pow2OddSet(p)``, p = 0, 1, 2, ..., splits the
naturals into pairwise disjoint infinite sets, one per synthesis block.
"""

from __future__ import annotations

import re

from .rational import int_of
from .record import record


@record
class OrdinalCNF:
    """Cantor normal form sum(omega**e * c) with strictly decreasing naturals e."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev: int | None = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise ValueError("exponents must be naturals and coefficients >= 1")
            if prev is not None and exp >= prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp

    @staticmethod
    def from_int(n: int) -> "OrdinalCNF":
        if n < 0:
            raise ValueError("ordinal literals are non-negative")
        return OrdinalCNF(()) if n == 0 else OrdinalCNF(((0, n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "OrdinalCNF") -> "OrdinalCNF":
        """Ordinal addition: lower-order terms of the left summand are absorbed."""
        if other.is_zero:
            return self
        lead = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > lead]
        merged = list(other.terms)
        if self.terms and any(t[0] == lead for t in self.terms):
            c = next(c for e, c in self.terms if e == lead)
            merged[0] = (lead, merged[0][1] + c)
        return OrdinalCNF(tuple(kept + merged))


_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse literals like ``w^2*3 + w*1 + 4`` (evaluated as an ordinal sum)."""
    total = OrdinalCNF(())
    for raw in text.split("+"):
        part = raw.strip()
        m = _TERM_RE.match(part)
        if not m:
            raise ValueError(f"bad ordinal term {part!r}")
        if m.group(3) is not None:
            term = OrdinalCNF.from_int(int_of(m.group(3)))
        else:
            exp = int_of(m.group(1)) if m.group(1) else 1
            coeff = int_of(m.group(2)) if m.group(2) else 1
            if coeff == 0:
                raise ValueError("coefficients must be positive")
            term = OrdinalCNF(((exp, coeff),))
        total = total.add(term)
    return total


@record
class OrdinalCompact:
    """The order-topology interval [0, top]."""

    top: OrdinalCNF


def scattered_rank(k: OrdinalCompact) -> int:
    """Number of derivative iterations until the space vanishes.

    Each derivative lowers the leading exponent by one until the top is
    finite, and one more step empties a finite space, so the rank is the
    leading exponent + 1 (1 for a finite top).
    """
    terms = k.top.terms
    return terms[0][0] + 1 if terms else 1


@record
class Pow2OddSet:
    """Odd multiples of 2**power: {2**power * (2j - 1) : j >= 1}.

    Over all powers these sets partition the naturals, each natural landing in
    the set indexed by its 2-adic valuation.
    """

    power: int

    def __post_init__(self) -> None:
        if not isinstance(self.power, int) or isinstance(self.power, bool) or self.power < 0:
            raise ValueError(f"power must be a natural number, got {self.power!r}")

    def element(self, j: int) -> int:
        if j < 1:
            raise ValueError("enumeration is 1-based")
        return 2**self.power * (2 * j - 1)

    def index_of(self, m: int) -> int | None:
        if m < 1 or m & -m != 1 << self.power:
            return None
        return (m >> self.power + 1) + 1
