"""Ordinal compacta, Cantor-Bendixson rank, and disjoint open families.

Ordinals below omega**omega are kept in Cantor normal form, written in the
CLI grammar as e.g. ``w^2*3 + w + 4``.  The compact space attached to an
ordinal lam is the order-topology interval [0, lam]; its derived set is the
set of limit ordinals <= lam, which is again order-isomorphic to an interval
of ordinals, so the Cantor-Bendixson derivative stays inside the model and
every rank is a finite natural.

The disjoint open families come in two canonical flavours mirroring the two
classical cases of the construction: a space of isolated points (alphaN,
where members are infinite sets of naturals) and a space without isolated
points ([0, 1], where members are open intervals with pairwise disjoint
closures).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
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

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    @property
    def finite_value(self) -> int:
        if not self.is_finite:
            raise ValueError("ordinal is infinite")
        return self.terms[0][1] if self.terms else 0

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

    def omega_quotient(self) -> "OrdinalCNF":
        """The largest q with omega*q <= self: shift every infinite term down."""
        return OrdinalCNF(tuple((e - 1, c) for e, c in self.terms if e >= 1))

    def key(self) -> tuple[tuple[int, int], ...]:
        """Order-comparison key: CNF term lists compare lexicographically."""
        return self.terms

    def __lt__(self, other: "OrdinalCNF") -> bool:
        return self.key() < other.key()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                head = "w" if e == 1 else f"w^{e}"
                parts.append(head if c == 1 else f"{head}*{c}")
        return " + ".join(parts)


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
            term = OrdinalCNF.from_int(int(m.group(3)))
        else:
            exp = int(m.group(1)) if m.group(1) else 1
            coeff = int(m.group(2)) if m.group(2) else 1
            if coeff == 0:
                raise ValueError("coefficients must be positive")
            term = OrdinalCNF(((exp, coeff),))
        total = total.add(term)
    return total


@dataclass(frozen=True)
class OrdinalCompact:
    """The order-topology interval [0, top]."""

    top: OrdinalCNF


class EmptySpace:
    """Distinguished result of deriving a finite space; [0, 0] stays the singleton."""

    _instance: "EmptySpace | None" = None

    def __new__(cls) -> "EmptySpace":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EmptySpace()"


EMPTY_SPACE = EmptySpace()


def cb_derivative(k: OrdinalCompact) -> OrdinalCompact | EmptySpace:
    """Derived set of [0, top], re-indexed in its own order type.

    The limit points of [0, lam] are the limit ordinals omega*b <= lam, i.e.
    1 <= b <= q where q is the omega-quotient of lam.  For infinite q the set
    [1, q] is order-isomorphic to [0, q]; for finite q = m >= 1 it is the
    m-element space [0, m-1]; for q = 0 the space was discrete.
    """
    q = k.top.omega_quotient()
    if q.is_zero:
        return EMPTY_SPACE
    if q.is_finite:
        return OrdinalCompact(OrdinalCNF.from_int(q.finite_value - 1))
    return OrdinalCompact(q)


def scattered_rank(k: OrdinalCompact) -> int:
    """Number of derivative iterations until the space vanishes.

    Each derivative lowers the leading exponent by one until the top is
    finite, and one more step empties a finite space, so the rank is the
    leading exponent + 1 (1 for a finite top).
    """
    terms = k.top.terms
    return terms[0][0] + 1 if terms else 1


class NatSet:
    """Infinite subset of {1, 2, 3, ...} with an increasing enumeration."""

    is_infinite = True

    def element(self, j: int) -> int:
        raise NotImplementedError

    def index_of(self, m: int) -> int | None:
        raise NotImplementedError

    def __contains__(self, m: int) -> bool:
        return self.index_of(m) is not None

    def first(self, n: int) -> list[int]:
        return [self.element(j) for j in range(1, n + 1)]


@dataclass(frozen=True)
class Pow2OddSet(NatSet):
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
        if m < 1:
            return None
        q, scale = m, 2**self.power
        if q % scale != 0:
            return None
        q //= scale
        if q % 2 == 0:
            return None
        return (q + 1) // 2


@dataclass(frozen=True)
class ResidueSet(NatSet):
    """Naturals congruent to residue modulo modulus."""

    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1 or not (0 <= self.residue < self.modulus):
            raise ValueError("need modulus >= 1 and 0 <= residue < modulus")

    def element(self, j: int) -> int:
        if j < 1:
            raise ValueError("enumeration is 1-based")
        base = self.residue if self.residue > 0 else self.modulus
        return base + (j - 1) * self.modulus

    def index_of(self, m: int) -> int | None:
        if m < 1 or m % self.modulus != self.residue % self.modulus:
            return None
        base = self.residue if self.residue > 0 else self.modulus
        if m < base:
            return None
        return (m - base) // self.modulus + 1


@dataclass(frozen=True)
class OpenFamily:
    """Pairwise disjoint nonempty open sets in [0, 1] or in alphaN.

    For [0, 1] even the closures are pairwise disjoint.  ``count`` is None for
    the infinite families, whose members are produced on demand.
    """

    space: str
    count: int | None

    def interval_member(self, k: int) -> tuple[Fraction, Fraction]:
        if self.space != "unitInterval":
            raise ValueError("interval members exist only on the unit interval")
        if k < 1 or (self.count is not None and k > self.count):
            raise ValueError(f"member index {k} out of range")
        if self.count is None:
            # Middle third of the dyadic gap (2^-(k+1), 2^-k).
            den = 3 * 2 ** (k + 1)
            return (Fraction(4, den), Fraction(5, den))
        den = 3 * self.count
        return (Fraction(3 * (k - 1) + 1, den), Fraction(3 * (k - 1) + 2, den))

    def nat_member(self, k: int) -> NatSet:
        if self.space != "alphaN":
            raise ValueError("natural-number members exist only on alphaN")
        if k < 1 or (self.count is not None and k > self.count):
            raise ValueError(f"member index {k} out of range")
        if self.count is None:
            return Pow2OddSet(k - 1)
        return ResidueSet(self.count, k % self.count)


def disjoint_opens(space: str, count: int | str | None) -> OpenFamily:
    """Canonical disjoint open family of the requested size.

    alphaN with count=None (or "infinite") yields the partition of the
    naturals into odd multiples of powers of two; finite alphaN counts split
    by residue classes; the unit interval uses evenly spaced open intervals
    (finite case) or middle thirds of dyadic gaps (infinite case), both with
    pairwise disjoint closures.
    """
    if count == "infinite":
        count = None
    if space not in ("unitInterval", "alphaN"):
        raise ValueError(f"unknown space {space!r}")
    if count is not None:
        if not isinstance(count, int) or count < 1:
            raise ValueError("count must be a positive integer or 'infinite'")
    return OpenFamily(space, count)


def closures_disjoint(family: OpenFamily, upto: int) -> bool:
    """Exact pairwise-disjointness of interval closures for the first members."""
    n = upto if family.count is None else min(upto, family.count)
    closures = [family.interval_member(k) for k in range(1, n + 1)]
    for i in range(len(closures)):
        for j in range(i + 1, len(closures)):
            (a, b), (c, d) = closures[i], closures[j]
            if max(a, c) <= min(b, d):
                return False
    return True
