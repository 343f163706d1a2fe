"""Coefficient rules n -> rational with an explicit, symbolically known limit.

Three shapes cover every tail used in the package: harmonic c/n, geometric
c*q**n with |q| < 1, and a constant.  The first two converge to 0; the
constant rule converges to itself.  Harmonic and non-negative-ratio geometric
rules keep a fixed sign with strictly decreasing magnitude, which is what
makes closed-form extrema over a tail possible; a negative ratio alternates
in sign (magnitude still decreasing).
"""

from __future__ import annotations

from fractions import Fraction

from .rational import rat
from .record import record


@record
class TailRule:
    kind: str  # "harmonic" | "geometric" | "constant"
    c: Fraction
    q: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("harmonic", "geometric", "constant"):
            raise ValueError(f"unknown tail rule kind {self.kind!r}")
        if self.kind == "geometric":
            if self.q is None or abs(self.q) >= 1:
                raise ValueError("geometric rules need a ratio q with |q| < 1")
        elif self.q is not None:
            raise ValueError(f"{self.kind} rules take no ratio")

    @staticmethod
    def harmonic(c: int | str | Fraction) -> "TailRule":
        return TailRule("harmonic", rat(c))

    @staticmethod
    def geometric(c: int | str | Fraction, q: int | str | Fraction) -> "TailRule":
        return TailRule("geometric", rat(c), rat(q))

    @staticmethod
    def zero() -> "TailRule":
        return TailRule("constant", Fraction(0))

    def value(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("tail indices are 1-based")
        if self.kind == "harmonic":
            return self.c / n
        if self.kind == "geometric":
            assert self.q is not None
            return self.c * self.q**n
        return self.c

    def limit(self) -> Fraction:
        return Fraction(0) if self.kind in ("harmonic", "geometric") else self.c
