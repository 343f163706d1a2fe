"""Exact rational scalars.

Every numeric value in this package is a :class:`fractions.Fraction`, which
keeps numerator/denominator in reduced form with a positive denominator.  No
floats enter any computation; they appear only in lossy CSV export columns.
"""

from __future__ import annotations

from fractions import Fraction


def rat(value: int | str | Fraction) -> Fraction:
    """Build a rational from an int, a Fraction, or a "num/den" string."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" rendering, always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def rat_float(q: Fraction) -> str:
    """Lossy decimal rendering (17 significant digits) for CSV plotting."""
    return format(float(q), ".17g")
