"""Exact rational scalars.

Every numeric value in this package is a :class:`fractions.Fraction`, which
keeps numerator/denominator in reduced form with a positive denominator, or,
where a grid is walked, the same reduced (num, den) pair of ints, which
``ratio_str`` and ``ratio_float`` write.  No floats enter any computation;
they appear only in lossy CSV export columns.
Decimal text becomes an ``int`` only through :func:`int_of` and is written
only through :func:`int_str`, in chunks of at most 500 digits, so no result
depends on Python's int-to-str digit limit: ``rat_str`` writes the stored
and exported form, and ``rat_text`` the form ``str(Fraction)`` prints, for
messages.  ``rat`` reads the form ``rat_str`` writes, ``-?digits/digits``,
or ``-?digits``.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Python permits no int-to-str digit limit below 640: 500-digit chunks always convert.
_CHUNK_DIGITS = 500
_CHUNK = 10**_CHUNK_DIGITS
_RAT_FORM = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat(value: int | str | Fraction) -> Fraction:
    """Build a rational from an int, a Fraction, or a "num/den" or integer string of any length."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, str):
        return Fraction(value)
    form = _RAT_FORM.fullmatch(value)
    if form is None:
        raise ValueError(f'expected "num/den" or an integer, got {value!r}')
    try:
        return Fraction(int_of(form[1]), int_of(form[2] or "1"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def int_of(digits: str) -> int:
    """int(digits) at any length, the inverse of int_str: two halves joined
    by a power of ten, down to int() calls of at most 500 digits."""
    if digits.startswith("-"):
        return -int_of(digits[1:])
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return int_of(digits[:-half]) * 10**half + int_of(digits[-half:])


def int_str(n: int) -> str:
    """The decimal digits of n, exact at any length: divmod by 10**500."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    return sign + str(n) + "".join(f"{r:0{_CHUNK_DIGITS}d}" for r in reversed(chunks))


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" rendering, always with an explicit denominator."""
    return ratio_str(q.numerator, q.denominator)


def ratio_str(num: int, den: int) -> str:
    """rat_str of num/den, given in lowest terms with den > 0."""
    return f"{int_str(num)}/{int_str(den)}"


def rat_text(q: Fraction) -> str:
    """What str(q) prints ("3/4", "0", "-2"), at any length."""
    if q.denominator == 1:
        return int_str(q.numerator)
    return ratio_str(q.numerator, q.denominator)


def ratio_float(num: int, den: int) -> str:
    """Lossy decimal rendering (17 significant digits) of num/den, for
    den > 0, for CSV plotting: num / den is correctly rounded, as
    float(Fraction) is, and a value past the float range renders as inf or
    -inf, as IEEE rounding does."""
    try:
        return format(num / den, ".17g")
    except OverflowError:
        return "inf" if num > 0 else "-inf"
