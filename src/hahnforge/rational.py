"""Exact rational scalars.

Every numeric value in this package is a :class:`fractions.Fraction`, which
keeps numerator/denominator in reduced form with a positive denominator.  No
floats enter any computation; they appear only in lossy CSV export columns.
"""

from __future__ import annotations

import sys
from fractions import Fraction

# str(int) refuses integers with more digits than sys.get_int_max_str_digits()
# (4,300 by default, never below 640, 0 for no limit).  At most 3 bits per
# permitted digit stays below the limit, so only longer integers are cut into
# base-10**500 chunks, each of which is within every permitted limit.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_STR_MAX_BITS = 3 * _DIGIT_LIMIT if _DIGIT_LIMIT else sys.maxsize
_CHUNK_DIGITS = 500
_CHUNK = 10**_CHUNK_DIGITS


def rat(value: int | str | Fraction) -> Fraction:
    """Build a rational from an int, a Fraction, or a "num/den" string of any length."""
    if isinstance(value, Fraction):
        return value
    try:
        if isinstance(value, str) and len(value) > _DIGIT_LIMIT > 0:
            num, _, den = value.partition("/")
            if num.removeprefix("-").isdecimal() and den.isdecimal():
                return Fraction(_int_of(num), _int_of(den))
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _int_of(digits: str) -> int:
    """int(digits) at any length, the inverse of int_str: two halves joined
    by a power of ten, down to int() calls of at most 500 digits."""
    if digits.startswith("-"):
        return -_int_of(digits[1:])
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _int_of(digits[:-half]) * 10**half + _int_of(digits[-half:])


def int_str(n: int) -> str:
    """The decimal digits of n, exact at any length: divmod by 10**500."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    return sign + str(n) + "".join(f"{r:0{_CHUNK_DIGITS}d}" for r in reversed(chunks))


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" rendering, always with an explicit denominator."""
    n, d = q.numerator, q.denominator
    if (abs(n) | d).bit_length() <= _STR_MAX_BITS:
        return f"{n}/{d}"
    return f"{int_str(n)}/{int_str(d)}"


def rat_float(q: Fraction) -> str:
    """Lossy decimal rendering (17 significant digits) for CSV plotting; a
    value past the float range renders as inf or -inf, as IEEE rounding does."""
    try:
        return format(float(q), ".17g")
    except OverflowError:
        return "inf" if q > 0 else "-inf"
