"""Extremal sections over the compactified naturals, exact and brute-force.

A separately continuous function on [0, 1] x alphaN is stored by its x-slices
over the points y_1, y_2, ... and y = infinity: finitely many explicit head
slices u_1, ..., u_N, a limit slice, and a structured tail

    u_n = limit + coeff(n) * shape          (n > N),

where coeff is a :class:`~hahnforge.tailrules.TailRule` converging to 0.  The
null tail makes every x-slice continuous on the compactification, and the
extrema over all of alphaN are attained: past the head, |coeff| decreases, so
at each x the tail contributions stay between 0 and the first one (first two,
for an alternating ratio).  Hence the exact envelopes over the whole space
are lattice envelopes of head + limit + the first one or two tail slices.

The witness of g(x) (of h(x)) is the least candidate index, in the order head,
n+1, n+2, inf, whose equality set with g (with h) holds x.  Both walkers take
a grid as ``plalg.uniform_grid`` or ``plalg.grid_pairs`` returns it, reduced
(p, q) pairs in [0, 1] that do not decrease, and walk it once as it is: one
row of pairs per grid x, with no Fraction built.

:func:`brute_sections` is the independent twin: it enumerates slices up to a
cutoff M and certifies the truncation error |coeff(M+1)| * sup|shape|.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .plalg import (
    PLFunc,
    Pair,
    cell_lines,
    equality_set,
    first_containing,
    line_value,
    pl_max,
    pl_min,
    pl_scale,
    pl_sum,
)
from .rational import ratio_float, ratio_str
from .record import record
from .tailrules import TailRule

INFINITY = "inf"
Witness = Union[int, str]
# A report row: (x, g(x), h(x), min witness, max witness) at one grid x, with
# x, g(x) and h(x) as reduced (num, den) pairs.
SectionRow = tuple[Pair, Pair, Pair, Witness, Witness]


@record
class TailFamily:
    """Slices of a separately continuous function on [0, 1] x alphaN."""

    head: tuple[PLFunc, ...]
    limit: PLFunc
    tail_coeff: TailRule
    tail_shape: PLFunc

    def __post_init__(self) -> None:
        if self.tail_coeff.limit() != 0:
            raise ValueError("tail coefficients must converge to 0")

    @property
    def head_size(self) -> int:
        return len(self.head)

    def member(self, n: int) -> PLFunc:
        """The slice over y_n (1-based)."""
        if n < 1:
            raise ValueError("slice indices are 1-based")
        if n <= len(self.head):
            return self.head[n - 1]
        c = self.tail_coeff.value(n)
        if c == 0:
            return self.limit
        return pl_sum((self.limit, pl_scale(c, self.tail_shape)))


@record
class SectionPair:
    """Exact envelopes g, h of a slice family, with one row per grid point.

    ``points`` holds the row (x, g(x), h(x), min witness, max witness) of
    each grid x, in grid order; a witness is the index attaining the min (the
    max), a 1-based natural or "inf" for the point at infinity.
    """

    g: PLFunc
    h: PLFunc
    points: tuple[SectionRow, ...]

    def rows(self) -> list[tuple[str, str, str, str, str]]:
        return [
            (ratio_str(*x), ratio_str(*g), ratio_str(*h), str(lo_w), str(hi_w))
            for x, g, h, lo_w, hi_w in self.points
        ]

    def to_json(self) -> dict:
        return {
            "grid": [
                {
                    "x": ratio_str(*x),
                    "g": ratio_str(*g),
                    "h": ratio_str(*h),
                    "g_float": ratio_float(*g),
                    "h_float": ratio_float(*h),
                    "min_witness": lo_w,
                    "max_witness": hi_w,
                }
                for x, g, h, lo_w, hi_w in self.points
            ]
        }


def _pair_from_candidates(
    candidates: Sequence[tuple[Witness, PLFunc]], grid: Sequence[Pair]
) -> SectionPair:
    """The envelopes of the candidates and their rows, from one walk of the
    grid: one ``plalg.cell_lines`` pass gives the lines of g and h at each
    x, whose values are reduced for the row, and each witness comes from
    one ``first_containing`` pass per envelope."""
    labels, fs = zip(*candidates)
    g = pl_min(fs)
    h = pl_max(fs)
    at_g = first_containing([equality_set(f, g) for f in fs], grid)
    at_h = first_containing([equality_set(f, h) for f in fs], grid)
    points = tuple(
        (x, line_value(g_line, x), line_value(h_line, x), labels[i], labels[j])
        for x, (g_line, h_line), i, j in zip(grid, cell_lines((g, h), grid), at_g, at_h)
    )
    return SectionPair(g, h, points)


def tail_sections(family: TailFamily, grid: Sequence[Pair]) -> SectionPair:
    """Exact extremal sections over all of alphaN.

    Candidate slices: the head, the limit (the value at infinity), and the
    first two tail slices.  Sign-constant coefficient rules need only the
    first; the second also covers an alternating geometric ratio, and is
    redundant but harmless otherwise.  The grid is reduced pairs,
    non-decreasing in [0, 1] (``plalg.uniform_grid``, ``plalg.grid_pairs``).
    """
    n = family.head_size
    candidates: list[tuple[Witness, PLFunc]] = [
        (i, f) for i, f in enumerate(family.head, start=1)
    ]
    candidates.append((n + 1, family.member(n + 1)))
    candidates.append((n + 2, family.member(n + 2)))
    candidates.append((INFINITY, family.limit))
    return _pair_from_candidates(candidates, grid)


def brute_sections(
    family: TailFamily, m: int, grid: Sequence[Pair]
) -> tuple[SectionPair, Fraction]:
    """Envelopes over the slices up to index m plus infinity, with error bound.

    Every omitted slice differs from the limit by at most
    B(m) = |coeff(m+1)| * sup|shape| pointwise, so the true sections lie
    within B(m) of the computed ones.  For a sign-constant coefficient rule
    the result is already exact at m = head_size + 1.  The grid is as for
    ``tail_sections``.
    """
    if m <= family.head_size:
        raise ValueError("cutoff must exceed the head size")
    candidates: list[tuple[Witness, PLFunc]] = [
        (i, family.member(i)) for i in range(1, m + 1)
    ]
    candidates.append((INFINITY, family.limit))
    pair = _pair_from_candidates(candidates, grid)
    sup_shape = max(abs(v) for v in family.tail_shape.values)
    bound = abs(family.tail_coeff.value(m + 1)) * sup_shape
    return pair, bound
