"""Synthesis of a separately continuous function with prescribed envelopes.

Given a finite family of continuous PL functions on [0, 1] with envelope pair
(g, h), this module assembles f : [0, 1] x alphaN -> Q whose extremal
sections over y are exactly g and h, both attained at every x.

The blending kernel is the Schwartz function sp(s, t) = 2st / (s^2 + t^2)
(0 at the origin), clamped to phi = min(1, 2|sp|).  ``phi`` works in integers
on the numerators and denominators of its arguments; the tests check it
against the definition of sp.  The kernel's key exact property:
whenever 1/(n+1) <= a <= 1/n, sp(a, 1/n) >= n/(n+1) >= 1/2, so
phi(a, 1/n) = 1.  Each synthesis block combines

* a pair g_blk <= 0 <= h_blk of stage envelopes on [0, 1],
* alpha = min(1, dist(. , A)) for a stage set A (zero set exactly A), and
* an oscillating bump beta on an infinite set of naturals G, taking 1/k at
  the (2k-1)-st point of G and -1/k at the (2k)-th,

into the block value h_blk(x) * phi(alpha(x), beta(y)) where beta(y) >= 0 and
g_blk(x) * phi(...) where beta(y) < 0.  The block vanishes on A x alphaN and
off G, stays inside [g_blk(x), h_blk(x)], and for x outside A attains both
ends at the bump points with index n = floor(1 / alpha(x)).

The pipeline shifts the family by its first member, so the shifted first
member is identically 0 and every running envelope straddles 0.  One pass
folds the stage envelopes g_n = min(g_{n-1}, u_n) and h_n = max(h_{n-1}, u_n)
from g_1 = h_1 = 0, whose last pair is the shifted envelope pair (g, h); it
builds block n from (g_n, h_n) and the previous stage set on the odd
multiples of 2^(n-1), its member of the dyadic partition of the naturals,
and takes the stage set F_n = {g_n = g} intersect {h_n = h}.  The shift is
added back at the end.  Stage envelopes lie between the global envelopes
everywhere and equal them on F_n.  F_{n-1} = {alpha_n = 0}, so the stored
form is the blocks and theta.

The result is evaluated by one grid walk.  A grid is the reduced (p, q) of
each x, non-decreasing in [0, 1], as ``plalg.uniform_grid`` builds it or
``plalg.grid_pairs`` checks xs that arrive as Fractions, and every walker
reads it as it is.  ``plalg.cell_lines`` walks it by runs for theta and the
block functions a caller reads, with one cursor over the cells of their
merged knots: each run of consecutive xs in one cell gets the line
(a, b, d) of each function there once, and the value (a*p + b*q, d*q) at
each x of the run is reduced only where it is written.  Block n sits on
Pow2OddSet(n - 1), so each natural y = 2^i (2j - 1) is sent by its 2-adic
valuation i to block i + 1, the one block that owns it, with bump
beta(y) = 1/k on the side h_blk for odd j and -1/k on the side g_blk for
even j, k = ceil(j/2) (``locate``).  The value
f(x, y) = theta(x) + side(x) * phi(alpha(x), beta(y)) is then one integer
kernel, ``slice_value``: with theta = a/b, alpha = p/q and side = c/d, it
forms N = 4|p|qk and D = (pk)^2 + q^2, the clamp N >= D (scale 1) is one
integer comparison, and it returns (a*d*D + c*N*b, b*d*D) unreduced; the
caller reduces it where it writes it.  Scaling any pair scales N and D
alike, so the kernel takes theta, alpha and the side unreduced.  The kernel
assumes no saturation: it evaluates phi at every y, so the values
verify_synthesis reads at its witnesses check the saturation lemma rather
than restate it.  ``phi`` stays the definitional form, and the tests hold
the kernel to it.  A single x is the one-point grid (``f.at``), one run:
``f.value(x, y)`` walks theta and the block that owns y there and returns
the kernel's pair as a Fraction, and sections and continuity certificates
walk every block once per x.  The CSV export walks theta and the blocks its
y can reach (``BlockProductFunc.walk``), and the report walks the runs of
one active stage (``first_containing``) and, once over the whole grid,
theta, the envelopes and each block that is active somewhere on it.
Neither builds a Fraction per grid point: the CSV export plans its ys once
per call, by block and side, fills each side of a block with alpha > 0 from
the kernel's integer pairs, and writes each distinct pair once per x; the
report compares each witness value with its envelope by cross-multiplying
and keeps each entry as a row of pairs.

``verify_synthesis`` decides "the sections equal the envelopes" for every x
in [0, 1], not on a sample: two envelope bounds and one exact RatSet
containment per block, with an x witness for each failure.  The grid only
chooses the x where the report lists evaluated witnesses y.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd
from typing import Collection, Iterable, Iterator, Sequence

from .pairs import StableFamily, envelopes
from .plalg import (
    EMPTY_SET,
    FULL_SET,
    Line,
    PLFunc,
    Pair,
    RatSet,
    cell_lines,
    distance_function,
    dominates,
    equality_set,
    first_containing,
    grid_pairs,
    line_value,
    pl_max,
    pl_min,
    pl_neg,
    pl_sum,
    subset,
)
from .rational import int_str, rat, rat_text, ratio_float, ratio_str
from .record import record
from .sections import INFINITY, SectionRow, Witness
from .spaces import Pow2OddSet


def phi(s: int | str | Fraction, t: int | str | Fraction) -> Fraction:
    """min(1, 2|sp(s, t)|): the [0, 1]-clamped blending kernel.

    Computed in integers: with s = p/q and t = r/w,
    2|sp(s, t)| = 4|pr|qw / ((pw)^2 + (rq)^2), so the clamp is one integer
    comparison and at most one Fraction is built.
    """
    s, t = rat(s), rat(t)
    p, q = s.numerator, s.denominator
    r, w = t.numerator, t.denominator
    num = 4 * abs(p * r) * q * w
    if num == 0:
        return Fraction(0)
    den = (p * w) ** 2 + (r * q) ** 2
    return Fraction(1) if num >= den else Fraction(num, den)


def slice_value(a: int, b: int, p: int, q: int, c: int, d: int, k: int) -> Pair:
    """theta + side * phi(alpha, +-1/k) as (num, den) with den > 0, not
    reduced, for theta = a/b, alpha = p/q and side = c/d with b, q, d > 0.

    phi(p/q, +-1/k) = min(1, N/D) with N = 4|p|qk and D = (pk)^2 + q^2, as
    ``phi`` computes it with r/w = +-1/k; the clamp is one integer
    comparison, and the sum is (a*d*D + c*N*b) / (b*d*D), or (a, b), theta
    alone, where phi or the side is 0.  No operand need be in lowest terms:
    scaling a pair scales N and D alike, so neither the clamp nor the value
    changes.  A saturated value, phi = 1, is the same pair for every k.
    """
    if p == 0 or c == 0:
        return a, b
    num = 4 * abs(p) * q * k
    den = (p * k) ** 2 + q * q
    if num >= den:
        num = den = 1
    return a * d * den + c * num * b, b * d * den


def bump_witness_index(p: int, q: int) -> int:
    """The n with 1/(n+1) <= a <= 1/n, for a = p/q with q > 0 and
    0 < a <= 1: floor(q/p); phi(a, 1/n) = 1 there."""
    if not 0 < p <= q:
        raise ValueError(f"need 0 < a <= 1, got {rat_text(Fraction(p, q))}")
    return q // p


@record
class BumpMap:
    """Oscillating bump on one set of the dyadic partition, null at infinity.

    Along the increasing enumeration y_1, y_2, ... of the support the values
    are 1, -1, 1/2, -1/2, 1/3, ...: the (2k-1)-st point carries 1/k and the
    (2k)-th carries -1/k; everything off the support (and infinity) is 0.
    """

    support: Pow2OddSet

    def bump(self, m: int) -> tuple[int, bool] | None:
        """(k, upper) with beta(m) = 1/k if upper else -1/k; None off the support."""
        j = self.support.index_of(m)
        if j is None:
            return None
        return (j + 1) // 2, j % 2 == 1

    def value(self, m: int) -> Fraction:
        bump = self.bump(m)
        if bump is None:
            return Fraction(0)
        k, upper = bump
        return Fraction(1 if upper else -1, k)

    def point(self, j: int) -> int:
        """The j-th support point (1-based)."""
        return self.support.element(j)


@record
class SchwartzBlock:
    """One synthesis block: stage envelopes, stage distance, and a bump."""

    g_blk: PLFunc
    h_blk: PLFunc
    alpha: PLFunc
    beta: BumpMap

    def __post_init__(self) -> None:
        # Each holds everywhere iff it holds at the knots, whose values are
        # reduced pairs (num, den) with den > 0, so each comparison is of
        # signs; for the envelopes the first knot that breaks it is the witness.
        if any(n < 0 or n > d for n, d in self.alpha.knot_values):
            raise ValueError("alpha must take values in [0, 1]")
        for x, (n, _) in zip(self.g_blk.line_form[0], self.g_blk.knot_values):
            if n > 0:
                raise ValueError(f"lower stage envelope is positive at x={rat_text(Fraction(*x))}")
        for x, (n, _) in zip(self.h_blk.line_form[0], self.h_blk.knot_values):
            if n < 0:
                raise ValueError(f"upper stage envelope is negative at x={rat_text(Fraction(*x))}")

    def value(self, x: int | str | Fraction, m: int) -> Fraction:
        """side(x) * phi(alpha(x), beta(m)): ``slice_value`` with theta = 0."""
        bump = self.beta.bump(m)
        if bump is None:  # off the support: no point value is needed
            return Fraction(0)
        k, upper = bump
        alpha, g, h = _point_values((self.alpha, self.g_blk, self.h_blk), x)
        return Fraction(*slice_value(0, 1, *alpha, *(h if upper else g), k))


def _point_values(fs: Sequence[PLFunc], x: int | str | Fraction) -> list[Pair]:
    """f(x) for each f of fs, as reduced pairs: ``plalg.cell_lines`` on the
    one-point grid, one run; a ValueError names an x outside [0, 1]."""
    grid = grid_pairs([rat(x)])
    ((_, cell),) = cell_lines(fs, grid)
    return [line_value(line, grid[0]) for line in cell]


def hahn_block(g_blk: PLFunc, h_blk: PLFunc, a: RatSet, support: Pow2OddSet) -> SchwartzBlock:
    """Block vanishing on a x alphaN and off its support, attaining g_blk/h_blk.

    Requires g_blk <= 0 <= h_blk (SchwartzBlock rejects a violation with its
    first offending knot).  For x outside a, with n = floor(1/alpha(x)),
    the block takes h_blk(x) at the (2n-1)-st support point and g_blk(x) at
    the (2n)-th.
    """
    return SchwartzBlock(g_blk, h_blk, distance_function(a), BumpMap(support))


def _field(data: object, key: str):
    """data[key] of a stored JSON object; a ValueError if data is not an
    object or lacks the key."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with key {key!r}, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    return data[key]


def _support_from_json(data: dict) -> Pow2OddSet:
    kind = _field(data, "kind")
    if kind != "pow2odd":
        raise ValueError(f"unknown support kind {kind!r}")
    return Pow2OddSet(_field(data, "power"))


@record
class BlockProductFunc:
    """f(x, y) = theta(x) + sum of block values; the sum vanishes at infinity.

    Block n (1-based) sits on Pow2OddSet(n - 1), the odd multiples of
    2**(n - 1), and on nothing else.  These sets are pairwise disjoint, so at
    most one summand is nonzero at any natural y: block v2(y) + 1, if there
    is one.  The blocks and theta are the whole stored form; the stage sets,
    where each stage's envelopes already agree with the global ones, are
    derived from the alphas.
    """

    blocks: tuple[SchwartzBlock, ...]
    theta: PLFunc

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("need at least one block")
        for n, b in enumerate(self.blocks, start=1):
            s = b.beta.support
            if s != Pow2OddSet(n - 1):
                raise ValueError(f"block {n}: support {s!r} is not Pow2OddSet({n - 1})")

    @cached_property
    def stage_sets(self) -> tuple[RatSet, ...]:
        """F_n = {alpha_{n+1} = 0}, as alpha_{n+1} = min(1, dist(., F_n)); F_N = [0, 1]."""
        zero = PLFunc.constant(0)
        return tuple(equality_set(b.alpha, zero) for b in self.blocks[1:]) + (FULL_SET,)

    @property
    def size(self) -> int:
        return len(self.blocks)

    def owner(self, m: int) -> int | None:
        """Index of the block whose support holds the natural m, if any: the
        block at index i sits on Pow2OddSet(i), so it is v2(m) when v2(m) < size."""
        p = (m & -m).bit_length() - 1
        return p if m > 0 and p < len(self.blocks) else None

    def locate(self, m: int) -> tuple[int, int, bool] | None:
        """(i, k, upper) for the natural m: block i (0-based) owns m, and its
        bump is beta(m) = 1/k if upper else -1/k; None if no block owns m."""
        i = self.owner(m)
        if i is None:
            return None
        return (i, *self.blocks[i].beta.bump(m))

    def walk(
        self, grid: Sequence[Pair], listed: Iterable[int]
    ) -> Iterator[tuple[int, Line, list[tuple[Line, Line, Line]]]]:
        """The runs of a grid (reduced pairs, non-decreasing in [0, 1]) over
        the cells of theta and the listed blocks (0-based): (stop, theta's
        line, the lines (alpha, g_blk, h_blk) of each listed block, in the
        order listed) for each run grid[start:stop] of xs in one cell, from
        one ``plalg.cell_lines`` walk over all of them."""
        fs = [self.theta]
        for i in listed:
            b = self.blocks[i]
            fs += (b.alpha, b.g_blk, b.h_blk)
        for stop, cell in cell_lines(fs, grid):
            yield stop, cell[0], list(zip(cell[1::3], cell[2::3], cell[3::3]))

    def at(
        self, x: int | str | Fraction, listed: Collection[int]
    ) -> tuple[Pair, list[tuple[Pair, Pair, Pair]]]:
        """theta(x) and the (alpha, g_blk, h_blk) of each listed block
        (0-based), in the order listed, as reduced pairs: ``walk`` on the
        one-point grid, one run; a ValueError names an x outside [0, 1]."""
        grid = grid_pairs([rat(x)])
        ((_, theta, terms),) = self.walk(grid, listed)
        (point,) = grid
        return line_value(theta, point), [
            (line_value(alpha, point), line_value(g, point), line_value(h, point))
            for alpha, g, h in terms
        ]

    def value(self, x: int | str | Fraction, m: int) -> Fraction:
        """theta(x) + side(x) * phi(alpha(x), beta(m)) of the block owning m
        (``locate``), from ``slice_value``; theta(x) if no block owns m."""
        where = self.locate(m)
        theta, terms = self.at(x, () if where is None else where[:1])
        if where is None:
            return Fraction(*theta)
        _, k, upper = where
        ((alpha, g, h),) = terms
        return Fraction(*slice_value(*theta, *alpha, *(h if upper else g), k))

    def value_at_infinity(self, x: int | str | Fraction) -> Fraction:
        return self.theta(x)

    def active_stage(self, x: int | str | Fraction) -> int:
        """Least n with x in F_n; block n attains the envelopes at x."""
        ((_, i),) = first_containing(self.stage_sets, grid_pairs([rat(x)]))
        return i + 1

    def section_values(
        self, x: int | str | Fraction
    ) -> tuple[Fraction, Fraction, Witness, Witness]:
        """Exact (min, max, min witness y, max witness y) over all of alphaN.

        Every block with alpha(x) > 0 ranges over [g_blk(x), h_blk(x)] on its
        support with both ends attained at its bump-index points; inactive
        blocks and all remaining y contribute the value at infinity.
        """
        theta, terms = self.at(x, range(self.size))
        base = Fraction(*theta)
        lo, hi = base, base
        lo_w: Witness = INFINITY
        hi_w: Witness = INFINITY
        for block, (alpha, g, h) in zip(self.blocks, terms):
            if alpha[0] == 0:
                continue
            n = bump_witness_index(*alpha)
            lo_cand = base + Fraction(*g)
            if lo_cand < lo:
                lo, lo_w = lo_cand, block.beta.point(2 * n)
            hi_cand = base + Fraction(*h)
            if hi_cand > hi:
                hi, hi_w = hi_cand, block.beta.point(2 * n - 1)
        return lo, hi, lo_w, hi_w

    def to_json(self) -> dict:
        return {
            "theta": self.theta.to_json(),
            "blocks": [
                {
                    "g": b.g_blk.to_json(),
                    "h": b.h_blk.to_json(),
                    "alpha": b.alpha.to_json(),
                    "support": {"kind": "pow2odd", "power": b.beta.support.power},
                }
                for b in self.blocks
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "BlockProductFunc":
        """Read what to_json writes; a "stage_sets" key of older files is ignored."""
        stored = _field(data, "blocks")
        if not isinstance(stored, list):
            raise ValueError(f"expected a list under key 'blocks', got {type(stored).__name__}")
        blocks = tuple(
            SchwartzBlock(
                PLFunc.from_json(_field(b, "g")),
                PLFunc.from_json(_field(b, "h")),
                PLFunc.from_json(_field(b, "alpha")),
                BumpMap(_support_from_json(_field(b, "support"))),
            )
            for b in stored
        )
        return BlockProductFunc(blocks, PLFunc.from_json(_field(data, "theta")))

    def sample_rows(
        self, grid: Sequence[Pair], max_y: int
    ) -> list[tuple[str, str, str, str]]:
        """(x, y, value, value_float) rows for plotting at each x of the grid
        (reduced pairs, non-decreasing in [0, 1]); y = "inf" included.  A
        y <= max_y has v2(y) < max_y.bit_length(), so only the blocks below
        that index are walked.

        The ys are planned once per call: ``locate`` splits those a block
        owns into its lower (g_blk) and upper (h_blk) side, each with its
        row and bump index k.  One walk of the grid (``walk``) gives, per
        run of xs in one cell, the lines of theta and of each walked block's
        alpha, g_blk and h_blk, paired with the block's planned sides once
        per run.  theta(x) is reduced, and every cell starts as theta's.  A
        block with alpha = 0, or a side whose value is 0, leaves its rows at
        theta; where both are nonzero the bump term is nonzero, so the value
        is never theta, and it comes from ``slice_value`` on the unreduced
        alpha and side.  Each distinct pair ``slice_value`` returns is
        reduced and written once per x (``ratio_str``, ``ratio_float``): a
        saturated value, phi = 1, is the same pair for every k of its side.
        No Fraction is built, and every cell is a str, as the CLI's CSV
        writer requires.
        """
        reach = range(min(self.size, max_y.bit_length()))
        sides: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = [([], []) for _ in reach]
        for row, y in enumerate(range(1, max_y + 1)):
            where = self.locate(y)
            if where is not None:
                i, k, upper = where
                sides[i][upper].append((row, k))
        ys = [int_str(y) for y in range(1, max_y + 1)] + [INFINITY]
        rows: list[tuple[str, str, str, str]] = []
        start = 0
        for stop, theta, terms in self.walk(grid, reach):
            walked = list(zip(terms, sides))
            for x in grid[start:stop]:
                xp, xq = x
                a, b = line_value(theta, x)
                values = [ratio_str(a, b)] * len(ys)
                floats = [ratio_float(a, b)] * len(ys)
                written: dict[Pair, tuple[str, str]] = {}
                for ((aa, ab, ad), lower, upper), (on_lower, on_upper) in walked:
                    p = aa * xp + ab * xq
                    if p == 0:
                        continue
                    q = ad * xq
                    for (ca, cb, cd), on_side in ((lower, on_lower), (upper, on_upper)):
                        c = ca * xp + cb * xq
                        if c == 0:
                            continue
                        d = cd * xq
                        for row, k in on_side:
                            pair = slice_value(a, b, p, q, c, d, k)
                            cells = written.get(pair)
                            if cells is None:
                                common = gcd(*pair)
                                top, bottom = pair[0] // common, pair[1] // common
                                cells = (ratio_str(top, bottom), ratio_float(top, bottom))
                                written[pair] = cells
                            values[row], floats[row] = cells
                rows += zip(repeat(ratio_str(*x)), ys, values, floats)
            start = stop
        return rows


# The definitional forms of the stage envelopes and stage sets, recomputed
# from the members for every n; synthesize derives both in one pass, and the
# tests hold it to these.
# bench/spans.py wraps both by name: keep them while its metrics use them.
def stage_envelopes(shifted: Sequence[PLFunc], n: int) -> tuple[PLFunc, PLFunc]:
    """(min(0, min of the first n), max(0, max of the first n)) exactly."""
    zero = PLFunc.constant(0)
    members = list(shifted[:n])
    return pl_min([zero] + members), pl_max([zero] + members)


def stage_sets_of(shifted: Sequence[PLFunc], g_sh: PLFunc, h_sh: PLFunc) -> list[RatSet]:
    """F_n = union over j, k <= n of {u_j = g} intersect {u_k = h}."""
    a_sets = [equality_set(u, g_sh) for u in shifted]
    b_sets = [equality_set(u, h_sh) for u in shifted]
    out: list[RatSet] = []
    current = EMPTY_SET
    for n in range(1, len(shifted) + 1):
        for j in range(n):
            current = current.union(a_sets[j].intersect(b_sets[n - 1]))
        for k in range(n - 1):
            current = current.union(a_sets[n - 1].intersect(b_sets[k]))
        out.append(current)
    return out


def synthesize(family: StableFamily) -> BlockProductFunc:
    """Build f on [0, 1] x alphaN whose sections over y are the envelopes.

    One pass over the shifted members u_1 = 0, u_2, ..., u_N: the running
    envelopes g_n = min(g_{n-1}, u_n) and h_n = max(h_{n-1}, u_n) start from
    g_1 = h_1 = u_1 and end at the shifted envelope pair (g, h) = (g_N, h_N).
    Block n is built from g_n <= 0 <= h_n, the distance to F_{n-1}, and the
    odd multiples of 2^(n-1) (``Pow2OddSet(n - 1)``); then
    F_n = {g_n = g} intersect {h_n = h}.  The members are shifted by one sum
    each with -theta, built once.

    This F_n is the union over j, k <= n of {u_j = g} intersect {u_k = h}
    (``stage_sets_of``): since g <= g_n <= u_j for j <= n, and a finite min
    is attained, g_n(x) = g(x) exactly when some u_j(x) = g(x), so the union
    of the {u_j = g} is {g_n = g}; likewise for h, and intersection
    distributes over the two unions.  F_N = {g = g} intersect {h = h} is all
    of [0, 1] by construction and not computed, as no block reads it.  F_n
    is not kept: it is {alpha_{n+1} = 0}.
    """
    theta = family.members[0]
    minus_theta = pl_neg(theta)
    shifted = [pl_sum((u, minus_theta)) for u in family.members]
    lowers = list(accumulate(shifted, lambda g, u: pl_min((g, u))))
    uppers = list(accumulate(shifted, lambda h, u: pl_max((h, u))))
    g_sh, h_sh = lowers[-1], uppers[-1]
    blocks = []
    stage = EMPTY_SET  # F_{n-1} while block n is built
    for n, (g_n, h_n) in enumerate(zip(lowers, uppers), start=1):
        blocks.append(hahn_block(g_n, h_n, stage, Pow2OddSet(n - 1)))
        if n < len(lowers):
            stage = equality_set(g_n, g_sh).intersect(equality_set(h_n, h_sh))
    return BlockProductFunc(tuple(blocks), theta)


def continuity_certificate(
    f: BlockProductFunc, x: int | str | Fraction, eps: int | str | Fraction
) -> tuple[int, ...]:
    """All naturals y where f(x, y) deviates from f(x, infinity) by >= eps.

    Solved in closed form per block and bump parity: the deviation at the
    k-th positive (negative) bump point is |h_blk(x)| * phi(a, 1/k)
    (|g_blk(x)| * phi(a, 1/k)) with a = alpha(x), and phi(a, 1/k) >= eps/c
    forces k <= 4c/(eps*a), so an exact scan up to that threshold finds the
    full exception set.  Off the returned set every slice value is within eps
    of the value at infinity.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, terms = f.at(x, range(f.size))
    exceptions: list[int] = []
    for block, term in zip(f.blocks, terms):
        a, g, h = (Fraction(*v) for v in term)
        if a == 0:
            continue
        for magnitude, offset in ((abs(h), -1), (abs(g), 0)):
            if magnitude == 0 or eps > magnitude:
                continue
            tau = eps / magnitude
            k_max = int(4 / (tau * a))
            for k in range(1, k_max + 1):
                if magnitude * phi(a, Fraction(1, k)) >= eps:
                    exceptions.append(block.beta.point(2 * k + offset))
    return tuple(sorted(exceptions))


@record
class SectionReport:
    rows: tuple[SectionRow, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "entries": [
                {
                    "x": ratio_str(*x),
                    "g": ratio_str(*g),
                    "h": ratio_str(*h),
                    "min_witness": lo,
                    "max_witness": hi,
                }
                for x, g, h, lo, hi in self.rows
            ],
        }


def verify_synthesis(
    f: BlockProductFunc, family: StableFamily, grid: Sequence[Pair]
) -> SectionReport:
    """Decide that the sections of f equal the family's envelopes at every x.

    With g_sh, h_sh the envelopes minus theta, F_0 empty and F_n = {alpha_{n+1} = 0}
    (``BlockProductFunc.stage_sets``), these exact checks decide all of [0, 1]:

    * per block n, the bounds g_sh <= g_blk_n and h_blk_n <= h_sh (the zero
      bounds g_blk_n <= 0 <= h_blk_n are checked when SchwartzBlock is built);
    * {alpha_1 = 0} is contained in F_0, that is, empty;
    * per block n, F_n is contained in {g_blk_n = g_sh} intersect {h_blk_n = h_sh}.

    Why they suffice: the block supports are disjoint, so f(x, y) is theta(x)
    plus one block's g_blk_n(x) or h_blk_n(x) scaled by phi in [0, 1], or
    theta(x) alone (y = inf included); by the bounds every value lies in
    [g(x), h(x)].  As F_N = [0, 1], every x has a least n with x in F_n; x
    is not in F_{n-1}, which holds {alpha_n = 0}, so alpha_n(x) > 0 (alpha
    is never negative), and by the kernel saturation lemma block n takes
    h_blk_n(x) = h_sh(x) at bump index m = floor(1/alpha_n(x)) and
    g_blk_n(x) = g_sh(x) at its partner: both envelopes are attained.  Each
    failure names an x witness: the first knot where a bound breaks, or a
    point of the left set outside the right one (see ``plalg.subset``).

    The grid, reduced pairs non-decreasing in [0, 1] (``plalg.uniform_grid``,
    ``plalg.grid_pairs``), only sets the report entries: per grid x the
    active stage n, the witnesses y_lo = point(2m) and y_hi = point(2m-1) of
    block n, and g(x), h(x).  f(x, .) is evaluated at both witnesses, and a
    value that misses its envelope is a failure with its x and y.

    The grid is walked forward once, as it is, by runs: one
    ``first_containing`` pass splits it into runs of one active stage, and
    one ``plalg.cell_lines`` walk splits it into runs of one cell of theta,
    g, h and the alpha, g_blk and h_blk of each block that is active
    somewhere on the grid, in block order, so every cursor passes its knots
    once however often the active stage changes.  Where a stage run and a
    cell run overlap, the six lines are bound once, the active block's three
    from its fixed offset in the cell, and each x of the overlap is
    evaluated on them.  g(x) and h(x) are reduced for the row; theta, alpha
    and the sides go to ``slice_value`` unreduced.  The bump index
    m = floor(1/alpha(x)) is q // p on alpha's pair, reduced or not.  Block
    n sits on Pow2OddSet(n - 1), so it owns both witnesses, with bump 1/m at
    y_hi and -1/m at y_lo; with its unit 2^(n-1), taken once per stage run,
    y_hi = unit * (4m - 3) and y_lo = unit * (4m - 1).  Each witness value
    is ``slice_value``, as f computes it, and it is compared with its
    envelope by cross-multiplying, with no gcd.  Each entry is kept as the
    row (x, g(x), h(x), y_lo, y_hi), with x, g(x) and h(x) as pairs, and a
    value is reduced, and a Fraction built, only for a failure line.  The
    shift -theta is built once, for both envelopes.
    """
    pair = envelopes(family)
    minus_theta = pl_neg(f.theta)
    g_sh, h_sh = pl_sum((pair.g, minus_theta)), pl_sum((pair.h, minus_theta))
    failures: list[str] = []
    v = subset(equality_set(f.blocks[0].alpha, PLFunc.constant(0)), EMPTY_SET)
    if not v.ok:
        failures.append(f"block 1: alpha vanishes outside F_0 at x={rat_text(v.witness)}")
    for n, (block, stage) in enumerate(zip(f.blocks, f.stage_sets), start=1):
        for name, lo, hi in (("lower", g_sh, block.g_blk), ("upper", block.h_blk, h_sh)):
            v = dominates(lo, hi)
            if not v.ok:
                failures.append(
                    f"block {n}: {name} envelope bound fails at x={rat_text(v.witness)}"
                )
        attained = equality_set(block.g_blk, g_sh).intersect(equality_set(block.h_blk, h_sh))
        v = subset(stage, attained)
        if not v.ok:
            failures.append(
                f"block {n}: stage envelopes leave the envelopes on F_{n}"
                f" at x={rat_text(v.witness)}"
            )
    rows: list[SectionRow] = []
    stages = first_containing(f.stage_sets, grid)
    # Block i's alpha, g_blk and h_blk are lines offset[i] to offset[i] + 2
    # of each cell.
    walked = sorted({i for _, i in stages})
    offset = {i: 3 * k for k, i in enumerate(walked, start=1)}
    fs = [f.theta, pair.g, pair.h]
    for i in walked:
        b = f.blocks[i]
        fs += b.alpha, b.g_blk, b.h_blk
    runs = cell_lines(fs, grid)
    start = cell_stop = 0
    for stop, i in stages:
        at = offset[i]
        # Block i sits on Pow2OddSet(i), so it owns both witnesses, with
        # bump 1/m at y_hi = point(2m - 1) and -1/m at y_lo = point(2m);
        # point(j) = unit * (2j - 1), and m >= 1.
        unit = 1 << i
        while start < stop:
            if start == cell_stop:
                cell_stop, lines = next(runs)
            end = min(stop, cell_stop)
            (t1, t2, t3), g, h = lines[:3]
            (a1, a2, a3), (lc, le, ld), (uc, ue, ud) = lines[at : at + 3]
            for x in grid[start:end]:
                p, q = x
                a_num = a1 * p + a2 * q
                if a_num == 0:
                    failures.append(
                        f"x={rat_text(Fraction(*x))}: active block {i + 1} has vanished (alpha=0)"
                    )
                    continue
                a_den = a3 * q
                m = bump_witness_index(a_num, a_den)
                t_num, t_den = t1 * p + t2 * q, t3 * q
                g_x, h_x = line_value(g, x), line_value(h, x)
                y_hi = unit * (4 * m - 3)
                y_lo = unit * (4 * m - 1)
                upper = slice_value(t_num, t_den, a_num, a_den, uc * p + ue * q, ud * q, m)
                lower = slice_value(t_num, t_den, a_num, a_den, lc * p + le * q, ld * q, m)
                # Denominators are positive, so a value equals its envelope
                # iff the cross products do.
                if upper[0] * h_x[1] != h_x[0] * upper[1] or lower[0] * g_x[1] != g_x[0] * lower[1]:
                    witnesses = (("upper", y_hi, upper, h_x), ("lower", y_lo, lower, g_x))
                    for name, y, v, env in witnesses:
                        if v[0] * env[1] != env[0] * v[1]:
                            failures.append(
                                f"x={rat_text(Fraction(*x))}: f(x, {int_str(y)})="
                                f"{rat_text(Fraction(*v))} misses the {name} envelope"
                                f" {rat_text(Fraction(*env))}"
                            )
                rows.append((x, g_x, h_x, y_lo, y_hi))
            start = end
    return SectionReport(tuple(rows), tuple(failures))
