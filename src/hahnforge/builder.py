"""Synthesis of a separately continuous function with prescribed envelopes.

Given a finite family of continuous PL functions on [0, 1] with envelope pair
(g, h), this module assembles f : [0, 1] x alphaN -> Q whose extremal
sections over y are exactly g and h, both attained at every x.

The blending kernel is the Schwartz function sp(s, t) = 2st / (s^2 + t^2)
(0 at the origin), clamped to phi = min(1, 2|sp|).  ``phi`` works in integers
on the numerators and denominators of its arguments; ``schwartz`` is the
definition the tests check it against.  The kernel's key exact property:
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
everywhere and equal them on F_n.

The result is evaluated one x-slice at a time: ``f.slice(x)`` computes
theta(x) once and, per block, alpha(x), g_blk(x) and h_blk(x) at most once
and only when first needed; since no two blocks share a power of two,
each natural y is sent by its 2-adic valuation v2(y) to the one block that
owns it, so f(x, y) = theta(x) + side(x) * phi(alpha(x), beta(y)) costs one
block, not n.  ``f.value(x, y)`` is ``f.slice(x).value(y)``, and sampling,
the report entries, sections and continuity certificates all take one slice
per grid x.  Each PL point value is one affine map from pieces the function
derived once.

``verify_synthesis`` decides "the sections equal the envelopes" for every x
in [0, 1], not on a sample: four dominance bounds per block and two exact
RatSet containments per stage, with an x witness for each failure.  The grid
only chooses the x where the report lists evaluated witnesses y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .pairs import StableFamily, envelopes
from .plalg import (
    EMPTY_SET,
    FULL_SET,
    PLFunc,
    RatSet,
    distance_function,
    dominates,
    equality_set,
    first_containing,
    pl_max,
    pl_min,
    subset,
)
from .rational import rat, rat_float, rat_str
from .sections import INFINITY, Witness
from .spaces import Pow2OddSet


def schwartz(s: int | str | Fraction, t: int | str | Fraction) -> Fraction:
    """2st / (s^2 + t^2), extended by 0 at the origin."""
    s, t = rat(s), rat(t)
    if s == 0 and t == 0:
        return Fraction(0)
    return 2 * s * t / (s * s + t * t)


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


def bump_witness_index(a: Fraction) -> int:
    """The n with 1/(n+1) <= a <= 1/n, for 0 < a <= 1; phi(a, 1/n) = 1 there."""
    if not 0 < a <= 1:
        raise ValueError(f"need 0 < a <= 1, got {a}")
    return a.denominator // a.numerator


@dataclass(frozen=True)
class BumpMap:
    """Oscillating bump on one set of the dyadic partition, null at infinity.

    Along the increasing enumeration y_1, y_2, ... of the support the values
    are 1, -1, 1/2, -1/2, 1/3, ...: the (2k-1)-st point carries 1/k and the
    (2k)-th carries -1/k; everything off the support (and infinity) is 0.
    """

    support: Pow2OddSet

    def value(self, m: int) -> Fraction:
        j = self.support.index_of(m)
        if j is None:
            return Fraction(0)
        if j % 2 == 1:
            return Fraction(1, (j + 1) // 2)
        return Fraction(-1, j // 2)

    def point(self, j: int) -> int:
        """The j-th support point (1-based)."""
        return self.support.element(j)


@dataclass(frozen=True)
class SchwartzBlock:
    """One synthesis block: stage envelopes, stage distance, and a bump."""

    g_blk: PLFunc
    h_blk: PLFunc
    alpha: PLFunc
    beta: BumpMap

    def __post_init__(self) -> None:
        lo, hi = self.alpha.bounds()
        if lo < 0 or hi > 1:
            raise ValueError("alpha must take values in [0, 1]")
        # g_blk <= 0 <= h_blk holds everywhere iff it holds at the knots; the
        # first knot that breaks it is the witness.
        for x, v in zip(self.g_blk.breakpoints, self.g_blk.values):
            if v > 0:
                raise ValueError(f"lower stage envelope is positive at x={x}")
        for x, v in zip(self.h_blk.breakpoints, self.h_blk.values):
            if v < 0:
                raise ValueError(f"upper stage envelope is negative at x={x}")

    def value(self, x: int | str | Fraction, m: int) -> Fraction:
        return BlockSlice(self, rat(x)).value(m)


class BlockSlice:
    """One block at a fixed x; alpha(x), g_blk(x) and h_blk(x) are each
    evaluated at most once, and only when first read."""

    def __init__(self, block: SchwartzBlock, x: Fraction):
        self.block = block
        self.x = x

    @cached_property
    def alpha(self) -> Fraction:
        return self.block.alpha(self.x)

    @cached_property
    def g(self) -> Fraction:
        return self.block.g_blk(self.x)

    @cached_property
    def h(self) -> Fraction:
        return self.block.h_blk(self.x)

    def value(self, m: int) -> Fraction:
        b = self.block.beta.value(m)
        if b == 0:
            return Fraction(0)
        scale = phi(self.alpha, b)
        if scale == 0:
            return Fraction(0)
        return (self.g if b < 0 else self.h) * scale


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


@dataclass(frozen=True)
class BlockProductFunc:
    """f(x, y) = theta(x) + sum of block values; the sum vanishes at infinity.

    Each block's support is a Pow2OddSet, the odd multiples of 2**power, and
    no two blocks share a power.  These sets are pairwise disjoint, so at
    most one summand is nonzero at any natural y: the block on power v2(y),
    if there is one.  The stage sets F_1 <= ... <= F_N record where each
    stage's envelopes already agree with the global ones; the last one is
    all of [0, 1].
    """

    blocks: tuple[SchwartzBlock, ...]
    stage_sets: tuple[RatSet, ...]
    theta: PLFunc
    # {power: block index} over the block supports.
    _owners: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.stage_sets):
            raise ValueError("one stage set per block")
        if not self.blocks:
            raise ValueError("need at least one block")
        owners: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            s = b.beta.support
            if not isinstance(s, Pow2OddSet):
                raise ValueError(f"block {i + 1}: support {s!r} is not a Pow2OddSet")
            if s.power in owners:
                raise ValueError(
                    "block supports must be pairwise disjoint "
                    f"(blocks {owners[s.power] + 1} and {i + 1} meet)"
                )
            owners[s.power] = i
        object.__setattr__(self, "_owners", owners)
        for n, (cur, nxt) in enumerate(zip(self.stage_sets, self.stage_sets[1:]), start=1):
            v = subset(cur, nxt)
            if not v.ok:
                raise ValueError(
                    f"stage sets must increase: x={v.witness} is in F_{n} but not in F_{n + 1}"
                )
        v = subset(FULL_SET, self.stage_sets[-1])
        if not v.ok:
            raise ValueError(f"the last stage set must cover [0, 1], but misses x={v.witness}")

    @property
    def size(self) -> int:
        return len(self.blocks)

    def owner(self, m: int) -> int | None:
        """Index of the block whose support holds the natural m, if any:
        the block on power v2(m)."""
        if m < 1:
            return None
        return self._owners.get((m & -m).bit_length() - 1)

    def slice(self, x: int | str | Fraction) -> "ProductSlice":
        return ProductSlice(self, rat(x))

    def value(self, x: int | str | Fraction, m: int) -> Fraction:
        return self.slice(x).value(m)

    def value_at_infinity(self, x: int | str | Fraction) -> Fraction:
        return self.theta(x)

    def active_stage(self, x: int | str | Fraction) -> int:
        """Least n with x in F_n; block n attains the envelopes at x."""
        x = rat(x)
        if x < 0 or x > 1:
            raise ValueError(f"argument {x} outside the domain [0, 1]")
        return first_containing(self.stage_sets, x) + 1

    def section_values(
        self, x: int | str | Fraction
    ) -> tuple[Fraction, Fraction, Witness, Witness]:
        """Exact (min, max, min witness y, max witness y) over all of alphaN.

        Every block with alpha(x) > 0 ranges over [g_blk(x), h_blk(x)] on its
        support with both ends attained at its bump-index points; inactive
        blocks and all remaining y contribute the value at infinity.
        """
        s = self.slice(x)
        base = s.theta
        lo, hi = base, base
        lo_w: Witness = INFINITY
        hi_w: Witness = INFINITY
        for i, block in enumerate(self.blocks):
            bs = s.block(i)
            a = bs.alpha
            if a == 0:
                continue
            n = bump_witness_index(a)
            lo_cand = base + bs.g
            if lo_cand < lo:
                lo, lo_w = lo_cand, block.beta.point(2 * n)
            hi_cand = base + bs.h
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
            "stage_sets": [s.to_json() for s in self.stage_sets],
        }

    @staticmethod
    def from_json(data: dict) -> "BlockProductFunc":
        blocks = tuple(
            SchwartzBlock(
                PLFunc.from_json(_field(b, "g")),
                PLFunc.from_json(_field(b, "h")),
                PLFunc.from_json(_field(b, "alpha")),
                BumpMap(_support_from_json(_field(b, "support"))),
            )
            for b in _field(data, "blocks")
        )
        stage_sets = tuple(RatSet.from_json(s) for s in _field(data, "stage_sets"))
        return BlockProductFunc(blocks, stage_sets, PLFunc.from_json(_field(data, "theta")))

    def sample_rows(
        self, grid: Sequence[Fraction], max_y: int
    ) -> list[tuple[str, str, str, str]]:
        """(x, y, value, value_float) rows for plotting; y = "inf" included."""
        rows = []
        for x in grid:
            s = self.slice(x)
            x_str = rat_str(s.x)
            for y in range(1, max_y + 1):
                v = s.value(y)
                rows.append((x_str, str(y), rat_str(v), rat_float(v)))
            rows.append((x_str, INFINITY, rat_str(s.theta), rat_float(s.theta)))
        return rows


class ProductSlice:
    """f(x, .) for one x: theta(x) once, one lazily built BlockSlice per
    block, and each natural y sent to the one block that owns it."""

    def __init__(self, f: BlockProductFunc, x: Fraction):
        self.f = f
        self.x = x
        self.theta = f.theta(x)
        self._blocks: list[BlockSlice | None] = [None] * f.size

    def block(self, i: int) -> BlockSlice:
        """The slice of block i (0-based)."""
        bs = self._blocks[i]
        if bs is None:
            bs = self._blocks[i] = BlockSlice(self.f.blocks[i], self.x)
        return bs

    def value(self, m: int) -> Fraction:
        """theta(x) + side(x) * phi(alpha(x), beta(m)) of the block owning m."""
        i = self.f.owner(m)
        if i is None:
            return self.theta
        return self.theta + self.block(i).value(m)


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
    F_n = {g_n = g} intersect {h_n = h}.

    This F_n is the union over j, k <= n of {u_j = g} intersect {u_k = h}
    (``stage_sets_of``): since g <= g_n <= u_j for j <= n, and a finite min
    is attained, g_n(x) = g(x) exactly when some u_j(x) = g(x), so the union
    of the {u_j = g} is {g_n = g}; likewise for h, and intersection
    distributes over the two unions.  F_N = {g = g} intersect {h = h} is all
    of [0, 1] by construction.
    """
    theta = family.members[0]
    shifted = [u - theta for u in family.members]
    lowers = list(accumulate(shifted, lambda g, u: pl_min((g, u))))
    uppers = list(accumulate(shifted, lambda h, u: pl_max((h, u))))
    g_sh, h_sh = lowers[-1], uppers[-1]
    blocks = []
    stage_sets = []
    stage = EMPTY_SET  # F_{n-1} while block n is built
    for n, (g_n, h_n) in enumerate(zip(lowers, uppers), start=1):
        blocks.append(hahn_block(g_n, h_n, stage, Pow2OddSet(n - 1)))
        stage = equality_set(g_n, g_sh).intersect(equality_set(h_n, h_sh))
        stage_sets.append(stage)
    return BlockProductFunc(tuple(blocks), tuple(stage_sets), theta)


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
    s = f.slice(x)
    exceptions: list[int] = []
    for i, block in enumerate(f.blocks):
        bs = s.block(i)
        a = bs.alpha
        if a == 0:
            continue
        for magnitude, offset in ((abs(bs.h), -1), (abs(bs.g), 0)):
            if magnitude == 0 or eps > magnitude:
                continue
            tau = eps / magnitude
            k_max = int(4 / (tau * a))
            for k in range(1, k_max + 1):
                if magnitude * phi(a, Fraction(1, k)) >= eps:
                    exceptions.append(block.beta.point(2 * k + offset))
    return tuple(sorted(exceptions))


@dataclass(frozen=True)
class SectionEntry:
    x: Fraction
    g: Fraction
    h: Fraction
    min_witness: Witness
    max_witness: Witness


@dataclass(frozen=True)
class SectionReport:
    entries: tuple[SectionEntry, ...]
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
                    "x": rat_str(e.x),
                    "g": rat_str(e.g),
                    "h": rat_str(e.h),
                    "min_witness": e.min_witness,
                    "max_witness": e.max_witness,
                }
                for e in self.entries
            ],
        }


def verify_synthesis(
    f: BlockProductFunc, family: StableFamily, grid: Sequence[Fraction]
) -> SectionReport:
    """Decide that the sections of f equal the family's envelopes at every x.

    With g_sh and h_sh the family's envelopes minus theta, and F_0 empty,
    three exact checks per block n decide the claim on all of [0, 1]:

    * the four bounds g_sh <= g_blk_n <= 0 <= h_blk_n <= h_sh;
    * {alpha_n = 0} is contained in F_{n-1};
    * F_n is contained in {g_blk_n = g_sh} intersect {h_blk_n = h_sh}.

    Why they suffice: the block supports are disjoint, so f(x, y) is theta(x)
    plus one block's g_blk_n(x) or h_blk_n(x) scaled by phi in [0, 1], or
    theta(x) alone (y = inf included); by the bounds every value lies in
    [g(x), h(x)].  BlockProductFunc guarantees F_1 <= ... <= F_N = [0, 1], so
    every x has a least n with x in F_n.  Then x is not in F_{n-1}, so
    alpha_n(x) > 0 (alpha takes values in [0, 1]), and by the kernel
    saturation lemma block n takes h_blk_n(x) = h_sh(x) at bump index
    m = floor(1/alpha_n(x)) and g_blk_n(x) = g_sh(x) at its partner: both
    envelopes are attained.  ``synthesize`` makes both containments
    equalities.  Each failure names an x witness: the first knot where a
    bound breaks, or a point of the left set outside the right one (see
    ``plalg.subset``).

    The grid only sets the report entries: per grid x the active stage n,
    the witnesses y_lo = point(2m) and y_hi = point(2m-1) of block n, and
    g(x), h(x).  f.slice(x) is evaluated at both witnesses, and a value that
    misses its envelope is a failure with its x and y.
    """
    pair = envelopes(family)
    g_sh = pair.g - f.theta
    h_sh = pair.h - f.theta
    zero = PLFunc.constant(0)
    failures: list[str] = []
    previous = EMPTY_SET  # F_{n-1}
    for n, (block, stage) in enumerate(zip(f.blocks, f.stage_sets), start=1):
        for name, lo, hi in (
            ("lower", g_sh, block.g_blk),
            ("lower-zero", block.g_blk, zero),
            ("upper-zero", zero, block.h_blk),
            ("upper", block.h_blk, h_sh),
        ):
            v = dominates(lo, hi)
            if not v.ok:
                failures.append(f"block {n}: {name} envelope bound fails at x={v.witness}")
        v = subset(equality_set(block.alpha, zero), previous)
        if not v.ok:
            failures.append(f"block {n}: alpha vanishes outside F_{n - 1} at x={v.witness}")
        attained = equality_set(block.g_blk, g_sh).intersect(equality_set(block.h_blk, h_sh))
        v = subset(stage, attained)
        if not v.ok:
            failures.append(
                f"block {n}: stage envelopes leave the envelopes on F_{n} at x={v.witness}"
            )
        previous = stage
    entries: list[SectionEntry] = []
    for x_raw in grid:
        s = f.slice(x_raw)
        x = s.x
        g_x, h_x = pair.g(x), pair.h(x)
        n = f.active_stage(x)
        block = f.blocks[n - 1]
        a = s.block(n - 1).alpha
        if a == 0:
            failures.append(f"x={x}: active block {n} has vanished (alpha=0)")
            continue
        m = bump_witness_index(a)
        y_hi = block.beta.point(2 * m - 1)
        y_lo = block.beta.point(2 * m)
        v_hi = s.value(y_hi)
        v_lo = s.value(y_lo)
        if v_hi != h_x:
            failures.append(f"x={x}: f(x, {y_hi})={v_hi} misses the upper envelope {h_x}")
        if v_lo != g_x:
            failures.append(f"x={x}: f(x, {y_lo})={v_lo} misses the lower envelope {g_x}")
        entries.append(SectionEntry(x, g_x, h_x, y_lo, y_hi))
    return SectionReport(tuple(entries), tuple(failures))
