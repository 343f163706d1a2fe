"""Envelope pairs of finite continuous families.

A finite ordered family u_1, ..., u_N of PL functions determines the envelope
pair (g, h) = (pointwise min, pointwise max).  Because the family is finite,
both envelopes are attained at every point, and the partial envelopes
min/max over the first k members stabilize at each x once k reaches the
indices attaining g(x) and h(x); :func:`stability_witness` returns that
threshold.

:func:`constrained_approximants` builds, from monotone approximating
sequences (g_n decreasing, h_n increasing), a continuous function f_0, and a
non-negative "distance" function phi whose zero set plays the role of a
functionally closed subspace, the squeezed pair

    u_n = max(g_n, f_0 - n*phi),    v_n = min(h_n, f_0 + n*phi),

which pins f_0 on the zero set of phi and collapses to (g_n, h_n) wherever
phi is positive, once n exceeds 1/phi(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .plalg import PLFunc, dominates, pl_max, pl_min, pl_scale, pl_sum


@dataclass(frozen=True)
class StableFamily:
    """Nonempty finite ordered family of continuous PL functions."""

    members: tuple[PLFunc, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a family needs at least one member")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class HahnPair:
    """A family together with its exact lower/upper envelopes g <= h."""

    family: StableFamily
    g: PLFunc
    h: PLFunc

    def __post_init__(self) -> None:
        if not dominates(self.g, self.h).ok:
            raise ValueError("lower envelope must not exceed the upper envelope")


def envelopes(family: StableFamily) -> HahnPair:
    """Exact envelope pair: g = min of the members, h = max."""
    return HahnPair(family, pl_min(family.members), pl_max(family.members))


def stability_witness(family: StableFamily, x: int | str | Fraction) -> int:
    """Smallest k such that both partial envelopes at x already equal (g(x), h(x)).

    It is the larger of the first indices attaining g(x) and h(x).  From this
    k on, the partial-envelope sequences at x are constant, which is the
    pointwise-stabilization property of finite-envelope pairs.
    """
    values = [u(x) for u in family.members]
    return max(values.index(min(values)), values.index(max(values))) + 1


def insert_intermediate(pair: HahnPair) -> PLFunc:
    """A continuous function between the envelopes: the first family member.

    Any member works since g and h are the family's min and max; the
    inequalities are re-verified exactly before returning, and a failure
    indicates corrupted envelopes rather than bad input.
    """
    theta = pair.family.members[0]
    below = dominates(pair.g, theta)
    above = dominates(theta, pair.h)
    if not (below.ok and above.ok):
        witness = below.witness if not below.ok else above.witness
        raise RuntimeError(f"broken envelopes: member escapes them at x={witness}")
    return theta


def constrained_approximants(
    gseq: Sequence[PLFunc],
    hseq: Sequence[PLFunc],
    f0: PLFunc,
    phi: PLFunc,
    n: int,
) -> tuple[PLFunc, PLFunc]:
    """The n-th squeezed pair (max(g_n, f0 - n*phi), min(h_n, f0 + n*phi)).

    Preconditions, each checked exactly with a witness: phi >= 0, gseq
    pointwise decreasing, hseq pointwise increasing.  On the zero set of phi
    the pair reduces to (max(g_n, f0), min(h_n, f0)).
    """
    if not 1 <= n <= min(len(gseq), len(hseq)):
        raise ValueError(f"index {n} outside the approximating sequences")
    nonneg = dominates(PLFunc.constant(0), phi)
    if not nonneg.ok:
        raise ValueError(f"phi is negative at x={nonneg.witness}")
    for a, b in zip(gseq, gseq[1:]):
        v = dominates(b, a)
        if not v.ok:
            raise ValueError(f"g-sequence increases at x={v.witness}")
    for a, b in zip(hseq, hseq[1:]):
        v = dominates(a, b)
        if not v.ok:
            raise ValueError(f"h-sequence decreases at x={v.witness}")
    shift = pl_scale(n, phi)
    u_n = pl_max((gseq[n - 1], f0 - shift))
    v_n = pl_min((hseq[n - 1], pl_sum((f0, shift))))
    return u_n, v_n
