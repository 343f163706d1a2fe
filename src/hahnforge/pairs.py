"""Envelope pairs of finite continuous families.

A finite ordered family u_1, ..., u_N of PL functions determines the envelope
pair (g, h) = (pointwise min, pointwise max).  Because the family is finite,
both envelopes are attained at every point, and the partial envelopes
min/max over the first k members stabilize at each x once k reaches the
indices attaining g(x) and h(x).
"""

from __future__ import annotations

from .plalg import PLFunc, dominates, pl_max, pl_min
from .record import record


@record
class StableFamily:
    """Nonempty finite ordered family of continuous PL functions."""

    members: tuple[PLFunc, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a family needs at least one member")

    def __len__(self) -> int:
        return len(self.members)


@record
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
