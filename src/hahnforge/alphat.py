"""Function algebra on one-point compactifications of discrete spaces.

A discrete set T of any size plus a point at infinity, whose
neighborhoods are the cofinite sets, carries exactly one interesting piece of
analysis: a function is continuous iff for every eps > 0 only finitely many
points differ from the value at infinity by eps or more, and a pointwise
limit of continuous functions must be constant off some countable set.  Both
predicates are decided here purely by case analysis on symbolic blocks, since
an uncountable T cannot be sampled.

A function is stored as its value at infinity plus finitely many disjoint
exception blocks:

* a finite block: an explicit atom set with one value;
* a tail block: a countable sequence of atoms t_1, t_2, ... whose values
  follow a :class:`~hahnforge.tailrules.TailRule`;
* an uncountable block: a named tag carrying one constant value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .plalg import Verdict
from .rational import rat
from .record import record
from .tailrules import TailRule


@record
class FiniteBlock:
    atoms: tuple[str, ...]
    value: Fraction


@record
class TailBlock:
    prefix: str
    rule: TailRule


@record
class UncountableBlock:
    tag: str
    value: Fraction


Block = Union[FiniteBlock, TailBlock, UncountableBlock]


@record
class AlphaTFunc:
    """Real function on T u {infinity}, constant off its exception blocks."""

    limit_value: Fraction
    blocks: tuple[Block, ...] = ()

    def __post_init__(self) -> None:
        seen_atoms: set[str] = set()
        seen_names: set[str] = set()
        for b in self.blocks:
            if isinstance(b, FiniteBlock):
                for a in b.atoms:
                    if a in seen_atoms:
                        raise ValueError(f"atom {a!r} appears in two blocks")
                    seen_atoms.add(a)
            else:
                name = b.prefix if isinstance(b, TailBlock) else b.tag
                if name in seen_names:
                    raise ValueError(f"block name {name!r} appears twice")
                seen_names.add(name)

    @staticmethod
    def const(c: int | str | Fraction) -> "AlphaTFunc":
        return AlphaTFunc(rat(c))


@record
class CountableSet:
    """Countable subset of T: explicit atoms plus full tail supports."""

    atoms: tuple[str, ...] = ()
    tail_prefixes: tuple[str, ...] = ()


def at_is_continuous(f: AlphaTFunc) -> Verdict:
    """Continuity on the compactification, decided blockwise.

    Finite blocks never obstruct.  A tail block obstructs iff its rule's limit
    differs from the value at infinity, an uncountable block iff its constant
    does; in both cases half the gap witnesses an eps with infinitely many
    eps-deviations.
    """
    for b in f.blocks:
        if isinstance(b, FiniteBlock):
            continue
        settled = b.rule.limit() if isinstance(b, TailBlock) else b.value
        if settled != f.limit_value:
            return Verdict(False, abs(settled - f.limit_value) / 2)
    return Verdict(True)


def at_baire_one_cocountable(f: AlphaTFunc) -> CountableSet | None:
    """Countable set off which f is constant at its limit value, if any.

    Returns None exactly when some uncountable block carries a value other
    than the limit value; such a function cannot be a pointwise limit of
    continuous functions on the compactification.
    """
    atoms: list[str] = []
    prefixes: list[str] = []
    for b in f.blocks:
        if isinstance(b, UncountableBlock):
            if b.value != f.limit_value:
                return None
        elif isinstance(b, FiniteBlock):
            atoms.extend(b.atoms)
        else:
            prefixes.append(b.prefix)
    return CountableSet(tuple(atoms), tuple(prefixes))


@record
class DiagBlock:
    tag: str
    diag_value: Fraction


@record
class DiagProductFunc:
    """Function on the square of the compactification, supported on the diagonal.

    T is partitioned into three tagged pieces; the function takes the piece's
    diagonal value at (t, t) and vanishes everywhere else (in particular on
    the axes through infinity).
    """

    blocks: tuple[DiagBlock, DiagBlock, DiagBlock]

    def block_of(self, tag: str) -> DiagBlock:
        for b in self.blocks:
            if b.tag == tag:
                return b
        raise ValueError(f"unknown block tag {tag!r}")

    def x_section(self, region: str) -> AlphaTFunc:
        """Section y -> f(x, y) for a generic point x of the named region."""
        if region == "infinity":
            return AlphaTFunc.const(0)
        b = self.block_of(region)
        if b.diag_value == 0:
            return AlphaTFunc.const(0)
        return AlphaTFunc(Fraction(0), (FiniteBlock((f"x@{b.tag}",), b.diag_value),))

    def y_section(self, region: str) -> AlphaTFunc:
        """Section x -> f(x, y); the diagonal support makes it mirror x_section."""
        return self.x_section(region)


def diag_example() -> DiagProductFunc:
    """The three-piece diagonal function with values 0, 1, -1."""
    return DiagProductFunc(
        (
            DiagBlock("T0", Fraction(0)),
            DiagBlock("T1", Fraction(1)),
            DiagBlock("T2", Fraction(-1)),
        )
    )


def at_sections(f: DiagProductFunc) -> tuple[AlphaTFunc, AlphaTFunc]:
    """Exact (min section, max section) of a diagonal product function.

    For x in a piece with diagonal value v the section values over y are
    {v, 0}, so the max section equals max(v, 0) there and 0 elsewhere; the min
    section is dual.  Both come out as indicator-style functions of the
    uncountable pieces, vanishing at infinity.
    """
    lo_blocks: list[Block] = []
    hi_blocks: list[Block] = []
    for b in f.blocks:
        lo, hi = min(b.diag_value, Fraction(0)), max(b.diag_value, Fraction(0))
        if lo != 0:
            lo_blocks.append(UncountableBlock(b.tag, lo))
        if hi != 0:
            hi_blocks.append(UncountableBlock(b.tag, hi))
    return (
        AlphaTFunc(Fraction(0), tuple(lo_blocks)),
        AlphaTFunc(Fraction(0), tuple(hi_blocks)),
    )
