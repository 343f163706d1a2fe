"""The three workloads: seeded spec generators, argv and output checks.

Every generated function is a formula tree: ``("aff", a, b)`` is the affine
map ``a*x + b``, and ``("min", [...])`` / ``("max", [...])`` are pointwise
lattice envelopes of subtrees.  The generator renders the tree as DSL text
for hahnforge and keeps the tree itself, so the output checks of
``checks.py`` can evaluate every member from the same formula without going
through the program.

A run executes whole rounds.  A round is a fixed list of slots, and each slot
fixes the shape of one request (family size, pieces, grid, tail kind); the
rational coefficients come from ``random.Random(f"{workload}:{seed}:{index}")``
with a request index that is never reused within a run, so no two requests in
a run share a spec and the same seed always yields the same specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Union

import checks

Tree = tuple

SYNTH_MEMBERS = 16
SYNTH_GRID = 64
TAIL_GRID = 64
DENOMINATORS = (1, 2, 3, 4, 5, 6, 8)


def small_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * den, hi * den), den)


def affine(rng: random.Random) -> Tree:
    return ("aff", small_rational(rng, -2, 2), small_rational(rng, -1, 1))


def lattice(rng: random.Random, pieces: int) -> Tree:
    """min or max of ``pieces`` affine pieces."""
    return (rng.choice(("min", "max")), [affine(rng) for _ in range(pieces)])


def zigzag(rng: random.Random) -> Tree:
    """max of three mins of three affine pieces: a member with several knots."""
    return ("max", [("min", [affine(rng) for _ in range(3)]) for _ in range(3)])


def literal(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render(tree: Tree) -> str:
    if tree[0] == "aff":
        a, b = tree[1], tree[2]
        return f"{literal(a)} * x {'+' if b >= 0 else '-'} {literal(abs(b))}"
    return tree[0] + "(" + ", ".join(render(child) for child in tree[1]) + ")"


@dataclass(frozen=True)
class FamilySpec:
    """A family of members for ``synth`` or ``verify``."""

    members: tuple[Tree, ...]
    grid: int

    def text(self) -> str:
        return "".join(f"u{i} = {render(m)}\n" for i, m in enumerate(self.members, start=1))


@dataclass(frozen=True)
class TailSpec:
    """Head slices, a limit slice and a tail ``limit + coeff(n) * shape``."""

    head: tuple[Tree, ...]
    limit: Tree
    kind: str  # "harmonic": coeff(n) = c/n; "geometric": coeff(n) = c * q^n
    c: Fraction
    q: Fraction | None
    shape: Tree
    grid: int

    def coeff(self, n: int) -> Fraction:
        if self.kind == "harmonic":
            return self.c / n
        return self.c * self.q**n

    def text(self) -> str:
        lines = [f"s{i} = {render(m)}\n" for i, m in enumerate(self.head, start=1)]
        lines.append(f"limit {render(self.limit)}\n")
        if self.kind == "harmonic":
            rule = f"{literal(self.c)}/n"
        else:
            rule = f"{literal(self.c)} * {literal(self.q)}^n"
        lines.append(f"tail {rule} * ({render(self.shape)})\n")
        return "".join(lines)


Spec = Union[FamilySpec, TailSpec]


def synth_wide(rng: random.Random, slot: int) -> FamilySpec:
    members = tuple(lattice(rng, 2 + i % 3) for i in range(SYNTH_MEMBERS))
    return FamilySpec(members, SYNTH_GRID)


VERIFY_SLOTS = ((3, 600), (4, 480), (5, 400))


def verify_grid(rng: random.Random, slot: int) -> FamilySpec:
    size, grid = VERIFY_SLOTS[slot]
    return FamilySpec(tuple(zigzag(rng) for _ in range(size)), grid)


TAIL_HEAD = 30
# (tail kind, sign): the sign of c in a harmonic tail, of q in a geometric one
TAIL_SLOTS = (("harmonic", 1), ("geometric", 1), ("geometric", -1), ("harmonic", -1))


def sections_tail(rng: random.Random, slot: int) -> TailSpec:
    kind, sign = TAIL_SLOTS[slot]
    head = tuple(lattice(rng, 2 + i % 2) for i in range(TAIL_HEAD))
    c = small_rational(rng, 1, 2)
    q = None
    if kind == "harmonic":
        c *= sign
    else:
        c *= rng.choice((1, -1))
        q = Fraction(rng.randint(1, 3), 4) * sign
    return TailSpec(head, lattice(rng, 2), kind, c, q, lattice(rng, 2), TAIL_GRID)


@dataclass(frozen=True)
class Workload:
    """A round of ``slots`` specs from ``make``, the argv that runs one, and its check."""

    name: str
    slots: int
    make: Callable[[random.Random, int], Spec]
    argv: Callable[[Spec, str, str], list[str]]  # (spec, spec path, output directory)
    check: Callable[[Spec, int, str, Path], list[str]]  # (spec, exit code, stdout, output directory)

    def spec(self, seed: int, index: int) -> Spec:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.make(rng, index % self.slots)

    def check_output(self, spec: Spec, exit_code: int, stdout: str, out_dir: Path) -> list[str]:
        """The workload's check; an output too malformed to read is one error, not a crash."""
        try:
            return self.check(spec, exit_code, stdout, out_dir)
        except Exception as exc:
            return [f"{self.name}: malformed output ({type(exc).__name__}: {exc})"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth_wide", 1, synth_wide,
            lambda spec, path, out: ["synth", path, "--out", out],
            checks.check_synth,
        ),
        Workload(
            "verify_grid", len(VERIFY_SLOTS), verify_grid,
            lambda spec, path, out: ["verify", path, "--grid", str(spec.grid)],
            checks.check_verify,
        ),
        Workload(
            "sections_tail", len(TAIL_SLOTS), sections_tail,
            lambda spec, path, out: ["sections", path],
            checks.check_sections,
        ),
    )
}
