"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every tolerance is zero; run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS line per criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import dyadic_grid, random_family, random_ratset
from test_sections import assert_witnesses_attain, random_tail_family
from test_specdsl import pp_spec, random_spec

from hahnforge.alphat import (
    AlphaTFunc,
    FiniteBlock,
    TailBlock,
    UncountableBlock,
    at_baire_one_cocountable,
    at_is_continuous,
    at_sections,
    diag_example,
)
from hahnforge.builder import (
    bump_witness_index,
    continuity_certificate,
    hahn_block,
    phi,
    stage_envelopes,
    stage_sets_of,
    synthesize,
    verify_synthesis,
)
from hahnforge.cli import OK, PARSE_ERROR, main
from hahnforge.pairs import StableFamily, envelopes
from hahnforge.plalg import PLFunc, dominates, pl_max, pl_min, pl_neg, pl_sum
from hahnforge.sections import brute_sections, tail_sections
from hahnforge.spaces import OrdinalCNF, OrdinalCompact, Pow2OddSet, scattered_rank
from hahnforge.specdsl import SpecError, parse_spec
from hahnforge.tailrules import TailRule

GRID65 = dyadic_grid(6)
XS65 = [Fraction(*x) for x in GRID65]
ZERO_F = PLFunc.constant(0)
SP1 = StableFamily((ZERO_F, PLFunc.affine(1, "-1/2")))


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_synthesis_round_trip():
    """Synthesized sections equal the prescribed envelopes, exactly, at every x."""
    rng = random.Random(101)
    families = [SP1] + [StableFamily(random_family(rng, 6)) for _ in range(100)]
    for fam in families:
        result = verify_synthesis(synthesize(fam), fam, GRID65)
        assert result.passed, result.failures[:3]
    report(1, f"{len(families)} families round-trip exactly on the 65-point grid")


def test_criterion_2_block_invariants():
    rng = random.Random(202)
    checked = 0
    for _ in range(50):
        raw = random_family(rng, 2)
        g_blk = pl_min((ZERO_F,) + raw)
        h_blk = pl_max((ZERO_F,) + raw)
        a_set = random_ratset(rng)
        support = Pow2OddSet(rng.randint(0, 5))
        block = hahn_block(g_blk, h_blk, a_set, support)
        for x in XS65:
            in_a = x in a_set
            for y in range(1, 201):
                if in_a or support.index_of(y) is None:
                    assert block.value(x, y) == 0
            if in_a:
                continue
            a = block.alpha(x)
            n = bump_witness_index(a.numerator, a.denominator)
            hi = block.value(x, block.beta.point(2 * n - 1))
            lo = block.value(x, block.beta.point(2 * n))
            assert hi == h_blk(x) and lo == g_blk(x)
            checked += 1
    report(2, f"50 blocks vanish off their support and attain endpoints at {checked} probes")


def test_criterion_3_kernel_inequality():
    for n in range(1, 51):
        lo, hi = Fraction(1, n + 1), Fraction(1, n)
        for a in (lo, (lo + hi) / 2, hi):
            assert phi(a, hi) == 1
    rng = random.Random(303)
    for _ in range(10_000):
        s = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
        t = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
        assert 0 <= phi(s, t) <= 1
    report(3, "kernel saturates on all 50 bump intervals; clamped on 10^4 random pairs")


def test_criterion_4_section_oracle_equivalence():
    rng = random.Random(404)
    for i in range(100):
        fam = random_tail_family(rng)
        exact = tail_sections(fam, GRID65)
        brute, _ = brute_sections(fam, fam.head_size + 1, GRID65)
        for x in XS65:
            assert exact.g(x) == brute.g(x)
            assert exact.h(x) == brute.h(x)
        assert_witnesses_attain(fam, exact)
        assert_witnesses_attain(fam, brute)
        if i < 3:
            deep, bound = brute_sections(fam, 1000, GRID65)
            for x in XS65:
                assert abs(exact.g(x) - deep.g(x)) <= bound
                assert abs(exact.h(x) - deep.h(x)) <= bound
    report(4, "100 families: exact twin agreement at cutoff N+1; certified bound holds at 10^3")


def test_criterion_5_continuity_certificates():
    f = synthesize(SP1)
    sizes = {}
    for x in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        base = f.value_at_infinity(x)
        slice_values = {y: f.value(x, y) for y in range(1, 10_001)}
        for eps in (Fraction(1), Fraction(1, 8), Fraction(1, 64)):
            cert = continuity_certificate(f, x, eps)
            cert_set = set(cert)
            for y, v in slice_values.items():
                if y not in cert_set:
                    assert abs(v - base) < eps
                else:
                    assert abs(v - base) >= eps
            sizes[(x, eps)] = len(cert)
    # Independent derivation of the pinned size: exhaustive scan at (1/4, 1/8).
    base = f.value_at_infinity(Fraction(1, 4))
    scanned = [
        y
        for y in range(1, 10_001)
        if abs(f.value(Fraction(1, 4), y) - base) >= Fraction(1, 8)
    ]
    assert len(scanned) == 31
    assert sizes[(Fraction(1, 4), Fraction(1, 8))] == 31
    assert sizes[(Fraction(1, 2), Fraction(1))] == 0
    assert sizes[(Fraction(1, 4), Fraction(1))] == 0
    report(5, "certificates exact on 9 slice/eps pairs; (1/4, 1/8) has exactly 31 exceptions")


def _oracle_rank(exps: list[int]) -> int:
    # Second derivative-iteration implementation on expanded exponent lists.
    steps = 0
    state: list[int] | None = exps
    while state is not None:
        shifted = [e - 1 for e in state if e >= 1]
        if not shifted:
            state = None
        elif all(e == 0 for e in shifted):
            state = [0] * (len(shifted) - 1)
        else:
            state = shifted
        steps += 1
    return steps


def test_criterion_6_scattered_rank():
    for k in range(4):
        for m in range(1, 6):
            top = OrdinalCNF(((k, m),)) if k > 0 else OrdinalCNF.from_int(m)
            assert scattered_rank(OrdinalCompact(top)) == _oracle_rank([k] * m)
    assert scattered_rank(OrdinalCompact(OrdinalCNF(((1, 1),)))) == 2
    assert scattered_rank(OrdinalCompact(OrdinalCNF.from_int(5))) == 1
    report(6, "rank matches the independent oracle for k<=3, m<=5 plus the fixed anchors")


HANDCRAFTED = [
    # (function, expect continuous, expect cocountable-constancy set)
    (AlphaTFunc.const(0), True, True),
    (AlphaTFunc.const("-5/3"), True, True),
    (AlphaTFunc(Fraction(0), (FiniteBlock(("a",), Fraction(9)),)), True, True),
    (AlphaTFunc(Fraction(2), (FiniteBlock(("a", "b", "c"), Fraction(2)),)), True, True),
    (AlphaTFunc(Fraction(0), (TailBlock("t", TailRule.harmonic(1)),)), True, True),
    (AlphaTFunc(Fraction(0), (TailBlock("t", TailRule.harmonic(-2)),)), True, True),
    (AlphaTFunc(Fraction(0), (TailBlock("t", TailRule.geometric(1, "1/2")),)), True, True),
    (AlphaTFunc(Fraction(0), (TailBlock("t", TailRule.geometric(3, "-2/3")),)), True, True),
    (AlphaTFunc(Fraction(0), (TailBlock("t", TailRule("constant", Fraction(1))),)), False, True),
    (AlphaTFunc(Fraction(1), (TailBlock("t", TailRule("constant", Fraction(1))),)), True, True),
    (AlphaTFunc(Fraction(3), (UncountableBlock("T", Fraction(3)),)), True, True),
    (AlphaTFunc(Fraction(0), (UncountableBlock("T1", Fraction(1)),)), False, False),
    (AlphaTFunc(Fraction(0), (UncountableBlock("T2", Fraction(-1)),)), False, False),
    (
        AlphaTFunc(
            Fraction(1),
            (UncountableBlock("T", Fraction(1)), FiniteBlock(("a",), Fraction(0))),
        ),
        True,
        True,
    ),
    (
        AlphaTFunc(
            Fraction(0),
            (FiniteBlock(("a",), Fraction(1)), FiniteBlock(("b",), Fraction(2))),
        ),
        True,
        True,
    ),
    (
        AlphaTFunc(
            Fraction(0),
            (FiniteBlock(("a",), Fraction(1)), TailBlock("t", TailRule.harmonic(1))),
        ),
        True,
        True,
    ),
    (
        AlphaTFunc(
            Fraction(0),
            (UncountableBlock("T", Fraction(1)), TailBlock("t", TailRule.harmonic(1))),
        ),
        False,
        False,
    ),
    (
        AlphaTFunc(
            Fraction(0),
            (TailBlock("t", TailRule.geometric(1, "1/3")), UncountableBlock("T", Fraction(0))),
        ),
        True,
        True,
    ),
    (AlphaTFunc(Fraction(1, 2), (FiniteBlock(("a",), Fraction(1, 2)),)), True, True),
    (
        AlphaTFunc(
            Fraction(0),
            (UncountableBlock("T0", Fraction(0)), UncountableBlock("T1", Fraction(5))),
        ),
        False,
        False,
    ),
]


def test_criterion_7_compactified_discrete_module():
    f = diag_example()
    for region in ("T0", "T1", "T2", "infinity"):
        assert at_is_continuous(f.x_section(region)).ok
        assert at_is_continuous(f.y_section(region)).ok
    lo, hi = at_sections(f)
    assert at_baire_one_cocountable(lo) is None
    assert at_baire_one_cocountable(hi) is None
    assert len(HANDCRAFTED) == 20
    for func, expect_cont, expect_baire in HANDCRAFTED:
        assert at_is_continuous(func).ok == expect_cont
        assert (at_baire_one_cocountable(func) is not None) == expect_baire
    report(7, "diagonal example sections behave as constructed; 20 handcrafted verdicts match")


def test_criterion_8_stage_envelope_replacement():
    rng = random.Random(808)
    for _ in range(200):
        fam = StableFamily(random_family(rng, 6))
        theta = fam.members[0]
        shifted = [pl_sum((u, pl_neg(theta))) for u in fam.members]
        pair = envelopes(fam)
        g_sh, h_sh = pl_sum((pair.g, pl_neg(theta))), pl_sum((pair.h, pl_neg(theta)))
        stages = stage_sets_of(shifted, g_sh, h_sh)
        for n in range(1, len(fam) + 1):
            g_blk, h_blk = stage_envelopes(shifted, n)
            assert dominates(g_sh, g_blk).ok
            assert dominates(g_blk, ZERO_F).ok
            assert dominates(ZERO_F, h_blk).ok
            assert dominates(h_blk, h_sh).ok
            stage = stages[n - 1]
            for x in XS65:
                if x in stage:
                    assert g_blk(x) == g_sh(x)
                    assert h_blk(x) == h_sh(x)
    report(8, "200 families: stage envelopes bounded globally and exact on their stage sets")


def test_criterion_9_cli(tmp_path: Path, capsys):
    spec = tmp_path / "sp1.hf"
    spec.write_text("u1 = 0\nu2 = x - 1/2\n", encoding="utf-8")
    assert main(["verify", str(spec), "--grid", "64"]) == OK
    malformed = [
        ("u1 = \n", 1, 6),
        ("u1 = x / x\n", 1, 8),
        ("u1 = min(x\n", 1, 11),
        ("u1 = y + 1\n", 1, 6),
        ("u1 = x * x\n", 1, 10),
    ]
    for text, line, col in malformed:
        with pytest.raises(SpecError) as exc:
            parse_spec(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        bad = tmp_path / "bad.hf"
        bad.write_text(text, encoding="utf-8")
        assert main(["verify", str(bad)]) == PARSE_ERROR
    rng = random.Random(909)
    for _ in range(100):
        ast = random_spec(rng)
        assert parse_spec(pp_spec(ast)) == ast
    capsys.readouterr()
    report(9, "SP1 verifies with exit 0; 5 diagnostics positioned; 100 fixpoint round trips")
