"""DSL parsing, diagnostics, pretty-print fixpoint, and elaboration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahnforge.plalg import PLFunc, pl_equal, pl_min
from hahnforge.specdsl import (
    Abs,
    Add,
    Expr,
    Lit,
    MaxE,
    MinE,
    Ref,
    Scale,
    SpecAST,
    SpecError,
    Sub,
    TailSpec,
    Var,
    family_from_spec,
    parse_spec,
    pp_spec,
    tail_family_from_spec,
)
from hahnforge.tailrules import TailRule

SP1_TEXT = "u1 = 0\nu2 = x - 1/2\n"


class TestParsing:
    def test_canonical_two_member_family(self):
        ast = parse_spec(SP1_TEXT)
        assert [name for name, _ in ast.decls] == ["u1", "u2"]
        assert ast.decls[0][1] == Lit(Fraction(0))
        assert ast.decls[1][1] == Sub(Var(), Lit(Fraction(1, 2)))

    def test_min_expression(self):
        ast = parse_spec("u1 = min(0, x - 1/2)\n")
        assert ast.decls[0][1] == MinE((Lit(Fraction(0)), Sub(Var(), Lit(Fraction(1, 2)))))

    def test_references_to_earlier_decls(self):
        ast = parse_spec("base = x - 1/2\nu1 = min(0, base)\n")
        assert ast.decls[1][1] == MinE((Lit(Fraction(0)), Ref("base")))

    def test_directives(self):
        ast = parse_spec("u1 = x\nlimit 0\ntail 1/n * (0 - x)\ngrid 65\n")
        assert ast.grid == 65
        assert ast.limit == Lit(Fraction(0))
        assert ast.tail.rule == TailRule.harmonic(1)

    def test_geometric_tail(self):
        ast = parse_spec("u1 = x\nlimit 0\ntail -3/2 * 1/4^n * x\n")
        assert ast.tail == TailSpec(TailRule.geometric("-3/2", "1/4"), Var())

    def test_zero_tail(self):
        ast = parse_spec("u1 = x\nlimit 0\ntail 0\n")
        assert ast.tail == TailSpec(TailRule.zero(), None)

    def test_comments_and_blank_lines(self):
        ast = parse_spec("# a family\n\nu1 = 0  # zero\n")
        assert len(ast.decls) == 1

    def test_scaling_either_side(self):
        left = parse_spec("u1 = 2 * x\n").decls[0][1]
        right = parse_spec("u1 = x * 2\n").decls[0][1]
        assert left == right == Scale(Fraction(2), Var())


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text, kind, line, col",
        [
            ("u1 = \n", "syntax", 1, 6),
            ("u1 = x / x\n", "non-pl", 1, 8),
            ("u1 = min(x\n", "syntax", 1, 11),
            ("u1 = y + 1\n", "undeclared", 1, 6),
            ("u1 = x * x\n", "non-pl", 1, 10),
        ],
    )
    def test_malformed_specs(self, text: str, kind: str, line: int, col: int):
        with pytest.raises(SpecError) as exc:
            parse_spec(text)
        assert exc.value.kind == kind
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_second_line_position(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("u1 = 0\nu2 = min(\n")
        assert exc.value.line == 2

    def test_duplicate_directive(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec("u1 = x\ngrid 4\ngrid 8\n")

    def test_keyword_declaration(self):
        with pytest.raises(SpecError, match="keyword"):
            parse_spec("min = 0\n")

    def test_exponent_rejected(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("u1 = x ^ 2\n")
        assert exc.value.kind == "non-pl"

    def test_nonconvergent_tail(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("u1 = x\ntail 1 * x\n")
        assert exc.value.kind == "semantic"

    @given(st.text(alphabet="ux=+-*/^(),0123456789 \n#minaxbgrdtl", max_size=60))
    @settings(max_examples=300)
    def test_fuzz_never_crashes(self, text: str):
        try:
            parse_spec(text)
        except SpecError as exc:
            assert exc.line >= 1 and exc.col >= 1


# -- fixpoint fuzzing ---------------------------------------------------------


def random_expr(rng: random.Random, names: list[str], depth: int) -> Expr:
    leafs = ["lit", "var"] + (["ref"] if names else [])
    choices = leafs if depth == 0 else leafs + ["add", "sub", "scale", "min", "max", "abs"]
    kind = rng.choice(choices)
    if kind == "lit":
        return Lit(Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
    if kind == "var":
        return Var()
    if kind == "ref":
        return Ref(rng.choice(names))
    if kind == "add":
        return Add(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if kind == "sub":
        return Sub(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if kind == "scale":
        body = random_expr(rng, names, depth - 1)
        while isinstance(body, Lit):
            body = random_expr(rng, names, depth - 1)
        return Scale(Fraction(rng.randint(-8, 8), rng.randint(1, 8)), body)
    if kind == "abs":
        return Abs(random_expr(rng, names, depth - 1))
    args = tuple(random_expr(rng, names, depth - 1) for _ in range(rng.randint(1, 3)))
    return MinE(args) if kind == "min" else MaxE(args)


def random_spec(rng: random.Random) -> SpecAST:
    decls = []
    names: list[str] = []
    for i in range(rng.randint(1, 4)):
        name = f"u{i + 1}"
        decls.append((name, random_expr(rng, names, rng.randint(0, 3))))
        names.append(name)
    grid = rng.choice([None, 16, 64])
    limit = random_expr(rng, names, 1) if rng.random() < 0.5 else None
    tail = None
    if rng.random() < 0.5:
        rule = rng.choice(
            [
                TailRule.zero(),
                TailRule.harmonic(Fraction(rng.randint(-3, 3), rng.randint(1, 4))),
                TailRule.geometric(Fraction(1, 2), Fraction(rng.randint(-2, 2), 3)),
            ]
        )
        shape = random_expr(rng, names, 1) if rng.random() < 0.5 else None
        tail = TailSpec(rule, shape)
    return SpecAST(tuple(decls), grid, limit, tail)


def test_parse_pretty_print_fixpoint():
    rng = random.Random(0x5EED)
    for _ in range(100):
        ast = random_spec(rng)
        printed = pp_spec(ast)
        assert parse_spec(printed) == ast
        assert parse_spec(pp_spec(parse_spec(printed))) == ast


class TestElaboration:
    def test_sp1_family(self):
        family = family_from_spec(parse_spec(SP1_TEXT))
        assert len(family) == 2
        assert pl_equal(family.members[0], PLFunc.constant(0))
        assert pl_equal(family.members[1], PLFunc.affine(1, "-1/2"))

    def test_min_elaborates_via_lattice(self):
        family = family_from_spec(parse_spec("u1 = min(0, x - 1/2)\n"))
        expected = pl_min((PLFunc.constant(0), PLFunc.affine(1, "-1/2")))
        assert pl_equal(family.members[0], expected)

    def test_reference_substitution(self):
        family = family_from_spec(parse_spec("base = x - 1/2\nu1 = abs(base)\n"))
        assert family.members[1](Fraction(0)) == Fraction(1, 2)
        assert family.members[1](Fraction(1, 2)) == 0

    def test_tail_family(self):
        ast = parse_spec("u1 = 0\nu2 = x - 1/2\nlimit 0\ntail 1/n * (0 - x)\n")
        fam = tail_family_from_spec(ast)
        assert fam.head_size == 2
        assert fam.member(3)(Fraction(1)) == Fraction(-1, 3)

    def test_sections_without_directives_rejected(self):
        with pytest.raises(SpecError, match="limit"):
            tail_family_from_spec(parse_spec(SP1_TEXT))

    def test_empty_spec_rejected(self):
        with pytest.raises(SpecError):
            family_from_spec(parse_spec("grid 64\n"))

    # Semantic errors about what the whole spec lacks point just past its end.
    def test_missing_directives_at_end_of_input(self):
        with pytest.raises(SpecError, match="limit and a tail") as exc:
            tail_family_from_spec(parse_spec("u1 = 0\nu2 = x - 1/2\nlimit 0"))
        assert (exc.value.line, exc.value.col, exc.value.kind) == (3, 8, "semantic")

    def test_no_functions_at_end_of_input(self):
        with pytest.raises(SpecError, match="declares no functions") as exc:
            family_from_spec(parse_spec("# nothing declared\ngrid 64\n"))
        assert (exc.value.line, exc.value.col, exc.value.kind) == (3, 1, "semantic")

    def test_end_position_not_compared(self):
        with_newline, without = parse_spec("u1 = x\n"), parse_spec("u1 = x")
        assert (with_newline.end, without.end) == ((2, 1), (1, 7))
        assert with_newline == without and hash(with_newline) == hash(without)
