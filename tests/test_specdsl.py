"""DSL parsing, diagnostics, pretty-print fixpoint, and elaboration."""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import int_str_digits
from hahnforge.plalg import PLFunc, pl_abs, pl_equal, pl_max, pl_min, pl_scale, pl_sum
from hahnforge.specdsl import (
    KEYWORDS,
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_GRID,
    Abs,
    Expr,
    Lit,
    MaxE,
    MinE,
    Ref,
    Scale,
    SpecAST,
    SpecError,
    Sum,
    TailSpec,
    Var,
    _scan,
    _start,
    _where,
    elaborate_expr,
    family_from_spec,
    parse_spec,
    tail_family_from_spec,
)
from hahnforge.rational import int_of, rat_str
from hahnforge.tailrules import TailRule

# -- pretty printer ----------------------------------------------------------
# Prints a spec back as text, so parsing can be checked as a fixpoint.


def _lit_str(value: Fraction) -> str:
    return rat_str(value).removesuffix("/1")


def pp_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return _lit_str(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Sum):
        return "(" + " + ".join(pp_expr(t) for t in e.terms) + ")"
    if isinstance(e, Scale):
        return f"({_lit_str(e.factor)} * {pp_expr(e.body)})"
    if isinstance(e, MinE):
        return "min(" + ", ".join(pp_expr(a) for a in e.args) + ")"
    if isinstance(e, MaxE):
        return "max(" + ", ".join(pp_expr(a) for a in e.args) + ")"
    if isinstance(e, Abs):
        return f"abs({pp_expr(e.body)})"
    raise TypeError(f"unknown expression {e!r}")


def pp_spec(ast: SpecAST) -> str:
    """The spec as text; parse_spec(pp_spec(ast)) == ast while folded constants
    stay within MAX_DIGITS (a longer one prints but parses to a SpecError)."""
    lines = [f"{name} = {pp_expr(expr)}" for name, expr in ast.decls]
    if ast.limit is not None:
        lines.append(f"limit {pp_expr(ast.limit)}")
    if ast.tail is not None:
        rule = ast.tail.rule
        if rule.kind == "harmonic":
            head = f"tail {_lit_str(rule.c)}/n"
        elif rule.kind == "geometric":
            assert rule.q is not None
            head = f"tail {_lit_str(rule.c)} * {_lit_str(rule.q)}^n"
        else:
            head = "tail 0"
        if ast.tail.shape is not None:
            head += f" * {pp_expr(ast.tail.shape)}"
        lines.append(head)
    if ast.grid is not None:
        lines.append(f"grid {ast.grid}")
    return "\n".join(lines) + "\n"


SP1_TEXT = "u1 = 0\nu2 = x - 1/2\n"


class TestParsing:
    def test_canonical_two_member_family(self):
        ast = parse_spec(SP1_TEXT)
        assert [name for name, _ in ast.decls] == ["u1", "u2"]
        assert ast.decls[0][1] == Lit(Fraction(0))
        assert ast.decls[1][1] == Sum((Var(), Lit(Fraction(-1, 2))))

    def test_min_expression(self):
        ast = parse_spec("u1 = min(0, x - 1/2)\n")
        assert ast.decls[0][1] == MinE((Lit(Fraction(0)), Sum((Var(), Lit(Fraction(-1, 2))))))

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
            ("u1 = x $ 1\n", "syntax", 1, 8),
            ("u1 = 1/0\n", "syntax", 1, 8),
            ("u1 = grid\n", "syntax", 1, 6),
            ("u1 = x\ntail 1/m\n", "syntax", 2, 8),
            ("u1 = x\ntail 1 * 1/2^m\n", "syntax", 2, 14),
            ("u1 = x\ntail 1 * 2^n\n", "semantic", 2, 6),
            ("u1 = x\ngrid 0\n", "syntax", 2, 6),
            ("u1 = x\nlimit 0\nlimit 0\n", "syntax", 3, 1),
            ("u1 = x\ntail 0\ntail 0\n", "syntax", 3, 1),
            ("u1 = x\nu1 = 0\n", "syntax", 2, 1),
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

    # Which Unicode characters start, continue or end a token.
    def test_non_ascii_decimal_digit_is_read(self):
        # "٣" is a decimal digit, and int() reads it as 3.
        member = family_from_spec(parse_spec("u1 = ٣ * x\n")).members[0]
        assert (member.breakpoints, member.values) == ((0, 1), (0, 3))

    @pytest.mark.parametrize(
        "text, message, col",
        [
            # "²" is a digit but not decimal, and not a letter: no token starts with it.
            ("u1 = ²x\n", "unexpected character '²'", 6),
            # A name continues with any letter or digit, so "²" is part of it.
            ("u1 = x²\n", "undeclared name 'x²'", 6),
            ("u1 = 2x\n", "unexpected 'x'", 7),
            # The line ends past its comment.
            ("u1 = min(x  # c", "expected ')'", 16),
        ],
    )
    def test_unicode_and_comment_edges(self, text: str, message: str, col: int):
        with pytest.raises(SpecError) as exc:
            parse_spec(text)
        assert (exc.value.message, exc.value.line, exc.value.col) == (message, 1, col)

    def test_non_ascii_name(self):
        assert [name for name, _ in parse_spec("λ1 = x\n").decls] == ["λ1"]

    @given(st.text(alphabet="ux=+-*/^(),0123456789 \n#minaxbgrdtl", max_size=60))
    @settings(max_examples=300)
    def test_fuzz_never_crashes(self, text: str):
        try:
            parse_spec(text)
        except SpecError as exc:
            assert exc.line >= 1 and exc.col >= 1


class TestBounds:
    """Nesting depth and literal length are bounded in the tokenizer, the grid
    denominator in the parser; sums and runs of minus signs are flat, so their
    length is not."""

    def test_depth_at_bound_parses(self):
        text = "u1 = " + "abs(" * (MAX_DEPTH - 1) + "(x)" + ")" * (MAX_DEPTH - 1) + "\n"
        ast = parse_spec(text)
        assert parse_spec(pp_spec(ast)) == ast
        assert pl_equal(family_from_spec(ast).members[0], PLFunc.identity())

    def test_depth_past_bound_rejected_at_its_paren(self):
        text = "u1 = " + "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1) + "\n"
        with pytest.raises(SpecError, match="nested deeper") as exc:
            parse_spec(text)
        assert (exc.value.kind, exc.value.line, exc.value.col) == ("syntax", 1, 6 + MAX_DEPTH)

    def test_depth_counts_open_parentheses_only(self):
        # Many closed groups on one line never pass the bound.
        ast = parse_spec("u1 = " + " + ".join(["(x)"] * (3 * MAX_DEPTH)) + "\n")
        assert len(ast.decls[0][1].terms) == 3 * MAX_DEPTH

    def test_digits_at_bound(self):
        ast = parse_spec("u1 = " + "7" * MAX_DIGITS + "\n")
        assert ast.decls[0][1] == Lit(Fraction(int("7" * MAX_DIGITS)))

    def test_grid_bound(self):
        assert parse_spec(f"grid {MAX_GRID}\nu1 = x\n").grid == MAX_GRID
        # A grid literal at the digit bound is read, then rejected at its position.
        for digits in (str(MAX_GRID + 1), "9" * MAX_DIGITS):
            with pytest.raises(SpecError, match="grid denominator above") as exc:
                parse_spec(f"grid {digits}\nu1 = x\n")
            assert (exc.value.kind, exc.value.line, exc.value.col) == ("syntax", 1, 6)

    def test_digits_past_bound_rejected_at_the_literal(self):
        with pytest.raises(SpecError, match="longer than") as exc:
            parse_spec("u1 = 1/" + "3" * (MAX_DIGITS + 1) + "\n")
        assert (exc.value.kind, exc.value.line, exc.value.col) == ("syntax", 1, 8)

    def test_pp_spec_prints_huge_folded_constant(self):
        # Constant factors fold: five literals at the bound make one 5,000-digit
        # factor, past Python's default int-to-str limit of 4,300 digits.
        a = int("7" * MAX_DIGITS)
        printed = pp_spec(parse_spec("u1 = " + " * ".join([str(a)] * 5) + " * x\n"))
        with int_str_digits(0):
            assert printed == f"u1 = ({a**5} * x)\n"

    def test_roundtrip_past_str_limit(self):
        # A 700-digit literal is past the lowest int-to-str limit Python permits.
        text = "u1 = " + "7" * 700 + " * x\nu2 = 1/" + "3" * 700 + "\n"
        with int_str_digits(640):
            ast = parse_spec(text)
            assert parse_spec(pp_spec(ast)) == ast

    def test_folded_constant_past_bound_does_not_reparse(self):
        a = "7" * 600
        printed = pp_spec(parse_spec(f"u1 = {a} * {a} * x\n"))
        assert printed == f"u1 = ({int(a) ** 2} * x)\n"
        with pytest.raises(SpecError, match="longer than") as exc:
            parse_spec(printed)
        assert (exc.value.kind, exc.value.line, exc.value.col) == ("syntax", 1, 7)

    def test_non_decimal_digit_rejected(self):
        # "²" is a Unicode digit that int() cannot read.
        with pytest.raises(SpecError, match="unexpected character") as exc:
            parse_spec("u1 = 2²\n")
        assert (exc.value.line, exc.value.col) == (1, 7)

    def test_long_difference_is_one_sum(self):
        n = 5000
        ast = parse_spec("u1 = " + " - ".join(["x"] * n) + "\n")
        terms = ast.decls[0][1].terms
        assert terms == (Var(),) + (Scale(Fraction(-1), Var()),) * (n - 1)
        assert parse_spec(pp_spec(ast)) == ast
        assert family_from_spec(ast).members[0] == pl_scale(2 - n, PLFunc.identity())

    def test_minus_run_folds_once(self):
        for signs in (1, 2, 3, 5000, 5001):
            ast = parse_spec("u1 = " + "- " * signs + "x * 3\nu2 = " + "-" * signs + "1/2\n")
            sign = -1 if signs % 2 else 1
            expected_x = Scale(Fraction(3), Scale(Fraction(-1), Var()) if sign < 0 else Var())
            assert ast.decls[0][1] == expected_x
            assert ast.decls[1][1] == Lit(Fraction(sign, 2))


class TestIntegerLiterals:
    """A parsed Lit or Scale holds its constant as a reduced integer pair;
    its Fraction field is a view built on first read, and it equals, hashes
    and prints as the node built from that Fraction."""

    def test_parsed_nodes_equal_their_fraction_twins(self):
        parsed = parse_spec("u1 = 6/4 * x - 2/4\n").decls[0][1]
        twin = Sum((Scale(Fraction(3, 2), Var()), Lit(Fraction(-1, 2))))
        scale, lit = parsed.terms
        assert (scale.pair, lit.pair) == ((3, 2), (-1, 2))
        assert parsed == twin and twin == parsed
        assert hash(parsed) == hash(twin) and repr(parsed) == repr(twin)

    def test_parsing_and_elaboration_build_no_view(self):
        ast = parse_spec("u1 = 6/4 * x - 2/4\nu2 = min(-3 * u1, (2/6) - x, 0)\n")
        family_from_spec(ast)
        nodes = [*ast.decls[0][1].terms, ast.decls[1][1].args[0], *ast.decls[1][1].args[1].terms]
        nodes.append(ast.decls[1][1].args[2])
        assert [type(e).__name__ for e in nodes] == ["Scale", "Lit", "Scale", "Lit", "Scale", "Lit"]
        assert not any({"value", "factor"} & set(vars(e)) for e in nodes)
        assert [e.pair for e in nodes] == [(3, 2), (-1, 2), (-3, 1), (1, 3), (-1, 1), (0, 1)]
        assert nodes[1].value is nodes[1].value and "value" in vars(nodes[1])

    def test_zero_and_signs_reduce(self):
        decls = parse_spec("u1 = -0/5 * x\nu2 = -(4/2) * -(-6/3)\nu3 = 0 - 3/9 * -x\n").decls
        assert decls[0][1].pair == (0, 1) and decls[0][1] == Scale(Fraction(0), Var())
        assert decls[1][1].pair == (-4, 1) and decls[1][1] == Lit(Fraction(-4))
        assert decls[2][1].terms[1] == Scale(Fraction(-1, 3), Scale(Fraction(-1), Var()))

    def test_x_is_one_node(self):
        decls = parse_spec("u1 = x\nu2 = 2 * x + min(x, 1)\n").decls
        body, args = decls[1][1].terms[0].body, decls[1][1].terms[1].args
        assert decls[0][1] is body is args[0] and body == Var()

    def test_folded_constant_past_str_limit(self):
        # Five literals at the digit bound fold into one 5,000-digit factor,
        # past the lowest int-to-str limit Python permits.
        a = "7" * MAX_DIGITS
        text = "u1 = " + " * ".join([a] * 5) + " * x - 1/" + a + "\n"
        with int_str_digits(640):
            c = int_of(a)
            parsed = parse_spec(text).decls[0][1]
            twin = Sum((Scale(Fraction(c**5), Var()), Lit(Fraction(-1, c))))
            assert [t.pair for t in parsed.terms] == [(c**5, 1), (-1, c)]
            assert parsed == twin and hash(parsed) == hash(twin)
            member = elaborate_expr(parsed, {})
            assert member.line_form == (((0, 1), (1, 1)), ((c**6, -1, c),))
        with int_str_digits(0):
            assert repr(parsed) == repr(twin)


# -- fixpoint fuzzing ---------------------------------------------------------


def random_expr(rng: random.Random, names: list[str], depth: int) -> Expr:
    leafs = ["lit", "var"] + (["ref"] if names else [])
    choices = leafs if depth == 0 else leafs + ["sum", "scale", "min", "max", "abs"]
    kind = rng.choice(choices)
    if kind == "lit":
        return Lit(Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
    if kind == "var":
        return Var()
    if kind == "ref":
        return Ref(rng.choice(names))
    if kind == "sum":
        return Sum(tuple(random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3))))
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


# -- oracles -------------------------------------------------------------------
# The character-by-character tokenizer, the recursive descent over Token
# objects and the term-by-term elaborator that the scanner, the parser over
# token columns and the form fold replaced, kept to hold them to.

_OPS = set("=+-*/^(),")


class Token(NamedTuple):
    kind: str  # NAME | INT | OP | NEWLINE | EOF
    text: str
    line: int
    col: int


def scanned(text: str) -> list[Token]:
    """_scan's token texts as Tokens, each (line, col) from _where at the
    offset _start finds for it: each line's tokens, then its NEWLINE; EOF
    last, where the last line's NEWLINE is."""
    tokens: list[Token] = []
    for i, tok in enumerate(_scan(text)):
        where = _where(text, _start(text, i))
        if tok == "":
            tokens.append(Token("NEWLINE", "", *where))
            tokens.append(Token("EOF", "", *where))
        elif tok == "\n":
            tokens.append(Token("NEWLINE", "", *where))
        else:
            kind = "INT" if tok.isdecimal() else "OP" if tok in _OPS else "NAME"
            tokens.append(Token(kind, tok, *where))
    return tokens


def oracle_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        i = depth = 0
        while i < len(raw):
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if ch.isdecimal():  # what int() reads; "²" is a digit but not decimal
                j = i
                while j < len(raw) and raw[j].isdecimal():
                    j += 1
                if j - i > MAX_DIGITS:
                    raise SpecError(
                        f"integer literal longer than {MAX_DIGITS} digits", line_no, col
                    )
                tokens.append(Token("INT", raw[i:j], line_no, col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(raw) and (raw[j].isalnum() or raw[j] == "_"):
                    j += 1
                tokens.append(Token("NAME", raw[i:j], line_no, col))
                i = j
            elif ch in _OPS:
                if ch == "(":
                    depth += 1
                    if depth > MAX_DEPTH:
                        raise SpecError(
                            f"parentheses nested deeper than {MAX_DEPTH}", line_no, col
                        )
                elif ch == ")":
                    depth = max(depth - 1, 0)
                tokens.append(Token("OP", ch, line_no, col))
                i += 1
            else:
                raise SpecError(f"unexpected character {ch!r}", line_no, col)
        tokens.append(Token("NEWLINE", "", line_no, len(raw) + 1))
    last_line = text[text.rfind("\n") + 1 :]
    tokens.append(Token("EOF", "", text.count("\n") + 1, len(last_line) + 1))
    return tokens


def _oracle_negate(e: Expr) -> Expr:
    if isinstance(e, Lit):
        return Lit(-e.value)
    if isinstance(e, Scale):
        return Scale(-e.factor, e.body)
    return Scale(Fraction(-1), e)


class _OracleParser:
    """The recursive descent over Token objects that parse_spec replaced:
    one frame per unary, a Lit per literal factor, a Fraction product per
    term, and a negated copy per subtracted term."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.keys = [tok.text if tok.kind == "OP" else tok.kind for tok in tokens]
        self.pos = 0
        self.declared: set[str] = set()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, key: str, ahead: int = 0) -> bool:
        """Whether the token ``ahead`` past the current one is the operator
        ``key``, or of kind ``key``."""
        return self.keys[self.pos + ahead] == key

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        if self.keys[self.pos] != text:
            tok = self.peek()
            raise SpecError(f"expected {text!r}", tok.line, tok.col)
        return self.advance()

    def end_line(self) -> None:
        key = self.keys[self.pos]
        if key == "NEWLINE":
            self.pos += 1
        elif key != "EOF":
            tok = self.peek()
            raise SpecError(f"unexpected {tok.text!r}", tok.line, tok.col)

    # -- expressions --------------------------------------------------------

    def parse_rational(self) -> Fraction:
        sign = 1
        while self.at("-"):
            self.pos += 1
            sign = -sign
        if not self.at("INT"):
            tok = self.peek()
            raise SpecError("expected a rational literal", tok.line, tok.col)
        num = int_of(self.advance().text)
        den = 1
        # "/" belongs to the literal only when an integer denominator follows;
        # otherwise it is left for the caller (tail rules parse "/ n" there,
        # expressions report it as a non-PL construct).
        if self.at("/") and self.at("INT", 1):
            self.pos += 1
            den_tok = self.advance()
            den = int_of(den_tok.text)
            if den == 0:
                raise SpecError("zero denominator", den_tok.line, den_tok.col)
        return Fraction(sign * num, den)

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        keys = self.keys
        while (key := keys[self.pos]) == "+" or key == "-":
            self.pos += 1
            term = self.parse_term()
            terms.append(_oracle_negate(term) if key == "-" else term)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self) -> Expr:
        factors = [self.parse_unary()]
        keys = self.keys
        while (key := keys[self.pos]) == "*":
            self.pos += 1
            factors.append(self.parse_unary())
        if key == "/" or key == "^":
            tok = self.peek()
            message = "division outside a rational literal" if key == "/" else "exponentiation"
            raise SpecError(f"non-PL construct: {message}", tok.line, tok.col, kind="non-pl")
        if len(factors) == 1:
            return factors[0]
        constant = Fraction(1)
        body: Expr | None = None
        for factor in factors:
            if isinstance(factor, Lit):
                constant *= factor.value
            elif body is None:
                body = factor
            else:
                tok = self.tokens[self.pos - 1]
                raise SpecError(
                    "non-PL construct: product of two non-constant expressions",
                    tok.line,
                    tok.col,
                    kind="non-pl",
                )
        return Lit(constant) if body is None else Scale(constant, body)

    def parse_unary(self) -> Expr:
        minus = False
        while self.keys[self.pos] == "-":
            self.pos += 1
            minus = not minus
        primary = self.parse_primary()
        return _oracle_negate(primary) if minus else primary

    def parse_primary(self) -> Expr:
        key = self.keys[self.pos]
        if key == "INT":
            return Lit(self.parse_rational())
        if key == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        tok = self.peek()
        if key == "NAME":
            name = tok.text
            if name == "x":
                self.pos += 1
                return Var()
            if name in ("min", "max"):
                self.pos += 1
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.at(","):
                    self.pos += 1
                    args.append(self.parse_expr())
                self.expect_op(")")
                return MinE(tuple(args)) if name == "min" else MaxE(tuple(args))
            if name == "abs":
                self.pos += 1
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return Abs(inner)
            if name in KEYWORDS:
                raise SpecError(f"keyword {name!r} cannot be used here", tok.line, tok.col)
            if name not in self.declared:
                raise SpecError(
                    f"undeclared name {name!r}", tok.line, tok.col, kind="undeclared"
                )
            self.pos += 1
            return Ref(name)
        raise SpecError("expected an expression", tok.line, tok.col)

    # -- statements ---------------------------------------------------------

    def parse_tail_rule(self) -> TailSpec:
        start = self.peek()
        c = self.parse_rational()
        rule: TailRule | None = None
        if self.at("/"):
            self.pos += 1
            n_tok = self.peek()
            if n_tok.kind != "NAME" or n_tok.text != "n":
                raise SpecError("expected 'n' after '/'", n_tok.line, n_tok.col)
            self.pos += 1
            rule = TailRule.harmonic(c)
        elif self.at("*") and self._geometric_ahead():
            self.pos += 1
            q = self.parse_rational()
            self.expect_op("^")
            n_tok = self.peek()
            if n_tok.kind != "NAME" or n_tok.text != "n":
                raise SpecError("expected 'n' after '^'", n_tok.line, n_tok.col)
            self.pos += 1
            if abs(q) >= 1:
                raise SpecError(
                    f"geometric ratio {q} must satisfy |q| < 1",
                    start.line,
                    start.col,
                    kind="semantic",
                )
            rule = TailRule.geometric(c, q)
        elif c == 0:
            rule = TailRule.zero()
        else:
            raise SpecError(
                "tail coefficients must converge to 0 (use c/n, c*q^n, or 0)",
                start.line,
                start.col,
                kind="semantic",
            )
        shape: Expr | None = None
        if self.at("*"):
            self.pos += 1
            shape = self.parse_expr()
        return TailSpec(rule, shape)

    def _geometric_ahead(self) -> bool:
        """After a leading rational and '*': does a ratio of the form q^n follow?"""
        keys, i = self.keys, self.pos + 1  # the token after '*'
        while keys[i] == "-":
            i += 1
        if keys[i] != "INT":
            return False
        i += 1
        if keys[i] == "/":
            if keys[i + 1] != "INT":
                return False
            i += 2
        return keys[i] == "^"

    def parse(self) -> SpecAST:
        decls: list[tuple[str, Expr]] = []
        grid: int | None = None
        limit: Expr | None = None
        tail: TailSpec | None = None
        while True:
            key = self.keys[self.pos]
            if key == "EOF":
                break
            if key == "NEWLINE":
                self.pos += 1
                continue
            tok = self.peek()
            if key != "NAME":
                raise SpecError("expected a declaration or directive", tok.line, tok.col)
            if tok.text == "grid":
                if grid is not None:
                    raise SpecError("duplicate grid directive", tok.line, tok.col)
                self.pos += 1
                num = self.peek()
                grid = int_of(num.text) if num.kind == "INT" else 0
                if grid < 1:
                    raise SpecError("grid needs a positive integer", num.line, num.col)
                if grid > MAX_GRID:
                    raise SpecError(f"grid denominator above {MAX_GRID}", num.line, num.col)
                self.pos += 1
            elif tok.text == "limit":
                if limit is not None:
                    raise SpecError("duplicate limit directive", tok.line, tok.col)
                self.pos += 1
                limit = self.parse_expr()
            elif tok.text == "tail":
                if tail is not None:
                    raise SpecError("duplicate tail directive", tok.line, tok.col)
                self.pos += 1
                tail = self.parse_tail_rule()
            else:
                name = tok.text
                if name in KEYWORDS:
                    raise SpecError(
                        f"keyword {name!r} cannot be declared", tok.line, tok.col
                    )
                if name in self.declared:
                    raise SpecError(f"duplicate declaration {name!r}", tok.line, tok.col)
                self.pos += 1
                self.expect_op("=")
                expr = self.parse_expr()
                decls.append((name, expr))
                self.declared.add(name)
            self.end_line()
        eof = self.tokens[-1]
        return SpecAST(tuple(decls), grid, limit, tail, (eof.line, eof.col))


def oracle_parse_spec(text: str) -> SpecAST:
    return _OracleParser(oracle_tokenize(text)).parse()


def oracle_elaborate(e: Expr, env: dict[str, PLFunc]) -> PLFunc:
    if isinstance(e, Lit):
        return PLFunc.constant(e.value)
    if isinstance(e, Var):
        return PLFunc.identity()
    if isinstance(e, Ref):
        return env[e.name]
    if isinstance(e, Sum):
        return pl_sum([oracle_elaborate(t, env) for t in e.terms])
    if isinstance(e, Scale):
        return pl_scale(e.factor, oracle_elaborate(e.body, env))
    if isinstance(e, MinE):
        return pl_min([oracle_elaborate(a, env) for a in e.args])
    if isinstance(e, MaxE):
        return pl_max([oracle_elaborate(a, env) for a in e.args])
    if isinstance(e, Abs):
        return pl_abs(oracle_elaborate(e.body, env))
    raise TypeError(f"unknown expression {e!r}")


def _tokens_or_error(tokenizer, text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(text)]
    except SpecError as exc:
        return (exc.message, exc.line, exc.col, exc.kind)


# ASCII operators and blanks, letters and digits in and out of ASCII ("²",
# "½" and "Ⅻ" are numeric but not decimal; "٣" and "७" are decimal), other
# characters no token takes, and runs near the bounds.
_TEXT_PIECES = st.one_of(
    st.sampled_from(list("=+-*/^(),# \t\r\n_ux1b0") + list("éßλ²½Ⅻ٣७$\xa0\x0b")),
    st.integers(MAX_DIGITS - 2, MAX_DIGITS + 1).map(lambda n: "7" * n),
    st.sampled_from(["(" * MAX_DEPTH, ")" * 3, "min(", "abs(", "u1 = "]),
)


def _factors() -> st.SearchStrategy[Fraction]:
    """Scale factors: zero, small of either sign, and about 4,000 bits."""
    huge = st.builds(
        lambda n, d, s: Fraction(s * n, d),
        st.integers(2**3990, 2**4000),
        st.integers(1, 2**4000),
        st.sampled_from((1, -1)),
    )
    small = st.fractions(min_value=-8, max_value=8, max_denominator=8)
    return st.one_of(st.just(Fraction(0)), small, huge)


# "m" is min(x, 1 - x); "z" is 0 * m, which keeps the three knots of m.
_M = pl_min((PLFunc.identity(), PLFunc.affine(-1, 1)))
_ENV = {"m": _M, "z": pl_scale(0, _M)}
_LEAVES = st.one_of(
    st.builds(Lit, st.fractions(min_value=-8, max_value=8, max_denominator=8)),
    st.just(Var()),
    st.sampled_from([Ref("m"), Ref("z")]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=4).map(lambda ts: Sum(tuple(ts))),
        st.builds(Scale, _factors(), kids),
        st.lists(kids, min_size=1, max_size=3).map(lambda ts: MinE(tuple(ts))),
        st.lists(kids, min_size=1, max_size=3).map(lambda ts: MaxE(tuple(ts))),
        st.builds(Abs, kids),
    ),
    max_leaves=12,
)


def _ast_or_error(parse, text: str):
    try:
        ast = parse(text)
    except SpecError as exc:
        return (exc.message, exc.line, exc.col, exc.kind)
    return ast, ast.end


def _spliced(printed: str, piece: str, at: int) -> str:
    at %= len(printed) + 1
    return printed[:at] + piece + printed[at:]


# Specs that parse: random specs printed back, and declarations of _TREES
# (with their references declared) whose scale factors reach past
# MAX_DIGITS.  Specs that do not: runs of _TEXT_PIECES, and printed specs
# with a piece spliced in anywhere.
_PRINTED = st.one_of(
    st.randoms(use_true_random=False).map(lambda rng: pp_spec(random_spec(rng))),
    _TREES.map(lambda tree: f"m = min(x, 1 - x)\nz = 0 * m\nu1 = {pp_expr(tree)}\n"),
)
_SPEC_TEXTS = st.one_of(
    _PRINTED,
    st.lists(_TEXT_PIECES, max_size=30).map("".join),
    st.builds(_spliced, _PRINTED, _TEXT_PIECES, st.integers(0)),
)


class TestOracles:
    @given(_SPEC_TEXTS)
    @settings(max_examples=400, deadline=None)
    # Literal factors fold as the oracle folds them: nested scalings stay
    # nested, a lone (1 * x) keeps its factor, and a minus run on a
    # subtracted factor negates twice.
    @example("u1 = 2 * (3 * x) - (1 * x) + -(2 * x) * -3 - -x - (4)\n")
    @example("u1 = x * -1/2 * (3) * -(5/7) - 2 * 3\n")
    # Past the term: "/" and "^" are reported before a second non-constant
    # factor, which is reported at the term's last token.
    @example("u1 = x * x / 2\n")
    @example("u1 = x * 2 * x ^ 2\n")
    @example("u1 = x * x * 2 + 1\n")
    # A comment, blanks and no final line break before the end.
    @example("u1 = x  # c\n\t \n  ")
    def test_parse_matches_oracle(self, text: str):
        assert _ast_or_error(parse_spec, text) == _ast_or_error(oracle_parse_spec, text)

    @given(st.lists(_TEXT_PIECES, max_size=30).map("".join))
    @settings(max_examples=300, deadline=None)
    # Depth never goes below 0, and it starts again at 0 on each line.
    @example(")" + "(" * (MAX_DEPTH + 1))
    @example("(" * MAX_DEPTH + "\n" + "(" * MAX_DEPTH)
    def test_tokenize_matches_oracle(self, text: str):
        assert _tokens_or_error(scanned, text) == _tokens_or_error(oracle_tokenize, text)

    @given(_TREES)
    @settings(max_examples=300, deadline=None)
    # 0 * m keeps the three knots of m; a sum of one term has the knots of
    # pl_sum, which merges equal lines.
    @example(Scale(Fraction(0), MinE((Var(), Sum((Lit(Fraction(1)), Scale(Fraction(-1), Var())))))))
    @example(Sum((Ref("z"),)))
    @example(Sum((Lit(Fraction(1)), Ref("z"), Scale(Fraction(-1), Lit(Fraction(1))))))
    def test_elaborate_matches_oracle(self, tree: Expr):
        f, expected = elaborate_expr(tree, _ENV), oracle_elaborate(tree, _ENV)
        assert (f.breakpoints, f.values) == (expected.breakpoints, expected.values)
        assert f.line_form == PLFunc(f.breakpoints, f.values).line_form

    def test_scanner_classes_are_the_str_predicates(self):
        # The scanner's \d and \w stand for the predicates the oracle calls.
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        decimal = "".join(c for c in chars if c.isdecimal())
        word = "".join(c for c in chars if c.isalnum() or c == "_")
        assert "".join(re.findall(r"\d", chars)) == decimal
        assert "".join(re.findall(r"\w", chars)) == word

    def test_trailing_blanks(self):
        # A line's trailing blanks are cut before it is scanned, so a long run
        # of them costs one pass, and they leave the NEWLINE column as it was.
        text = "u1 = x" + " \t\r" * 50_000 + "\n"
        assert scanned(text) == oracle_tokenize(text)
        assert scanned(text)[3] == Token("NEWLINE", "", 1, 150_007)
