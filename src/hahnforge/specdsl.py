"""Parser and elaborator for the family-specification DSL.

Grammar (one statement per line, ``#`` starts a comment):

    spec      := line*
    line      := ident "=" expr | directive
    directive := "grid" nat | "limit" expr | "tail" tailrule ["*" expr]
    tailrule  := "0" | rational "/" "n" | rational "*" rational "^" "n"
    expr      := term {("+" | "-") term}
    term      := unary {"*" unary}
    unary     := {"-"} primary
    primary   := rational | "x" | ident
               | ("min" | "max") "(" expr {"," expr} ")"
               | "abs" "(" expr ")" | "(" expr ")"
    rational  := int ["/" posint]

Products must contain at most one non-constant factor and division is legal
only inside rational literals; violations are reported as non-PL constructs
rather than plain syntax errors.  Identifiers refer to earlier declarations.
Every diagnostic carries a 1-based line and column.

A sum is one ``Sum`` node over its terms, a subtracted term stored negated, so
a long sum or a run of minus signs costs no recursion.  Only parentheses
nest: an open ``(`` more than ``MAX_DEPTH`` (100) deep on a line, and an
integer literal longer than ``MAX_DIGITS`` (1000) digits, are syntax errors;
literals are read through ``rational`` under any digit limit.  A ``grid``
denominator above ``MAX_GRID`` (10,000) is a syntax error too.

Elaboration turns expressions into exact ``PLFunc`` values; the declarations,
in order, form the function family of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .pairs import StableFamily
from .plalg import PLFunc, pl_abs, pl_max, pl_min, pl_scale, pl_sum, uniform_grid
from .rational import int_of
from .sections import TailFamily
from .tailrules import TailRule

KEYWORDS = {"x", "min", "max", "abs", "grid", "tail", "limit", "n"}
DEFAULT_GRID = 64  # grid denominator when neither the spec nor the command line sets one
# Parsing, elaboration and AST equality recurse once per open "(", so its
# depth is bounded well inside Python's recursion limit.  Literals are
# bounded because reading one costs more than linear time in its length.
# Every command evaluates at each grid point, so the grid denominator, from
# the directive or --grid, is bounded, and with it a run's time and memory.
MAX_DEPTH = 100
MAX_DIGITS = 1000
MAX_GRID = 10_000


class SpecError(Exception):
    """Diagnostic with position; kind is syntax, non-pl, undeclared, semantic, or encoding."""

    def __init__(self, message: str, line: int, col: int, kind: str = "syntax"):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.kind = kind


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | OP | NEWLINE | EOF
    text: str
    line: int
    col: int


_OPS = set("=+-*/^(),")


def tokenize(text: str) -> list[Token]:
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


class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Ref(Expr):
    name: str


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Scale(Expr):
    factor: Fraction
    body: Expr


@dataclass(frozen=True)
class MinE(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class MaxE(Expr):
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Abs(Expr):
    body: Expr


@dataclass(frozen=True)
class TailSpec:
    rule: TailRule
    shape: Expr | None = None


@dataclass(frozen=True)
class SpecAST:
    decls: tuple[tuple[str, Expr], ...]
    grid: int | None = None
    limit: Expr | None = None
    tail: TailSpec | None = None
    # (line, col) just past the last character: where semantic errors about
    # what the whole spec lacks point.  Not compared, so two layouts of the
    # same spec parse to equal ASTs.
    end: tuple[int, int] = field(default=(1, 1), compare=False)


def _negate(e: Expr) -> Expr:
    if isinstance(e, Lit):
        return Lit(-e.value)
    if isinstance(e, Scale):
        return Scale(-e.factor, e.body)
    return Scale(Fraction(-1), e)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.declared: set[str] = set()

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != text:
            raise SpecError(f"expected {text!r}", tok.line, tok.col)
        return self.advance()

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == text

    def end_line(self) -> None:
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            raise SpecError(f"unexpected {tok.text!r}", tok.line, tok.col)

    # -- expressions --------------------------------------------------------

    def parse_rational(self) -> Fraction:
        sign = 1
        while self.at_op("-"):
            self.advance()
            sign = -sign
        tok = self.peek()
        if tok.kind != "INT":
            raise SpecError("expected a rational literal", tok.line, tok.col)
        num = int_of(self.advance().text)
        den = 1
        # "/" belongs to the literal only when an integer denominator follows;
        # otherwise it is left for the caller (tail rules parse "/ n" there,
        # expressions report it as a non-PL construct).
        if self.at_op("/") and self.peek(1).kind == "INT":
            self.advance()
            den_tok = self.advance()
            den = int_of(den_tok.text)
            if den == 0:
                raise SpecError("zero denominator", den_tok.line, den_tok.col)
        return Fraction(sign * num, den)

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while self.at_op("+") or self.at_op("-"):
            minus = self.advance().text == "-"
            term = self.parse_term()
            terms.append(_negate(term) if minus else term)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self) -> Expr:
        factors = [self.parse_unary()]
        while True:
            if self.at_op("*"):
                self.advance()
                factors.append(self.parse_unary())
            elif self.at_op("/"):
                tok = self.peek()
                raise SpecError(
                    "non-PL construct: division outside a rational literal",
                    tok.line,
                    tok.col,
                    kind="non-pl",
                )
            elif self.at_op("^"):
                tok = self.peek()
                raise SpecError(
                    "non-PL construct: exponentiation", tok.line, tok.col, kind="non-pl"
                )
            else:
                break
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
        if body is None:
            return Lit(constant)
        if len(factors) == 1:
            return body
        return Scale(constant, body)

    def parse_unary(self) -> Expr:
        minus = False
        while self.at_op("-"):
            self.advance()
            minus = not minus
        primary = self.parse_primary()
        return _negate(primary) if minus else primary

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            value = self.parse_rational()
            return Lit(value)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "NAME":
            name = tok.text
            if name == "x":
                self.advance()
                return Var()
            if name in ("min", "max"):
                self.advance()
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.at_op(","):
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                return MinE(tuple(args)) if name == "min" else MaxE(tuple(args))
            if name == "abs":
                self.advance()
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
            self.advance()
            return Ref(name)
        raise SpecError("expected an expression", tok.line, tok.col)

    # -- statements ---------------------------------------------------------

    def parse_tail_rule(self) -> TailSpec:
        start = self.peek()
        c = self.parse_rational()
        rule: TailRule | None = None
        if self.at_op("/"):
            self.advance()
            n_tok = self.peek()
            if n_tok.kind != "NAME" or n_tok.text != "n":
                raise SpecError("expected 'n' after '/'", n_tok.line, n_tok.col)
            self.advance()
            rule = TailRule.harmonic(c)
        elif self.at_op("*") and self._geometric_ahead():
            self.advance()
            q = self.parse_rational()
            self.expect_op("^")
            n_tok = self.peek()
            if n_tok.kind != "NAME" or n_tok.text != "n":
                raise SpecError("expected 'n' after '^'", n_tok.line, n_tok.col)
            self.advance()
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
        if self.at_op("*"):
            self.advance()
            shape = self.parse_expr()
        return TailSpec(rule, shape)

    def _geometric_ahead(self) -> bool:
        """After a leading rational and '*': does a ratio of the form q^n follow?"""
        i = 1  # token after '*'
        while self.peek(i).kind == "OP" and self.peek(i).text == "-":
            i += 1
        if self.peek(i).kind != "INT":
            return False
        i += 1
        if self.peek(i).kind == "OP" and self.peek(i).text == "/":
            if self.peek(i + 1).kind != "INT":
                return False
            i += 2
        return self.peek(i).kind == "OP" and self.peek(i).text == "^"

    def parse(self) -> SpecAST:
        decls: list[tuple[str, Expr]] = []
        grid: int | None = None
        limit: Expr | None = None
        tail: TailSpec | None = None
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "NEWLINE":
                self.advance()
                continue
            if tok.kind != "NAME":
                raise SpecError("expected a declaration or directive", tok.line, tok.col)
            if tok.text == "grid":
                if grid is not None:
                    raise SpecError("duplicate grid directive", tok.line, tok.col)
                self.advance()
                num = self.peek()
                grid = int_of(num.text) if num.kind == "INT" else 0
                if grid < 1:
                    raise SpecError("grid needs a positive integer", num.line, num.col)
                if grid > MAX_GRID:
                    raise SpecError(f"grid denominator above {MAX_GRID}", num.line, num.col)
                self.advance()
            elif tok.text == "limit":
                if limit is not None:
                    raise SpecError("duplicate limit directive", tok.line, tok.col)
                self.advance()
                limit = self.parse_expr()
            elif tok.text == "tail":
                if tail is not None:
                    raise SpecError("duplicate tail directive", tok.line, tok.col)
                self.advance()
                tail = self.parse_tail_rule()
            else:
                name = tok.text
                if name in KEYWORDS:
                    raise SpecError(
                        f"keyword {name!r} cannot be declared", tok.line, tok.col
                    )
                if name in self.declared:
                    raise SpecError(f"duplicate declaration {name!r}", tok.line, tok.col)
                self.advance()
                self.expect_op("=")
                expr = self.parse_expr()
                decls.append((name, expr))
                self.declared.add(name)
            self.end_line()
        eof = self.tokens[-1]
        return SpecAST(tuple(decls), grid, limit, tail, (eof.line, eof.col))


def parse_spec(text: str) -> SpecAST:
    return _Parser(tokenize(text)).parse()


# -- elaboration -------------------------------------------------------------


def elaborate_expr(e: Expr, env: dict[str, PLFunc]) -> PLFunc:
    if isinstance(e, Lit):
        return PLFunc.constant(e.value)
    if isinstance(e, Var):
        return PLFunc.identity()
    if isinstance(e, Ref):
        return env[e.name]
    if isinstance(e, Sum):
        return pl_sum([elaborate_expr(t, env) for t in e.terms])
    if isinstance(e, Scale):
        return pl_scale(e.factor, elaborate_expr(e.body, env))
    if isinstance(e, MinE):
        return pl_min([elaborate_expr(a, env) for a in e.args])
    if isinstance(e, MaxE):
        return pl_max([elaborate_expr(a, env) for a in e.args])
    if isinstance(e, Abs):
        return pl_abs(elaborate_expr(e.body, env))
    raise TypeError(f"unknown expression {e!r}")


def elaborate(ast: SpecAST) -> dict[str, PLFunc]:
    env: dict[str, PLFunc] = {}
    for name, expr in ast.decls:
        env[name] = elaborate_expr(expr, env)
    return env


def family_from_spec(ast: SpecAST) -> StableFamily:
    """All declarations, in order, form the family."""
    if not ast.decls:
        raise SpecError("spec declares no functions", *ast.end, kind="semantic")
    env = elaborate(ast)
    return StableFamily(tuple(env[name] for name, _ in ast.decls))


def tail_family_from_spec(ast: SpecAST) -> TailFamily:
    """Head from the declarations, limit and tail from their directives."""
    if ast.limit is None or ast.tail is None:
        raise SpecError(
            "sections need both a limit and a tail directive", *ast.end, kind="semantic"
        )
    env = elaborate(ast)
    head = tuple(env[name] for name, _ in ast.decls)
    limit = elaborate_expr(ast.limit, env)
    shape = (
        PLFunc.constant(1)
        if ast.tail.shape is None
        else elaborate_expr(ast.tail.shape, env)
    )
    return TailFamily(head, limit, ast.tail.rule, shape)


def grid_from_spec(ast: SpecAST, override: int | None = None) -> list[Fraction]:
    n = override if override is not None else (ast.grid if ast.grid is not None else DEFAULT_GRID)
    return uniform_grid(n)
