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

Reading a spec is one pass from text to ``PLFunc`` values.  ``tokenize``
scans each line with one compiled pattern.  The parser keeps, beside the
tokens, one list of keys (an operator's text, or else the token kind), so
each lookahead is one list index.  A sum is one ``Sum`` node over its terms,
a subtracted term stored negated, so a long sum or a run of minus signs costs
no recursion.  Only parentheses nest: an open ``(`` more than ``MAX_DEPTH``
(100) deep on a line, and an integer literal longer than ``MAX_DIGITS``
(1000) digits, are syntax errors; literals are read through ``rational``
under any digit limit.  A ``grid`` denominator above ``MAX_GRID`` (10,000) is
a syntax error too.

Elaboration turns expressions into exact ``PLFunc`` values; the declarations,
in order, form the function family of the spec.  A subtree of literals,
``x``, sums and scalings is affine: it folds into one reduced integer line
and is built once, as a two-knot ``PLFunc``.  References, ``min``, ``max``
and ``abs`` go through the ``plalg`` operations, and a sum of affine and
other terms calls ``pl_sum`` once, with its affine terms as one line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .pairs import StableFamily
from .plalg import PLFunc, pl_abs, pl_max, pl_min, pl_scale, pl_sum, uniform_grid
from .rational import int_of
from .record import field, record
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


class Token(NamedTuple):
    kind: str  # NAME | INT | OP | NEWLINE | EOF
    text: str
    line: int
    col: int


# One token after optional blanks: a decimal integer (\d is exactly
# str.isdecimal, what int() reads), a name (\w is exactly isalnum() or "_"),
# an operator, a comment, or any other non-blank character, an error.  A name
# must start with a letter or "_", but [^\W\d] also admits digits that are
# not decimal, such as "²", so its first character is checked after the match.
# Trailing blanks are cut before a line is scanned, so every scan matches: a
# failed scan would be retried at each later blank, quadratic in their number.
_TOKEN = re.compile(r"[ \t\r]*(?:(\d+)|([^\W\d]\w*)|([=+\-*/^(),])|(#)|([^ \t\r]))")
_INT, _NAME, _OP, _COMMENT = 1, 2, 3, 4


def tokenize(text: str) -> list[Token]:
    """The tokens of each line, scanned by one pattern, then its NEWLINE; EOF last."""
    tokens: list[Token] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        depth = 0
        for m in _TOKEN.finditer(raw.rstrip(" \t\r")):
            group = m.lastindex
            if group == _COMMENT:
                break
            tok = m[group]
            col = m.start(group) + 1
            if group == _INT:
                if len(tok) > MAX_DIGITS:
                    raise SpecError(
                        f"integer literal longer than {MAX_DIGITS} digits", line_no, col
                    )
                tokens.append(Token("INT", tok, line_no, col))
            elif group == _NAME and (tok[0].isalpha() or tok[0] == "_"):
                tokens.append(Token("NAME", tok, line_no, col))
            elif group == _OP:
                if tok == "(":
                    depth += 1
                    if depth > MAX_DEPTH:
                        raise SpecError(
                            f"parentheses nested deeper than {MAX_DEPTH}", line_no, col
                        )
                elif tok == ")":
                    depth = max(depth - 1, 0)
                tokens.append(Token("OP", tok, line_no, col))
            else:
                raise SpecError(f"unexpected character {tok[0]!r}", line_no, col)
        tokens.append(Token("NEWLINE", "", line_no, len(raw) + 1))
    last_line = text[text.rfind("\n") + 1 :]
    tokens.append(Token("EOF", "", text.count("\n") + 1, len(last_line) + 1))
    return tokens


class Expr:
    pass


@record
class Lit(Expr):
    value: Fraction

    def __init__(self, value: Fraction) -> None:
        object.__setattr__(self, "value", value)


@record
class Var(Expr):
    def __init__(self) -> None:
        pass


@record
class Ref(Expr):
    name: str


@record
class Sum(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, terms: tuple[Expr, ...]) -> None:
        object.__setattr__(self, "terms", terms)


@record
class Scale(Expr):
    factor: Fraction
    body: Expr

    def __init__(self, factor: Fraction, body: Expr) -> None:
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "body", body)


@record
class MinE(Expr):
    args: tuple[Expr, ...]


@record
class MaxE(Expr):
    args: tuple[Expr, ...]


@record
class Abs(Expr):
    body: Expr


@record
class TailSpec:
    rule: TailRule
    shape: Expr | None = None


@record
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
    """Recursive descent over the tokens.  ``keys[i]`` is token i's operator
    text, or else its kind, so every lookahead is one list index.  EOF is the
    last token and no lookahead passes it, so no index runs off the list."""

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
            terms.append(_negate(term) if key == "-" else term)
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
        return _negate(primary) if minus else primary

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


def parse_spec(text: str) -> SpecAST:
    return _Parser(tokenize(text)).parse()


# -- elaboration -------------------------------------------------------------


# An affine subtree folds, bottom up, into one line (a, b, d): the map
# x -> (a*x + b) / d, with d > 0 and gcd(a, b, d) = 1.  It becomes a PLFunc
# only where a reference, an envelope or abs needs one.  pl_sum returns its
# result with consecutive equal lines merged, so a sum whose affine terms are
# folded first has the same knots and values as the sum term by term.
Line = tuple[int, int, int]


def _reduced(a: int, b: int, d: int) -> Line:
    g = gcd(a, b, d)
    return (a // g, b // g, d // g)


def _fold(e: Expr, env: dict[str, PLFunc]) -> Line | PLFunc:
    """The value of e: its line if e is affine, else its PLFunc."""
    if isinstance(e, Lit):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return (1, 0, 1)
    if isinstance(e, Ref):
        return env[e.name]
    if isinstance(e, Sum):
        line: Line | None = None
        funcs: list[PLFunc] = []
        for term in e.terms:
            value = _fold(term, env)
            if isinstance(value, PLFunc):
                funcs.append(value)
            elif line is None:
                line = value
            else:
                (a1, b1, d1), (a2, b2, d2) = line, value
                line = _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
        if not funcs:
            return line
        return pl_sum(funcs if line is None else [PLFunc.from_line(*line), *funcs])
    if isinstance(e, Scale):
        body = _fold(e.body, env)
        if isinstance(body, PLFunc):
            return pl_scale(e.factor, body)
        a, b, d = body
        n, m = e.factor.numerator, e.factor.denominator
        return _reduced(a * n, b * n, d * m)
    if isinstance(e, MinE):
        return pl_min([elaborate_expr(a, env) for a in e.args])
    if isinstance(e, MaxE):
        return pl_max([elaborate_expr(a, env) for a in e.args])
    if isinstance(e, Abs):
        return pl_abs(elaborate_expr(e.body, env))
    raise TypeError(f"unknown expression {e!r}")


def elaborate_expr(e: Expr, env: dict[str, PLFunc]) -> PLFunc:
    value = _fold(e, env)
    return value if isinstance(value, PLFunc) else PLFunc.from_line(*value)


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
