"""Parser and elaborator for the family-specification DSL.

Grammar (one statement per line, ``#`` starts a comment):

    spec      := line*
    line      := ident "=" expr | directive
    directive := "grid" nat | "limit" expr | "tail" tailrule ["*" expr]
    tailrule  := "0" | rational "/" "n" | rational "*" rational "^" "n"
    expr      := term {("+" | "-") term}
    term      := factor {"*" factor}
    factor    := {"-"} primary
    primary   := rational | "x" | ident
               | ("min" | "max") "(" expr {"," expr} ")"
               | "abs" "(" expr ")" | "(" expr ")"
    rational  := int ["/" posint]

Products must contain at most one non-constant factor and division is legal
only inside rational literals; violations are reported as non-PL constructs
rather than plain syntax errors.  Identifiers refer to earlier declarations.
Every diagnostic carries a 1-based line and column.

Reading a spec is one pass from text to ``PLFunc`` values that builds no
object it throws away.  The whole text is scanned once, by one compiled
pattern, into three parallel lists: each token's key (an operator's text, or
else the token kind), its text and its start offset.  A token's (line, col)
is computed from its offset only when a diagnostic or ``SpecAST.end`` needs
it.  Each lookahead is one list index.  A sum is one ``Sum`` node over its
terms, a subtracted term stored negated, and a term is one loop over its
factors, so a long sum, product or run of minus signs costs no recursion.
Literal factors multiply as integer (num, den) pairs, so a literal or a
scaling builds one ``Fraction``.  Only parentheses nest: an open ``(`` more
than ``MAX_DEPTH`` (100) deep on a line, and an integer literal longer than
``MAX_DIGITS`` (1000) digits, are syntax errors; literals are read through
``rational`` under any digit limit.  A ``grid`` denominator above
``MAX_GRID`` (10,000) is a syntax error too.

Elaboration turns expressions into exact ``PLFunc`` values; the declarations,
in order, form the function family of the spec.  Each subtree becomes the
integer form (knots, lines) of ``plalg``, and only a declaration's value is
built as a ``PLFunc``.  A subtree of literals, ``x``, sums and scalings is
affine: its form is one reduced integer line.  ``min``, ``max`` and ``abs``
fold their arguments' forms with the envelope kernel behind ``pl_min`` and
``pl_max``, and a sum of affine and other terms adds its affine terms as one
line, with the kernel behind ``pl_sum``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .pairs import StableFamily
from .plalg import (
    Form,
    Knot,
    Line,
    PLFunc,
    envelope_form,
    reduced_line,
    scale_form,
    sum_form,
    uniform_grid,
)
from .rational import int_of, rat_text
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


# One token after optional blanks: a decimal integer (\d is exactly
# str.isdecimal, what int() reads), a name (\w is exactly isalnum() or "_"),
# an operator, a line break, a comment up to the line break, or any other
# non-blank character, an error.  A name must start with a letter or "_", but
# [^\W\d] also admits digits that are not decimal, such as "²", so its first
# character is checked after the match.  Trailing blanks are cut before the
# text is scanned, so every scan matches: a failed scan would be retried at
# each later blank, quadratic in their number.
_TOKEN = re.compile(r"[ \t\r]*(?:(\d+)|([^\W\d]\w*)|([=+\-*/^(),])|(\n)|(#[^\n]*)|([^ \t\r]))")
_INT, _NAME, _OP, _NEWLINE, _COMMENT = 1, 2, 3, 4, 5


def _where(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, col) of a text offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """The tokens of the text, in one pass, as three parallel lists: each
    token's key (an operator's text, or else its kind: INT, NAME, NEWLINE, and
    EOF last), its text, and its start offset."""
    keys: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    depth = 0
    for m in _TOKEN.finditer(text, 0, len(text.rstrip(" \t\r"))):
        group = m.lastindex
        tok = m[group]
        if group == _OP:
            if tok == "(":
                depth += 1
                if depth > MAX_DEPTH:
                    raise SpecError(
                        f"parentheses nested deeper than {MAX_DEPTH}", *_where(text, m.start(group))
                    )
            elif tok == ")" and depth:
                depth -= 1
            keys.append(tok)
        elif group == _NAME and (tok[0].isalpha() or tok[0] == "_"):
            keys.append("NAME")
        elif group == _INT:
            if len(tok) > MAX_DIGITS:
                raise SpecError(
                    f"integer literal longer than {MAX_DIGITS} digits", *_where(text, m.start(group))
                )
            keys.append("INT")
        elif group == _NEWLINE:
            depth = 0
            keys.append("NEWLINE")
            tok = ""
        elif group == _COMMENT:
            continue
        else:
            raise SpecError(f"unexpected character {tok[0]!r}", *_where(text, m.start(group)))
        texts.append(tok)
        starts.append(m.start(group))
    keys.append("EOF")
    texts.append("")
    starts.append(len(text))
    return keys, texts, starts


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


_MINUS_ONE = Fraction(-1)


def _negate(e: Expr) -> Expr:
    """-e, for an e that is not a literal."""
    if isinstance(e, Scale):
        return Scale(-e.factor, e.body)
    return Scale(_MINUS_ONE, e)


class _Parser:
    """Recursive descent over the scanned token columns.  ``keys[i]`` is
    token i's operator text, or else its kind, so every lookahead is one list
    index.  EOF is the last token and no lookahead passes it, so no index runs
    off the list.  A token's (line, col) is found from its offset only when a
    diagnostic needs it."""

    def __init__(self, text: str):
        self.text = text
        self.keys, self.texts, self.starts = _scan(text)
        self.pos = 0
        self.declared: set[str] = set()

    def error(self, message: str, at: int | None = None, kind: str = "syntax") -> SpecError:
        """The diagnostic at token ``at``, the current token by default."""
        offset = self.starts[self.pos if at is None else at]
        return SpecError(message, *_where(self.text, offset), kind)

    def expect_op(self, text: str) -> None:
        if self.keys[self.pos] != text:
            raise self.error(f"expected {text!r}")
        self.pos += 1

    def end_line(self) -> None:
        key = self.keys[self.pos]
        if key == "NEWLINE":
            self.pos += 1
        elif key != "EOF":
            raise self.error(f"unexpected {self.texts[self.pos]!r}")

    # -- expressions --------------------------------------------------------

    def parse_literal(self) -> tuple[int, int]:
        """The INT token here, over the integer after its "/" if one follows,
        as (num, den).  "/" belongs to the literal only when an integer
        denominator follows; otherwise it is left for the caller (tail rules
        parse "/ n" there, terms report it as a non-PL construct)."""
        keys, texts, pos = self.keys, self.texts, self.pos
        num = int_of(texts[pos])
        if keys[pos + 1] == "/" and keys[pos + 2] == "INT":
            den = int_of(texts[pos + 2])
            if den == 0:
                raise self.error("zero denominator", pos + 2)
            self.pos = pos + 3
            return num, den
        self.pos = pos + 1
        return num, 1

    def parse_rational(self) -> Fraction:
        sign = 1
        while self.keys[self.pos] == "-":
            self.pos += 1
            sign = -sign
        if self.keys[self.pos] != "INT":
            raise self.error("expected a rational literal")
        num, den = self.parse_literal()
        return Fraction(sign * num, den)

    def parse_expr(self) -> Expr:
        term = self.parse_term(False)
        keys = self.keys
        key = keys[self.pos]
        if key != "+" and key != "-":
            return term
        terms = [term]
        while key == "+" or key == "-":
            self.pos += 1
            terms.append(self.parse_term(key == "-"))
            key = keys[self.pos]
        return Sum(tuple(terms))

    def parse_term(self, negative: bool) -> Expr:
        """factor {"*" factor}, negated if ``negative`` (a subtracted term);
        a factor is a run of minus signs and a primary.  Literal factors, and
        parenthesized constants, multiply as integers into one constant.  At
        most one factor may be non-constant: the term is then Scale(constant,
        that factor), or the factor itself if it is the only one; else it is
        Lit(constant)."""
        keys = self.keys
        num = den = 1
        body: Expr | None = None
        factors = 0
        twice = False
        while True:
            factors += 1
            minus = False
            while keys[self.pos] == "-":
                self.pos += 1
                minus = not minus
            if keys[self.pos] == "INT":
                n, d = self.parse_literal()
                num, den = num * (-n if minus else n), den * d
            else:
                factor = self.parse_primary()
                if isinstance(factor, Lit):
                    n, d = factor.value.numerator, factor.value.denominator
                    num, den = num * (-n if minus else n), den * d
                elif body is None:
                    body = _negate(factor) if minus else factor
                else:
                    twice = True
            key = keys[self.pos]
            if key != "*":
                break
            self.pos += 1
        # A "/" or "^" after the term is reported before a second
        # non-constant factor, which is reported at the term's last token.
        if key == "/" or key == "^":
            message = "division outside a rational literal" if key == "/" else "exponentiation"
            raise self.error(f"non-PL construct: {message}", kind="non-pl")
        if twice:
            raise self.error(
                "non-PL construct: product of two non-constant expressions",
                self.pos - 1,
                kind="non-pl",
            )
        if body is not None and factors == 1:
            return _negate(body) if negative else body
        constant = Fraction(-num if negative else num, den)
        return Lit(constant) if body is None else Scale(constant, body)

    def parse_primary(self) -> Expr:
        key = self.keys[self.pos]
        if key == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if key == "NAME":
            name = self.texts[self.pos]
            if name == "x":
                self.pos += 1
                return Var()
            if name == "min" or name == "max":
                self.pos += 1
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.keys[self.pos] == ",":
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
                raise self.error(f"keyword {name!r} cannot be used here")
            if name not in self.declared:
                raise self.error(f"undeclared name {name!r}", kind="undeclared")
            self.pos += 1
            return Ref(name)
        raise self.error("expected an expression")

    # -- statements ---------------------------------------------------------

    def expect_n(self, after: str) -> None:
        # Only a NAME token's text can be "n".
        if self.texts[self.pos] != "n":
            raise self.error(f"expected 'n' after {after!r}")
        self.pos += 1

    def parse_tail_rule(self) -> TailSpec:
        start = self.pos
        c = self.parse_rational()
        key = self.keys[self.pos]
        if key == "/":
            self.pos += 1
            self.expect_n("/")
            rule = TailRule.harmonic(c)
        elif key == "*" and self._geometric_ahead():
            self.pos += 1
            q = self.parse_rational()
            self.expect_op("^")
            self.expect_n("^")
            if abs(q) >= 1:
                raise self.error(
                    f"geometric ratio {rat_text(q)} must satisfy |q| < 1", start, kind="semantic"
                )
            rule = TailRule.geometric(c, q)
        elif c == 0:
            rule = TailRule.zero()
        else:
            raise self.error(
                "tail coefficients must converge to 0 (use c/n, c*q^n, or 0)",
                start,
                kind="semantic",
            )
        shape: Expr | None = None
        if self.keys[self.pos] == "*":
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
        keys, texts = self.keys, self.texts
        while True:
            key = keys[self.pos]
            if key == "EOF":
                break
            if key == "NEWLINE":
                self.pos += 1
                continue
            if key != "NAME":
                raise self.error("expected a declaration or directive")
            word = texts[self.pos]
            if word == "grid":
                if grid is not None:
                    raise self.error("duplicate grid directive")
                self.pos += 1
                grid = int_of(texts[self.pos]) if keys[self.pos] == "INT" else 0
                if grid < 1:
                    raise self.error("grid needs a positive integer")
                if grid > MAX_GRID:
                    raise self.error(f"grid denominator above {MAX_GRID}")
                self.pos += 1
            elif word == "limit":
                if limit is not None:
                    raise self.error("duplicate limit directive")
                self.pos += 1
                limit = self.parse_expr()
            elif word == "tail":
                if tail is not None:
                    raise self.error("duplicate tail directive")
                self.pos += 1
                tail = self.parse_tail_rule()
            else:
                if word in KEYWORDS:
                    raise self.error(f"keyword {word!r} cannot be declared")
                if word in self.declared:
                    raise self.error(f"duplicate declaration {word!r}")
                self.pos += 1
                self.expect_op("=")
                decls.append((word, self.parse_expr()))
                self.declared.add(word)
            self.end_line()
        return SpecAST(tuple(decls), grid, limit, tail, _where(self.text, len(self.text)))


def parse_spec(text: str) -> SpecAST:
    return _Parser(text).parse()


# -- elaboration -------------------------------------------------------------


# Every subtree elaborates, bottom up, to an integer form (knots, lines), as
# ``plalg`` defines it, and only a declaration's value is built as a PLFunc.
# A subtree of literals, x, sums and scalings is affine: its form has one
# line (a, b, d), the map x -> (a*x + b) / d, with d > 0 and gcd(a, b, d) = 1.
# Envelopes and sums fold forms with the kernels behind pl_min, pl_max and
# pl_sum, scalings and negations map lines, so each form is the line form of
# the PLFunc those operations would return.  A sum of forms has only 0, 1
# and its slope changes as knots, so a sum whose affine terms are added first
# has the same form as the sum term by term.
_UNIT = ((0, 1), (1, 1))
_X: Form = (_UNIT, ((1, 0, 1),))


def _fold(e: Expr, env: dict[str, PLFunc]) -> Form:
    """The form of e."""
    if isinstance(e, Sum):
        line: Line | None = None
        forms: list[Form] = []
        for term in e.terms:
            form = _fold(term, env)
            if len(form[1]) != 1:
                forms.append(form)
            elif line is None:
                line = form[1][0]
            else:
                (a1, b1, d1), (a2, b2, d2) = line, form[1][0]
                line = reduced_line(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
        if not forms:
            return _UNIT, (line,)
        return sum_form(forms if line is None else [(_UNIT, (line,)), *forms])
    if isinstance(e, Scale):
        return scale_form(e.factor.numerator, e.factor.denominator, _fold(e.body, env))
    if isinstance(e, Lit):
        return _UNIT, ((0, e.value.numerator, e.value.denominator),)
    if isinstance(e, Var):
        return _X
    if isinstance(e, MinE):
        return envelope_form([_fold(a, env) for a in e.args], True)
    if isinstance(e, MaxE):
        return envelope_form([_fold(a, env) for a in e.args], False)
    if isinstance(e, Ref):
        return env[e.name].line_form
    if isinstance(e, Abs):
        body = _fold(e.body, env)
        return envelope_form([body, scale_form(-1, 1, body)], False)
    raise TypeError(f"unknown expression {e!r}")


def elaborate_expr(e: Expr, env: dict[str, PLFunc]) -> PLFunc:
    return PLFunc.from_form(*_fold(e, env))


def elaborate(ast: SpecAST) -> dict[str, PLFunc]:
    env: dict[str, PLFunc] = {}
    for name, expr in ast.decls:
        env[name] = elaborate_expr(expr, env)
    return env


def family_from_spec(ast: SpecAST) -> StableFamily:
    """All declarations, in order, form the family.  A limit or tail
    directive describes a tail family, which only ``sections`` reads, so it
    is an error here rather than a line silently ignored."""
    if not ast.decls:
        raise SpecError("spec declares no functions", *ast.end, kind="semantic")
    for word, directive in (("limit", ast.limit), ("tail", ast.tail)):
        if directive is not None:
            raise SpecError(
                f"a {word} directive is read only by sections", *ast.end, kind="semantic"
            )
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


def grid_from_spec(ast: SpecAST, override: int | None = None) -> list[Knot]:
    n = override if override is not None else (ast.grid if ast.grid is not None else DEFAULT_GRID)
    return uniform_grid(n)
