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

Reading a spec is one pass from text to ``PLFunc`` values that runs no
Python loop per token and builds no ``Fraction`` per literal.  The whole text
is scanned by one ``findall`` of one compiled pattern into the list of token
texts, blanks and comments skipped before each token; the empty text marks
the end.  No token's offset is kept: a diagnostic finds its token's (line,
col) by running the same pattern up to that token.  Scan errors are found
with a few whole-string checks, and only a text they flag is walked token by
token, so the first error in text order is reported.  Each lookahead is one
list index.  A sum is one ``Sum`` node over its terms, a subtracted term
stored negated, and a term is one loop over its factors, so a long sum,
product or run of minus signs costs no recursion.  Literal factors multiply
as integer (num, den) pairs, and a ``Lit`` or ``Scale`` holds its reduced
pair; its ``value`` or ``factor`` is a ``Fraction`` view built on first read.
Only parentheses nest: an open ``(`` more than ``MAX_DEPTH`` (100) deep on a
line, and an integer literal longer than ``MAX_DIGITS`` (1000) digits, are
syntax errors; literals are read through ``rational`` under any digit limit.
A ``grid`` denominator above ``MAX_GRID`` (10,000) is a syntax error too.

Elaboration turns expressions into exact ``PLFunc`` values; the declarations,
in order, form the function family of the spec.  Each subtree becomes the
integer form (knots, lines) of ``plalg``, by one call to the fold of its
node's class, and only a declaration's value is built as a ``PLFunc``.  A
subtree of literals, ``x``, sums and scalings is affine: its form is one
reduced integer line.  ``min``, ``max`` and ``abs`` fold their arguments'
forms with the envelope kernel behind ``pl_min`` and ``pl_max``, and a sum
of affine and other terms adds its affine terms as one line, with the
kernel behind ``pl_sum``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from math import gcd
from operator import itemgetter

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


# One token after blanks and a comment, both optional: a decimal integer (\d
# is exactly str.isdecimal, what int() reads), a name (\w is exactly
# isalnum() or "_"), an operator or line break, or any other non-blank
# character, an error.  A name must start with a letter or "_", but [^\W\d]
# also admits digits that are not decimal, such as "²", so first characters
# are checked after the scan.  A comment runs to the line break, which is the
# next token, so after the optional prefix a token always matches: the
# pattern never backtracks, provided the text ends in a token.  So trailing
# blanks, and a comment on the last line, are cut before the text is scanned
# (``_end``); a failed match would be retried at each later character.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?(\d+|[^\W\d]\w*|[=+\-*/^(),\n]|[^ \t\r])")
# First characters that start a token and are not letters: decimal digits,
# "_", the operators and the line break.
_NOT_LETTER = re.compile(r"[\d_=+\-*/^(),\n]+")
# Tokens that are neither a name nor a literal: the operators, the line
# break and the end, "".
_PUNCTUATION = frozenset(["=", "+", "-", "*", "/", "^", "(", ")", ",", "\n", ""])


def _where(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, col) of a text offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _end(text: str) -> int:
    """Where scanning stops: past the last token, before trailing blanks and
    a comment on the last line."""
    end = len(text.rstrip(" \t\r"))
    comment = text.find("#", text.rfind("\n", 0, end) + 1, end)
    return end if comment < 0 else len(text[:comment].rstrip(" \t\r"))


def _scan(text: str) -> list[str]:
    """The token texts, in one ``findall``, with "" for the end last.

    A token's first character tells its kind.  Whole-string checks flag a
    text that may hold a scan error: a first character that is neither a
    letter nor one of ``_NOT_LETTER``, a token longer than ``MAX_DIGITS``, or
    a line with more than ``MAX_DEPTH`` tokens "(".  Only a flagged text is
    walked token by token, by ``_first_error``."""
    tokens = _TOKEN.findall(text, 0, _end(text))
    firsts = "".join(map(itemgetter(0), tokens))
    letters = _NOT_LETTER.sub("", firsts)
    if (
        (letters and not letters.isalpha())
        or max(map(len, tokens), default=0) > MAX_DIGITS
        or max(map(str.count, firsts.split("\n"), repeat("("))) > MAX_DEPTH
    ):
        _first_error(text)
    tokens.append("")
    return tokens


def _first_error(text: str) -> None:
    """Raise the first scan error of the text, in text order, if it has one:
    a character that starts no token, an integer literal longer than
    ``MAX_DIGITS``, or an open "(" deeper than ``MAX_DEPTH`` on its line."""
    depth = 0
    for m in _TOKEN.finditer(text, 0, _end(text)):
        tok = m[1]
        first = tok[0]
        if first == "(":
            depth += 1
            if depth > MAX_DEPTH:
                raise SpecError(
                    f"parentheses nested deeper than {MAX_DEPTH}", *_where(text, m.start(1))
                )
        elif first == ")":
            depth = max(depth - 1, 0)
        elif first == "\n":
            depth = 0
        elif first.isdecimal():
            if len(tok) > MAX_DIGITS:
                raise SpecError(
                    f"integer literal longer than {MAX_DIGITS} digits", *_where(text, m.start(1))
                )
        elif not (first.isalpha() or first in "_=+-*/^,"):
            raise SpecError(f"unexpected character {first!r}", *_where(text, m.start(1)))


def _start(text: str, i: int) -> int:
    """The start offset of token i of ``_scan(text)``, found by running the
    pattern again up to it; the end, "", starts at the end of the text."""
    m = next(islice(_TOKEN.finditer(text, 0, _end(text)), i, None), None)
    return len(text) if m is None else m.start(1)


class Expr:
    pass


# A Lit or Scale stores its constant as a reduced integer pair (num, den),
# den > 0, which the parser multiplies and elaboration reads; the field, a
# Fraction, is a view of the pair built on first read and cached, and ==,
# hash and repr read it.  A node built from a Fraction stores its pair.


@record
class Lit(Expr):
    value: Fraction

    def __init__(self, value: Fraction) -> None:
        self.__dict__["pair"] = (value.numerator, value.denominator)

    @cached_property
    def value(self) -> Fraction:
        return Fraction(*self.pair)


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
        self.__dict__.update(pair=(factor.numerator, factor.denominator), body=body)

    @cached_property
    def factor(self) -> Fraction:
        return Fraction(*self.pair)


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


def _lit(num: int, den: int) -> Lit:
    """Lit(num/den), for a reduced num/den with den > 0, holding only its pair."""
    e = object.__new__(Lit)
    e.__dict__["pair"] = (num, den)
    return e


def _scaled(num: int, den: int, body: Expr) -> Scale:
    """Scale(num/den, body), for a reduced num/den with den > 0, holding only its pair."""
    e = object.__new__(Scale)
    e.__dict__.update(pair=(num, den), body=body)
    return e


_VAR = Var()  # every x of a spec parses to this one node


def _negate(e: Expr) -> Expr:
    """-e, for an e that is not a literal."""
    if isinstance(e, Scale):
        num, den = e.pair
        return _scaled(-num, den, e.body)
    return _scaled(-1, 1, e)


class _Parser:
    """Recursive descent over the scanned token texts, so every lookahead is
    one list index.  An operator's text is its key; a literal is decimal
    (``str.isdecimal``), and a name is any other token not in
    ``_PUNCTUATION``.  The end, "", is the last token and no lookahead passes
    it, so no index runs off the list.  A token's (line, col) is found only
    when a diagnostic needs it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0
        self.declared: set[str] = set()

    def error(self, message: str, at: int | None = None, kind: str = "syntax") -> SpecError:
        """The diagnostic at token ``at``, the current token by default."""
        offset = _start(self.text, self.pos if at is None else at)
        return SpecError(message, *_where(self.text, offset), kind)

    def expect_op(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.error(f"expected {text!r}")
        self.pos += 1

    def end_line(self) -> None:
        tok = self.tokens[self.pos]
        if tok == "\n":
            self.pos += 1
        elif tok:
            raise self.error(f"unexpected {tok!r}")

    # -- expressions --------------------------------------------------------

    def parse_literal(self) -> tuple[int, int]:
        """The literal here, over the integer after its "/" if one follows,
        as (num, den).  "/" belongs to the literal only when an integer
        denominator follows; otherwise it is left for the caller (tail rules
        parse "/ n" there, terms report it as a non-PL construct)."""
        tokens, pos = self.tokens, self.pos
        num = int_of(tokens[pos])
        if tokens[pos + 1] == "/" and tokens[pos + 2].isdecimal():
            den = int_of(tokens[pos + 2])
            if den == 0:
                raise self.error("zero denominator", pos + 2)
            self.pos = pos + 3
            return num, den
        self.pos = pos + 1
        return num, 1

    def parse_rational(self) -> Fraction:
        sign = 1
        while self.tokens[self.pos] == "-":
            self.pos += 1
            sign = -sign
        if not self.tokens[self.pos].isdecimal():
            raise self.error("expected a rational literal")
        num, den = self.parse_literal()
        return Fraction(sign * num, den)

    def parse_expr(self) -> Expr:
        term = self.parse_term(False)
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok != "+" and tok != "-":
            return term
        terms = [term]
        while tok == "+" or tok == "-":
            self.pos += 1
            terms.append(self.parse_term(tok == "-"))
            tok = tokens[self.pos]
        return Sum(tuple(terms))

    def parse_term(self, negative: bool) -> Expr:
        """factor {"*" factor}, negated if ``negative`` (a subtracted term);
        a factor is a run of minus signs and a primary.  Literal factors, and
        parenthesized constants, multiply as integers into one constant,
        reduced once.  At most one factor may be non-constant: the term is
        then Scale(constant, that factor), or the factor itself if it is the
        only one; else it is Lit(constant)."""
        tokens = self.tokens
        num = den = 1
        body: Expr | None = None
        factors = 0
        twice = False
        while True:
            factors += 1
            minus = False
            while tokens[self.pos] == "-":
                self.pos += 1
                minus = not minus
            if tokens[self.pos].isdecimal():
                n, d = self.parse_literal()
                num, den = num * (-n if minus else n), den * d
            else:
                factor = self.parse_primary()
                if isinstance(factor, Lit):
                    n, d = factor.pair
                    num, den = num * (-n if minus else n), den * d
                elif body is None:
                    body = _negate(factor) if minus else factor
                else:
                    twice = True
            tok = tokens[self.pos]
            if tok != "*":
                break
            self.pos += 1
        # A "/" or "^" after the term is reported before a second
        # non-constant factor, which is reported at the term's last token.
        if tok == "/" or tok == "^":
            message = "division outside a rational literal" if tok == "/" else "exponentiation"
            raise self.error(f"non-PL construct: {message}", kind="non-pl")
        if twice:
            raise self.error(
                "non-PL construct: product of two non-constant expressions",
                self.pos - 1,
                kind="non-pl",
            )
        if body is not None and factors == 1:
            return _negate(body) if negative else body
        if negative:
            num = -num
        g = gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
        return _lit(num, den) if body is None else _scaled(num, den, body)

    def parse_primary(self) -> Expr:
        """A primary that is not a literal: parse_term reads those."""
        name = self.tokens[self.pos]
        if name == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if name in _PUNCTUATION:
            raise self.error("expected an expression")
        if name == "x":
            self.pos += 1
            return _VAR
        if name == "min" or name == "max":
            self.pos += 1
            self.expect_op("(")
            args = [self.parse_expr()]
            while self.tokens[self.pos] == ",":
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

    # -- statements ---------------------------------------------------------

    def expect_n(self, after: str) -> None:
        if self.tokens[self.pos] != "n":
            raise self.error(f"expected 'n' after {after!r}")
        self.pos += 1

    def parse_tail_rule(self) -> TailSpec:
        start = self.pos
        c = self.parse_rational()
        tok = self.tokens[self.pos]
        if tok == "/":
            self.pos += 1
            self.expect_n("/")
            rule = TailRule.harmonic(c)
        elif tok == "*" and self._geometric_ahead():
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
        if self.tokens[self.pos] == "*":
            self.pos += 1
            shape = self.parse_expr()
        return TailSpec(rule, shape)

    def _geometric_ahead(self) -> bool:
        """After a leading rational and '*': does a ratio of the form q^n follow?"""
        tokens, i = self.tokens, self.pos + 1  # the token after '*'
        while tokens[i] == "-":
            i += 1
        if not tokens[i].isdecimal():
            return False
        i += 1
        if tokens[i] == "/":
            if not tokens[i + 1].isdecimal():
                return False
            i += 2
        return tokens[i] == "^"

    def parse(self) -> SpecAST:
        decls: list[tuple[str, Expr]] = []
        grid: int | None = None
        limit: Expr | None = None
        tail: TailSpec | None = None
        tokens = self.tokens
        while True:
            word = tokens[self.pos]
            if not word:
                break
            if word == "\n":
                self.pos += 1
                continue
            if word in _PUNCTUATION or word.isdecimal():
                raise self.error("expected a declaration or directive")
            if word == "grid":
                if grid is not None:
                    raise self.error("duplicate grid directive")
                self.pos += 1
                grid = int_of(tokens[self.pos]) if tokens[self.pos].isdecimal() else 0
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


# One fold per node class: _fold, and every fold for its subtrees, calls the
# fold of a node's class from _FOLDS, so each node costs one frame.


def _fold(e: Expr, env: dict[str, PLFunc]) -> Form:
    """The form of e."""
    return _FOLDS[e.__class__](e, env)


def _fold_sum(e: Sum, env: dict[str, PLFunc]) -> Form:
    line: Line | None = None
    forms: list[Form] = []
    for term in e.terms:
        form = _FOLDS[term.__class__](term, env)
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


def _fold_scale(e: Scale, env: dict[str, PLFunc]) -> Form:
    body = e.body
    return scale_form(*e.pair, _FOLDS[body.__class__](body, env))


def _fold_lit(e: Lit, env: dict[str, PLFunc]) -> Form:
    return _UNIT, ((0, *e.pair),)


def _fold_var(e: Var, env: dict[str, PLFunc]) -> Form:
    return _X


def _fold_ref(e: Ref, env: dict[str, PLFunc]) -> Form:
    return env[e.name].line_form


def _fold_envelope(e: MinE | MaxE, env: dict[str, PLFunc]) -> Form:
    return envelope_form([_FOLDS[a.__class__](a, env) for a in e.args], e.__class__ is MinE)


def _fold_abs(e: Abs, env: dict[str, PLFunc]) -> Form:
    body = _FOLDS[e.body.__class__](e.body, env)
    return envelope_form([body, scale_form(-1, 1, body)], False)


_FOLDS = {
    Sum: _fold_sum,
    Scale: _fold_scale,
    Lit: _fold_lit,
    Var: _fold_var,
    Ref: _fold_ref,
    MinE: _fold_envelope,
    MaxE: _fold_envelope,
    Abs: _fold_abs,
}


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
