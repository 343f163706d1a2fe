"""Records against their frozen-dataclass twins, and the import surface of the CLI.

``hahnforge.record`` replaces ``@dataclass(frozen=True)`` on every class the
package defines.  Each record class has a dataclass twin here, with the same
fields, defaults and checks, named as the record so that the two reprs can be
compared as text; the record must agree with its twin on construction,
``==``, ``hash``, ``repr``, refused assignment and rejected input.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest

from hahnforge import alphat, builder, pairs, plalg, sections, spaces, specdsl, tailrules
from hahnforge.builder import synthesize
from hahnforge.pairs import StableFamily, envelopes
from hahnforge.plalg import PLFunc, RatSet
from hahnforge.spaces import OrdinalCNF, Pow2OddSet
from hahnforge.specdsl import Lit, MaxE, MinE, Ref, Scale, Sum, TailSpec, Var
from hahnforge.tailrules import TailRule

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = (alphat, builder, pairs, plalg, sections, spaces, specdsl, tailrules)
F = Fraction
ZERO_F = PLFunc.constant(0)
X = PLFunc.identity()
SP1 = StableFamily((ZERO_F, PLFunc.affine(1, "-1/2")))
SP1_F = synthesize(SP1)
SP1_PAIR = envelopes(SP1)
HALF_ARGS = ((F(0), F(1, 2), F(1)), ((F(0), F(0)), (F(1), F(0))), (F(0), F(0), F(1)))
FLAT_ARGS = ((F(0), F(1)), ((F(0), F(0)),), (F(0), F(0)))

TWINS: dict[type, type] = {}


def twin(of: type):
    """Register a frozen dataclass as the twin of ``of``, under its name."""

    def make(cls: type) -> type:
        cls.__name__ = cls.__qualname__ = of.__name__
        TWINS[of] = dataclass(frozen=True)(cls)
        return TWINS[of]

    return make


# --- plalg ---------------------------------------------------------------


@twin(plalg.Verdict)
class _Verdict:
    ok: bool
    witness: Fraction | None = None


@twin(plalg.PLFunc)
class _PLFunc:
    breakpoints: tuple
    values: tuple

    def __post_init__(self) -> None:  # the checks of the dataclass PLFunc
        bps, vals = self.breakpoints, self.values
        if len(bps) < 2 or len(bps) != len(vals):
            raise ValueError("need matching breakpoint/value lists of length >= 2")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")


@twin(plalg.RatSet)
class _RatSet:
    intervals: tuple

    def __post_init__(self) -> None:  # the checks of the dataclass RatSet
        prev_hi = None
        for lo, hi in self.intervals:
            if not (0 <= lo <= hi <= 1):
                raise ValueError(f"component [{lo}, {hi}] is not a closed interval in [0, 1]")
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("components must be sorted and disjoint")
            prev_hi = hi


@twin(plalg.PwFunc)
class _PwFunc:
    partition: tuple
    pieces: tuple
    point_values: tuple
    __post_init__ = plalg.PwFunc.__post_init__


# --- builder -------------------------------------------------------------


@twin(builder.BumpMap)
class _BumpMap:
    support: Any


@twin(builder.SchwartzBlock)
class _SchwartzBlock:
    g_blk: Any
    h_blk: Any
    alpha: Any
    beta: Any
    __post_init__ = builder.SchwartzBlock.__post_init__


@twin(builder.BlockProductFunc)
class _BlockProductFunc:
    blocks: tuple
    theta: Any
    __post_init__ = builder.BlockProductFunc.__post_init__


@twin(builder.SectionReport)
class _SectionReport:
    rows: tuple
    failures: tuple


# --- pairs, sections, tailrules ------------------------------------------


@twin(pairs.StableFamily)
class _StableFamily:
    members: tuple
    __post_init__ = pairs.StableFamily.__post_init__


@twin(pairs.HahnPair)
class _HahnPair:
    family: Any
    g: Any
    h: Any
    __post_init__ = pairs.HahnPair.__post_init__


@twin(sections.TailFamily)
class _TailFamily:
    head: tuple
    limit: Any
    tail_coeff: Any
    tail_shape: Any
    __post_init__ = sections.TailFamily.__post_init__


@twin(sections.SectionPair)
class _SectionPair:
    g: Any
    h: Any
    points: tuple


@twin(tailrules.TailRule)
class _TailRule:
    kind: str
    c: Fraction
    q: Fraction | None = None
    __post_init__ = tailrules.TailRule.__post_init__


# --- spaces --------------------------------------------------------------


@twin(spaces.OrdinalCNF)
class _OrdinalCNF:
    terms: tuple
    __post_init__ = spaces.OrdinalCNF.__post_init__


@twin(spaces.OrdinalCompact)
class _OrdinalCompact:
    top: Any


@twin(spaces.Pow2OddSet)
class _Pow2OddSet:
    power: int
    __post_init__ = spaces.Pow2OddSet.__post_init__


# --- specdsl -------------------------------------------------------------


@twin(specdsl.Lit)
class _Lit:
    value: Fraction


@twin(specdsl.Var)
class _Var:
    pass


@twin(specdsl.Ref)
class _Ref:
    name: str


@twin(specdsl.Sum)
class _Sum:
    terms: tuple


@twin(specdsl.Scale)
class _Scale:
    factor: Fraction
    body: Any


@twin(specdsl.MinE)
class _MinE:
    args: tuple


@twin(specdsl.MaxE)
class _MaxE:
    args: tuple


@twin(specdsl.Abs)
class _Abs:
    body: Any


@twin(specdsl.TailSpec)
class _TailSpec:
    rule: Any
    shape: Any = None


@twin(specdsl.SpecAST)
class _SpecAST:
    decls: tuple
    grid: int | None = None
    limit: Any = None
    tail: Any = None
    end: tuple = field(default=(1, 1), compare=False)


# --- alphat --------------------------------------------------------------


@twin(alphat.FiniteBlock)
class _FiniteBlock:
    atoms: tuple
    value: Fraction


@twin(alphat.TailBlock)
class _TailBlock:
    prefix: str
    rule: Any


@twin(alphat.UncountableBlock)
class _UncountableBlock:
    tag: str
    value: Fraction


@twin(alphat.AlphaTFunc)
class _AlphaTFunc:
    limit_value: Fraction
    blocks: tuple = ()
    __post_init__ = alphat.AlphaTFunc.__post_init__


@twin(alphat.CountableSet)
class _CountableSet:
    atoms: tuple = ()
    tail_prefixes: tuple = ()


@twin(alphat.DiagBlock)
class _DiagBlock:
    tag: str
    diag_value: Fraction


@twin(alphat.DiagProductFunc)
class _DiagProductFunc:
    blocks: tuple


# Two or more valid argument tuples per class; the first two differ.
B0, B1 = SP1_F.blocks
SAMPLES: dict[type, list[tuple]] = {
    plalg.Verdict: [(True,), (False, F(1, 2)), (False, None)],
    plalg.PLFunc: [((F(0), F(1)), (F(0), F(1))), ((F(0), F(1, 2), F(1)), (F(0), F(1), F(0)))],
    plalg.RatSet: [(((F(0), F(1, 2)),),), ((),), (((F(0), F(0)), (F(1, 2), F(1))),)],
    plalg.PwFunc: [HALF_ARGS, FLAT_ARGS],
    builder.BumpMap: [(Pow2OddSet(0),), (Pow2OddSet(1),)],
    builder.SchwartzBlock: [(B0.g_blk, B0.h_blk, B0.alpha, B0.beta), (B1.g_blk, B1.h_blk, B1.alpha, B1.beta)],
    builder.BlockProductFunc: [(SP1_F.blocks, SP1_F.theta), ((B0,), SP1_F.theta), ((B0,), ZERO_F)],
    builder.SectionReport: [((), ()), ((((1, 4), (-1, 4), (0, 1), 30, 31),), ("block 1: failure",))],
    pairs.StableFamily: [((ZERO_F,),), (SP1.members,)],
    pairs.HahnPair: [(SP1, SP1_PAIR.g, SP1_PAIR.h), (StableFamily((X,)), X, X)],
    sections.TailFamily: [
        ((X,), ZERO_F, TailRule.harmonic(1), X),
        ((), X, TailRule.geometric(1, "1/2"), ZERO_F),
    ],
    sections.SectionPair: [(ZERO_F, X, (((0, 1), (0, 1), (0, 1), 1, "inf"),)), (X, ZERO_F, ())],
    tailrules.TailRule: [("harmonic", F(1)), ("geometric", F(1), F(1, 2)), ("constant", F(0), None)],
    spaces.OrdinalCNF: [((),), (((1, 2), (0, 3)),)],
    spaces.OrdinalCompact: [(OrdinalCNF(()),), (OrdinalCNF(((2, 1),)),)],
    spaces.Pow2OddSet: [(0,), (3,)],
    specdsl.Lit: [(F(1, 2),), (F(3),)],
    specdsl.Var: [(), ()],
    specdsl.Ref: [("u1",), ("m",)],
    specdsl.Sum: [((Lit(F(1)), Var()),), ((Var(),),)],
    specdsl.Scale: [(F(2), Var()), (F(-1), Ref("m"))],
    specdsl.MinE: [((Var(), Lit(F(1))),), ((Var(),),)],
    specdsl.MaxE: [((Var(), Lit(F(1))),), ((Var(),),)],
    specdsl.Abs: [(Var(),), (Scale(F(2), Var()),)],
    specdsl.TailSpec: [(TailRule.harmonic(1),), (TailRule.zero(), Var()), (TailRule.harmonic(1), None)],
    specdsl.SpecAST: [
        ((("u1", Var()),),),
        ((("u1", Var()),), 64, Lit(F(0)), TailSpec(TailRule.harmonic(1)), (3, 1)),
        ((("u1", Var()),), None, None, None, (7, 9)),
    ],
    alphat.FiniteBlock: [(("a", "b"), F(1)), (("a",), F(1))],
    alphat.TailBlock: [("t", TailRule.harmonic(1)), ("s", TailRule.harmonic(1))],
    alphat.UncountableBlock: [("T1", F(1)), ("T1", F(-1))],
    alphat.AlphaTFunc: [(F(0),), (F(0), (alphat.FiniteBlock(("a",), F(1)),)), (F(0), ())],
    alphat.CountableSet: [(), (("a",), ("t",)), ((), ())],
    alphat.DiagBlock: [("T0", F(0)), ("T1", F(1))],
    alphat.DiagProductFunc: [(alphat.diag_example().blocks,), (alphat.diag_example().blocks[::-1],)],
}
# Arguments that the checks reject, per class with checks.
REJECTED: dict[type, list[tuple]] = {
    plalg.PLFunc: [
        ((F(0),), (F(0),)),
        ((F(0), F(1)), (F(0),)),
        ((F(1, 2), F(1)), (F(0), F(0))),
        ((F(0), F(1, 2)), (F(0), F(0))),
        ((F(0), F(1), F(1)), (F(0), F(0), F(0))),
    ],
    plalg.RatSet: [
        (((F(1, 2), F(0)),),),
        (((F(0), F(2)),),),
        (((F(0), F(1, 2)), (F(1, 2), F(1))),),
        (((F(1, 2), F(1)), (F(0), F(1, 4))),),
    ],
    plalg.PwFunc: [
        ((F(0), F(1, 2)), ((F(0), F(0)),), (F(0), F(0))),
        ((F(0), F(0), F(1)), ((F(0), F(0)),) * 2, (F(0),) * 3),
        ((F(0), F(1)), (), (F(0), F(0))),
    ],
    builder.SchwartzBlock: [
        (B0.g_blk, B0.h_blk, PLFunc.constant(2), B0.beta),
        (B0.g_blk, B0.h_blk, PLFunc.affine(-1, "1/2"), B0.beta),
        (PLFunc.affine(1, "-1/2"), B0.h_blk, B0.alpha, B0.beta),
        (B0.g_blk, PLFunc.affine(-1, "1/4"), B0.alpha, B0.beta),
    ],
    builder.BlockProductFunc: [((), SP1_F.theta), ((B1, B0), SP1_F.theta), ((B1,), ZERO_F)],
    pairs.StableFamily: [((),)],
    pairs.HahnPair: [(SP1, PLFunc.constant(1), ZERO_F), (SP1, X, PLFunc.affine(-1, 1))],
    sections.TailFamily: [((), ZERO_F, TailRule("constant", F(1)), X)],
    tailrules.TailRule: [
        ("bogus", F(1)),
        ("geometric", F(1)),
        ("geometric", F(1), F(1)),
        ("geometric", F(1), F(-3, 2)),
        ("harmonic", F(1), F(1, 2)),
        ("constant", F(1), F(0)),
    ],
    spaces.OrdinalCNF: [(((0, 0),),), (((0, 1), (1, 1)),), (((-1, 1),),)],
    spaces.Pow2OddSet: [(-1,), (True,), ("1",)],
    alphat.AlphaTFunc: [
        (F(0), (alphat.FiniteBlock(("a",), F(1)), alphat.FiniteBlock(("a",), F(2)))),
        (F(0), (alphat.UncountableBlock("T", F(1)), alphat.TailBlock("T", TailRule.harmonic(1)))),
    ],
}


def record_classes() -> list[type]:
    """Every class the package defines with ``@record``."""
    found = []
    for module in MODULES:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                refuse = vars(value).get("__setattr__")
                if getattr(refuse, "__module__", None) == "hahnforge.record":
                    found.append(value)
    return found


def built(cls: type, args: tuple) -> tuple[object, object]:
    return cls(*args), TWINS[cls](*args)


def outcome(call) -> tuple:
    """What a call returns, or the type and text of what it raises."""
    try:
        return ("value", call())
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def test_every_record_class_has_a_twin_and_samples():
    classes = record_classes()
    assert len(classes) == 33
    assert set(classes) == set(TWINS) == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
class TestAgainstTwin:
    def test_fields_and_construction(self, cls):
        names = [f.name for f in fields(TWINS[cls])]
        for args in SAMPLES[cls]:
            rec, tw = built(cls, args)
            assert [getattr(rec, n) for n in names] == [getattr(tw, n) for n in names]
            by_name = cls(**dict(zip(names, args)))
            assert by_name == rec and repr(by_name) == repr(rec)
            if args:
                assert outcome(lambda: cls(*args, **{names[0]: args[0]}))[:2] == ("raised", TypeError)
            assert outcome(lambda: cls(*args, not_a_field=1))[:2] == ("raised", TypeError)
        assert outcome(lambda: cls(*SAMPLES[cls][0], *[None] * (len(names) + 1)))[:2] == ("raised", TypeError)

    def test_repr_text(self, cls):
        for args in SAMPLES[cls]:
            rec, tw = built(cls, args)
            assert repr(rec) == repr(tw)

    def test_eq_and_hash(self, cls):
        samples = SAMPLES[cls]
        for a, b in itertools.product(samples, repeat=2):
            (ra, ta), (rb, tb) = built(cls, a), built(cls, b)
            assert (ra == rb, ra != rb) == (ta == tb, ta != tb)
        for args in samples:
            rec, tw = built(cls, args)
            assert outcome(lambda: hash(rec)) == outcome(lambda: hash(tw))
            assert rec != args and args != rec and rec != tw and rec.__eq__(args) is NotImplemented
        assert cls(*samples[0]) != cls(*samples[1]) or cls is specdsl.Var

    def test_frozen(self, cls):
        names = [f.name for f in fields(TWINS[cls])] + ["not_a_field"]
        for name in names:
            rec, tw = built(cls, SAMPLES[cls][0])
            for change in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
                got, want = outcome(lambda: change(rec)), outcome(lambda: change(tw))
                assert issubclass(got[1], AttributeError) and issubclass(want[1], AttributeError)
                assert got[2] == want[2]
            assert repr(rec) == repr(tw)


@pytest.mark.parametrize("cls", list(REJECTED), ids=lambda c: c.__name__)
def test_rejections_match_twin(cls):
    for args in REJECTED[cls]:
        rec = outcome(lambda: cls(*args))
        assert rec[0] == "raised" and rec[1] is ValueError, (cls, args, rec)
        assert rec == outcome(lambda: TWINS[cls](*args))


def test_support_message_prints_the_repr():
    with pytest.raises(ValueError, match=r"^block 1: support Pow2OddSet\(power=1\) is not Pow2OddSet\(0\)$"):
        builder.BlockProductFunc((B1, B0), SP1_F.theta)


def test_defaults():
    assert TailRule("harmonic", F(1)).q is None and tailrules.TailRule.q is None
    assert TailRule("harmonic", F(1)) == TailRule("harmonic", F(1), None)
    ast = specdsl.SpecAST(())
    assert (ast.grid, ast.limit, ast.tail, ast.end) == (None, None, None, (1, 1))
    assert TailSpec(TailRule.zero()).shape is None
    assert alphat.AlphaTFunc(F(0)).blocks == () and alphat.CountableSet() == alphat.CountableSet((), ())
    assert plalg.Verdict(True).witness is None


def test_spec_end_is_not_compared():
    a = specdsl.SpecAST((("u1", Var()),), end=(1, 7))
    b = specdsl.SpecAST((("u1", Var()),), end=(4, 1))
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    assert specdsl.parse_spec("u1 = x\n") == specdsl.parse_spec("\n\nu1 = x")


def test_types_never_compare_equal():
    args = (Var(), Lit(F(1)))
    assert MinE(args) != MaxE(args) and not MinE(args) == MaxE(args)
    assert TWINS[MinE](args) != TWINS[MaxE](args)
    assert Lit(F(1)) != (F(1),) and Sum((Var(),)) != ((Var(),),)
    assert Ref("x") != TWINS[Ref]("x")


def test_cached_properties_still_cache():
    f = PLFunc((F(0), F(1, 2), F(1)), (F(0), F(1), F(0)))
    form = f.line_form
    assert f.line_form is form and f.__dict__["line_form"] is form
    product = synthesize(SP1)
    stage_sets = product.stage_sets
    assert product.stage_sets is stage_sets and product.__dict__["stage_sets"] is stage_sets
    assert "line_form" not in repr(f) and f == PLFunc(f.breakpoints, f.values)


IMPORT_SURFACE = textwrap.dedent(
    r"""
    import importlib, re, sys
    from pathlib import Path

    src = Path(sys.argv[1])
    statement = re.compile(r"^(?:from ([A-Za-z_]\w*)[\w.]* import |import ([A-Za-z_]\w*)[\w.]*$)", re.M)
    named = set()
    for path in sorted((src / "hahnforge").glob("*.py")):
        for found in statement.findall(path.read_text(encoding="utf-8")):
            named.add(found[0] or found[1])
    for name in sorted(named):
        importlib.import_module(name)
    before = set(sys.modules)
    sys.path.insert(0, str(src))
    import hahnforge.cli
    print(" ".join(sorted(named)))
    print(" ".join(sorted(set(sys.modules) - before)))
    """
)


def test_cli_import_adds_only_hahnforge_modules():
    # The stdlib modules that hahnforge names are loaded first, so anything
    # more that importing the CLI loads (dataclasses would bring inspect, ast
    # and dis) is code the command path does not need.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SURFACE, str(SRC)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    named, added = (line.split() for line in done.stdout.splitlines())
    assert {"argparse", "fractions", "re"} <= set(named) and "dataclasses" not in named
    assert "hahnforge.cli" in added and "hahnforge.record" in added
    assert [m for m in added if m != "hahnforge" and not m.startswith("hahnforge.")] == []
