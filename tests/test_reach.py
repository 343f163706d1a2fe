"""Which library functions the commands reach.

A fresh copy of hahnforge is imported under another name and every command
runs through its ``cli.main`` in this process, under ``sys.setprofile``:
the main path of ``synth``, ``verify --report``, ``verify`` of a spec with
a reference and a ``max``, ``sections`` (harmonic, geometric and zero tails,
``--brute`` and ``--out``), ``rank`` and ``alphat-demo``, and the usage,
parse (scan errors included) and I/O error paths.  What import runs is
traced too, as the copy is imported under the profiler.  The functions and
methods never entered must be exactly ``NEVER_ENTERED``, each
with the reason it stays: so a function that stops being reached, or a
listed one that a command starts to reach, fails this test until the list
says so.  Functions are matched by code object, not by line, and
comprehensions and lambdas are left out, as their code objects differ
between Python versions.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys
import types
from functools import cached_property
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hahnforge"
ALIAS = "hahnforge_reached"

SP1_TEXT = "u1 = 0\nu2 = x - 1/2\n"
SPECS = {
    "sp1.hf": SP1_TEXT,
    "harmonic.hf": "u1 = 0\nu2 = x - 1/2\nlimit 0\ntail 1/n * (0 - x)\ngrid 16\n",
    "geometric.hf": "u1 = x\nlimit 1/2\ntail 1 * -1/2^n * (x - 1/2)\ngrid 8\n",
    "zero.hf": "u1 = abs(x - 1/2)\nlimit min(x, 1/4)\ntail 0\ngrid 8\n",
    "refs.hf": "m = max(x, 1 - x)\nu1 = 2 * m - 1\n",
    "bad.hf": "u1 = x / x\n",
    "char.hf": "u1 = x $ 1\n",
    "ratio.hf": "u1 = x\nlimit 0\ntail 1 * 3/2^n\n",
}

# Why a function stays although no command enters it.
ORACLE = "oracle: a pointwise or definitional form the tests hold a kernel to"
ITEM_1 = "waits on ROADMAP item 1: check loads a stored f and decides its sections"
ITEM_2 = "waits on ROADMAP items 2 and 3b: functions with jumps"
SPANS = "bench/spans.py wraps it by name, or calls it through a function it wraps"
README = "the README library example calls it"
ACCEPTANCE = "an acceptance criterion in tests/test_acceptance.py calls it"
RECORD = "frozen-record protocol, held to dataclass by tests/test_record.py"
TESTS = "test-only today: ROADMAP item 7 lists it as movable into the tests"
VIEW = "Fraction view of the stored integer form, built on first read; ==, hash and repr read it"
FROM_FRACTIONS = "builds a DSL node from a Fraction, as tests write ASTs; the parser uses integers"
REASONS = {ORACLE, ITEM_1, ITEM_2, SPANS, README, ACCEPTANCE, RECORD, TESTS, VIEW, FROM_FRACTIONS}

NEVER_ENTERED: dict[str, str] = {
    "alphat.DiagProductFunc.y_section": ACCEPTANCE,
    "builder.BlockProductFunc.active_stage": ITEM_1,
    "builder.BlockProductFunc.at": ITEM_1,
    "builder.BlockProductFunc.from_json": ITEM_1,
    "builder.BlockProductFunc.section_values": README,
    "builder.BlockProductFunc.value": ACCEPTANCE,
    "builder.BlockProductFunc.value_at_infinity": ACCEPTANCE,
    "builder.BumpMap.point": ACCEPTANCE,
    "builder.BumpMap.value": ORACLE,
    "builder.SchwartzBlock.value": ACCEPTANCE,
    "builder._field": ITEM_1,
    "builder._point_values": ITEM_1,
    "builder._support_from_json": ITEM_1,
    "builder.continuity_certificate": ACCEPTANCE,
    "builder.phi": ORACLE,
    "builder.stage_envelopes": SPANS,
    "builder.stage_sets_of": SPANS,
    "pairs.StableFamily.__len__": ACCEPTANCE,
    "plalg.PLFunc.__add__": TESTS,
    "plalg.PLFunc.__call__": ORACLE,
    "plalg.PLFunc.__neg__": TESTS,
    "plalg.PLFunc.__sub__": TESTS,
    "plalg.PLFunc.affine": README,
    "plalg.PLFunc.breakpoints": VIEW,
    "plalg.PLFunc.from_json": ITEM_1,
    "plalg.PLFunc.from_pairs": ITEM_1,
    "plalg.PLFunc.identity": TESTS,
    "plalg.PLFunc.pieces": ORACLE,
    "plalg.PwFunc.__post_init__": ITEM_2,
    "plalg.PwFunc._limits": ITEM_2,
    "plalg.PwFunc.from_pl": ITEM_2,
    "plalg.PwFunc.line_form": ITEM_2,
    "plalg.PwFunc.value": ORACLE,
    "plalg.RatSet.__contains__": ORACLE,
    "plalg.RatSet.intervals": VIEW,
    "plalg.RatSet.of": SPANS,
    "plalg.RatSet.union": SPANS,
    "plalg.Verdict.__bool__": TESTS,
    "plalg.grid_pairs": ITEM_1,
    "plalg.pl_abs": ORACLE,
    "plalg.pl_equal": TESTS,
    "plalg.semicontinuity_check": ITEM_2,
    "record._delattr": RECORD,
    "record._setattr": RECORD,
    "record.record.__hash__": RECORD,
    "record.record.__repr__": RECORD,
    "spaces.Pow2OddSet.element": ACCEPTANCE,
    "specdsl.Lit.__init__": FROM_FRACTIONS,
    "specdsl.Lit.value": VIEW,
    "specdsl.Scale.__init__": FROM_FRACTIONS,
    "specdsl.Scale.factor": VIEW,
}


def argvs(tmp: Path) -> list[list[str]]:
    spec = {name: str(tmp / name) for name in SPECS}
    return [
        ["synth", spec["sp1.hf"], "--grid", "8", "--samples", "4", "--out", str(tmp / "synth")],
        ["verify", spec["sp1.hf"], "--grid", "8", "--report", str(tmp / "report.json")],
        ["verify", spec["refs.hf"], "--grid", "8"],
        ["sections", spec["harmonic.hf"]],
        ["sections", spec["harmonic.hf"], "--brute", "5", "--out", str(tmp / "brute")],
        ["sections", spec["geometric.hf"]],
        ["sections", spec["zero.hf"], "--out", str(tmp / "zero")],
        ["rank", "w^2*3+w+1"],
        ["alphat-demo"],
        # usage errors
        ["verify", spec["sp1.hf"], "--grid", "0"],
        ["synth", spec["sp1.hf"], "--samples", "-1"],
        ["sections", spec["harmonic.hf"], "--brute", "2"],
        # parse errors
        ["verify", spec["bad.hf"]],
        ["verify", spec["char.hf"]],
        ["verify", str(tmp / "latin1.hf")],
        ["synth", spec["harmonic.hf"], "--out", str(tmp / "never")],
        ["sections", spec["sp1.hf"]],
        ["sections", spec["ratio.hf"]],
        ["rank", "w^"],
        # I/O errors
        ["verify", str(tmp / "absent.hf")],
        ["verify", spec["sp1.hf"], "--report", str(tmp)],
    ]


@contextlib.contextmanager
def fresh_copy():
    """hahnforge imported again under ALIAS, and removed again afterwards."""
    spec = importlib.util.spec_from_file_location(
        ALIAS, PACKAGE / "__init__.py", submodule_search_locations=[str(PACKAGE)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[ALIAS] = package
    try:
        spec.loader.exec_module(package)
        yield package
    finally:
        for name in [n for n in sys.modules if n == ALIAS or n.startswith(ALIAS + ".")]:
            del sys.modules[name]


def functions_of(member) -> list[types.FunctionType]:
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, cached_property):
        return [member.func]
    return [member] if isinstance(member, types.FunctionType) else []


def defined(modules: list[types.ModuleType]) -> dict[str, types.CodeType]:
    """Short name -> code object of each function and method the modules
    define, with the functions nested in them."""
    found: dict[str, types.CodeType] = {}

    def add(name: str, code: types.CodeType) -> None:
        if code.co_name.startswith("<") or code in found.values():
            return
        found[name] = code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(f"{name}.{const.co_name}", const)

    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    for func in functions_of(member):
                        if func.__module__ == module.__name__:
                            add(f"{short}.{obj.__name__}.{attr}", func.__code__)
            elif isinstance(obj, types.FunctionType):
                add(f"{short}.{obj.__name__}", obj.__code__)
    return found


def never_entered(tmp: Path) -> list[str]:
    for name, text in SPECS.items():
        (tmp / name).write_text(text, encoding="utf-8")
    (tmp / "latin1.hf").write_bytes(b"u1 = \xff\n")
    entered: set[types.CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with fresh_copy():
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            cli = importlib.import_module(ALIAS + ".cli")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [cli.main(argv) for argv in argvs(tmp)]
        finally:
            sys.setprofile(previous)
        assert codes == [0] * 9 + [2] * 10 + [3] * 2
        modules = [
            importlib.import_module(f"{ALIAS}.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"
        ]
        functions = defined(modules)
    return sorted(name for name, code in functions.items() if code not in entered)


def test_never_entered_is_the_listed_inventory(tmp_path: Path):
    never = never_entered(tmp_path)
    assert set(NEVER_ENTERED.values()) <= REASONS
    newly_unreached = sorted(set(never) - set(NEVER_ENTERED))
    newly_reached = sorted(set(NEVER_ENTERED) - set(never))
    assert (newly_unreached, newly_reached) == ([], [])
