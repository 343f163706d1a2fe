"""End-to-end command-line behaviour and exit codes."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import int_str_digits
from hahnforge.builder import BlockProductFunc, SectionReport, synthesize
from hahnforge.cli import (
    IO_ERROR,
    MAX_BRUTE,
    MAX_SAMPLES,
    OK,
    PARSE_ERROR,
    VERIFY_FAILED,
    _json_text,
    _write_csv,
    main,
)
from hahnforge.pairs import StableFamily
from hahnforge.plalg import PLFunc, RatSet, pl_equal, uniform_grid
from hahnforge.rational import rat, rat_str, rat_text
from hahnforge.sections import brute_sections, tail_sections
from hahnforge.specdsl import (
    MAX_GRID,
    family_from_spec,
    grid_from_spec,
    parse_spec,
    tail_family_from_spec,
)

SP1_TEXT = "u1 = 0\nu2 = x - 1/2\n"
SECTIONS_TEXT = "u1 = 0\nu2 = x - 1/2\nlimit 0\ntail 1/n * (0 - x)\ngrid 16\n"
# A six-member family drawn with random.Random(20251): affine, lattice and
# zigzag members on denominators 1-8.
SEEDED_TEXT = (
    "u1 = -4/3 * x + 0\n"
    "u2 = max(-5/4 * x - 4/5, -1/2 * x - 1/3, 0 * x - 2/3)\n"
    "u3 = min(-3/2 * x - 1, 2 * x - 1/2, -1 * x + 0)\n"
    "u4 = min(1 * x - 1, 0 * x - 1, 0 * x + 0)\n"
    "u5 = max(min(0 * x + 1/3, 15/8 * x - 1, -1/2 * x - 7/8), min(8/5 * x + 1/2, 4/3 * x - 1/2, -1 * x - 2/3), min(0 * x - 1/2, 1 * x - 2/3, -1/2 * x + 1/4))\n"
    "u6 = max(min(1/2 * x - 2/3, 1 * x + 1/2, -2 * x + 1), min(-2 * x - 1/4, -1 * x + 3/4, 0 * x - 1), min(-3/4 * x + 1, 0 * x + 1/2, 1 * x - 1))\n"
)


@pytest.fixture
def sp1_spec(tmp_path: Path) -> Path:
    path = tmp_path / "sp1.hf"
    path.write_text(SP1_TEXT, encoding="utf-8")
    return path


class TestVerify:
    def test_sp1_exits_zero(self, sp1_spec: Path, capsys):
        assert main(["verify", str(sp1_spec), "--grid", "64"]) == OK
        out = capsys.readouterr().out
        assert "65 grid points" in out
        assert "all sections match" in out

    def test_utf8_bom_is_skipped(self, sp1_spec: Path, tmp_path: Path, capsys):
        # Editors that save "UTF-8 with BOM" prefix the file with U+FEFF.
        bom = tmp_path / "bom.hf"
        bom.write_bytes(b"\xef\xbb\xbf" + sp1_spec.read_bytes())
        assert main(["verify", str(sp1_spec)]) == OK
        plain = capsys.readouterr()
        assert main(["verify", str(bom)]) == OK
        assert capsys.readouterr() == plain

    def test_parse_error_exit(self, tmp_path: Path, capsys):
        bad = tmp_path / "bad.hf"
        bad.write_text("u1 = x / x\n", encoding="utf-8")
        assert main(["verify", str(bad)]) == PARSE_ERROR
        err = capsys.readouterr().err
        assert "line 1, col 8" in err and "non-pl" in err

    def test_missing_file_is_io_error(self, tmp_path: Path):
        assert main(["verify", str(tmp_path / "absent.hf")]) == IO_ERROR

    def test_exit_matches_report_state(self):
        # The exit convention: zero failures <=> exit 0.
        assert SectionReport((), ()).passed
        assert not SectionReport((), ("boom",)).passed

    def test_report_written(self, sp1_spec: Path, tmp_path: Path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify", str(sp1_spec), "--grid", "8", "--report", str(path)]) == OK
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["passed"] is True and data["failures"] == []
        assert [e["x"] for e in data["entries"]] == [rat_str(Fraction(k, 8)) for k in range(9)]
        half = next(e for e in data["entries"] if e["x"] == "1/2")
        assert (half["g"], half["h"]) == ("0/1", "0/1")
        assert "all sections match" in capsys.readouterr().out

    def test_failing_report_written(self, sp1_spec: Path, tmp_path: Path, monkeypatch):
        import hahnforge.cli as cli_mod

        failing = SectionReport((), ("synthetic failure",))
        monkeypatch.setattr(cli_mod, "verify_synthesis", lambda *a, **k: failing)
        path = tmp_path / "report.json"
        assert main(["verify", str(sp1_spec), "--report", str(path)]) == VERIFY_FAILED
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data == {"passed": False, "failures": ["synthetic failure"], "entries": []}

    def test_report_unwritable(self, sp1_spec: Path, tmp_path: Path, capsys):
        # A directory cannot be opened for writing.
        assert main(["verify", str(sp1_spec), "--report", str(tmp_path)]) == IO_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""

    def test_report_in_fresh_process(self, sp1_spec: Path, tmp_path: Path):
        path = tmp_path / "report.json"
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "hahnforge.cli", "verify", str(sp1_spec), "--report", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == OK, done.stderr
        assert json.loads(path.read_text(encoding="utf-8"))["passed"] is True

    def test_failing_report_exits_one(self, sp1_spec: Path, monkeypatch, capsys):
        import hahnforge.cli as cli_mod

        failing = SectionReport((), ("synthetic failure",))
        monkeypatch.setattr(cli_mod, "verify_synthesis", lambda *a, **k: failing)
        assert main(["verify", str(sp1_spec)]) == VERIFY_FAILED
        assert "FAIL synthetic failure" in capsys.readouterr().out


class TestUsageErrors:
    """Bad option values and undecodable specs exit 2 with one line, no traceback."""

    @staticmethod
    def one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.endswith("\n") and err.count("\n") == 1
        return err

    def test_grid_zero(self, sp1_spec: Path, capsys):
        assert main(["verify", str(sp1_spec), "--grid", "0"]) == PARSE_ERROR
        assert "--grid" in self.one_line_error(capsys)

    def test_grid_negative(self, sp1_spec: Path, capsys):
        assert main(["verify", str(sp1_spec), "--grid", "-2"]) == PARSE_ERROR
        assert "--grid" in self.one_line_error(capsys)

    def test_negative_samples(self, sp1_spec: Path, tmp_path: Path, capsys):
        out = tmp_path / "never"
        assert main(["synth", str(sp1_spec), "--samples", "-1", "--out", str(out)]) == PARSE_ERROR
        assert "--samples" in self.one_line_error(capsys)
        assert not out.exists()

    def test_sizes_past_bounds(self, sp1_spec: Path, tmp_path: Path, capsys):
        spec = tmp_path / "tail.hf"
        spec.write_text(SECTIONS_TEXT, encoding="utf-8")
        out = tmp_path / "never"
        for argv in (
            ["verify", str(sp1_spec), "--grid", str(MAX_GRID + 1)],
            ["synth", str(sp1_spec), "--samples", str(MAX_SAMPLES + 1), "--out", str(out)],
            ["sections", str(spec), "--brute", str(MAX_BRUTE + 1)],
        ):
            assert main(argv) == PARSE_ERROR
            assert argv[2] in self.one_line_error(capsys)
        assert not out.exists()

    def test_spec_not_utf8(self, tmp_path: Path, capsys):
        bad = tmp_path / "latin1.hf"
        for bom in (b"", b"\xef\xbb\xbf"):  # a byte-order mark shifts no column
            bad.write_bytes(bom + b"u1 = 0\nu2 = x \xff- 1/2\n")
            assert main(["verify", str(bad)]) == PARSE_ERROR
            err = self.one_line_error(capsys)
            assert "line 2, col 8" in err and "UTF-8" in err

    def test_synth_rejects_tail_directives(self, tmp_path: Path, capsys):
        # synth would build f from the head alone: its section at x = 1 would
        # be 0, where the tail family's is -1/3 (witness 3).
        spec = tmp_path / "tail.hf"
        out = tmp_path / "never"
        for text, word in ((SECTIONS_TEXT, "limit"), ("u1 = 0\ntail 0\n", "tail")):
            spec.write_text(text, encoding="utf-8")
            assert main(["synth", str(spec), "--out", str(out)]) == PARSE_ERROR
            err = self.one_line_error(capsys)
            line = text.count("\n") + 1
            assert f"line {line}, col 1: a {word} directive is read only by sections" in err
            assert "[semantic]" in err
        assert not out.exists()

    def test_verify_rejects_tail_directives(self, tmp_path: Path, capsys):
        spec = tmp_path / "tail.hf"
        report = tmp_path / "report.json"
        for text, word in ((SECTIONS_TEXT, "limit"), ("u1 = 0\ntail 0\n", "tail")):
            spec.write_text(text, encoding="utf-8")
            assert main(["verify", str(spec), "--report", str(report)]) == PARSE_ERROR
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert f"a {word} directive is read only by sections [semantic]" in captured.err
        assert not report.exists()

    def test_brute_not_above_head(self, tmp_path: Path, capsys):
        spec = tmp_path / "tail.hf"
        spec.write_text(SECTIONS_TEXT, encoding="utf-8")
        for m in ("2", "0"):
            assert main(["sections", str(spec), "--brute", m]) == PARSE_ERROR
            assert "head size 2" in self.one_line_error(capsys)


class TestAdversarialSpecs:
    """Specs past the DSL's bounds exit 2 with one positioned line; long sums
    and runs of minus signs, which are flat in the AST, still verify."""

    SYNTAX_ERROR = re.compile(r"parse error: line 1, col \d+: .+ \[syntax\]\n")

    @staticmethod
    def verify(tmp_path: Path, text: str) -> int:
        spec = tmp_path / "adversarial.hf"
        spec.write_text(text, encoding="utf-8")
        return main(["verify", str(spec), "--grid", "4"])

    def assert_one_syntax_line(self, capsys) -> None:
        captured = capsys.readouterr()
        assert self.SYNTAX_ERROR.fullmatch(captured.err), captured.err[:200]
        assert "Traceback" not in captured.err and captured.out == ""

    def assert_verified(self, capsys) -> None:
        captured = capsys.readouterr()
        assert captured.out == "verified 5 grid points: all sections match\n"
        assert captured.err == ""

    def test_sum_of_20000_terms(self, tmp_path: Path, capsys):
        text = "u1 = 0\nu2 = " + " + ".join(["x"] * 20_000) + "\n"
        assert self.verify(tmp_path, text) == OK
        self.assert_verified(capsys)

    def test_difference_of_20000_terms(self, tmp_path: Path, capsys):
        assert self.verify(tmp_path, "u1 = " + " - ".join(["x"] * 20_000) + "\n") == OK
        self.assert_verified(capsys)

    def test_5000_minus_signs(self, tmp_path: Path, capsys):
        assert self.verify(tmp_path, "u1 = " + "- " * 5000 + "x\n") == OK
        self.assert_verified(capsys)

    def test_3000_nested_parentheses(self, tmp_path: Path, capsys):
        text = "u1 = " + "(" * 3000 + "x" + ")" * 3000 + "\n"
        assert self.verify(tmp_path, text) == PARSE_ERROR
        self.assert_one_syntax_line(capsys)

    def test_1500_nested_abs(self, tmp_path: Path, capsys):
        text = "u1 = " + "abs(" * 1500 + "x" + ")" * 1500 + "\n"
        assert self.verify(tmp_path, text) == PARSE_ERROR
        self.assert_one_syntax_line(capsys)

    def test_1500_nested_min(self, tmp_path: Path, capsys):
        text = "u1 = " + "min(x, " * 1500 + "x" + ")" * 1500 + "\n"
        assert self.verify(tmp_path, text) == PARSE_ERROR
        self.assert_one_syntax_line(capsys)

    @pytest.mark.parametrize(
        "text", ["u1 = " + "7" * 5000 + "\n", "grid " + "9" * 5000 + "\nu1 = x\n"]
    )
    def test_5000_digit_literal(self, text: str, tmp_path: Path, capsys):
        assert self.verify(tmp_path, text) == PARSE_ERROR
        self.assert_one_syntax_line(capsys)


# -- the exit-code contract under generated specs ------------------------------

_TOKENS = [
    "x", "+", "-", "*", "/", "^", "(", ")", ",", "=", "min(", "max(", "abs(",
    "grid", "tail", "limit", "n", "u1", "u2", "0", "1", "2", "1/2", " ", "\n",
]
_token_text = st.lists(
    st.one_of(st.sampled_from(_TOKENS), st.integers(1, 1500).map(lambda k: "7" * k)),
    max_size=40,
).map("".join)
_nested = st.builds(
    lambda opener, depth: "u1 = " + opener * depth + "x" + ")" * depth + "\n",
    st.sampled_from(["(", "abs(", "min(x, ", "max(1, "]),
    st.integers(0, 3000),
)
_long_sum = st.builds(
    lambda op, term, count: "u1 = 0\nu2 = " + op.join([term] * count) + "\n",
    st.sampled_from([" + ", " - ", "-", " - -"]),
    st.sampled_from(["x", "1/3", "2 * x", "abs(x - 1/2)"]),
    st.integers(1, 3000),
)
_spec_bytes = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda head, body: (head + body).encode(),
        st.sampled_from(["", "u1 = ", "u1 = 0\nu2 = "]),
        _token_text,
    ),
    _nested.map(str.encode),
    _long_sum.map(str.encode),
)


@pytest.fixture(scope="module")
def fuzz_spec(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "spec.hf"


def run_under_contract(spec: Path, data: bytes, command: str, *options: str) -> int:
    """Run the command on the spec bytes: every spec exits 0-3 with no
    exception, and exit 2 prints exactly one line."""
    spec.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(spec), *options])
    assert code in (OK, VERIFY_FAILED, PARSE_ERROR, IO_ERROR)
    if code == PARSE_ERROR:
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""
    return code


@settings(max_examples=300, deadline=None)
@given(data=_spec_bytes)
def test_exit_code_contract(fuzz_spec: Path, data: bytes):
    """--grid 4 overrides any grid directive, so each example does bounded work."""
    run_under_contract(fuzz_spec, data, "verify", "--grid", "4")


# Tail specs: a head, a limit line and a tail line.  Each expression and rule
# is well formed four times in five and a token string otherwise, so the
# witness search of `sections` runs on many of them.
def _mostly(good: list[str]):
    return st.builds(
        lambda k, text, noise: noise if k == 0 else text,
        st.integers(0, 4),
        st.sampled_from(good),
        st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=6).map("".join),
    )


_expr = _mostly(
    ["x", "0", "1/2", "x - 1/2", "1/2 - x", "abs(x - 1/2)", "min(x, 1/2)", "max(0, 1 - 2 * x)"]
)
_tail_rule = _mostly(["0", "1/n", "-2/n", "1 * 1/2^n", "2 * -1/2^n", "-1 * -2/3^n"])
_tail_spec = st.builds(
    lambda head, limit, rule, shape: (
        "".join(f"u{i} = {e}\n" for i, e in enumerate(head, start=1))
        + f"limit {limit}\ntail {rule}"
        + ("" if shape is None else f" * {shape}")
        + "\n"
    ).encode(),
    st.lists(_expr, max_size=3),
    _expr,
    _tail_rule,
    st.none() | _expr,
)


@settings(max_examples=300, deadline=None)
@given(data=_tail_spec, brute=st.booleans())
def test_sections_exit_code_contract(fuzz_spec: Path, data: bytes, brute: bool):
    """The same contract for `sections --grid 4`, with and without --brute 9."""
    extra = ["--brute", "9"] if brute else []
    run_under_contract(fuzz_spec, data, "sections", "--grid", "4", *extra)


@settings(max_examples=300, deadline=None)
@given(data=_spec_bytes)
def test_synth_exit_code_contract(fuzz_spec: Path, data: bytes):
    """The contract for `synth --grid 4 --samples 4`; on exit 0 the written
    function.json loads back to the same JSON."""
    out = fuzz_spec.parent / "synth-out"
    shutil.rmtree(out, ignore_errors=True)
    code = run_under_contract(
        fuzz_spec, data, "synth", "--grid", "4", "--samples", "4", "--out", str(out)
    )
    if code == OK:
        written = json.loads((out / "function.json").read_text(encoding="utf-8"))
        assert BlockProductFunc.from_json(written).to_json() == written


@settings(max_examples=300, deadline=None)
@given(data=_spec_bytes)
def test_verify_report_exit_code_contract(fuzz_spec: Path, data: bytes):
    """The contract for `verify --grid 4 --report PATH`; a report written
    says it passed exactly when the exit code does."""
    report = fuzz_spec.parent / "report.json"
    report.unlink(missing_ok=True)
    code = run_under_contract(fuzz_spec, data, "verify", "--grid", "4", "--report", str(report))
    if code in (OK, VERIFY_FAILED):
        assert json.loads(report.read_text(encoding="utf-8"))["passed"] is (code == OK)


class TestSynth:
    def test_writes_artifacts(self, sp1_spec: Path, tmp_path: Path):
        out = tmp_path / "artifacts"
        assert main(["synth", str(sp1_spec), "--grid", "8", "--out", str(out)]) == OK
        data = json.loads((out / "function.json").read_text(encoding="utf-8"))
        assert len(data["blocks"]) == 2
        assert "stage_sets" not in data
        assert BlockProductFunc.from_json(data).stage_sets[0] == RatSet.of([("1/2", "1/2")])
        csv_text = (out / "samples.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0] == "x,y,value,value_float"
        assert ",inf," in csv_text


class TestGoldenOutputs:
    """Exact outputs pinned byte for byte: any drift in an exact value fails."""

    SHA256 = {
        "sp1": {
            "function.json": "c2bf594ec3780df26ffadcc1ab964abec415f86ba97a2d9b1dffd921190154e8",
            "samples.csv": "d4aafe7db1f10002a0d1978c026d6fba2e0a8693406198dd681b67168cc753f5",
        },
        "seeded": {
            "function.json": "576cfe3a40e5d814a7ac877e7a6065c5ce796e6e6973d7e7cf8f3997a1c06437",
            "samples.csv": "db65e97d1dc3bf8cc70888f250cc1f96782b58e29b54be241b65d6e914134400",
        },
    }
    TEXTS = {"sp1": SP1_TEXT, "seeded": SEEDED_TEXT}

    @pytest.mark.parametrize("name", ["sp1", "seeded"])
    def test_synth_artifacts(self, name: str, tmp_path: Path):
        spec = tmp_path / f"{name}.hf"
        spec.write_text(self.TEXTS[name], encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", str(spec), "--out", str(out)]) == OK
        digests = {
            file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in self.SHA256[name]
        }
        assert digests == self.SHA256[name]

    # samples.csv of the seeded family at the --samples bounds, pinned from the
    # export that built each value as a chain of Fractions.
    SAMPLES_SHA256 = {
        "100": "8377c442f96c247211c6d760e1b30157dc3d4fc33a59853c0808499b32a23da8",
        "0": "e0b2bd6c4e109ffcdc504ee7c7d36c528f08be42833249f6d3ac469c6da05790",
    }

    @pytest.mark.parametrize("samples", sorted(SAMPLES_SHA256))
    def test_seeded_samples_at_bounds(self, samples: str, tmp_path: Path):
        spec = tmp_path / "seeded.hf"
        spec.write_text(SEEDED_TEXT, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", str(spec), "--samples", samples, "--out", str(out)]) == OK
        digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
        assert digest == self.SAMPLES_SHA256[samples]

    # function.json of the seeded family as written before envelope and sum
    # results dropped their collinear knots, and its SHA-256 as pinned then.
    SEEDED_BEFORE_CANONICAL = Path(__file__).parent / "fixtures" / "seeded_function_pre_canonical.json"
    SEEDED_BEFORE_CANONICAL_SHA256 = "9e70cf5eb7e7cba75029bbe28507884eb8a3859b1d6b99b012bf2d6c11d9d55e"

    def test_seeded_function_matches_pre_canonical(self, tmp_path: Path):
        """The re-pinned seeded function.json holds the same functions, with no
        more knots, and the same supports byte for byte; the stage sets its
        alphas give are the ones the old file stored, and the old file loads."""
        raw = self.SEEDED_BEFORE_CANONICAL.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == self.SEEDED_BEFORE_CANONICAL_SHA256
        old = json.loads(raw)
        spec = tmp_path / "seeded.hf"
        spec.write_text(SEEDED_TEXT, encoding="utf-8")
        assert main(["synth", str(spec), "--out", str(tmp_path / "out")]) == OK
        new = json.loads((tmp_path / "out" / "function.json").read_text(encoding="utf-8"))
        stored = tuple(RatSet.of(s) for s in old["stage_sets"])
        assert BlockProductFunc.from_json(new).stage_sets == stored
        assert BlockProductFunc.from_json(old).stage_sets == stored
        assert len(new["blocks"]) == len(old["blocks"])
        pairs = [(new["theta"], old["theta"])]
        for nb, ob in zip(new["blocks"], old["blocks"]):
            assert nb["support"] == ob["support"]
            pairs += [(nb[key], ob[key]) for key in ("g", "h", "alpha")]
        for n, o in pairs:
            f, g = PLFunc.from_json(n), PLFunc.from_json(o)
            assert pl_equal(f, g)
            assert all(f(x) == g(x) for x in set(f.breakpoints) | set(g.breakpoints))
            assert len(f.breakpoints) <= len(g.breakpoints)
        assert sum(len(n) for n, _ in pairs) < sum(len(o) for _, o in pairs)

    @pytest.mark.parametrize("name", ["sp1", "seeded"])
    def test_verify_stdout(self, name: str, tmp_path: Path, capsys):
        spec = tmp_path / f"{name}.hf"
        spec.write_text(self.TEXTS[name], encoding="utf-8")
        assert main(["verify", str(spec), "--grid", "64"]) == OK
        assert capsys.readouterr().out == "verified 65 grid points: all sections match\n"

    # The verify --grid 64 --report JSON, as written by the per-x probe loop
    # that the exact decision replaced.
    REPORT_SHA256 = {
        "sp1": "be2f2ddbdaf45bb8e3062e0130c18c493ea931a9e7600d08f57a5e9866d40b31",
        "seeded": "2b3fe921b4431d5988f8a947fe420becb20849a9bac4660c05a7507900453a1d",
    }

    @pytest.mark.parametrize("name", ["sp1", "seeded"])
    def test_verify_report(self, name: str, tmp_path: Path, capsys):
        spec = tmp_path / f"{name}.hf"
        spec.write_text(self.TEXTS[name], encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["verify", str(spec), "--grid", "64", "--report", str(report)]) == OK
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.REPORT_SHA256[name]

    # sections stdout, which pins each witness as the first attaining candidate
    # in the order head, n+1, n+2, inf (or 1..M, inf under --brute M).  In
    # SECTIONS_TEXT, u1, slices 3 and 4 and inf all attain h(0) = 0.  The tie
    # specs add duplicate head slices, a zero tail whose slices n+1, n+2 and
    # inf all equal the limit, and an alternating tail whose slice n+1 repeats
    # a head slice.
    SECTIONS_TEXTS = {
        "sections": SECTIONS_TEXT,
        "ties_zero_tail": (
            "u1 = x - 1/2\nu2 = x - 1/2\nu3 = 0\nu4 = 1/2 - x\nu5 = 0\n"
            "limit 1/4\ntail 0\ngrid 8\n"
        ),
        "ties_alternating": (
            "u1 = 0\nu2 = 1/8 * x - 1/16\nu3 = 0\n"
            "limit 0\ntail 2 * -1/2^n * (x - 1/2)\ngrid 8\n"
        ),
    }
    SECTIONS_SHA256 = {
        ("sections", None): "b8eda4bce325083ec5bb5feb286a9fa06c48c63071cca39c045fb1ced8753faa",
        ("sections", "6"): "cec5c05a74775ba579ec204716068d3bc47172343f89fd7f65a5c8229c079397",
        ("ties_zero_tail", None): "0e3b02c6b11bbacfbe7d64717ad96a3a30fdead58f11c7db1e733738d83fca1d",
        ("ties_zero_tail", "9"): "68b3544a4c2a6a5e33a339a35192c494d5741013ffb63f694f0cb137fa69d64d",
        ("ties_alternating", None): "9e5de83522af9ed2031a761d7de5a709c3759f339c73d9dc650918580b0b6271",
        ("ties_alternating", "9"): "e652f7f5d256f8fec324656ed1c6b143bde8965c5e492c53e489256687fefd9f",
    }

    @pytest.mark.parametrize("name, brute", sorted(SECTIONS_SHA256, key=str))
    def test_sections_stdout(self, name: str, brute: str | None, tmp_path: Path, capsys):
        spec = tmp_path / f"{name}.hf"
        spec.write_text(self.SECTIONS_TEXTS[name], encoding="utf-8")
        extra = [] if brute is None else ["--brute", brute]
        assert main(["sections", str(spec), *extra]) == OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == self.SECTIONS_SHA256[name, brute]

    # sections --out of SECTIONS_TEXT, as csv.writer and the per-node JSON
    # writer wrote it.
    SECTIONS_OUT_SHA256 = {
        None: {
            "sections.json": "b8eda4bce325083ec5bb5feb286a9fa06c48c63071cca39c045fb1ced8753faa",
            "sections.csv": "03af741724e72326c221ad3fd446ef0b7cfdd041051285eb00fc440a9e4940b9",
        },
        "6": {
            "sections.json": "cec5c05a74775ba579ec204716068d3bc47172343f89fd7f65a5c8229c079397",
            "sections.csv": "03af741724e72326c221ad3fd446ef0b7cfdd041051285eb00fc440a9e4940b9",
        },
    }

    @pytest.mark.parametrize("brute", [None, "6"])
    def test_sections_files(self, brute: str | None, tmp_path: Path, capsys):
        spec = tmp_path / "tail.hf"
        spec.write_text(SECTIONS_TEXT, encoding="utf-8")
        extra = [] if brute is None else ["--brute", brute]
        out = tmp_path / "out"
        assert main(["sections", str(spec), *extra, "--out", str(out)]) == OK
        digests = {
            file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in self.SECTIONS_OUT_SHA256[brute]
        }
        assert digests == self.SECTIONS_OUT_SHA256[brute]
        capsys.readouterr()
        assert main(["sections", str(spec), *extra]) == OK
        assert (out / "sections.json").read_bytes() == capsys.readouterr().out.encode("utf-8")


# Quotes, backslashes, control characters and non-ASCII text, which the JSON
# writer escapes as json.dumps does.
JSON_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\r\t\b\f", "é", " ", "😀", "\ud800"]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | JSON_STRINGS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(JSON_STRINGS, children, max_size=4),
    max_leaves=20,
)


class TestWriters:
    """The CSV and JSON writers give the bytes of their stdlib counterparts."""

    @staticmethod
    def stdlib_csv(path: Path, header: list[str], rows) -> None:
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)

    def assert_csv_matches(self, tmp_path: Path, header: list[str], rows) -> None:
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        _write_csv(ours, header, rows)
        self.stdlib_csv(theirs, header, rows)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("name", ["sp1", "seeded"])
    @pytest.mark.parametrize("samples", [0, 100])
    def test_sample_rows_csv(self, name: str, samples: int, tmp_path: Path):
        ast = parse_spec({"sp1": SP1_TEXT, "seeded": SEEDED_TEXT}[name])
        f = synthesize(family_from_spec(ast))
        rows = f.sample_rows(grid_from_spec(ast), samples)
        self.assert_csv_matches(tmp_path, ["x", "y", "value", "value_float"], rows)

    def test_sample_rows_csv_past_float_range(self, tmp_path: Path):
        big = 10**400
        f = synthesize(StableFamily((PLFunc.affine(2 * big, -big), PLFunc.constant(0), PLFunc.identity())))
        rows = f.sample_rows(uniform_grid(32), MAX_SAMPLES)
        assert {"inf", "-inf"} <= {row[3] for row in rows}
        self.assert_csv_matches(tmp_path, ["x", "y", "value", "value_float"], rows)

    @pytest.mark.parametrize("brute", [None, 6])
    def test_section_rows_csv(self, brute: int | None, tmp_path: Path):
        ast = parse_spec(SECTIONS_TEXT)
        family, grid = tail_family_from_spec(ast), grid_from_spec(ast)
        pair = tail_sections(family, grid) if brute is None else brute_sections(family, brute, grid)[0]
        self.assert_csv_matches(tmp_path, ["x", "g", "h", "min_witness", "max_witness"], pair.rows())

    @pytest.mark.parametrize("n", [3, 10**5000], ids=["small", "past-str-limit"])
    def test_csv_field_must_be_str(self, n: int, tmp_path: Path):
        # csv.writer would write str(n), which stops at the int-to-str limit.
        with pytest.raises(TypeError):
            _write_csv(tmp_path / "ints.csv", ["x", "n"], [("0/1", n)])

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_json_text_is_json_dumps(self, data):
        assert _json_text(data) == json.dumps(data, indent=2)

    def test_json_int_past_str_limit(self):
        data = {"entries": [{"x": "0/1", "min_witness": 10**4999 + 7}, []], "passed": True}
        with int_str_digits(0):
            expected = json.dumps(data, indent=2)
        with int_str_digits(640):
            assert _json_text(data) == expected


class TestHugeValues:
    """Exact values past the float range or past Python's 4,300-digit
    int-to-str limit are written in full, with no traceback."""

    def test_value_past_float_range(self, tmp_path: Path, capsys):
        big = 10**400
        spec = tmp_path / "big.hf"
        spec.write_text(f"u1 = {big} * (2 * x - 1)\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", str(spec), "--grid", "4", "--samples", "1", "--out", str(out)]) == OK
        assert capsys.readouterr().err == ""
        with (out / "samples.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 10
        for x, _, value, value_float in rows:
            exact = big * (2 * Fraction(x) - 1)
            assert Fraction(value) == exact
            assert value_float == {-1: "-inf", 0: "0", 1: "inf"}[(exact > 0) - (exact < 0)]

    def test_digits_past_str_limit(self, tmp_path: Path, capsys):
        a = int("7" * 1000)
        spec = tmp_path / "digits.hf"
        spec.write_text("u1 = " + " * ".join([str(a)] * 5) + " * x\n", encoding="utf-8")
        with int_str_digits(0):
            expected = f"{a**5}/1"
        assert len(expected) > 4300
        out = tmp_path / "out"
        assert main(["synth", str(spec), "--grid", "4", "--samples", "1", "--out", str(out)]) == OK
        theta = json.loads((out / "function.json").read_text(encoding="utf-8"))["theta"]
        assert theta == [["0/1", "0/1"], ["1/1", expected]]
        report = tmp_path / "report.json"
        assert main(["verify", str(spec), "--grid", "1", "--report", str(report)]) == OK
        entries = json.loads(report.read_text(encoding="utf-8"))["entries"]
        assert [(e["x"], e["g"], e["h"]) for e in entries] == [
            ("0/1", "0/1", "0/1"),
            ("1/1", expected, expected),
        ]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "limit-640"])
    def test_report_witnesses_past_str_limit(self, limit: int | None, tmp_path: Path):
        # The witness naturals at x = 0 have 1,401 digits, past the lowest
        # permitted limit: the report writes them as JSON numbers, with the
        # bytes json.dumps gives when no limit applies.
        spec = tmp_path / "witness.hf"
        spec.write_text(f"u1 = {'7' * 700} * x\nu2 = 1/{'3' * 700}\n", encoding="utf-8")
        report = tmp_path / "report.json"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = str(limit)
        done = subprocess.run(
            [sys.executable, "-m", "hahnforge.cli", "verify", str(spec), "--grid", "4", "--report", str(report)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (done.returncode, done.stderr) == (OK, ""), done.stderr
        with int_str_digits(0):
            data = json.loads(report.read_text(encoding="utf-8"))
            assert report.read_text(encoding="utf-8") == json.dumps(data, indent=2) + "\n"
            first = data["entries"][0]
            assert [len(str(first[key])) for key in ("min_witness", "max_witness")] == [1401, 1401]

    def test_geometric_ratio_past_str_limit_is_a_parse_error(self, tmp_path: Path, capsys):
        # A ratio |q| >= 1 of 700 digits, past the lowest permitted limit:
        # exit 2 and one stderr line that prints q in full, no traceback.
        big = "7" * 700
        spec = tmp_path / "ratio.hf"
        spec.write_text(f"u1 = 0\nlimit 0\ntail 1 * {big}^n * (x)\n", encoding="utf-8")
        with int_str_digits(640):
            assert main(["sections", str(spec)]) == PARSE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"geometric ratio {big} must satisfy |q| < 1" in err
        assert err.endswith("[semantic]\n")

    @pytest.mark.parametrize("digits", [5000, 10000])
    def test_rat_reads_back_rat_str(self, digits: int):
        n, d = 10**digits - 3, 3 ** (2 * digits)  # both past the limit
        for q in (Fraction(n, d), Fraction(-n, d), Fraction(n)):
            assert rat(rat_str(q)) == q

    def test_rat_reads_back_rat_str_at_lowest_limit(self):
        q = Fraction(10**1000 + 7, 3)  # 1,001 digits, past the lowest permitted limit
        with int_str_digits(640):
            assert rat(rat_str(q)) == q

    def test_function_json_past_str_limit_loads(self):
        a = "7" * 1000
        f = synthesize(family_from_spec(parse_spec("u1 = " + " * ".join([a] * 5) + " * x\n")))
        assert BlockProductFunc.from_json(json.loads(json.dumps(f.to_json()))) == f

    @pytest.mark.parametrize("digits", [1, 499, 500, 501, 1000, 4300, 4301, 9001])
    def test_rat_str_digits(self, digits: int):
        n, d = 10**digits - 3, 3 ** (2 * digits)  # coprime, d almost as long
        with int_str_digits(0):
            expected = [f"{n}/{d}", f"-{n}/{d}", f"{n}/1"]
        got = [rat_str(Fraction(n, d)), rat_str(Fraction(-n, d)), rat_str(Fraction(n))]
        assert got == expected

    @pytest.mark.parametrize("digits", [1, 500, 501, 4301])
    def test_rat_text_prints_what_str_prints(self, digits: int):
        # At the lowest permitted limit, the bytes str(Fraction) gives with no limit.
        n, d = 10**digits - 3, 3 ** (2 * digits)
        values = [Fraction(3, 4), Fraction(0), Fraction(-2), Fraction(n, d), Fraction(-n, d), Fraction(-n)]
        with int_str_digits(0):
            expected = [str(q) for q in values]
        with int_str_digits(640):
            assert [rat_text(q) for q in values] == expected


class TestSections:
    def test_stdout_json(self, tmp_path: Path, capsys):
        spec = tmp_path / "tail.hf"
        spec.write_text(SECTIONS_TEXT, encoding="utf-8")
        assert main(["sections", str(spec)]) == OK
        data = json.loads(capsys.readouterr().out)
        row = next(r for r in data["grid"] if r["x"] == "1/1")
        assert row["g"] == "-1/3"
        assert row["min_witness"] == 3

    def test_brute_mode_reports_bound(self, tmp_path: Path, capsys):
        spec = tmp_path / "tail.hf"
        spec.write_text(SECTIONS_TEXT, encoding="utf-8")
        assert main(["sections", str(spec), "--brute", "3"]) == OK
        data = json.loads(capsys.readouterr().out)
        assert data["bound"] == "1/4"

    def test_files_out(self, tmp_path: Path):
        spec = tmp_path / "tail.hf"
        spec.write_text(SECTIONS_TEXT, encoding="utf-8")
        out = tmp_path / "sec"
        assert main(["sections", str(spec), "--out", str(out)]) == OK
        assert (out / "sections.json").exists()
        assert (out / "sections.csv").read_text(encoding="utf-8").startswith("x,g,h")

    def test_missing_directives(self, sp1_spec: Path, capsys):
        assert main(["sections", str(sp1_spec)]) == PARSE_ERROR
        assert "semantic" in capsys.readouterr().err


class TestRank:
    def test_w2_times_3(self, capsys):
        assert main(["rank", "w^2*3"]) == OK
        assert capsys.readouterr().out.strip() == "3"

    def test_finite(self, capsys):
        assert main(["rank", "17"]) == OK
        assert capsys.readouterr().out.strip() == "1"

    def test_huge_exponent(self, capsys):
        assert main(["rank", "w^200000"]) == OK
        assert capsys.readouterr().out.strip() == "200001"

    def test_rank_past_str_limit(self, capsys):
        # The rank 10**4300 has 4,301 digits, one past Python's default limit.
        assert main(["rank", "w^" + "9" * 4300]) == OK
        assert capsys.readouterr().out == "1" + "0" * 4300 + "\n"

    def test_bad_ordinal(self, capsys):
        assert main(["rank", "omega^^2"]) == PARSE_ERROR


class TestAlphaTDemo:
    def test_report(self, capsys):
        assert main(["alphat-demo"]) == OK
        assert capsys.readouterr().out == (
            "x-section over T0: continuous\n"
            "x-section over T1: continuous\n"
            "x-section over T2: continuous\n"
            "x-section over infinity: continuous\n"
            "h = χ_{T1}: not Baire-one\n"
            "g = -χ_{T2}: not Baire-one\n"
        )
