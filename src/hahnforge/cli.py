"""Command-line front end.

Commands: ``synth`` (build the product function and export JSON/CSV),
``verify`` (exit 0 iff the synthesized sections match the envelopes exactly;
``--report PATH`` writes the report with every grid entry and failure),
``sections`` (exact tail sections of a spec with limit/tail directives),
``rank`` (scattered rank of an ordinal literal), and ``alphat-demo``.

Exit codes: 0 ok, 1 verification failure, 2 parse error (a spec that does
not parse, is not UTF-8, or an option value the command cannot run with,
such as a size past ``MAX_GRID``, ``MAX_SAMPLES`` or ``MAX_BRUTE``),
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .alphat import at_baire_one_cocountable, at_is_continuous, at_sections, diag_example
from .builder import synthesize, verify_synthesis
from .rational import int_str, rat_str
from .sections import brute_sections, tail_sections
from .spaces import OrdinalCompact, parse_ordinal, scattered_rank
from .specdsl import (
    MAX_GRID,
    SpecError,
    family_from_spec,
    grid_from_spec,
    parse_spec,
    tail_family_from_spec,
)

OK, VERIFY_FAILED, PARSE_ERROR, IO_ERROR = 0, 1, 2, 3
# Run time and memory grow with these sizes, so they are bounded like the grid.
MAX_SAMPLES = 100
MAX_BRUTE = 10_000


class UsageError(Exception):
    """An option value the command cannot run with; exits like a parse error."""


def _load_spec(path: str):
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        col = exc.start - (exc.object.rfind(b"\n", 0, exc.start) + 1) + 1
        raise SpecError("spec is not valid UTF-8", line, col, "encoding") from None
    return parse_spec(text)


def _grid(ast, override: int | None):
    if override is not None and override < 1:
        raise UsageError(f"--grid needs a positive integer, got {override}")
    if override is not None and override > MAX_GRID:
        raise UsageError(f"--grid is at most {MAX_GRID}, got {override}")
    return grid_from_spec(ast, override)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _json_text(data, depth: int = 0) -> str:
    """json.dumps(data, indent=2) with every int written through int_str: json
    writes an int with int.__repr__, which stops at Python's int-to-str limit,
    and a witness natural of a report can pass it."""
    if isinstance(data, int) and not isinstance(data, bool):
        return int_str(data)
    if not isinstance(data, (dict, list)) or not data:
        return json.dumps(data)
    if isinstance(data, dict):
        items = [json.dumps(k) + ": " + _json_text(v, depth + 1) for k, v in data.items()]
    else:
        items = [_json_text(v, depth + 1) for v in data]
    outer = "\n" + "  " * depth
    inner = outer + "  "
    brackets = "{}" if isinstance(data, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + outer + brackets[1]


def _write_json(path: Path, data) -> None:
    path.write_text(_json_text(data) + "\n", encoding="utf-8")


def cmd_synth(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples needs a non-negative integer, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples is at most {MAX_SAMPLES}, got {args.samples}")
    ast = _load_spec(args.spec)
    family = family_from_spec(ast)
    grid = _grid(ast, args.grid)
    f = synthesize(family)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "function.json", f.to_json())
    _write_csv(
        out / "samples.csv",
        ["x", "y", "value", "value_float"],
        f.sample_rows(grid, args.samples),
    )
    print(f"wrote {out / 'function.json'} and {out / 'samples.csv'}")
    return OK


def cmd_verify(args: argparse.Namespace) -> int:
    ast = _load_spec(args.spec)
    family = family_from_spec(ast)
    grid = _grid(ast, args.grid)
    report = verify_synthesis(synthesize(family), family, grid)
    if args.report:
        _write_json(Path(args.report), report.to_json())
    for failure in report.failures:
        print(f"FAIL {failure}")
    print(
        f"verified {len(report.rows)} grid points: "
        + ("all sections match" if report.passed else f"{len(report.failures)} failures")
    )
    return OK if report.passed else VERIFY_FAILED


def cmd_sections(args: argparse.Namespace) -> int:
    ast = _load_spec(args.spec)
    family = tail_family_from_spec(ast)
    grid = _grid(ast, args.grid)
    if args.brute is not None:
        if args.brute <= family.head_size:
            raise UsageError(
                f"--brute must exceed the head size {family.head_size}, got {args.brute}"
            )
        if args.brute > MAX_BRUTE:
            raise UsageError(f"--brute is at most {MAX_BRUTE}, got {args.brute}")
        pair, bound = brute_sections(family, args.brute, grid)
        data = pair.to_json()
        data["bound"] = rat_str(bound)
    else:
        pair = tail_sections(family, grid)
        data = pair.to_json()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "sections.json", data)
        _write_csv(out / "sections.csv", ["x", "g", "h", "min_witness", "max_witness"], pair.rows())
        print(f"wrote {out / 'sections.json'} and {out / 'sections.csv'}")
    else:
        print(_json_text(data))
    return OK


def cmd_rank(args: argparse.Namespace) -> int:
    try:
        top = parse_ordinal(args.ordinal)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    print(int_str(scattered_rank(OrdinalCompact(top))))
    return OK


def cmd_alphat_demo(args: argparse.Namespace) -> int:
    f = diag_example()
    for region in ("T0", "T1", "T2", "infinity"):
        verdict = at_is_continuous(f.x_section(region))
        print(f"x-section over {region}: {'continuous' if verdict.ok else 'discontinuous'}")
    lo, hi = at_sections(f)
    for name, func in (("h = χ_{T1}", hi), ("g = -χ_{T2}", lo)):
        baire = at_baire_one_cocountable(func)
        print(f"{name}: {'Baire-one candidate' if baire is not None else 'not Baire-one'}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hahnforge",
        description="Exact envelope pairs and separately continuous synthesis on [0,1] x alphaN",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize and export the product function")
    synth.add_argument("spec")
    synth.add_argument("--grid", type=int, default=None, help="grid denominator (default 64)")
    synth.add_argument("--samples", type=int, default=32, help="naturals per slice in the CSV")
    synth.add_argument("--out", default="out", help="output directory")
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="synthesize, then check sections == envelopes")
    verify.add_argument("spec")
    verify.add_argument("--grid", type=int, default=None)
    verify.add_argument("--report", default=None, help="write the verification report as JSON")
    verify.set_defaults(func=cmd_verify)

    sections = sub.add_parser("sections", help="exact tail sections of a slice family")
    sections.add_argument("spec")
    sections.add_argument("--grid", type=int, default=None)
    sections.add_argument("--brute", type=int, default=None, help="enumerate up to this cutoff")
    sections.add_argument("--out", default=None)
    sections.set_defaults(func=cmd_sections)

    rank = sub.add_parser("rank", help="scattered rank of an ordinal literal like 'w^2*3'")
    rank.add_argument("ordinal")
    rank.set_defaults(func=cmd_rank)

    demo = sub.add_parser("alphat-demo", help="diagonal example on an uncountable discrete space")
    demo.set_defaults(func=cmd_alphat_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"parse error: {exc} [{exc.kind}]", file=sys.stderr)
        return PARSE_ERROR
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
