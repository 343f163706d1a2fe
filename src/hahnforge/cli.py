"""Command-line front end.

Commands: ``synth`` (build the product function and export JSON/CSV),
``verify`` (exit 0 iff the synthesized sections match the envelopes exactly;
``--report PATH`` writes the report with every grid entry and failure),
``sections`` (exact tail sections of a spec with limit/tail directives),
``rank`` (scattered rank of an ordinal literal), and ``alphat-demo``.

Output formats: a CSV file (``samples.csv``, ``sections.csv``) is written
as comma-joined, unquoted fields with "\r\n" line ends, the bytes of the
``csv`` module's default dialect; a JSON document (``function.json``, the
``verify`` report, ``sections.json`` and ``sections``' stdout) is written as
``json.dumps(indent=2)`` writes it, with ints of any length.  Both are built
from the strings the exporters make, with no per-row or per-leaf call into
``csv`` or ``json``.

Exit codes: 0 ok, 1 verification failure, 2 parse error (a spec that does
not parse, is not UTF-8, or an option value the command cannot run with,
such as a size past ``MAX_GRID``, ``MAX_SAMPLES`` or ``MAX_BRUTE``),
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Sequence

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
# Rows per write of a CSV file: one write for every file of up to this many rows.
CSV_BLOCK_ROWS = 4096


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


def _write_csv(path: Path, header: list[str], rows: Sequence[Sequence[str]]) -> None:
    """Write the header and rows as text: each line is its fields joined by
    ",", ending in "\r\n".  These are the bytes of ``csv.writer``'s default
    dialect, since every field comes from ``int_str``, ``ratio_str``,
    ``ratio_float``, ``INFINITY`` or ``str`` of a witness natural, so none is
    empty or holds ",", '"', "\r" or "\n".  A field that is not a ``str``
    raises TypeError: it is never passed through ``str()``, which stops at
    Python's int-to-str digit limit.

    The rows are joined and written ``CSV_BLOCK_ROWS`` at a time, so no more
    than one block's text is held beside the rows."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start : start + CSV_BLOCK_ROWS]
            handle.write("\r\n".join(map(",".join, block)) + "\r\n")


def _json_text(data, indent: str = "") -> str:
    """json.dumps(data, indent=2) with every int written through int_str:
    json writes an int with int.__repr__, which stops at Python's int-to-str
    limit, and a witness natural of a report can pass it.  A str, the bulk of
    every output, is written inline with json's own C escaper, and so is a
    list whose items are all strs, such as each [x, v] pair of
    ``function.json``, with no call of its own; bools, None and floats go
    through json.dumps."""
    if isinstance(data, str):
        return _quote(data)
    if isinstance(data, int) and not isinstance(data, bool):
        return int_str(data)
    if not isinstance(data, (dict, list)) or not data:
        return json.dumps(data)
    inner = indent + "  "
    if isinstance(data, dict):
        items = [
            _quote(k) + ": " + (_quote(v) if isinstance(v, str) else _json_text(v, inner))
            for k, v in data.items()
        ]
        brackets = "{}"
    else:
        head, sep, tail = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
        items = []
        for v in data:
            if isinstance(v, str):
                items.append(_quote(v))
            elif isinstance(v, list) and v and all(map(isinstance, v, repeat(str))):
                items.append(head + sep.join(map(_quote, v)) + tail)
            else:
                items.append(_json_text(v, inner))
        brackets = "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


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
