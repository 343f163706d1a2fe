"""Shows that every output check passes a real output and rejects a corrupted one.

Usage, from the repository root:

    python3 bench/selftest.py

For each workload one request runs through ``hahnforge.cli.main``; each check
must accept its output.  Then one value of the output is changed, once per
check, and that check must reject it; an output with a key missing must be
rejected too, not crash the check.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import checks
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "selftest"


def run_request(cli_main, name: str, slot: int = 0):
    workload = WORKLOADS[name]
    spec = workload.spec(0, slot)
    spec_path = WORK / f"{name}.hf"
    spec_path.write_text(spec.text(), encoding="utf-8")
    out_dir = WORK / name
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(workload.argv(spec, str(spec_path), str(out_dir)))
    return spec, code, buf.getvalue(), out_dir


def bump(value: str) -> str:
    q = Fraction(value) + 1
    return f"{q.numerator}/{q.denominator}"


def cases(cli_main):
    """(check name, check on the real output, check on the corrupted output)."""
    spec, _, _, out_dir = run_request(cli_main, "synth_wide")
    samples = (out_dir / "samples.csv").read_text(encoding="utf-8")
    function = (out_dir / "function.json").read_text(encoding="utf-8")

    rows = list(csv.reader(io.StringIO(samples)))
    inf_row = checks.SYNTH_SAMPLES + 1  # the "inf" row of the first grid point
    rows[inf_row][2] = bump(rows[inf_row][2])
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    bad_samples = out.getvalue()
    yield (
        "synth samples in [g, h], inf = first member",
        checks.check_samples(spec, samples, checks.SYNTH_SAMPLES),
        checks.check_samples(spec, bad_samples, checks.SYNTH_SAMPLES),
    )

    data = json.loads(function)
    knot = data["blocks"][0]["h"][0]
    knot[1] = bump(knot[1])
    yield (
        "synth function.json attains g and h",
        checks.check_function(spec, function),
        checks.check_function(spec, json.dumps(data)),
    )

    spec, code, stdout, _ = run_request(cli_main, "verify_grid")
    yield (
        "verify exit 0 and its summary line",
        checks.check_verify(spec, code, stdout, None),
        checks.check_verify(spec, code, stdout.replace(str(spec.grid + 1), str(spec.grid)), None),
    )

    spec, code, stdout, out_dir = run_request(cli_main, "sections_tail", slot=2)
    data = json.loads(stdout)
    data["grid"][0]["g"] = bump(data["grid"][0]["g"])
    yield (
        "sections g and h from the formulas",
        checks.check_sections(spec, code, stdout, out_dir),
        checks.check_sections(spec, code, json.dumps(data), out_dir),
    )

    data = json.loads(stdout)
    entry = next(e for e in data["grid"] if e["g"] != e["h"])
    entry["min_witness"] = entry["max_witness"]
    yield (
        "sections witnesses attain g and h",
        checks.check_sections(spec, code, stdout, out_dir),
        checks.check_sections(spec, code, json.dumps(data), out_dir),
    )

    data = json.loads(stdout)
    del data["grid"][0]["g"]
    workload = WORKLOADS["sections_tail"]
    yield (
        "a malformed output is an error, not a crash",
        workload.check_output(spec, code, stdout, out_dir),
        workload.check_output(spec, code, json.dumps(data), out_dir),
    )


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from hahnforge.cli import main as cli_main

    WORK.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name, clean, corrupted in cases(cli_main):
            passed = not clean and bool(corrupted)
            ok &= passed
            verdict = "PASS" if passed else "FAIL"
            print(f"{verdict} {name}: accepts the output, rejects it with {corrupted[:1]}")
            for error in clean[:3]:
                print(f"  unexpected: {error}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
