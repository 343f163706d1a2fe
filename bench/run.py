"""End-to-end benchmark of hahnforge's ``synth``, ``verify`` and ``sections``.

Usage, from the repository root:

    python3 bench/run.py --workload synth_wide --seed 1 --seconds 20 --trace 0

One process, one thread, one closed-loop client: each request calls
``hahnforge.cli.main`` with the argv a user would type, on a spec file
written beforehand, and the next request starts when it returns.  Whole
rounds of requests run until ``--seconds`` have passed, and at least until
the first ``FIXED_REQUESTS`` requests are made.  Every output is checked by
the workload's check in ``checks.py``.  Times are in reference seconds (see
``refloop.py``): wall time scaled by how fast the machine ran the reference
loop right beside the request.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of
``spans.py``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the raw
wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refloop
import spans
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 21
# output_kb and peak_rss_mb are taken over the first FIXED_REQUESTS requests,
# which every run makes, so they repeat for a seed whatever the run length.
FIXED_REQUESTS = 24
READY = "hahnforge ready"
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hahnforge.cli as cli; "
    f"cli.build_parser(); print({READY!r}, flush=True)"
)


def to_reference(wall: float, loop: float) -> float:
    return wall * refloop.NOMINAL_S / loop


def timed_call(call) -> tuple[int | None, str, float, tuple[float, float]]:
    """Runs ``call()`` with stdout captured, between two passes of the reference loop.

    Returns its exit code (None if it raised), its stdout, its wall time and
    the loop times before and after it.
    """
    buf = io.StringIO()
    gc.collect()
    before = refloop.loop_seconds()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = call()
        except Exception:
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - start
    after = refloop.loop_seconds()
    return code, buf.getvalue(), wall, (before, after)


def fresh_import_seconds() -> float:
    """Wall time from spawning an interpreter until hahnforge.cli is imported and ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != READY:
        raise RuntimeError(f"set-up process failed (exit {child.returncode})")
    return elapsed


def measure_setup(loops: list[float]) -> float:
    """Wall set-up time of one fresh process, with a reference loop on each side."""
    loops.append(refloop.loop_seconds())
    wall = fresh_import_seconds()
    loops.append(refloop.loop_seconds())
    return wall


def output_bytes(stdout: str, out_dir: Path) -> int:
    files = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
    return len(stdout.encode("utf-8")) + files


class Run:
    """One benchmark run: the closed request loop and what it recorded."""

    def __init__(self, workload: Workload, seed: int, work: Path, tracer: spans.Tracer | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.records: list[dict] = []
        self.setups: list[float] = []
        self.loops: list[float] = []  # every reference-loop time of the run
        self.errors: list[str] = []
        self.failed = 0
        self.rss_kb = 0  # peak RSS once the first FIXED_REQUESTS requests are done

    def request(self, cli_main, index: int, spec, traced: bool) -> None:
        spec_path = self.work / f"r{index}.hf"
        out_dir = self.work / f"r{index}"
        argv = self.workload.argv(spec, str(spec_path), str(out_dir))
        if traced:
            self.tracer.reset()
            code, stdout, wall, loops = timed_call(lambda: self.tracer.request(cli_main, argv))
        else:
            code, stdout, wall, loops = timed_call(lambda: cli_main(argv))
        self.loops += loops
        loop = statistics.fmean(loops)
        # Exit 1 is the program's "verification failure", a wrong answer that
        # the checks report; an exception or a parse or I/O error is a failure.
        if code not in (0, 1):
            self.failed += 1
            print(f"request {index} ({' '.join(argv)}) failed: exit {code}", file=sys.stderr)
        else:
            errors = self.workload.check_output(spec, code, stdout, out_dir)
            self.errors += [f"request {index}: {e}" for e in errors]
        record = {
            "wall": wall,
            "loop": loop,
            "ref": to_reference(wall, loop),
            "bytes": output_bytes(stdout, out_dir),
            "traced": traced,
        }
        if traced:
            scale = refloop.NOMINAL_S / loop
            record["layers"] = {k: v * scale for k, v in self.tracer.times.items()}
            record["counts"] = dict(self.tracer.counts)
            record["bits_max"] = self.tracer.bits_max
        self.records.append(record)
        if len(self.records) == FIXED_REQUESTS:
            self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        shutil.rmtree(out_dir, ignore_errors=True)
        spec_path.unlink()

    def execute(self, cli_main, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed and FIXED_REQUESTS are made.

        Traced runs alternate untraced and traced rounds.  The set-up processes
        are spread evenly over the run, so that their median samples the same
        machine states as the requests.
        """
        slots = self.workload.slots
        min_rounds = max(2 if self.tracer else 1, -(-FIXED_REQUESTS // slots))
        fresh_import_seconds()  # untimed: lets the interpreter write its bytecode cache
        start = time.perf_counter()
        rounds, last_round = 0, 0.0
        # A round starts only if it should end within ``seconds``, judged by the last one.
        while rounds < min_rounds or time.perf_counter() - start + last_round <= seconds:
            round_start = time.perf_counter()
            traced = self.tracer is not None and rounds % 2 == 1
            batch = [(rounds * slots + i) for i in range(slots)]
            specs = [self.workload.spec(self.seed, index) for index in batch]
            for index, spec in zip(batch, specs):
                (self.work / f"r{index}.hf").write_text(spec.text(), encoding="utf-8")
            for index, spec in zip(batch, specs):
                self.request(cli_main, index, spec, traced)
            rounds += 1
            last_round = time.perf_counter() - round_start
            due = SETUP_PROCESSES * min(1.0, (time.perf_counter() - start) / seconds)
            while len(self.setups) < due:
                self.setups.append(measure_setup(self.loops))
        while len(self.setups) < SETUP_PROCESSES:
            self.setups.append(measure_setup(self.loops))


def end_to_end(run: Run) -> dict:
    ref = [r["ref"] for r in run.records]
    fixed = run.records[:FIXED_REQUESTS]
    return {
        "latency_p50_s": (statistics.median(ref), "s"),
        "requests_per_s": (len(ref) / sum(ref), "1/s"),
        # The set-up process runs on whichever core is free, so a loop timed
        # beside it tracks its speed no better than the run's median loop.
        "setup_s": (to_reference(statistics.median(run.setups), statistics.median(run.loops)), "s"),
        "peak_rss_mb": (run.rss_kb / 1024, "MB"),
        "output_kb": (statistics.fmean(r["bytes"] for r in fixed) / 1000, "kB"),
    }


def per_layer(run: Run) -> dict:
    traced = [r for r in run.records if r["traced"]]
    plain = [r for r in run.records if not r["traced"]]
    # Counts come from the first traced round only, so they repeat exactly
    # for a given seed whatever the run length and machine speed.
    first = traced[: run.workload.slots]
    metrics = {
        name: (sum(r["layers"].get(name, 0.0) for r in traced) / len(traced), "s")
        for name in spans.TIME_METRICS
    }
    for name in spans.COUNT_METRICS:
        metrics[name] = (sum(r["counts"].get(name, 0) for r in first) / len(first), "count")
    metrics["plalg.bits_max"] = (max(r["bits_max"] for r in first), "bits")
    overhead = statistics.fmean(r["ref"] for r in traced) - statistics.fmean(r["ref"] for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def raw_summary(run: Run) -> dict:
    wall = [r["wall"] for r in run.records]
    return {
        "requests": len(wall),
        "latency_p50_wall_s": statistics.median(wall),
        "requests_per_wall_s": len(wall) / sum(wall),
        "setup_wall_s": statistics.median(run.setups),
        "ref_loop_p50_s": statistics.median(run.loops),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hahnforge" / "cli.py").is_file():
        print(f"hahnforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    package = {name: importlib.import_module(f"hahnforge.{name}") for name in spans.MODULES}
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(package)
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, work, tracer)
    try:
        run.execute(package["cli"].main, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for error in run.errors[:20]:
        print(error, file=sys.stderr)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(json.dumps({"raw": raw_summary(run)}))
    result = {
        "correct": not run.errors,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
