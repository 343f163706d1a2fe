"""Reference figures: ``hahnforge synth`` at n = 8, 16, 32 and 48 members.

Usage, from the repository root:

    python3 bench/scaling.py

For each n, three seeded families of the synth_wide kind (min/max of 2-4
affine pieces per member) run through ``hahnforge.cli.main``, timed as the
benchmark times a request; the script prints the median wall time and the
median time in reference seconds.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import statistics
import sys

import run
from workloads import SYNTH_GRID, FamilySpec, lattice

WORK = run.ROOT / ".bench_work" / "scaling"
SIZES = (8, 16, 32, 48)
SEED = 1
REPEATS = 3


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from hahnforge.cli import main as cli_main

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        print("n  wall_s  reference_s")
        for n in SIZES:
            wall, ref = [], []
            for r in range(REPEATS):
                rng = random.Random(f"scaling:{SEED}:{n}:{r}")
                spec = FamilySpec(tuple(lattice(rng, 2 + i % 3) for i in range(n)), SYNTH_GRID)
                path = WORK / "spec.hf"
                path.write_text(spec.text(), encoding="utf-8")
                argv = ["synth", str(path), "--out", str(WORK / "out")]
                code, _, elapsed, loops = run.timed_call(lambda: cli_main(argv))
                if code != 0:
                    print(f"synth failed on n = {n} (exit {code})", file=sys.stderr)
                    return 1
                wall.append(elapsed)
                ref.append(run.to_reference(elapsed, statistics.fmean(loops)))
            print(f"{n:<2} {statistics.median(wall):7.3f} {statistics.median(ref):8.3f}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
