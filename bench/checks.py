"""Output checks made apart from the program.

Each check reads what one request wrote (files and stdout) and compares it
with values computed here from the generator's formula trees, with an
evaluator of ``function.json`` written from the construction's formulas
(kernel ``min(1, 4|st|/(s^2+t^2))``, bumps ``+-1/k`` on the odd multiples of
``2^p``, ``f = theta + sum of blocks``).  Nothing here imports hahnforge.

A check returns a list of error strings; an empty list means the output
passed.  ``check_synth``, ``check_verify`` and ``check_sections`` check one
whole request, from its spec, exit code, stdout and output directory.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from workloads import FamilySpec, TailSpec, Tree

SYNTH_SAMPLES = 32  # synth's default --samples
TAIL_WINDOW = 8


def evaluate(tree: Tree, x: Fraction) -> Fraction:
    """Exact value of a formula tree at x."""
    if tree[0] == "aff":
        return tree[1] * x + tree[2]
    values = [evaluate(child, x) for child in tree[1]]
    return min(values) if tree[0] == "min" else max(values)


def grid_points(denominator: int) -> list[Fraction]:
    return [Fraction(k, denominator) for k in range(denominator + 1)]


def envelope_values(spec: FamilySpec, x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(g(x), h(x), first member at x) from the formulas."""
    values = [evaluate(m, x) for m in spec.members]
    return min(values), max(values), values[0]


def check_samples(spec: FamilySpec, samples_csv: str, samples: int) -> list[str]:
    """Every sampled value lies in [g(x), h(x)]; the ``inf`` value is the first member."""
    rows = list(csv.reader(io.StringIO(samples_csv)))
    if not rows or rows[0] != ["x", "y", "value", "value_float"]:
        return ["samples.csv: missing or wrong header"]
    expected_ys = [str(y) for y in range(1, samples + 1)] + ["inf"]
    grid = grid_points(spec.grid)
    body = rows[1:]
    if len(body) != len(grid) * len(expected_ys):
        return [f"samples.csv: {len(body)} rows, expected {len(grid) * len(expected_ys)}"]
    errors = []
    for i, x in enumerate(grid):
        g, h, first = envelope_values(spec, x)
        for j, y in enumerate(expected_ys):
            row_x, row_y, value, _ = body[i * len(expected_ys) + j]
            if Fraction(row_x) != x or row_y != y:
                errors.append(f"samples.csv: row for ({x}, {y}) reads ({row_x}, {row_y})")
                continue
            v = Fraction(value)
            if y == "inf" and v != first:
                errors.append(f"samples.csv: f({x}, inf) = {v}, first member is {first}")
            elif not g <= v <= h:
                errors.append(f"samples.csv: f({x}, {y}) = {v} escapes [{g}, {h}]")
    return errors


class PL:
    """A piecewise-linear function given by its knots, evaluated by interpolation."""

    def __init__(self, pairs):
        self.xs = [Fraction(x) for x, _ in pairs]
        self.vs = [Fraction(v) for _, v in pairs]

    def __call__(self, x: Fraction) -> Fraction:
        i = bisect_right(self.xs, x) - 1
        if i == len(self.xs) - 1:
            return self.vs[-1]
        a, b, va, vb = self.xs[i], self.xs[i + 1], self.vs[i], self.vs[i + 1]
        return va + (vb - va) * (x - a) / (b - a)


def kernel(s: Fraction, t: Fraction) -> Fraction:
    """min(1, 4|st| / (s^2 + t^2)), and 0 at the origin."""
    if s == 0 and t == 0:
        return Fraction(0)
    return min(Fraction(1), 4 * abs(s * t) / (s * s + t * t))


def bump(y: int) -> tuple[int, Fraction]:
    """(p, bump value) for the natural y = 2^p * (2j - 1): +1/k for j = 2k-1, -1/k for j = 2k."""
    p = (y & -y).bit_length() - 1
    j = (y >> p) // 2 + 1
    return p, Fraction(1, (j + 1) // 2) if j % 2 else Fraction(-1, j // 2)


class Section:
    """y -> f(x, y) of ``function.json`` at one x, from the construction's formulas."""

    def __init__(self, theta: PL, blocks: dict, x: Fraction):
        self.theta = theta(x)
        # power p -> (g(x), h(x), alpha(x)) of the block supported on pow2odd(p)
        self.blocks = {p: tuple(f(x) for f in fs) for p, fs in blocks.items()}

    def value(self, y: int | str) -> Fraction:
        """theta(x) + the one block whose support holds y; theta(x) at infinity."""
        if y == "inf":
            return self.theta
        p, b = bump(y)
        if p not in self.blocks:
            return self.theta
        g, h, alpha = self.blocks[p]
        return self.theta + (h if b > 0 else g) * kernel(alpha, b)

    def bump_points(self) -> list[int]:
        """Per block with alpha(x) > 0: its bump points of index n = floor(1/alpha(x))."""
        points = []
        for p, (_, _, a) in self.blocks.items():
            if a > 0:
                n = int(1 / a)
                points += [2**p * (2 * (2 * n - 1) - 1), 2**p * (2 * (2 * n) - 1)]
        return points


def check_function(spec: FamilySpec, function_json: str) -> list[str]:
    """function.json attains g(x) and h(x) exactly at every grid x."""
    errors = []
    try:
        data = json.loads(function_json)
        theta, blocks = PL(data["theta"]), {}
        for block in data["blocks"]:
            support = block["support"]
            if support.get("kind") != "pow2odd" or support["power"] in blocks:
                raise ValueError(f"unexpected block support {support}")
            blocks[support["power"]] = tuple(PL(block[k]) for k in ("g", "h", "alpha"))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"function.json: unreadable ({exc})"]
    sections = [(x, Section(theta, blocks, x)) for x in grid_points(spec.grid)]
    for x, f in sections:
        g, h, _ = envelope_values(spec, x)
        values = [f.value("inf")] + [f.value(y) for y in f.bump_points()]
        if min(values) != g or max(values) != h:
            errors.append(f"function.json: at x={x} attains [{min(values)}, {max(values)}], not [{g}, {h}]")
    return errors


def check_synth(spec: FamilySpec, exit_code: int, stdout: str, out_dir: Path) -> list[str]:
    if exit_code != 0:
        return [f"synth: exit {exit_code}"]
    try:
        samples = (out_dir / "samples.csv").read_text(encoding="utf-8")
        function = (out_dir / "function.json").read_text(encoding="utf-8")
    except OSError as exc:
        return [f"synth: missing output ({exc})"]
    return check_samples(spec, samples, SYNTH_SAMPLES) + check_function(spec, function)


def check_verify(spec: FamilySpec, exit_code: int, stdout: str, out_dir: Path) -> list[str]:
    expected = f"verified {spec.grid + 1} grid points: all sections match\n"
    if exit_code != 0 or stdout != expected:
        return [f"verify: exit {exit_code}, printed {stdout!r}"]
    return []


def slice_value(spec: TailSpec, index: int | str, x: Fraction) -> Fraction:
    """u_index(x) from the formulas; ``inf`` is the limit slice."""
    limit = evaluate(spec.limit, x)
    if index == "inf":
        return limit
    if 1 <= index <= len(spec.head):
        return evaluate(spec.head[index - 1], x)
    return limit + spec.coeff(index) * evaluate(spec.shape, x)


def check_sections(spec: TailSpec, exit_code: int, stdout: str, out_dir: Path) -> list[str]:
    """g, h equal the min and max over head, limit and a tail window; witnesses attain them."""
    if exit_code != 0:
        return [f"sections: exit {exit_code}"]
    try:
        entries = json.loads(stdout)["grid"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"sections: unreadable output ({exc})"]
    grid = grid_points(spec.grid)
    if [Fraction(e["x"]) for e in entries] != grid:
        return ["sections: output grid differs from the spec's grid"]
    indices = list(range(1, len(spec.head) + TAIL_WINDOW + 1)) + ["inf"]
    errors = []
    for x, entry in zip(grid, entries):
        values = [slice_value(spec, i, x) for i in indices]
        g, h = min(values), max(values)
        if Fraction(entry["g"]) != g or Fraction(entry["h"]) != h:
            errors.append(f"sections: at x={x} reports [{entry['g']}, {entry['h']}], expected [{g}, {h}]")
        for key, target in (("min_witness", g), ("max_witness", h)):
            w = entry[key]
            if not (w == "inf" or (isinstance(w, int) and w >= 1)) or slice_value(spec, w, x) != target:
                errors.append(f"sections: at x={x} {key} {w!r} does not attain {target}")
    return errors
