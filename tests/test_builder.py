"""Blending kernel, blocks, synthesis round trips, and continuity certificates."""

from __future__ import annotations

import random
import re
import time
from collections import Counter
from itertools import accumulate
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SEED,
    dyadic_grid,
    int_str_digits,
    random_family,
    random_plfunc,
    random_ratset,
    random_value,
)
from hahnforge import builder
from hahnforge.builder import (
    BlockProductFunc,
    BumpMap,
    SchwartzBlock,
    SectionRow,
    bump_witness_index,
    continuity_certificate,
    hahn_block,
    phi,
    slice_value,
    stage_envelopes,
    stage_sets_of,
    synthesize,
    verify_synthesis,
)
from hahnforge.pairs import StableFamily, envelopes
from hahnforge.plalg import (
    FULL_SET,
    PLFunc,
    RatSet,
    distance_function,
    dominates,
    first_containing,
    grid_pairs,
    pl_abs,
    pl_max,
    pl_min,
    pl_neg,
    pl_scale,
    pl_sum,
    uniform_grid,
)
from hahnforge.cli import MAX_SAMPLES
from hahnforge.rational import rat, rat_str, ratio_float
from hahnforge.sections import INFINITY
from hahnforge.spaces import Pow2OddSet

ZERO_F = PLFunc.constant(0)
X_MINUS_HALF = PLFunc.affine(1, "-1/2")
SP1 = StableFamily((ZERO_F, X_MINUS_HALF))
GRID65 = dyadic_grid(6)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=64)


def schwartz(s: int | str | Fraction, t: int | str | Fraction) -> Fraction:
    """2st / (s^2 + t^2), extended by 0 at the origin."""
    s, t = rat(s), rat(t)
    if s == 0 and t == 0:
        return Fraction(0)
    return 2 * s * t / (s * s + t * t)


def replaced(block: SchwartzBlock, **changes) -> SchwartzBlock:
    """A copy of ``block`` with some fields changed, checked as any new block is."""
    fields = {"g_blk": block.g_blk, "h_blk": block.h_blk, "alpha": block.alpha, "beta": block.beta}
    return SchwartzBlock(**{**fields, **changes})


class TestKernel:
    def test_schwartz_zero_row(self):
        for t in (Fraction(0), Fraction(1, 3), Fraction(-2)):
            assert schwartz(0, t) == 0
            assert schwartz(t, 0) == 0

    def test_schwartz_equal_arguments(self):
        assert schwartz(1, 1) == 1
        assert schwartz("1/4", "1/4") == 1

    def test_phi_values(self):
        assert phi(1, "1/10") == Fraction(40, 101)
        assert phi(0, "7/2") == 0

    def test_phi_one_on_bump_intervals(self):
        # The kernel saturates on [1/(n+1), 1/n] paired with 1/n.
        for n in range(1, 51):
            lo, hi = Fraction(1, n + 1), Fraction(1, n)
            for a in (lo, (lo + hi) / 2, hi):
                assert schwartz(a, hi) >= Fraction(n, n + 1)
                assert phi(a, hi) == 1
                assert phi(a, -hi) == 1

    @given(s=rationals, t=rationals)
    def test_phi_range_and_symmetry(self, s: Fraction, t: Fraction):
        v = phi(s, t)
        assert 0 <= v <= 1
        assert phi(t, s) == v
        assert phi(s, -t) == v

    # phi is computed in integers; the clamped Schwartz function is its oracle.
    @staticmethod
    def clamped(s, t) -> Fraction:
        return min(Fraction(1), 2 * abs(schwartz(s, t)))

    @given(s=rationals, t=rationals)
    def test_phi_matches_clamped_schwartz(self, s: Fraction, t: Fraction):
        v = phi(s, t)
        assert type(v) is Fraction
        assert v == self.clamped(s, t)

    @given(t=rationals)
    def test_phi_zero_rows(self, t: Fraction):
        assert phi(0, t) == phi(t, 0) == self.clamped(0, t) == 0
        assert phi(-t, t) == self.clamped(-t, t)

    @given(
        n=st.integers(min_value=1, max_value=400),
        u=st.fractions(min_value=0, max_value=1, max_denominator=1000),
    )
    def test_phi_saturates_on_bump_interval(self, n: int, u: Fraction):
        lo, hi = Fraction(1, n + 1), Fraction(1, n)
        a = lo + u * (hi - lo)
        assert phi(a, hi) == phi(a, -hi) == 1
        assert self.clamped(a, -hi) == 1

    def test_slice_value_reduces_any_operands(self):
        # theta, alpha and the side scaled by random factors, with alpha and
        # the side also 0: the unreduced pair has a positive denominator and
        # the value of the definition, whether the operands are reduced or
        # not; a saturated value, phi = 1, is the same pair for every k.
        rng = random.Random(29)
        saturated = 0
        for _ in range(3000):
            theta = random_value(rng, -3, 3, 40)
            alpha = rng.choice([Fraction(0), Fraction(1), random_value(rng, 0, 1, 40)])
            side = rng.choice([Fraction(0), random_value(rng, -3, 3, 40)])
            k = rng.randint(1, 200)
            reduced = [n for v in (theta, alpha, side) for n in (v.numerator, v.denominator)]
            pair = slice_value(*reduced, k)
            expected = theta + side * phi(alpha, Fraction(1, k))
            assert pair[1] > 0 and Fraction(*pair) == expected
            scales = [rng.choice([1, rng.randint(2, 10**6)]) for _ in range(3)]
            scaled = [n * s for n, s in zip(reduced, [s for s in scales for _ in range(2)])]
            again = slice_value(*scaled, k)
            assert again[1] > 0 and Fraction(*again) == expected, (theta, alpha, side, k, scales)
            if alpha and side and phi(alpha, Fraction(1, k)) == 1:
                saturated += 1
                a, b, _, _, c, d = reduced
                assert pair == (a * d + c * b, b * d)
        assert saturated > 20

    def test_witness_index(self):
        assert bump_witness_index(1, 1) == 1
        assert bump_witness_index(1, 4) == 4
        assert bump_witness_index(2, 7) == 3
        with pytest.raises(ValueError, match=re.escape("need 0 < a <= 1, got 0")):
            bump_witness_index(0, 1)


class TestBump:
    def test_enumeration_of_double_odds(self):
        bump = BumpMap(Pow2OddSet(1))
        assert bump.point(1) == 2 and bump.value(2) == 1
        assert bump.point(2) == 6 and bump.value(6) == -1
        assert bump.point(3) == 10 and bump.value(10) == Fraction(1, 2)
        assert bump.point(4) == 14 and bump.value(14) == Fraction(-1, 2)

    def test_off_support_and_decay(self):
        bump = BumpMap(Pow2OddSet(1))
        assert bump.value(5) == 0
        assert max(abs(bump.value(bump.point(j))) for j in range(1, 40)) == 1
        assert abs(bump.value(bump.point(39))) == Fraction(1, 20)


SP1_STAGE2 = hahn_block(
    pl_min((ZERO_F, X_MINUS_HALF)),
    pl_max((ZERO_F, X_MINUS_HALF)),
    RatSet.of([("1/2", "1/2")]),
    Pow2OddSet(1),
)


class TestHahnBlock:
    def test_vanishes_on_stage_set(self):
        for y in range(1, 201):
            assert SP1_STAGE2.value("1/2", y) == 0

    def test_min_at_quarter(self):
        # alpha(1/4) = 1/4 sits in [1/5, 1/4], so the witness pair is (y_7, y_8).
        assert SP1_STAGE2.alpha("1/4") == Fraction(1, 4)
        assert SP1_STAGE2.beta.point(8) == 30
        assert SP1_STAGE2.value("1/4", 30) == Fraction(-1, 4)
        assert SP1_STAGE2.value("1/4", 26) == 0  # y_7: h_blk(1/4) = 0

    def test_off_support(self):
        for x in ("0", "1/4", "9/16"):
            assert SP1_STAGE2.value(x, 5) == 0

    def test_precondition_witnesses(self):
        with pytest.raises(ValueError, match="positive"):
            hahn_block(PLFunc.constant(1), PLFunc.constant(1), RatSet(()), Pow2OddSet(0))
        with pytest.raises(ValueError, match="negative"):
            hahn_block(PLFunc.constant(-1), PLFunc.constant(-1), RatSet(()), Pow2OddSet(0))

    def test_from_json_rejects_block_sign_with_witness(self):
        # The first knot with g_blk > 0 (or h_blk < 0) is the witness.
        for key, pairs, message in (
            ("g", [(0, 0), ("1/4", -1), ("1/2", "1/3"), ("3/4", 1), (1, 0)], "positive at x=1/2"),
            ("h", [(0, 1), ("1/3", "-1/5"), (1, "-1")], "negative at x=1/3"),
        ):
            data = synthesize(SP1).to_json()
            data["blocks"][1][key] = PLFunc.from_pairs(pairs).to_json()
            with pytest.raises(ValueError, match=message):
                BlockProductFunc.from_json(data)

    def test_attainment_on_random_blocks(self, rng: random.Random):
        for _ in range(25):
            raw = random_family(rng, 2)
            g_blk = pl_min((ZERO_F,) + raw)
            h_blk = pl_max((ZERO_F,) + raw)
            a_set = RatSet.of([("1/3", "1/2")]) if rng.random() < 0.5 else RatSet(())
            block = hahn_block(g_blk, h_blk, a_set, Pow2OddSet(rng.randint(0, 4)))
            for x in dyadic_grid(4):
                x = Fraction(*x)
                if x in a_set:
                    assert block.value(x, block.beta.point(1)) == 0
                    continue
                a = block.alpha(x)
                n = bump_witness_index(a.numerator, a.denominator)
                assert block.value(x, block.beta.point(2 * n - 1)) == h_blk(x)
                assert block.value(x, block.beta.point(2 * n)) == g_blk(x)


def brute_slice_extrema(f: BlockProductFunc, x, j_max: int):
    """Enumerating oracle: scan every support point of every block directly."""
    values = [f.value_at_infinity(x)]
    for block in f.blocks:
        for j in range(1, j_max + 1):
            y = block.beta.point(j)
            values.append(f.value(x, y))
    return min(values), max(values)


class TestSynthesize:
    def test_sp1_stage_sets(self):
        f = synthesize(SP1)
        assert f.stage_sets[0] == RatSet.of([("1/2", "1/2")])
        assert f.stage_sets[1] == FULL_SET

    def test_sp1_block1_trivial(self):
        f = synthesize(SP1)
        b1 = f.blocks[0]
        assert b1.g_blk.values == (0, 0) and b1.h_blk.values == (0, 0)
        for y in range(1, 50):
            assert b1.value("3/8", y) == 0

    def test_sp1_sections_at_quarter(self):
        f = synthesize(SP1)
        lo, hi, lo_w, hi_w = f.section_values("1/4")
        assert lo == Fraction(-1, 4) and lo_w == 30
        assert hi == 0 and hi_w == INFINITY

    def test_singleton_family(self, rng: random.Random):
        member = random_family(rng, 1)[0]
        f = synthesize(StableFamily((member,)))
        for x in dyadic_grid(4):
            x = Fraction(*x)
            lo, hi, _, _ = f.section_values(x)
            assert lo == hi == member(x)
            for y in range(1, 30):
                assert f.value(x, y) == member(x)

    def test_sections_equal_envelopes_on_grid(self, rng: random.Random):
        for _ in range(15):
            fam = StableFamily(random_family(rng, 4))
            pair = envelopes(fam)
            f = synthesize(fam)
            for x in dyadic_grid(4):
                x = Fraction(*x)
                lo, hi, _, _ = f.section_values(x)
                assert lo == pair.g(x)
                assert hi == pair.h(x)

    def test_closed_form_matches_enumeration(self, rng: random.Random):
        # Independent route: enumerate all support points far enough to cover
        # every bump witness reachable from the probe grid.
        fam = StableFamily(random_family(rng, 3))
        f = synthesize(fam)
        grid = [Fraction(*x) for x in dyadic_grid(3)]
        j_max = 2 * max(
            bump_witness_index(b.alpha(x).numerator, b.alpha(x).denominator)
            for b in f.blocks
            for x in grid
            if b.alpha(x) > 0
        )
        for x in grid:
            lo, hi, _, _ = f.section_values(x)
            b_lo, b_hi = brute_slice_extrema(f, x, j_max)
            assert (lo, hi) == (b_lo, b_hi)

    def test_supports_partition(self):
        f = synthesize(StableFamily(tuple(PLFunc.constant(i) for i in range(4))))
        for y in range(1, 10_001):
            hits = sum(1 for b in f.blocks if b.beta.support.index_of(y) is not None)
            assert hits <= 1

    def test_stage_envelope_bounds(self, rng: random.Random):
        # Stage envelopes stay between the shifted global envelopes and agree
        # with them on their stage set.
        for _ in range(20):
            fam = StableFamily(random_family(rng, 4))
            theta = fam.members[0]
            shifted = [pl_sum((u, pl_neg(theta))) for u in fam.members]
            pair = envelopes(fam)
            g_sh, h_sh = pl_sum((pair.g, pl_neg(theta))), pl_sum((pair.h, pl_neg(theta)))
            f = synthesize(fam)
            for n in range(1, len(fam) + 1):
                g_blk, h_blk = stage_envelopes(shifted, n)
                assert dominates(g_sh, g_blk).ok
                assert dominates(g_blk, ZERO_F).ok
                assert dominates(ZERO_F, h_blk).ok
                assert dominates(h_blk, h_sh).ok
                stage = f.stage_sets[n - 1]
                probes = [lo for lo, _ in stage.intervals] + [hi for _, hi in stage.intervals]
                probes += [(lo + hi) / 2 for lo, hi in stage.intervals]
                for x in probes:
                    assert g_blk(x) == g_sh(x)
                    assert h_blk(x) == h_sh(x)


class TestVerify:
    def test_sp1_passes(self):
        f = synthesize(SP1)
        report = verify_synthesis(f, SP1, GRID65)
        assert report.passed
        assert len(report.rows) == 65
        by_x = {row[0]: row for row in report.rows}
        assert by_x[(1, 4)] == ((1, 4), (-1, 4), (0, 1), 30, 26)

    def test_tampered_block_detected(self):
        f = synthesize(SP1)
        bad_block = replaced(
            f.blocks[1], g_blk=pl_sum((f.blocks[1].g_blk, PLFunc.constant(-1)))
        )
        tampered = BlockProductFunc((f.blocks[0], bad_block), f.theta)
        report = verify_synthesis(tampered, SP1, GRID65)
        assert not report.passed

    def test_block1_alpha_vanishing_is_reported(self):
        # Block 1 blends against F_0, the empty set, so its alpha must have no
        # zero; SP1's active block at x=1/2 is then block 1, which vanishes.
        f = synthesize(SP1)
        bad = replaced(f.blocks[0], alpha=distance_function(RatSet.of([("1/2", "1/2")])))
        report = verify_synthesis(BlockProductFunc((bad, f.blocks[1]), f.theta), SP1, GRID65)
        assert report.failures == (
            "block 1: alpha vanishes outside F_0 at x=1/2",
            "x=1/2: active block 1 has vanished (alpha=0)",
        )

    def test_singleton_report(self, rng: random.Random):
        member = random_family(rng, 1)[0]
        fam = StableFamily((member,))
        report = verify_synthesis(synthesize(fam), fam, dyadic_grid(4))
        assert report.passed
        for x, g, h, _, _ in report.rows:
            v = member(Fraction(*x))
            assert g == h == (v.numerator, v.denominator)

    def test_report_loop_builds_no_fraction_per_entry(self, monkeypatch):
        # The report keeps each entry as integer pairs, so builder builds as
        # many Fractions for 601 grid points as for 65.
        f = synthesize(SP1)
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(builder, "Fraction", counting)
        counts = []
        for n in (64, 600):
            made.clear()
            report = verify_synthesis(f, SP1, uniform_grid(n))
            assert report.passed and len(report.rows) == n + 1
            counts.append(len(made))
        assert counts[0] == counts[1]

    def test_report_json(self):
        report = verify_synthesis(synthesize(SP1), SP1, [(1, 4)])
        data = report.to_json()
        assert data["passed"] is True
        assert data["entries"][0]["x"] == "1/4"


class TestContinuityCertificate:
    def test_sp1_flat_slice(self):
        f = synthesize(SP1)
        for eps in (Fraction(1), Fraction(1, 8), Fraction(1, 64)):
            assert continuity_certificate(f, "1/2", eps) == ()

    def test_sp1_small_amplitude(self):
        f = synthesize(SP1)
        assert continuity_certificate(f, "1/4", 1) == ()

    def test_sp1_exception_count_derived_and_pinned(self):
        # Independent derivation: exhaustive scan of the slice; then the pin.
        f = synthesize(SP1)
        eps = Fraction(1, 8)
        base = f.value_at_infinity("1/4")
        scanned = tuple(
            y for y in range(1, 10_001) if abs(f.value("1/4", y) - base) >= eps
        )
        cert = continuity_certificate(f, "1/4", eps)
        assert cert == scanned
        assert len(cert) == 31

    def test_soundness_on_random_family(self, rng: random.Random):
        fam = StableFamily(random_family(rng, 3))
        f = synthesize(fam)
        for x in (Fraction(1, 3), Fraction(7, 16)):
            base = f.value_at_infinity(x)
            for eps in (Fraction(1, 2), Fraction(1, 16)):
                cert = set(continuity_certificate(f, x, eps))
                for y in range(1, 2001):
                    if y not in cert:
                        assert abs(f.value(x, y) - base) < eps

    def test_eps_positive_required(self):
        with pytest.raises(ValueError):
            continuity_certificate(synthesize(SP1), "1/4", 0)


def test_json_roundtrip():
    f = synthesize(SP1)
    g = BlockProductFunc.from_json(f.to_json())
    assert g == f
    rows = f.sample_rows([(1, 4)], 4)
    assert rows[-1][1] == INFINITY


def test_mixed_support_disjointness_check():
    # Block n sits on Pow2OddSet(n - 1): a residue class is rejected even
    # where it is that set (2 mod 4 is the set of Pow2OddSet(1)), and a
    # stored "residue" support does not load.
    class TwoModFour:
        def element(self, j: int) -> int:
            return 4 * j - 2

        def index_of(self, m: int) -> int | None:
            return (m + 2) // 4 if m % 4 == 2 else None

    with pytest.raises(ValueError, match=r"block 2: support .* is not Pow2OddSet\(1\)$"):
        BlockProductFunc(
            (
                hahn_block(ZERO_F, ZERO_F, RatSet(()), Pow2OddSet(0)),
                hahn_block(ZERO_F, ZERO_F, RatSet(()), TwoModFour()),
            ),
            ZERO_F,
        )
    data = synthesize(SP1).to_json()
    data["blocks"][1]["support"] = {"kind": "residue", "modulus": 4, "residue": 2}
    with pytest.raises(ValueError, match="unknown support kind 'residue'"):
        BlockProductFunc.from_json(data)


DELETED = object()  # marks a key removed from the stored form
PAIR_SHAPE = 'expected a list of two-element lists of "num/den" strings'
NUM_DEN = 'expected "num/den" or an integer'


def malformed(path: tuple, replacement, message: str | None = None):
    """SP1's stored form with the key at path deleted or replaced, and the
    text of the ValueError it must raise: by default a missing key is named,
    and a value of the wrong kind is named by its type."""
    if replacement is DELETED:
        message, shown = f"missing key {path[-1]!r}", "None"
    else:
        message = message or f"got {type(replacement).__name__}"
        shown = "null" if replacement is None else repr(replacement)
    where = "/".join(map(str, path)) or "top"
    return pytest.param(path, replacement, message, id=f"{where}-{shown}")


@pytest.mark.parametrize(
    "path, replacement, message",
    [
        *(malformed((key,), DELETED) for key in ("theta", "blocks")),
        *(malformed(("blocks", 1, key), DELETED) for key in ("g", "h", "alpha", "support")),
        *(malformed(("blocks", 1, "support", key), DELETED) for key in ("kind", "power")),
        malformed((), []),
        malformed((), "x"),
        malformed(("blocks", 1), "x"),
        malformed(("blocks", 1, "support"), []),
        malformed(("blocks",), 3),
        malformed(("blocks",), {}),
        malformed(("theta",), 5, PAIR_SHAPE),
        malformed(("theta",), [["0"], ["1", "0"]], PAIR_SHAPE),
        malformed(("blocks", 1, "g"), {"0": "0"}, PAIR_SHAPE),
        malformed(("theta",), [[None, "1"]], PAIR_SHAPE),
        malformed(("theta",), [[False, True]], PAIR_SHAPE),
        malformed(("theta",), [[0.0, 1.0]], PAIR_SHAPE),
        malformed(("theta",), [["0", "1/2", "1"]], PAIR_SHAPE),
        malformed(("theta",), [["0", "1/0"], ["1", "0"]], "zero denominator in '1/0'"),
        # Fraction() reads these; a stored value has only the form rat_str writes.
        *(
            malformed(("theta",), [["0", value], ["1", "0"]], f"{NUM_DEN}, got {value!r}")
            for value in ("1e5", "1.5", " 1/2", "+1/2", "1_000")
        ),
        pytest.param(
            ("theta",),
            [["0", "1/" + "0" * 5000], ["1", "0"]],
            "zero denominator in '1/000",
            id="theta-5000-digit-zero-denominator",
        ),
    ],
)
def test_from_json_malformed_input_is_a_value_error(path, replacement, message):
    data = synthesize(SP1).to_json()
    if not path:
        data = replacement
    else:
        *parents, key = path
        holder = data
        for part in parents:
            holder = holder[part]
        if replacement is DELETED:
            del holder[key]
        else:
            holder[key] = replacement
    with pytest.raises(ValueError, match=re.escape(message)):
        BlockProductFunc.from_json(data)


def test_active_stage_domain():
    # SP1 has F_1 = {1/2} and F_2 = [0, 1].
    f = synthesize(SP1)
    assert [f.active_stage(x) for x in (0, "1/2", 1)] == [2, 1, 2]
    for x in ("2", "-1"):
        message = f"argument {x} outside the domain [0, 1]"
        calls = (
            f.active_stage,
            f.section_values,
            lambda x: f.value(x, 1),
            lambda x: f.value(x, 2**60),
            lambda x: continuity_certificate(f, x, "1/16"),
            lambda x: f.blocks[1].value(x, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call(x)


# -- slice evaluation against the sum over all blocks -------------------------
# The oracle is the textbook formula f(x, y) = theta(x) + sum over every block
# of side(x) * phi(alpha(x), beta(y)), with nothing cached and no owner lookup.


def oracle_block_value(block, x, y: int) -> Fraction:
    b = block.beta.value(y)
    if b == 0:
        return Fraction(0)
    scale = phi(block.alpha(x), b)
    if scale == 0:
        return Fraction(0)
    return (block.g_blk if b < 0 else block.h_blk)(x) * scale


def oracle_value(f: BlockProductFunc, x, y: int) -> Fraction:
    return f.theta(x) + sum((oracle_block_value(b, x, y) for b in f.blocks), Fraction(0))


def as_pair(v: Fraction) -> tuple[int, int]:
    return v.numerator, v.denominator


def oracle_rows(f: BlockProductFunc, grid, max_y: int, value=oracle_value):
    """The sample rows of f, each value ``value(f, x, y)``."""
    rows = []
    for x in grid:
        x = Fraction(*x)
        x_str = f"{x.numerator}/{x.denominator}"
        for y in range(1, max_y + 1):
            v = value(f, x, y)
            rows.append((x_str, str(y), f"{v.numerator}/{v.denominator}", format(float(v), ".17g")))
        v = f.theta(x)
        rows.append((x_str, INFINITY, f"{v.numerator}/{v.denominator}", format(float(v), ".17g")))
    return rows


def oracle_pointwise_failures(f: BlockProductFunc, family: StableFamily, grid) -> list[str]:
    """The per-x probe loop verify_synthesis ran before it decided every x:
    about ten sampled y per grid x, each evaluated through the oracle."""
    pair = envelopes(family)
    failures = []
    for x in grid:
        x = Fraction(*x)
        g_x, h_x = pair.g(x), pair.h(x)
        n = next(k for k, s in enumerate(f.stage_sets, start=1) if x in s)
        block = f.blocks[n - 1]
        a = block.alpha(x)
        if a == 0:
            failures.append(f"x={x}: active block {n} has vanished (alpha=0)")
            continue
        m = bump_witness_index(a.numerator, a.denominator)
        y_hi, y_lo = block.beta.point(2 * m - 1), block.beta.point(2 * m)
        v_hi, v_lo = oracle_value(f, x, y_hi), oracle_value(f, x, y_lo)
        if v_hi != h_x:
            failures.append(f"x={x}: f(x, {y_hi})={v_hi} misses the upper envelope {h_x}")
        if v_lo != g_x:
            failures.append(f"x={x}: f(x, {y_lo})={v_lo} misses the lower envelope {g_x}")
        probe_ys = {y_lo, y_hi, 1, 2, 3, 5, 8}
        for other in f.blocks:
            if other.alpha(x) > 0:
                k = bump_witness_index(other.alpha(x).numerator, other.alpha(x).denominator)
                probe_ys.update((other.beta.point(2 * k - 1), other.beta.point(2 * k)))
        for y in sorted(probe_ys):
            v = oracle_value(f, x, y)
            if not g_x <= v <= h_x:
                failures.append(f"x={x}: f(x, {y})={v} escapes [{g_x}, {h_x}]")
        if not g_x <= f.theta(x) <= h_x:
            failures.append(f"x={x}: f(x, inf)={f.theta(x)} escapes [{g_x}, {h_x}]")
    return failures



def oracle_bound_failures(f: BlockProductFunc, family: StableFamily) -> list[str]:
    """The four dominance bounds per block, g_sh <= g_blk <= 0 <= h_blk <= h_sh."""
    pair = envelopes(family)
    g_sh, h_sh = pl_sum((pair.g, pl_neg(f.theta))), pl_sum((pair.h, pl_neg(f.theta)))
    failures = []
    for n, block in enumerate(f.blocks, start=1):
        for name, lo, hi in (
            ("lower", g_sh, block.g_blk),
            ("lower-zero", block.g_blk, ZERO_F),
            ("upper-zero", ZERO_F, block.h_blk),
            ("upper", block.h_blk, h_sh),
        ):
            v = dominates(lo, hi)
            if not v.ok:
                failures.append(f"block {n}: {name} envelope bound fails at x={v.witness}")
    return failures


def oracle_grid_failures(f: BlockProductFunc, family: StableFamily, grid) -> list[str]:
    """The grid oracle twin of verify_synthesis: the four bounds per block and
    the sampled probes at each grid x."""
    return oracle_bound_failures(f, family) + oracle_pointwise_failures(f, family, grid)


EXACT_FAILURE = re.compile(r"block (\d+): (.+) at x=(\S+)")


def assert_exact_witness(f: BlockProductFunc, family: StableFamily, failure: str) -> None:
    """The x named by an exact failure of verify_synthesis really breaks it."""
    n, what, x = EXACT_FAILURE.fullmatch(failure).groups()
    n, x = int(n), Fraction(x)
    assert 0 <= x <= 1
    block = f.blocks[n - 1]
    pair = envelopes(family)
    g_sh, h_sh = pair.g(x) - f.theta(x), pair.h(x) - f.theta(x)
    if what.startswith("alpha vanishes"):
        assert block.alpha(x) == 0
        assert n == 1 or x not in f.stage_sets[n - 2]
    elif what.startswith("stage envelopes"):
        assert x in f.stage_sets[n - 1]
        assert (block.g_blk(x), block.h_blk(x)) != (g_sh, h_sh)
    else:
        lo, hi = {
            "lower": (g_sh, block.g_blk(x)),
            "lower-zero": (block.g_blk(x), 0),
            "upper-zero": (0, block.h_blk(x)),
            "upper": (block.h_blk(x), h_sh),
        }[what.removesuffix(" envelope bound fails")]
        assert lo > hi, failure


def tampered_blocks(f: BlockProductFunc):
    """(label, f with one block altered) for every block and alteration."""
    eighth = PLFunc.constant("1/8")
    for i, block in enumerate(f.blocks):
        variants = [
            ("g_blk - 1/8", replaced(block, g_blk=pl_sum((block.g_blk, pl_neg(eighth))))),
            ("h_blk + 1/8", replaced(block, h_blk=pl_sum((block.h_blk, eighth)))),
            ("g_blk / 2", replaced(block, g_blk=pl_scale("1/2", block.g_blk))),
            ("h_blk / 2", replaced(block, h_blk=pl_scale("1/2", block.h_blk))),
            ("alpha = 1", replaced(block, alpha=PLFunc.constant(1))),
        ]
        if i + 1 < f.size:
            alpha = distance_function(f.stage_sets[i])
            variants.append(("alpha = dist(F_n)", replaced(block, alpha=alpha)))
        for label, bad in variants:
            blocks = f.blocks[:i] + (bad,) + f.blocks[i + 1 :]
            yield f"block {i + 1}: {label}", BlockProductFunc(blocks, f.theta)


GRID33 = dyadic_grid(5)
XS33 = [Fraction(*x) for x in GRID33]
REPEATED33 = grid_pairs(sorted(XS33 + XS33[::4] + [Fraction(0), Fraction(1)]))


def fraction_report(
    f: BlockProductFunc, family: StableFamily, grid
) -> tuple[tuple[SectionRow, ...], tuple[str, ...], dict]:
    """verify_synthesis's report loop in Fraction arithmetic, as it ran
    before the grid walk kept each value as a reduced pair: per grid x, the
    active stage by search, the bump index floor(1/alpha(x)), each witness
    value through the oracle and compared with g(x) and h(x) as Fractions.
    The exact checks before the loop come from verify_synthesis on an empty
    grid, which runs no part of the loop.  Returns the rows
    (x, g(x), h(x), y_lo, y_hi), with x, g(x) and h(x) as reduced pairs, the
    failure lines and the report's JSON, written from the Fractions with
    rat_str."""
    pair = envelopes(family)
    failures = list(verify_synthesis(f, family, []).failures)
    entries = []
    rows = []
    for x in grid:
        x = Fraction(*x)
        n = next(k for k, s in enumerate(f.stage_sets, start=1) if x in s)
        block = f.blocks[n - 1]
        a = block.alpha(x)
        if a == 0:
            failures.append(f"x={x}: active block {n} has vanished (alpha=0)")
            continue
        m = int(1 / a)
        y_hi, y_lo = block.beta.point(2 * m - 1), block.beta.point(2 * m)
        g_x, h_x = pair.g(x), pair.h(x)
        for name, y, env in (("upper", y_hi, h_x), ("lower", y_lo, g_x)):
            v = oracle_value(f, x, y)
            if v != env:
                failures.append(f"x={x}: f(x, {y})={v} misses the {name} envelope {env}")
        entries.append((x, g_x, h_x, y_lo, y_hi))
        rows.append((as_pair(x), as_pair(g_x), as_pair(h_x), y_lo, y_hi))
    data = {
        "passed": not failures,
        "failures": failures,
        "entries": [
            {
                "x": rat_str(x),
                "g": rat_str(g),
                "h": rat_str(h),
                "min_witness": lo,
                "max_witness": hi,
            }
            for x, g, h, lo, hi in entries
        ],
    }
    return tuple(rows), tuple(failures), data


class TestReportLoop:
    def test_matches_fraction_loop(self):
        # Every tampered function of SP1 and of 12 random families, on GRID33,
        # on GRID33 with repeated xs, on the ends of the stage sets, on those
        # ends with the inner knots of every alpha, and on a bare x = 1: the
        # same rows, the same failure lines and the same JSON, in the same
        # order, whatever the runs of one active stage or of one cell.  Some
        # tampered functions fail at a stage-set end and some at a knot of
        # an alpha, where a run of one stage or of one cell starts.
        rng = random.Random(0)
        families = [SP1] + [StableFamily(random_family(rng, 5)) for _ in range(12)]
        checked = missed = vanished = at_ends = at_knots = 0
        for fam in families:
            f = synthesize(fam)
            for label, tampered in [("untampered", f), *tampered_blocks(f)]:
                ends = sorted({q for s in tampered.stage_sets for iv in s.intervals for q in iv})
                knots = {x for b in tampered.blocks for x in b.alpha.breakpoints[1:-1]}
                boundary = grid_pairs(sorted(knots.union(ends)))
                grids = (GRID33, REPEATED33, grid_pairs(ends + [Fraction(1)]), boundary, [(1, 1)])
                for grid in grids:
                    report = verify_synthesis(tampered, fam, grid)
                    rows, failures, data = fraction_report(tampered, fam, grid)
                    assert report.rows == rows, label
                    assert report.failures == failures, label
                    assert report.to_json() == data, label
                    missed += any("misses" in m for m in report.failures)
                    vanished += any("vanished" in m for m in report.failures)
                    failing = {Fraction(m[2 : m.index(":")]) for m in report.failures if m[:2] == "x="}
                    at_ends += bool(failing.intersection(ends))
                    at_knots += bool(failing & knots)
                    checked += 1
        assert checked > 1000 and missed > 0 and vanished > 0 and at_ends > 0 and at_knots > 0

    def test_each_walk_passes_the_grid_once(self, monkeypatch):
        # u1 = 0, u2 a sawtooth s with 64 sign changes and u3 = max(0, -s):
        # F_2 is {s >= 0}, so the active stage switches between 2 and 3 at
        # each of them, 65 runs of one active stage.  One walk passes the
        # whole grid over theta, g, h and the alpha, g_blk and h_blk of
        # blocks 2 and 3, the only blocks active there, and is read to its
        # end, one run after another: no cursor starts again from knot 0 at a
        # stage run.  The rows and failure lines are the pointwise loop's.
        s = X_MINUS_HALF
        for k in range(2, 8):
            s = pl_sum((pl_abs(s), PLFunc.constant(Fraction(-1, 2**k))))
        fam = StableFamily((ZERO_F, s, pl_max((ZERO_F, pl_neg(s)))))
        f = synthesize(fam)
        grid = uniform_grid(600)
        stages = first_containing(f.stage_sets, grid)
        assert len(stages) == 65 and {i for _, i in stages} == {1, 2}
        report, walks = spied_report(monkeypatch, f, fam, grid)
        ((fs, xs, stops),) = walks
        assert (fs, xs) == (walked_lines(f, fam, [1, 2]), grid) and len(fs) == 9
        assert stops == sorted(set(stops)) and stops[-1] == len(grid)
        rows, failures, _ = fraction_report(f, fam, grid)
        assert report.passed
        assert (report.rows, report.failures) == (rows, failures)

    def test_walks_only_the_active_blocks(self, monkeypatch):
        # u1 = 0 and u_k = 1/512 - |S + (9 - k)/1024| for k = 2..16, S the
        # 7-level nested sawtooth: at grid 10000 (and 600) the active stage
        # runs over blocks 9-13 and 16 in 641 (337) runs, and the one walk
        # carries theta, g, h and those six blocks' 18 functions in block
        # order, no other block's; at grid 600 the rows and failure lines
        # are the pointwise loop's.  On the empty grid the walk carries
        # theta, g and h alone.
        s = X_MINUS_HALF
        for k in range(1, 8):
            s = pl_sum((pl_abs(s), PLFunc.constant(Fraction(-1, 2 ** (k + 1)))))
        top = PLFunc.constant(Fraction(1, 512))
        dips = [pl_abs(pl_sum((s, PLFunc.constant(Fraction(9 - k, 1024))))) for k in range(2, 17)]
        fam = StableFamily((ZERO_F, *(pl_sum((top, pl_neg(d))) for d in dips)))
        f = synthesize(fam)
        active = [8, 9, 10, 11, 12, 15]
        for grid, runs in ((uniform_grid(10000), 641), (uniform_grid(600), 337)):
            stages = first_containing(f.stage_sets, grid)
            assert len(stages) == runs and sorted({i for _, i in stages}) == active
            report, walks = spied_report(monkeypatch, f, fam, grid)
            ((fs, xs, stops),) = walks
            assert (fs, xs) == (walked_lines(f, fam, active), grid) and len(fs) == 21
            assert stops == sorted(set(stops)) and stops[-1] == len(grid)
            assert report.passed
        rows, failures, _ = fraction_report(f, fam, grid)
        assert (report.rows, report.failures) == (rows, failures)
        report, walks = spied_report(monkeypatch, f, fam, [])
        assert walks == [(walked_lines(f, fam, []), [], [])] and report.rows == ()


def walked_lines(f: BlockProductFunc, family: StableFamily, active: list[int]) -> list[PLFunc]:
    """theta, g and h, then alpha, g_blk and h_blk of each listed block."""
    pair = envelopes(family)
    blocks = [f.blocks[i] for i in active]
    return [f.theta, pair.g, pair.h] + [u for b in blocks for u in (b.alpha, b.g_blk, b.h_blk)]


def spied_report(monkeypatch, f: BlockProductFunc, family: StableFamily, grid):
    """verify_synthesis(f, family, grid) and its builder.cell_lines calls,
    each as (fs, xs, stops) with the stops of the runs read from it; a call
    is recorded when it is made, read or not."""
    walks = []
    walk = builder.cell_lines

    def counted(fs, xs):
        stops: list[int] = []
        walks.append((list(fs), xs, stops))

        def read():
            for stop, lines in walk(fs, xs):
                stops.append(stop)
                yield stop, lines

        return read()

    monkeypatch.setattr(builder, "cell_lines", counted)
    report = verify_synthesis(f, family, grid)
    monkeypatch.undo()
    return report, walks


class SliceCase(NamedTuple):
    """A synthesized family and its oracle values at XS33 x SLICE_YS."""

    f: BlockProductFunc
    values: dict[tuple[Fraction, int], Fraction]

    def value(self, f: BlockProductFunc, x: Fraction, y: int) -> Fraction:
        return self.values[x, y]


SLICE_YS = range(1, 301)


@pytest.fixture(scope="module")
def slice_cases() -> list[SliceCase]:
    """SP1 and three random families of the rng fixture's seed, each
    synthesized, with its oracle values, built once per module."""
    rng = random.Random(SEED)
    cases = []
    for fam in [SP1] + [StableFamily(random_family(rng, 5)) for _ in range(3)]:
        f = synthesize(fam)
        cases.append(SliceCase(f, {(x, y): oracle_value(f, x, y) for x in XS33 for y in SLICE_YS}))
    return cases


class TestSliceEvaluation:
    def test_value_matches_sum_over_blocks(self, slice_cases: list[SliceCase]):
        for case in slice_cases:
            for x in XS33:
                for y in SLICE_YS:
                    assert case.f.value(x, y) == case.values[x, y], (x, y)

    def test_slice_matches_value(self, rng: random.Random):
        # f.value is the oracle, and theta plus the sum of the blocks' own
        # values; with no block owning y it is the value at infinity.
        f = synthesize(StableFamily(random_family(rng, 5)))
        for x in XS33[::4] + [Fraction(1, 3)]:
            assert f.value_at_infinity(x) == f.theta(x) == f.value(x, 2**f.size)
            for y in range(1, 101):
                v = f.value(x, y)
                assert v == oracle_value(f, x, y), (x, y)
                assert v == f.theta(x) + sum(b.value(x, y) for b in f.blocks), (x, y)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_at_matches_point_values(self, data):
        # One walk of the one-point grid, at points on the grid and on the
        # ends of the stage sets, whatever blocks it lists: theta and each
        # listed block's (alpha, g_blk, h_blk), in the order listed, as the
        # reduced pairs of the point values PLFunc.__call__ gives.
        f = synthesize(StableFamily(random_family(random.Random(data.draw(st.integers(0, 2**32))), 5)))
        ends = sorted({q for s in f.stage_sets for iv in s.intervals for q in iv} | set(XS33))
        for x in data.draw(st.lists(st.sampled_from(ends), max_size=4)):
            listed = data.draw(st.lists(st.integers(0, f.size - 1), unique=True))
            theta, terms = f.at(x, listed)
            assert theta == as_pair(f.theta(x))
            assert len(terms) == len(listed)
            for i, term in zip(listed, terms):
                b = f.blocks[i]
                assert term == tuple(as_pair(u(x)) for u in (b.alpha, b.g_blk, b.h_blk))

    def test_owner_is_the_unique_support(self):
        # The owner is the block whose support holds y, found by search; no
        # block holds y <= 0 or a y with v2(y) >= N, the number of blocks.
        f = synthesize(StableFamily(tuple(PLFunc.constant(i) for i in range(6))))
        for y in range(-8, 2001):
            holders = [
                i for i, b in enumerate(f.blocks) if b.beta.support.index_of(y) is not None
            ]
            assert f.owner(y) == (holders[0] if holders else None)
        assert [f.owner(y) for y in (0, -1, -2, -64, -(2**100))] == [None] * 5
        assert [f.owner(2**p * k) for p in (6, 7, 100) for k in (1, 3)] == [None] * 6

    def test_witness_points_locate_to_their_block(self, rng: random.Random):
        # verify_synthesis reads both witness values off the active block:
        # the (2m-1)-st and (2m)-th points of block i's support locate to
        # block i with bump 1/m and -1/m.
        for _ in range(12):
            f = synthesize(StableFamily(random_family(rng, 6)))
            for i, block in enumerate(f.blocks):
                for m in range(1, 65):
                    assert f.locate(block.beta.point(2 * m - 1)) == (i, m, True)
                    assert f.locate(block.beta.point(2 * m)) == (i, m, False)

    @pytest.mark.parametrize("max_y", [0, 1, 40, MAX_SAMPLES])
    def test_sample_rows_match_oracle(self, max_y: int, slice_cases: list[SliceCase]):
        for case in slice_cases:
            f = case.f
            assert f.sample_rows(GRID33, max_y) == oracle_rows(f, GRID33, max_y, case.value)

    @pytest.mark.parametrize("max_y", [0, 1, 32, MAX_SAMPLES])
    def test_sample_rows_match_oracle_on_wide_families(self, max_y: int, rng: random.Random):
        # The shape of the synth_wide benchmark: 16 members, so 16 blocks,
        # of which the ys up to MAX_SAMPLES reach the first seven.
        for _ in range(2):
            f = synthesize(StableFamily(tuple(random_plfunc(rng) for _ in range(16))))
            assert f.size == 16
            assert f.sample_rows(GRID33, max_y) == oracle_rows(f, GRID33, max_y)

    @pytest.mark.parametrize("max_y", [0, 1, 32, MAX_SAMPLES])
    def test_sample_rows_match_oracle_on_interval_stage_sets(self, max_y: int):
        # Every member vanishes on [1/4, 1/2], so the stage sets are the
        # intervals [1/4, 1/2], [1/4, 1] and [1/8, 1]: near their ends alpha
        # is small on the grid, and many k stay below saturation.
        fam = StableFamily(
            (
                ZERO_F,
                PLFunc.from_pairs([(0, 0), ("1/2", 0), (1, "1/2")]),
                PLFunc.from_pairs([(0, "-1/4"), ("1/4", 0), (1, 0)]),
                PLFunc.from_pairs([(0, "1/4"), ("1/8", 0), (1, 0)]),
            )
        )
        f = synthesize(fam)
        assert [s.intervals for s in f.stage_sets[:3]] == [
            ((Fraction(1, 4), Fraction(1, 2)),),
            ((Fraction(1, 4), Fraction(1)),),
            ((Fraction(1, 8), Fraction(1)),),
        ]
        assert f.sample_rows(GRID33, max_y) == oracle_rows(f, GRID33, max_y)

    def test_sample_rows_past_float_range(self):
        # Values of about 10**400 with both signs, and values near 0 where
        # theta vanishes: the float column is ratio_float of the exact value,
        # which oracle_rows cannot give, as float() overflows.
        big = 10**400
        fam = StableFamily((PLFunc.affine(2 * big, -big), ZERO_F, PLFunc.affine(1, 0)))
        f = synthesize(fam)
        rows = f.sample_rows(GRID33, MAX_SAMPLES)
        assert len(rows) == len(GRID33) * (MAX_SAMPLES + 1)
        floats = set()
        for x, y, value, value_float in rows:
            v = f.theta(Fraction(x)) if y == INFINITY else oracle_value(f, Fraction(x), int(y))
            assert (value, value_float) == (rat_str(v), ratio_float(v.numerator, v.denominator))
            floats.add(value_float)
        assert {"inf", "-inf", "0"} <= floats and len(floats) > 3

    @staticmethod
    def big_fractions(lo: int, hi: int, bits: int = 4000):
        """Fractions in [lo, hi], lo + (hi - lo) * n / (d * 2**bits) for `bits`-bit n and d."""
        return st.builds(
            lambda n, d: lo + (hi - lo) * Fraction(n, d) / 2**bits,
            st.integers(0, 2**bits),
            st.integers(1, 2**bits),
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kernel_matches_oracle_at_4000_bits(self, data):
        # theta, alpha, g_blk and h_blk affine with 4000-bit values, alpha
        # also 0 and 1, a side also 0, and y up to 2**64, also with
        # v2(y) >= the number of blocks: the kernel's pair is the reduced
        # oracle value, and f.value is its Fraction and theta plus the sum
        # of the blocks' own values.
        big = 2**4000
        values = st.one_of(st.integers(-big, big), self.big_fractions(-big, big))
        unit = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), self.big_fractions(0, 1))
        sides = st.one_of(st.just(Fraction(0)), self.big_fractions(0, big))

        def affine(values):
            return PLFunc.from_pairs([(0, data.draw(values)), (1, data.draw(values))])

        size = data.draw(st.integers(1, 4))
        blocks = tuple(
            SchwartzBlock(
                pl_scale(-1, affine(sides)), affine(sides), affine(unit), BumpMap(Pow2OddSet(i))
            )
            for i in range(size)
        )
        f = BlockProductFunc(blocks, affine(values))
        x = data.draw(st.sampled_from([0, Fraction(1, 3), 1]) | self.big_fractions(0, 1, 64))
        ys = st.one_of(
            st.integers(1, 2**64),
            st.builds(lambda v, j: 2**v * (2 * j - 1), st.integers(0, 70), st.integers(1, 2**20)),
            st.builds(lambda v, j: 2**v * (2 * j - 1), st.integers(size, 70), st.integers(1, 2**20)),
        )
        theta = f.theta(x)
        for y in data.draw(st.lists(ys, min_size=1, max_size=6)):
            v = oracle_value(f, x, y)
            assert f.value(x, y) == v
            assert theta + sum(b.value(x, y) for b in f.blocks) == v
            where = f.locate(y)
            if where is None:
                assert v == theta
                continue
            i, k, upper = where
            b = f.blocks[i]
            side = b.h_blk(x) if upper else b.g_blk(x)
            pair = slice_value(*as_pair(theta), *as_pair(b.alpha(x)), *as_pair(side), k)
            assert pair[1] > 0 and Fraction(*pair) == v

    def test_tampered_upper_block_reports_oracle_failures(self):
        # Block 2 of SP1 with h_blk raised by 1/8: the grid oracle finds the
        # upper bound at x=0 and pointwise failures; verify_synthesis reports
        # the same bound, the same missed envelope values, and F_2 at x=0.
        f = synthesize(SP1)
        bad = replaced(f.blocks[1], h_blk=pl_sum((f.blocks[1].h_blk, PLFunc.constant("1/8"))))
        tampered = BlockProductFunc((f.blocks[0], bad), f.theta)
        oracle = oracle_grid_failures(tampered, SP1, GRID33)
        structural = [m for m in oracle if m.startswith("block ")]
        assert structural == ["block 2: upper envelope bound fails at x=0"]
        pointwise = [m for m in oracle if not m.startswith("block ")]
        assert pointwise
        report = verify_synthesis(tampered, SP1, GRID33)
        assert [m for m in report.failures if "envelope bound" in m] == structural
        misses = [m for m in report.failures if m.startswith("x=")]
        assert misses == [m for m in pointwise if "misses" in m]
        assert len(misses) == 32
        assert "block 2: stage envelopes leave the envelopes on F_2 at x=0" in report.failures

    def test_sections_and_certificates_through_slices(self, rng: random.Random):
        fam = StableFamily(random_family(rng, 4))
        f = synthesize(fam)
        x = Fraction(5, 16)
        lo, hi, lo_w, hi_w = f.section_values(x)
        for w, v in ((lo_w, lo), (hi_w, hi)):
            assert (f.theta(x) if w == INFINITY else oracle_value(f, x, w)) == v
        base = f.theta(x)
        eps = Fraction(1, 16)
        cert = continuity_certificate(f, x, eps)
        assert cert == tuple(
            y for y in range(1, 4001) if abs(oracle_value(f, x, y) - base) >= eps
        )



class TestExactDecision:
    """verify_synthesis decides every x of [0, 1]; the grid oracle samples."""

    def test_dip_between_grid_points(self):
        # h_blk of SP1's block 2 lowered by 1/1000 at the centre of
        # [63/100, 631/1000]: strictly between the grid points 40/64 and 41/64
        # and inside F_2 = [0, 1], so every grid value is unchanged, but the
        # section maximum misses h inside the dip.
        f = synthesize(SP1)
        h = f.blocks[1].h_blk
        lo, hi = Fraction(63, 100), Fraction(631, 1000)
        assert Fraction(40, 64) < lo < hi < Fraction(41, 64)
        mid = (lo + hi) / 2
        dipped = PLFunc.from_pairs(
            [(0, 0), ("1/2", 0), (lo, h(lo)), (mid, h(mid) - Fraction(1, 1000)), (hi, h(hi)), (1, h(1))]
        )
        bad = replaced(f.blocks[1], h_blk=dipped)
        tampered = BlockProductFunc((f.blocks[0], bad), f.theta)
        assert oracle_grid_failures(tampered, SP1, GRID65) == []
        report = verify_synthesis(tampered, SP1, GRID65)
        assert report.rows == verify_synthesis(f, SP1, GRID65).rows
        (failure,) = report.failures
        n, what, x = EXACT_FAILURE.fullmatch(failure).groups()
        x = Fraction(x)
        assert n == "2" and what.startswith("stage envelopes") and lo < x < hi
        assert_exact_witness(tampered, SP1, failure)
        assert tampered.section_values(x)[1] < envelopes(SP1).h(x)

    def test_grid_rejections_are_exact_rejections(self, rng: random.Random):
        families = [SP1] + [StableFamily(random_family(rng, 5)) for _ in range(4)]
        rejected = 0
        for fam in families:
            for label, tampered in tampered_blocks(synthesize(fam)):
                report = verify_synthesis(tampered, fam, GRID65)
                exact = [m for m in report.failures if m.startswith("block ")]
                for failure in exact:
                    assert_exact_witness(tampered, fam, failure)
                if oracle_grid_failures(tampered, fam, GRID65):
                    rejected += 1
                    assert exact, label
        assert rejected >= 40


class TestFailureLinesPastStrLimit:
    """Failure lines print every number in full: values, x witnesses and y
    witnesses of 700 digits, past Python's lowest int-to-str limit."""

    @staticmethod
    def tampered():
        # SP1 with its kink moved to 1/D, D of 700 digits, and block 2's
        # h_blk or g_blk halved.
        fam = StableFamily((ZERO_F, PLFunc.affine(1, Fraction(-1, int("3" * 700)))))
        f = synthesize(fam)
        block = f.blocks[1]
        for bad in (
            replaced(block, h_blk=pl_scale("1/2", block.h_blk)),
            replaced(block, g_blk=pl_scale("1/2", block.g_blk)),
        ):
            yield fam, BlockProductFunc((f.blocks[0], bad), f.theta)

    def test_failure_lines_at_lowest_limit(self, monkeypatch):
        grid = dyadic_grid(3)
        longest = 0
        for fam, tampered in self.tampered():
            with int_str_digits(640):
                lines = verify_synthesis(tampered, fam, grid).failures
            # The same lines written with str(), at the default limit.
            monkeypatch.setattr(builder, "rat_text", str)
            monkeypatch.setattr(builder, "int_str", str)
            assert lines == verify_synthesis(tampered, fam, grid).failures
            monkeypatch.undo()
            misses = [m for m in oracle_pointwise_failures(tampered, fam, grid) if "misses" in m]
            assert [m for m in lines if m.startswith("x=")] == misses
            longest = max(longest, *map(len, lines))
        assert longest > 1400


class TestSupportDisjointness:
    @staticmethod
    def build(*supports):
        return BlockProductFunc(
            tuple(hahn_block(ZERO_F, ZERO_F, RatSet(()), s) for s in supports),
            ZERO_F,
        )

    def test_same_power_rejected(self):
        message = "block 1: support Pow2OddSet(power=3) is not Pow2OddSet(0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.build(Pow2OddSet(3), Pow2OddSet(0), Pow2OddSet(3))

    def test_from_json_rejects_non_natural_power(self):
        data = synthesize(SP1).to_json()
        for power in (-1, 1.0, True):
            data["blocks"][1]["support"] = {"kind": "pow2odd", "power": power}
            with pytest.raises(ValueError, match="natural"):
                BlockProductFunc.from_json(data)

    def test_from_json_rejects_overlap(self):
        data = synthesize(SP1).to_json()
        data["blocks"][1]["support"] = dict(data["blocks"][0]["support"])
        message = "block 2: support Pow2OddSet(power=0) is not Pow2OddSet(1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            BlockProductFunc.from_json(data)

    @pytest.mark.parametrize("power", [0, 2, 10**30], ids=["repeated", "out-of-order", "huge"])
    def test_from_json_rejects_power_out_of_position(self, power):
        # Block 2 sits on Pow2OddSet(1) and nowhere else; a huge power is
        # rejected on load, before any evaluation could build 2**power.
        data = synthesize(SP1).to_json()
        data["blocks"][1]["support"]["power"] = power
        message = f"block 2: support Pow2OddSet(power={power}) is not Pow2OddSet(1)"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(message)):
            BlockProductFunc.from_json(data)
        assert time.perf_counter() - start < 1.0


class TestStageSetInvariants:
    """The stage sets are derived from the alphas, so the only invariant a
    stored function carries for them is that it has a block."""

    def test_at_least_one_block(self):
        data = synthesize(SP1).to_json()
        data["blocks"] = []
        with pytest.raises(ValueError, match=re.escape("need at least one block")):
            BlockProductFunc.from_json(data)


# -- single-pass synthesis against the definitional stage code ----------------
# The oracles recompute the stage envelopes from the first n members for every
# n and build F_n as the union over j, k <= n of {u_j = g} ∩ {u_k = h}.


def single_pass_families():
    """SP1 and 50 seeded families of sizes 1 to 8, with repeated and constant
    members, so that the stage sets have interval and point components."""
    rng = random.Random(0x5E1F)
    yield SP1
    for i in range(50):
        members: list[PLFunc] = []
        for _ in range(1 + i % 8):
            roll = rng.random()
            if members and roll < 0.25:
                members.append(rng.choice(members))
            elif roll < 0.45:
                members.append(PLFunc.constant(random_value(rng)))
            else:
                members.append(random_plfunc(rng))
        yield StableFamily(tuple(members))


class TestSinglePass:
    def test_stage_sets_and_envelopes_match_oracles(self):
        points = intervals = 0
        for fam in single_pass_families():
            theta = fam.members[0]
            shifted = [pl_sum((u, pl_neg(theta))) for u in fam.members]
            pair = envelopes(fam)
            g_sh, h_sh = pl_sum((pair.g, pl_neg(theta))), pl_sum((pair.h, pl_neg(theta)))
            f = synthesize(fam)
            assert f.stage_sets == tuple(stage_sets_of(shifted, g_sh, h_sh))
            for n, block in enumerate(f.blocks, start=1):
                g_blk, h_blk = stage_envelopes(shifted, n)
                assert block.g_blk == g_blk, n
                assert block.h_blk == h_blk, n
            for s in f.stage_sets[:-1]:
                points += sum(lo == hi for lo, hi in s.intervals)
                intervals += sum(lo < hi for lo, hi in s.intervals)
        assert points > 0 and intervals > 0

    def test_call_counts(self, monkeypatch):
        # N members: N - 1 folds per envelope side and two equality sets per
        # stage but the last, whose set F_N = [0, 1] no block reads, with no
        # call to the quadratic stage code or to envelopes.
        calls = Counter()

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)

            return wrapper

        for name in (
            "pl_min", "pl_max", "equality_set", "stage_envelopes", "stage_sets_of", "envelopes"
        ):
            monkeypatch.setattr(builder, name, counted(name, getattr(builder, name)))
        for fam in single_pass_families():
            calls.clear()
            synthesize(fam)
            size = len(fam.members)
            assert calls["pl_min"] + calls["pl_max"] <= 2 * (size - 1)
            assert calls["equality_set"] <= 2 * (size - 1)
            assert not calls["stage_envelopes"] + calls["stage_sets_of"] + calls["envelopes"]

    def test_theta_is_negated_once(self, monkeypatch):
        # synthesize and verify_synthesis each build -theta once and add it
        # to every member (each envelope), with the forms that
        # pl_sum((u, pl_neg(theta))) gives, so the blocks and the report are
        # those of the shift.
        negations = Counter()
        negate = builder.pl_neg

        def counted(f):
            negations[f] += 1
            return negate(f)

        monkeypatch.setattr(builder, "pl_neg", counted)
        for fam in single_pass_families():
            negations.clear()
            theta = fam.members[0]
            f = synthesize(fam)
            assert negations == Counter({theta: 1})
            shifted = [pl_sum((u, pl_neg(theta))) for u in fam.members]
            lowers = list(accumulate(shifted, lambda g, u: pl_min((g, u))))
            uppers = list(accumulate(shifted, lambda h, u: pl_max((h, u))))
            for block, g_n, h_n in zip(f.blocks, lowers, uppers):
                assert block.g_blk.line_form == g_n.line_form
                assert block.h_blk.line_form == h_n.line_form
            negations.clear()
            assert verify_synthesis(f, fam, uniform_grid(16)).passed
            assert negations == Counter({theta: 1})


def fraction_block_checks(g_blk: PLFunc, h_blk: PLFunc, alpha: PLFunc) -> str | None:
    """The message of SchwartzBlock's checks, made on the Fraction
    breakpoints and values: the oracle its integer checks are held to."""
    if min(alpha.values) < 0 or max(alpha.values) > 1:
        return "alpha must take values in [0, 1]"
    for x, v in zip(g_blk.breakpoints, g_blk.values):
        if v > 0:
            return f"lower stage envelope is positive at x={x}"
    for x, v in zip(h_blk.breakpoints, h_blk.values):
        if v < 0:
            return f"upper stage envelope is negative at x={x}"
    return None


def test_block_checks_match_the_fraction_form(rng: random.Random):
    # Kernel results and functions built from Fractions, with values in and
    # out of range: the same blocks are accepted, and the same message, with
    # the same first knot as witness, rejects the others.
    outcomes = Counter()
    for _ in range(400):
        raw = random_family(rng, 3)
        g_blk = pl_min((ZERO_F,) + raw) if rng.random() < 0.7 else rng.choice(raw)
        h_blk = pl_max((ZERO_F,) + raw) if rng.random() < 0.7 else rng.choice(raw)
        alpha = distance_function(random_ratset(rng)) if rng.random() < 0.7 else random_plfunc(rng)
        want = fraction_block_checks(g_blk, h_blk, alpha)
        try:
            SchwartzBlock(g_blk, h_blk, alpha, BumpMap(Pow2OddSet(0)))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (g_blk, h_blk, alpha)
        outcomes[want.split(" ")[0] if want else None] += 1
    assert set(outcomes) == {None, "alpha", "lower", "upper"}, outcomes
