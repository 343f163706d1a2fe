"""Blending kernel, blocks, synthesis round trips, and continuity certificates."""

from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_family, random_plfunc, random_value
from hahnforge import builder
from hahnforge.builder import (
    BlockProductFunc,
    BumpMap,
    bump_witness_index,
    continuity_certificate,
    hahn_block,
    phi,
    schwartz,
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
    dyadic_grid,
    pl_equal,
    pl_max,
    pl_min,
    pl_scale,
)
from hahnforge.sections import INFINITY
from hahnforge.spaces import Pow2OddSet

ZERO_F = PLFunc.constant(0)
X_MINUS_HALF = PLFunc.affine(1, "-1/2")
SP1 = StableFamily((ZERO_F, X_MINUS_HALF))
GRID65 = dyadic_grid(6)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=64)


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

    def test_witness_index(self):
        assert bump_witness_index(Fraction(1)) == 1
        assert bump_witness_index(Fraction(1, 4)) == 4
        assert bump_witness_index(Fraction(2, 7)) == 3
        with pytest.raises(ValueError):
            bump_witness_index(Fraction(0))


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
    RatSet.point("1/2"),
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
                if x in a_set:
                    assert block.value(x, block.beta.point(1)) == 0
                    continue
                n = bump_witness_index(block.alpha(x))
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
        assert f.stage_sets[0] == RatSet.point("1/2")
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
                lo, hi, _, _ = f.section_values(x)
                assert lo == pair.g(x)
                assert hi == pair.h(x)

    def test_closed_form_matches_enumeration(self, rng: random.Random):
        # Independent route: enumerate all support points far enough to cover
        # every bump witness reachable from the probe grid.
        fam = StableFamily(random_family(rng, 3))
        f = synthesize(fam)
        grid = dyadic_grid(3)
        j_max = 2 * max(
            bump_witness_index(b.alpha(x))
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
            shifted = [u - theta for u in fam.members]
            pair = envelopes(fam)
            g_sh, h_sh = pair.g - theta, pair.h - theta
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
        assert len(report.entries) == 65
        by_x = {e.x: e for e in report.entries}
        assert by_x[Fraction(1, 4)].min_witness == 30

    def test_tampered_block_detected(self):
        f = synthesize(SP1)
        bad_block = dataclasses.replace(
            f.blocks[1], g_blk=f.blocks[1].g_blk - PLFunc.constant(1)
        )
        tampered = BlockProductFunc((f.blocks[0], bad_block), f.stage_sets, f.theta)
        report = verify_synthesis(tampered, SP1, GRID65)
        assert not report.passed

    def test_singleton_report(self, rng: random.Random):
        member = random_family(rng, 1)[0]
        fam = StableFamily((member,))
        report = verify_synthesis(synthesize(fam), fam, dyadic_grid(4))
        assert report.passed
        for e in report.entries:
            assert e.g == e.h == member(e.x)

    def test_report_json(self):
        report = verify_synthesis(synthesize(SP1), SP1, [Fraction(1, 4)])
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
    rows = f.sample_rows([Fraction(1, 4)], 4)
    assert rows[-1][1] == INFINITY


def test_mixed_support_disjointness_check():
    # Block supports live on the dyadic partition: a residue class is rejected
    # even where it is disjoint from the other supports (2 mod 4 is the set
    # of Pow2OddSet(1)), and a stored "residue" support does not load.
    class TwoModFour:
        def element(self, j: int) -> int:
            return 4 * j - 2

        def index_of(self, m: int) -> int | None:
            return (m + 2) // 4 if m % 4 == 2 else None

    with pytest.raises(ValueError, match="block 2: support .* is not a Pow2OddSet"):
        BlockProductFunc(
            (
                hahn_block(ZERO_F, ZERO_F, RatSet(()), Pow2OddSet(0)),
                hahn_block(ZERO_F, ZERO_F, RatSet(()), TwoModFour()),
            ),
            (FULL_SET, FULL_SET),
            ZERO_F,
        )
    data = synthesize(SP1).to_json()
    data["blocks"][1]["support"] = {"kind": "residue", "modulus": 4, "residue": 2}
    with pytest.raises(ValueError, match="unknown support kind 'residue'"):
        BlockProductFunc.from_json(data)


@pytest.mark.parametrize(
    "path, replacement",
    [
        *(((key,), None) for key in ("theta", "blocks", "stage_sets")),
        *((("blocks", 1, key), None) for key in ("g", "h", "alpha", "support")),
        *((("blocks", 1, "support", key), None) for key in ("kind", "power")),
        ((), []),
        ((), "x"),
        (("blocks", 1), "x"),
        (("blocks", 1, "support"), []),
    ],
    ids=lambda v: "/".join(map(str, v)) or "top" if isinstance(v, tuple) else repr(v),
)
def test_from_json_malformed_input_is_a_value_error(path, replacement):
    # SP1's stored form with the key at path deleted (replacement None) or
    # replaced: a missing key is named, a list or string where an object
    # belongs is named by its type.
    data = synthesize(SP1).to_json()
    message = f"got {type(replacement).__name__}"
    if not path:
        data = replacement
    else:
        *parents, key = path
        holder = data
        for part in parents:
            holder = holder[part]
        if replacement is None:
            del holder[key]
            message = f"missing key {key!r}"
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
        for call in (f.active_stage, f.slice):
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


def oracle_rows(f: BlockProductFunc, grid, max_y: int):
    rows = []
    for x in grid:
        x_str = f"{x.numerator}/{x.denominator}"
        for y in range(1, max_y + 1):
            v = oracle_value(f, x, y)
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
        g_x, h_x = pair.g(x), pair.h(x)
        n = next(k for k, s in enumerate(f.stage_sets, start=1) if x in s)
        block = f.blocks[n - 1]
        a = block.alpha(x)
        if a == 0:
            failures.append(f"x={x}: active block {n} has vanished (alpha=0)")
            continue
        m = bump_witness_index(a)
        y_hi, y_lo = block.beta.point(2 * m - 1), block.beta.point(2 * m)
        v_hi, v_lo = oracle_value(f, x, y_hi), oracle_value(f, x, y_lo)
        if v_hi != h_x:
            failures.append(f"x={x}: f(x, {y_hi})={v_hi} misses the upper envelope {h_x}")
        if v_lo != g_x:
            failures.append(f"x={x}: f(x, {y_lo})={v_lo} misses the lower envelope {g_x}")
        probe_ys = {y_lo, y_hi, 1, 2, 3, 5, 8}
        for other in f.blocks:
            if other.alpha(x) > 0:
                k = bump_witness_index(other.alpha(x))
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
    g_sh, h_sh = pair.g - f.theta, pair.h - f.theta
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
            ("g_blk - 1/8", dataclasses.replace(block, g_blk=block.g_blk - eighth)),
            ("h_blk + 1/8", dataclasses.replace(block, h_blk=block.h_blk + eighth)),
            ("g_blk / 2", dataclasses.replace(block, g_blk=pl_scale("1/2", block.g_blk))),
            ("h_blk / 2", dataclasses.replace(block, h_blk=pl_scale("1/2", block.h_blk))),
            ("alpha = 1", dataclasses.replace(block, alpha=PLFunc.constant(1))),
        ]
        if i + 1 < f.size:
            alpha = distance_function(f.stage_sets[i])
            variants.append(("alpha = dist(F_n)", dataclasses.replace(block, alpha=alpha)))
        for label, bad in variants:
            blocks = f.blocks[:i] + (bad,) + f.blocks[i + 1 :]
            yield f"block {i + 1}: {label}", BlockProductFunc(blocks, f.stage_sets, f.theta)


GRID33 = dyadic_grid(5)


class TestSliceEvaluation:
    def families(self, rng: random.Random):
        yield SP1
        for _ in range(3):
            yield StableFamily(random_family(rng, 5))

    def test_value_matches_sum_over_blocks(self, rng: random.Random):
        for fam in self.families(rng):
            f = synthesize(fam)
            for x in GRID33:
                for y in range(1, 301):
                    assert f.value(x, y) == oracle_value(f, x, y), (x, y)

    def test_slice_matches_value(self, rng: random.Random):
        f = synthesize(StableFamily(random_family(rng, 5)))
        for x in GRID33[::4]:
            s = f.slice(x)
            assert s.theta == f.value_at_infinity(x) == f.theta(x)
            assert [s.value(y) for y in range(1, 101)] == [f.value(x, y) for y in range(1, 101)]

    @staticmethod
    def assert_owner_is_the_holder(f: BlockProductFunc) -> None:
        for y in range(-8, 2001):
            holders = [
                i for i, b in enumerate(f.blocks) if b.beta.support.index_of(y) is not None
            ]
            assert f.owner(y) == (holders[0] if holders else None)

    def test_owner_is_the_unique_support(self):
        self.assert_owner_is_the_holder(
            synthesize(StableFamily(tuple(PLFunc.constant(i) for i in range(6))))
        )

    def test_mixed_residue_owners(self):
        # Pow2OddSet(p) is the class 2^p mod 2^(p + 1): here 8 mod 16, 1 mod 2
        # and 128 mod 256, with the powers out of order and with gaps, so
        # naturals whose power no block has belong to no block.
        f = BlockProductFunc(
            tuple(hahn_block(ZERO_F, ZERO_F, RatSet(()), Pow2OddSet(p)) for p in (3, 0, 7)),
            (FULL_SET,) * 3,
            ZERO_F,
        )
        self.assert_owner_is_the_holder(f)

    def test_sample_rows_match_oracle(self, rng: random.Random):
        for fam in self.families(rng):
            f = synthesize(fam)
            assert f.sample_rows(GRID33, 40) == oracle_rows(f, GRID33, 40)

    def test_tampered_upper_block_reports_oracle_failures(self):
        # Block 2 of SP1 with h_blk raised by 1/8: the grid oracle finds the
        # upper bound at x=0 and pointwise failures; verify_synthesis reports
        # the same bound, the same missed envelope values, and F_2 at x=0.
        f = synthesize(SP1)
        bad = dataclasses.replace(f.blocks[1], h_blk=f.blocks[1].h_blk + PLFunc.constant("1/8"))
        tampered = BlockProductFunc((f.blocks[0], bad), f.stage_sets, f.theta)
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
        bad = dataclasses.replace(f.blocks[1], h_blk=dipped)
        tampered = BlockProductFunc((f.blocks[0], bad), f.stage_sets, f.theta)
        assert oracle_grid_failures(tampered, SP1, GRID65) == []
        report = verify_synthesis(tampered, SP1, GRID65)
        assert report.entries == verify_synthesis(f, SP1, GRID65).entries
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

class TestSupportDisjointness:
    @staticmethod
    def build(*supports):
        return BlockProductFunc(
            tuple(hahn_block(ZERO_F, ZERO_F, RatSet(()), s) for s in supports),
            (FULL_SET,) * len(supports),
            ZERO_F,
        )

    def test_same_power_rejected(self):
        with pytest.raises(ValueError, match=re.escape("(blocks 1 and 3 meet)")):
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
        with pytest.raises(ValueError, match=re.escape("disjoint (blocks 1 and 2 meet)")):
            BlockProductFunc.from_json(data)


class TestStageSetInvariants:
    """from_json re-checks the stage sets of a stored function; SP1 has
    F_1 = {1/2} and F_2 = [0, 1]."""

    @staticmethod
    def rejected(data: dict, message: str) -> None:
        with pytest.raises(ValueError, match=re.escape(message)):
            BlockProductFunc.from_json(data)

    def test_one_stage_set_per_block(self):
        data = synthesize(SP1).to_json()
        data["stage_sets"].pop()
        self.rejected(data, "one stage set per block")

    def test_at_least_one_block(self):
        data = synthesize(SP1).to_json()
        data["blocks"], data["stage_sets"] = [], []
        self.rejected(data, "need at least one block")

    def test_increasing_with_witness(self):
        data = synthesize(SP1).to_json()
        data["stage_sets"] = [[["0", "1"]], [["1/2", "1/2"]]]
        self.rejected(data, "stage sets must increase: x=0 is in F_1 but not in F_2")

    def test_last_set_covers_with_witness(self):
        data = synthesize(SP1).to_json()
        data["stage_sets"][1] = [["0", "1/4"], ["1/2", "1"]]
        self.rejected(data, "the last stage set must cover [0, 1], but misses x=3/8")


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
            shifted = [u - theta for u in fam.members]
            pair = envelopes(fam)
            g_sh, h_sh = pair.g - theta, pair.h - theta
            f = synthesize(fam)
            assert f.stage_sets == tuple(stage_sets_of(shifted, g_sh, h_sh))
            for n, block in enumerate(f.blocks, start=1):
                g_blk, h_blk = stage_envelopes(shifted, n)
                assert pl_equal(block.g_blk, g_blk), n
                assert pl_equal(block.h_blk, h_blk), n
            for s in f.stage_sets[:-1]:
                points += sum(lo == hi for lo, hi in s.intervals)
                intervals += sum(lo < hi for lo, hi in s.intervals)
        assert points > 0 and intervals > 0

    def test_call_counts(self, monkeypatch):
        # N members: N - 1 folds per envelope side and two equality sets per
        # stage, with no call to the quadratic stage code or to envelopes.
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
            assert calls["equality_set"] <= 2 * size
            assert not calls["stage_envelopes"] + calls["stage_sets_of"] + calls["envelopes"]
