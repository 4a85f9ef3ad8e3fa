"""Tests for VaR, mode, risk reports, and the correlation scan."""

import math
import sys
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dandelion_risk import (
    AdmissibilityError,
    GridSpec,
    LossPmf,
    ModelConfig,
    enumerate_model,
    loss_pmf,
    rho_bounds,
    risk_report,
    scan_rho,
    value_at_risk,
)
from dandelion_risk import metrics
from dandelion_risk.distribution import EXP_FLOOR
from dandelion_risk.metrics import _FIRST_BLOCK

from conftest import exact_masses, lower_bound, oracle_mass, oracle_peak_indices, rho_at

# Frozen by two independent routes: a scipy-only binomial-mixture sweep and a
# 50+ digit direct evaluation of the closed-form pmf.  The argmax of the loss
# pmf at (p=0.4, N=100) switches branches at rho = -0.45873; on the default
# 201-point grid the detector brackets it between grid points 24 and 25.
TRANSITION_RHO_STAR = -0.461745
TRANSITION_JUMP = 46
MODES_AROUND_JUMP = (12, 58)
VAR99_POS_026 = 65
VAR99_NEG_026 = 61

# The benchmark's point-query levels, plus 0.01 and 0.5 for the left-hand rule.
VAR_LEVELS = (0.01, 0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999,
              1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 1e-15)


def mp_tails(p: float, rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P(L <= l), P(L > l)) for l = 0..n, summed at 60 digits and then rounded.

    The law is the two-branch binomial mixture with weights 1-p and p and
    rates p*(1-rho) and p + rho*(1-p), exact for the binary values of p and
    rho; each branch comes from the ratio of consecutive binomial terms.
    """
    with mpmath.workdps(60):
        P, R = mpmath.mpf(p), mpmath.mpf(rho)
        mass = [mpmath.mpf(0)] * (n + 1)
        for weight, rate in ((1 - P, P * (1 - R)), (P, P + R * (1 - P))):
            term, ratio = weight * (1 - rate) ** n, rate / (1 - rate)
            for l in range(n + 1):
                mass[l] += term
                term = term * ratio * (n - l) / (l + 1)
        cdf = list(accumulate(mass))
        tail = list(accumulate(mass[:0:-1]))[::-1] + [mpmath.mpf(0)]
        return (np.array([float(x) for x in cdf]),
                np.array([float(x) for x in tail]))


def assert_var_contract(v, level, cdf, tail, delta):
    """VaR `v` at `level` meets value_at_risk's docstring on the exact tails.

    Above 0.5, P(L > v) <= 1 - level < P(L > v-1); at or below, P(L <= v-1) <
    level <= P(L <= v); each side within a relative delta.
    """
    if level > 0.5:
        a = 1.0 - level
        assert tail[v] <= a * (1 + delta), level
        assert v == 0 or tail[v - 1] > a * (1 - delta), level
    else:
        assert cdf[v] >= level * (1 - delta), level
        assert v == 0 or cdf[v - 1] < level * (1 + delta), level


class TestValueAtRisk:
    def test_matches_binomial_quantile_oracle(self):
        pmf = loss_pmf(ModelConfig(100, 0.4, 0.0))
        for level in (0.01, 0.25, 0.5, 0.9, 0.99, 0.999):
            assert value_at_risk(pmf, level) == int(stats.binom.ppf(level, 100, 0.4))

    def test_level_near_one_reaches_top_of_support(self):
        # Heavy upper tail: mass at N is ~3.6e-3, far above the level gap.
        pmf = loss_pmf(ModelConfig(10, 0.4, -0.5))
        assert value_at_risk(pmf, 1.0 - 1e-9) == 10

    def test_level_met_exactly_on_either_side(self):
        # P(L <= l) = (l + 1)/4 exactly, so each level is met exactly at l.
        pmf = LossPmf(np.full(4, np.log(0.25)))
        assert [value_at_risk(pmf, level) for level in (0.25, 0.5, 0.75)] == [0, 1, 2]

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_level(self, level):
        pmf = loss_pmf(ModelConfig(10, 0.4, 0.1))
        with pytest.raises(AdmissibilityError):
            value_at_risk(pmf, level)

    @given(
        a=st.floats(0.001, 0.999),
        b=st.floats(0.001, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_level(self, a, b):
        pmf = loss_pmf(ModelConfig(30, 0.35, -0.2))
        lo, hi = sorted((a, b))
        assert value_at_risk(pmf, lo) <= value_at_risk(pmf, hi)

    @given(
        n=st.integers(2, 300),
        p=st.sampled_from([0.5]) | st.floats(0.02, 0.98),
        t=st.floats(1e-6, 1 - 1e-6),
        levels=st.lists(
            st.sampled_from([0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0),
                             1 - 1e-15, 1e-15])
            | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=2, max_size=2),
    )
    # A symmetric law: summed from the left, P(L <= 4) falls just short of
    # 0.5, and summed from the right, P(L > 4) just short of 0.5 too.
    @example(n=9, p=0.5, t=0.5, levels=[0.5, np.nextafter(0.5, 1.0)])
    @settings(max_examples=200, deadline=None)
    def test_monotone_across_the_switch_and_in_support(self, n, p, t, levels):
        pmf = loss_pmf(ModelConfig(n, p, rho_at(p, t)))
        lo, hi = sorted(levels)
        assert 0 <= value_at_risk(pmf, lo) <= value_at_risk(pmf, hi) <= n

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    @pytest.mark.parametrize("p, rho", [
        (p, rho)
        for p, inside in ((0.1, -0.05), (0.4, -0.26), (0.7, 0.3))
        for rho in (lower_bound(p) + 1e-6, inside, 1 - 1e-6)
    ])
    def test_error_budget_against_mpmath(self, n, p, rho):
        # The budget in value_at_risk's docstring: both summed tails within
        # a relative delta of the exact ones, and VaR exact up to delta.
        pmf = loss_pmf(ModelConfig(n, p, rho))
        cdf, tail = mp_tails(p, rho, n)
        delta = 1e-14 * (n + 1) + 1e-12
        for ours, exact in ((np.cumsum(pmf.mass), cdf),
                            (np.cumsum(pmf.mass[::-1])[::-1][1:], tail[:-1])):
            normal = exact > 1e-290
            assert np.all(np.abs(ours - exact)[normal] <= delta * exact[normal])
        for level in VAR_LEVELS:
            assert_var_contract(value_at_risk(pmf, level), level, cdf, tail, delta)

    @pytest.mark.parametrize("p, rho, n, level", [
        *(pytest.param(0.4, rho, 50, level, id=f"{rho}-{level}")
          for level in (0.1, 0.5, 0.9, 0.99) for rho in (-0.4, 0.0, 0.3)),
        # Between the two humps P(L > l) lies within delta of 1 - level = p,
        # the upper branch's weight, for l = 133..270, so any of them meets
        # the contract.  The package answers 264, where the left-summed cdf
        # is already >= level at 263.
        pytest.param(0.1, 0.3, 1000, 0.9, id="0.3-0.9-p0.1-n1000"),
    ])
    def test_cdf_consistency(self, p, rho, n, level):
        v = value_at_risk(loss_pmf(ModelConfig(n, p, rho)), level)
        assert_var_contract(v, level, *mp_tails(p, rho, n), 1e-14 * (n + 1) + 1e-12)

    def test_mirror_asymmetry_at_quarter_strength(self):
        # The VaR curve mirrors around rho=0 only approximately; these two
        # values are frozen from the scipy mixture oracle.
        pos = value_at_risk(loss_pmf(ModelConfig(100, 0.4, 0.26)), 0.99)
        neg = value_at_risk(loss_pmf(ModelConfig(100, 0.4, -0.26)), 0.99)
        assert pos == VAR99_POS_026
        assert neg == VAR99_NEG_026
        assert pos != neg  # not perfectly symmetrical


class TestMode:
    def test_binomial_mode(self):
        rep = risk_report(loss_pmf(ModelConfig(100, 0.4, 0.0)))
        assert rep.mode == 40
        assert rep.mode_prob == pytest.approx(stats.binom.pmf(40, 100, 0.4), abs=1e-13)

    def test_near_lower_bound_mode_is_almost_zero(self):
        assert risk_report(loss_pmf(ModelConfig(100, 0.4, -2.0 / 3.0 + 1e-3))).mode == 0

    def test_just_above_transition(self):
        assert 55 <= risk_report(loss_pmf(ModelConfig(100, 0.4, -0.45))).mode <= 65

    def test_tie_breaks_to_smallest_index(self):
        rep = risk_report(LossPmf(np.full(5, np.log(0.2))))
        assert rep.mode == 0
        assert rep.mode_prob == pytest.approx(0.2, abs=1e-15)


class TestRiskReport:
    @pytest.mark.parametrize("rho", [-0.5, -0.26, 0.0, 0.26, 0.8])
    def test_internal_consistency(self, rho):
        pmf = loss_pmf(ModelConfig(100, 0.4, rho))
        rep = risk_report(pmf, level=0.99)
        assert rep.mode in rep.peaks
        assert len(rep.peaks) >= 1
        assert rep.mode_prob == pmf.mass[rep.mode]
        assert 0 <= rep.var_value <= 100
        assert 0 <= rep.mode <= 100
        assert 0.0 < rep.mode_prob <= 1.0


def exact_var(masses: list[int], total: int, level: float) -> int | None:
    """The exact lower quantile of masses/total at `level`, or None where an
    exact tail that value_at_risk compares lies within its relative delta of
    the target, so that it may answer any loss where one does.

    Every comparison is of integers: a float is the ratio of two.
    """
    cdf = list(accumulate(masses))  # total * P(L <= l)
    compared = [([total - s for s in cdf], 1.0 - max(level, 0.5))]
    if level <= 0.5:
        compared.append((cdf, level))
    dn, dd = (1e-14 * len(masses) + 1e-12).as_integer_ratio()
    for sums, target in compared:
        tn, td = target.as_integer_ratio()
        if any(abs(s * td - tn * total) * dd <= dn * s * td for s in sums):
            return None
    ln, ld = level.as_integer_ratio()
    return next(l for l, s in enumerate(cdf) if s * ld >= ln * total)


# N log-uniform in 2..10**3, p in (0.01, 0.99), rho across its interval.
_rng = np.random.default_rng(2026)
EXACT_CASES = [
    pytest.param(p, rho, n, id=f"{p:.4g}-{rho:.4g}-{n}")
    for p, rho, n in (
        (p, rho_at(p, t), int(round(10 ** _rng.uniform(math.log10(2), 3))))
        for p, t in _rng.uniform((0.01, 0.001), (0.99, 0.999), size=(40, 2)))
]


class TestExactOracle:
    """Mode, peaks and VaR against `exact_masses`, the pmf of the exact rates
    as integers."""

    @pytest.mark.parametrize("p, rho, n", EXACT_CASES)
    def test_mode_peaks_and_var_are_exact(self, p, rho, n):
        masses, total = exact_masses(p, rho, n)
        pmf = loss_pmf(ModelConfig(n, p, rho))
        rep = risk_report(pmf)
        assert rep.mode == masses.index(max(masses))
        assert rep.peaks == tuple(oracle_peak_indices(masses))
        for level in (0.01, 0.5, 0.99, 1 - 1e-15):
            exact = exact_var(masses, total, level)
            if exact is not None:
                assert value_at_risk(pmf, level) == exact, level


def full_support_reference(mass: np.ndarray, level: float) -> tuple[int, int, list[int]]:
    """(VaR, mode, peaks) with every sum and search over the whole support."""
    n = len(mass) - 1
    tail = np.cumsum(mass[::-1])
    var = n - int(np.searchsorted(tail, 1.0 - max(level, 0.5), side="right"))
    if level <= 0.5:
        cdf = np.cumsum(mass)
        var = min(int(np.searchsorted(cdf, level, side="left")), var)
    return max(var, 0), int(np.argmax(mass)), oracle_peak_indices(mass)


# Log masses: at or below EXP_FLOOR (exactly 0.0 in `mass`, exp's subnormal
# band included), the smallest normal masses just above it, and large enough
# to sum past 1; the sampled values make plateaus and ties.
BELOW_FLOOR = (st.sampled_from([EXP_FLOOR, -720.0, -745.5, -800.0, -1e4])
               | st.floats(-1e5, EXP_FLOOR))
TINY_ABOVE_FLOOR = st.sampled_from([np.nextafter(EXP_FLOOR, 0.0), -708.3, -708.0])
HUMP = st.sampled_from([-1.0, -2.0, -705.0]) | st.floats(-60.0, 0.5)


@st.composite
def span_pmfs(draw):
    """Log masses laid out as floor padding, humps with floor gaps between them,
    padding, with one mass of at least 3/4 inserted anywhere.  LossPmf needs
    the sum within [3/4, 4/3], so a larger sum is scaled to 1: every log mass
    above -700 is shifted by the same amount, keeping ties, the rest kept."""
    left = draw(st.lists(BELOW_FLOOR, max_size=6))
    body = draw(st.lists(
        st.lists(HUMP | TINY_ABOVE_FLOOR, min_size=1, max_size=8)
        | st.lists(BELOW_FLOOR | TINY_ABOVE_FLOOR, min_size=1, max_size=5),
        max_size=5,
    ))
    right = draw(st.lists(BELOW_FLOOR, max_size=6))
    log_mass = left + [x for part in body for x in part] + right
    at = draw(st.integers(0, len(log_mass)))
    log_mass.insert(at, draw(st.floats(np.log(0.75), 0.5)))
    total = math.fsum(math.exp(x) for x in log_mass)
    if total > 4 / 3:
        shift = math.log(total)
        log_mass = [x - shift if x > -700.0 else x for x in log_mass]
    return log_mass


LEVELS = (st.sampled_from([0.001, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, 0.99,
                           1 - 1e-15])
          | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


class TestSpanReading:
    """VaR, mode and peaks read only the span of `mass` and add its start back;
    they must equal the same searches over the whole support."""

    @given(log_mass=span_pmfs(), levels=st.lists(LEVELS, min_size=1, max_size=4))
    # A single non-zero mass, at an end and inside.
    @example(log_mass=[0.0, -800.0, -900.0], levels=[0.3, 0.99])
    @example(log_mass=[-800.0, -745.5, 0.0, -745.5, -800.0], levels=[0.3, 0.99])
    # Two humps with a zero gap, and the smallest normal masses at the span ends.
    @example(log_mass=[-1e4, -708.3, -1.0, -2.0, -900.0, -745.2, -2.0, -1.0, -708.3, -800.0],
             levels=[0.2, 0.5, 0.8])
    # Two humps of exactly equal masses: the mode is the first.
    @example(log_mass=[-800.0, -2.0, -1.2, -2.0, -900.0, -2.0, -1.2, -2.0, -800.0],
             levels=[0.5, 0.99])
    @settings(max_examples=400, deadline=None)
    def test_equals_full_support_reference(self, log_mass, levels):
        pmf = LossPmf(np.array(log_mass))
        assert pmf.mass.tobytes() == oracle_mass(pmf.log_mass).tobytes()
        a, b = pmf.span
        assert 0 <= a < b <= pmf.n + 1
        assert not pmf.mass[:a].any() and not pmf.mass[b:].any()
        assert pmf.mass[a] >= sys.float_info.min and pmf.mass[b - 1] >= sys.float_info.min
        for level in levels:
            var, mode, peaks = full_support_reference(pmf.mass, level)
            assert value_at_risk(pmf, level) == var
            rep = risk_report(pmf, level)
            assert (rep.var_value, rep.mode, rep.mode_prob) == (var, mode, pmf.mass[mode])
            assert rep.peaks == tuple(peaks)
            assert all(type(i) is int for i in (rep.var_value, rep.mode, *rep.peaks))

    @pytest.mark.parametrize("level", [0.01, 0.4, 0.5, 0.9, 0.99, 1 - 1e-9, 1 - 1e-15])
    @pytest.mark.parametrize("p, rho, n", [
        # Span (14944, 92190): 59,920 entries below the floor and 9 more of
        # mass 0.0 above it lie between the two branches.
        (0.634, 0.690218, 99858),
        (0.3, 0.2, 100000),
        # Mirrored humps whose top masses tie exactly (at 27 and 73, and at
        # 28 and 73), as the kernel mirrors every pmf at p = 1/2; the mode is
        # the first.
        (0.5, -0.45, 100),
        (0.5, -0.45, 101),
    ])
    def test_kernel_pmf_with_a_zero_gap_between_branches(self, p, rho, n, level):
        pmf = loss_pmf(ModelConfig(n, p, rho))
        var, mode, peaks = full_support_reference(pmf.mass, level)
        rep = risk_report(pmf, level)
        assert (rep.var_value, rep.mode, rep.mode_prob) == (var, mode, pmf.mass[mode])
        assert rep.peaks == tuple(peaks)

    @pytest.mark.parametrize("log_mass", [
        pytest.param([-800.0, EXP_FLOOR, -1e4], id="all-below-floor"),
        pytest.param([-800.0, -708.3, -708.0, -800.0], id="all-tiny-above-floor"),
        pytest.param([-800.0, -3.0, -2.0, -3.0, -800.0], id="sum-below-half"),
    ])
    def test_refuses_masses_summing_below_three_quarters(self, log_mass):
        with pytest.raises(ValueError, match="below 3/4"):
            LossPmf(np.array(log_mass))

    @pytest.mark.parametrize("log_mass", [
        pytest.param([5.0, 0.0], id="mass-148"),
        pytest.param([800.0, 0.0], id="exp-overflows"),
        pytest.param(np.log([0.7, 0.7]).tolist(), id="sum-1.4"),
    ])
    def test_refuses_masses_summing_above_four_thirds(self, log_mass):
        with pytest.raises(ValueError, match="above 4/3"):
            LossPmf(np.array(log_mass))

    def test_span_ends_at_the_last_entry_above_floor(self):
        pmf = LossPmf(np.array([-800.0, -708.3, -0.1, -745.5, -2.0, EXP_FLOOR]))
        assert pmf.span == (1, 5)
        assert pmf.mass.tobytes() == oracle_mass(pmf.log_mass).tobytes()

    def test_writeable_input_is_copied(self):
        log_mass = np.log([0.25, 0.5, 0.25])
        expected = log_mass.copy()
        pmf = LossPmf(log_mass)
        log_mass[:] = -1.0
        assert pmf.log_mass.tobytes() == expected.tobytes()
        assert pmf.mass.tobytes() == np.exp(expected).tobytes()
        assert not pmf.log_mass.flags.writeable

    def test_fresh_kernel_result_is_kept(self):
        pmf = loss_pmf(ModelConfig(50, 0.3, 0.2))
        assert LossPmf(pmf.log_mass).log_mass is pmf.log_mass
        view = pmf.log_mass[:]
        assert LossPmf(view).log_mass is not view


def seam_indices(blocks: int) -> list[int]:
    """The first and the last entry of each of the first `blocks` tail-sum
    blocks, counted from where the sum starts: block i covers
    [F*(2**(i-1) - 1), F*(2**i - 1)) for a first block of F entries."""
    ends = [_FIRST_BLOCK * (2**i - 1) for i in range(blocks + 1)]
    return [k for start, stop in zip(ends, ends[1:]) for k in (start, stop - 1)]


class TestTailSumBlocks:
    """VaR sums each tail in blocks of doubling length and stops at the block
    that crosses; it must equal one cumulative sum over the whole support
    wherever the crossing falls, the seams between blocks included.

    The span holds 8000 entries of mass 0.2 in all at each end and 100
    entries of mass 0.6 between them, so either tail sum can cross anywhere
    in the first three blocks, all within its 8000 entries; a level halfway between two adjacent cumulative sums puts the
    crossing on a chosen entry.
    """

    SIDE = 8000

    @pytest.fixture(scope="class")
    def pmf(self):
        rng = np.random.default_rng(2024)
        parts = [rng.uniform(0.5, 1.5, size) for size in (self.SIDE, 100, self.SIDE)]
        weights = [w * share / w.sum() for w, share in zip(parts, (0.2, 0.6, 0.2))]
        pad = np.full(3, -800.0)
        return LossPmf(np.concatenate((pad, *map(np.log, weights), pad)))

    @pytest.mark.parametrize("k", seam_indices(3))
    def test_right_sum_crossing_on_a_seam(self, pmf, k):
        a, b = pmf.span
        tail = np.cumsum(pmf.mass[a:b][::-1])
        level = 1.0 - (tail[k] + (tail[k - 1] if k else 0.0)) / 2
        assert level > 0.5
        var = full_support_reference(pmf.mass, level)[0]
        assert var == b - 1 - k
        assert value_at_risk(pmf, level) == var

    @pytest.mark.parametrize("k", seam_indices(3))
    def test_left_sum_crossing_on_a_seam(self, pmf, k):
        a, b = pmf.span
        cdf = np.cumsum(pmf.mass[a:b])
        level = (cdf[k] + (cdf[k - 1] if k else 0.0)) / 2
        assert level <= 0.5
        var = full_support_reference(pmf.mass, level)[0]
        assert var == a + k
        assert value_at_risk(pmf, level) == var


class TestScanRho:
    def test_grid_spec_validation(self):
        with pytest.raises(AdmissibilityError):
            GridSpec(count=2)
        for count in (201.0, 5.5, "7"):
            with pytest.raises(AdmissibilityError, match=f"count={count!r}"):
                GridSpec(count=count)
        with pytest.raises(AdmissibilityError):
            GridSpec(margin=0.0)
        with pytest.raises(AdmissibilityError):
            scan_rho(0.4, 100, GridSpec(count=11, margin=2.0))

    def test_grid_strictly_inside_bounds(self):
        res = scan_rho(0.4, 50, GridSpec(count=21, margin=1e-3))
        assert res.rho_grid[0] == pytest.approx(-2.0 / 3.0 + 1e-3, abs=1e-12)
        assert res.rho_grid[-1] == pytest.approx(1.0 - 1e-3, abs=1e-12)
        assert np.all(np.diff(res.rho_grid) > 0)
        assert len(res.reports) == 21

    def test_deterministic(self):
        a = scan_rho(0.4, 100, GridSpec(count=51, margin=1e-3))
        b = scan_rho(0.4, 100, GridSpec(count=51, margin=1e-3))
        assert a.rho_grid.tobytes() == b.rho_grid.tobytes()
        assert a.reports == b.reports
        assert a.rho_star == b.rho_star
        assert a.jump_size == b.jump_size

    def test_transition_detection(self):
        res = scan_rho(0.4, 100)
        assert res.rho_star == pytest.approx(TRANSITION_RHO_STAR, abs=1e-5)
        assert res.jump_size == TRANSITION_JUMP
        k = int(np.argmax(np.abs(np.diff([r.mode for r in res.reports]))))
        assert (res.reports[k].mode, res.reports[k + 1].mode) == MODES_AROUND_JUMP

    def test_no_jump_reported_when_below_threshold(self):
        res = scan_rho(0.4, 100, GridSpec(count=201, margin=1e-3), jump_threshold=100)
        assert res.rho_star is None
        assert res.jump_size == 0

    @pytest.mark.parametrize("threshold, text", [(-1, "-1"), (float("nan"), "nan")])
    def test_rejects_negative_jump_threshold(self, threshold, text):
        # Every mode is 0 here, so -1 would report a "jump" of size 0; no
        # difference exceeds NaN, so NaN would never report a jump.
        with pytest.raises(AdmissibilityError, match=f"jump_threshold={text} must be >= 0"):
            scan_rho(0.1, 10, GridSpec(count=5), jump_threshold=threshold)

    def test_rejects_bad_level_before_the_kernel(self, monkeypatch):
        def kernel(n):
            raise AssertionError("the kernel was built for a refused level")

        monkeypatch.setattr(metrics, "_scan_kernel", kernel)
        with pytest.raises(AdmissibilityError, match="level=1.0"):
            scan_rho(0.4, 10**6, level=1.0)

    @pytest.mark.parametrize("margin", [5e-11, 1e-300])
    def test_rejects_margin_inside_the_eps_band(self, margin):
        # The ends lie within EPS_BOUND of the bounds, so no --rho is at
        # fault and the error names the margin.
        with pytest.raises(AdmissibilityError, match=f"margin={margin!r}.*p=0.4"):
            scan_rho(0.4, 10, GridSpec(count=3, margin=margin))

    def test_margin_just_outside_the_eps_band_scans(self):
        res = scan_rho(0.4, 10, GridSpec(count=3, margin=1e-9))
        assert res.rho_grid[0] == rho_bounds(0.4).lower + 1e-9

    @pytest.mark.parametrize("p, n, text", [(0.4, 1, "n_credits=1 must be"),
                                            (1.0, 10, "p=1.0 must lie")])
    def test_bad_n_or_p_keeps_its_message(self, p, n, text):
        with pytest.raises(AdmissibilityError, match=text):
            scan_rho(p, n, GridSpec(count=3))

    @pytest.mark.parametrize("threshold", [0, 10])
    def test_flat_modes_report_no_jump(self, threshold):
        res = scan_rho(0.1, 10, GridSpec(count=5), jump_threshold=threshold)
        assert [r.mode for r in res.reports] == [0] * 5
        assert (res.rho_star, res.jump_size) == (None, 0)

    def test_mode_shape_along_grid(self):
        res = scan_rho(0.4, 100)
        grid, modes = res.rho_grid, np.array([r.mode for r in res.reports])
        assert modes[int(np.argmin(np.abs(grid)))] == 40
        assert modes[0] <= 2
        # beyond the transition the mode tracks (N+1)*p*(1-rho) and decays
        # almost linearly to 0
        sel = (grid >= 0.0) & (grid <= 0.95)
        assert np.all(np.diff(modes[grid >= 0.0]) <= 0)
        assert np.abs(modes[sel] - 101 * 0.4 * (1.0 - grid[sel])).max() <= 2.0
        assert modes[-1] <= 1

    def test_mode_probability_shape(self):
        res = scan_rho(0.4, 100)
        grid = res.rho_grid
        prob = np.array([r.mode_prob for r in res.reports])
        at = lambda x: prob[int(np.argmin(np.abs(grid - x)))]
        assert at(0.0) > at(-0.2)
        assert at(0.9) > at(0.5)

    def test_two_peak_region(self):
        for rho in (-0.26, 0.26):
            rep = risk_report(loss_pmf(ModelConfig(100, 0.4, rho)))
            assert len(rep.peaks) == 2

    @pytest.mark.parametrize("n", [100, 101])
    def test_half_modes_are_exact_and_report_no_jump(self, n):
        # At p = 1/2 a two-humped pmf has two exactly tied top masses; the
        # mode is the lower one at every point, so it never jumps across.
        res = scan_rho(0.5, n)
        for rho, report in zip(res.rho_grid, res.reports, strict=True):
            masses, _ = exact_masses(0.5, float(rho), n)
            assert report.mode == masses.index(max(masses)), rho
        assert (res.rho_star, res.jump_size) == (None, 0)

    @pytest.mark.parametrize("p, n, count", [
        *(pytest.param(p, n, 51, id=f"{p}-{n}")
          for p in (0.1, 0.5) for n in (2, 100, 2000, 10**4)),
        # Spans with masses below the floor between the branches, tails
        # summed over several blocks.
        pytest.param(0.634, 10**5, 5, id="0.634-100000"),
    ])
    def test_reports_equal_single_point_reports(self, p, n, count):
        # The scan shares one log-binomial table and one ramp 0..N across its
        # points but writes and adds the same column, so every report, peaks
        # and moments included, matches the single-point path repr for repr.
        res = scan_rho(p, n, GridSpec(count=count))
        for rho, report in zip(res.rho_grid, res.reports, strict=True):
            cfg = ModelConfig(n, p, float(rho))
            assert repr(report) == repr(risk_report(loss_pmf(cfg), 0.99))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: loss_pmf(ModelConfig(10, 0.4, 0.1)), id="LossPmf"),
    pytest.param(lambda: scan_rho(0.4, 10, GridSpec(count=3)), id="ScanResult"),
    pytest.param(lambda: enumerate_model(ModelConfig(4, 0.4, 0.1)),
                 id="EnumerationReport"),
])
def test_results_holding_arrays_compare_and_hash_by_identity(make):
    # A field-wise == would take the truth value of an array, which raises,
    # and a field-wise hash would hash an array.
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
