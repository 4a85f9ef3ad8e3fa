"""Tests for VaR, mode, risk reports, and the correlation scan."""

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
    loss_pmf,
    mode_of,
    risk_report,
    scan_rho,
    value_at_risk,
)

from conftest import lower_bound, rho_at

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
        pmf = LossPmf(n=3, log_mass=np.full(4, np.log(0.25)))
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


class TestModeOf:
    def test_binomial_mode(self):
        pmf = loss_pmf(ModelConfig(100, 0.4, 0.0))
        mode, prob = mode_of(pmf)
        assert mode == 40
        assert prob == pytest.approx(stats.binom.pmf(40, 100, 0.4), abs=1e-13)

    def test_near_lower_bound_mode_is_almost_zero(self):
        mode, _ = mode_of(loss_pmf(ModelConfig(100, 0.4, -2.0 / 3.0 + 1e-3)))
        assert mode == 0

    def test_just_above_transition(self):
        mode, _ = mode_of(loss_pmf(ModelConfig(100, 0.4, -0.45)))
        assert 55 <= mode <= 65

    def test_tie_breaks_to_smallest_index(self):
        flat = LossPmf(n=4, log_mass=np.full(5, np.log(0.2)))
        mode, prob = mode_of(flat)
        assert mode == 0
        assert prob == pytest.approx(0.2, abs=1e-15)


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


class TestScanRho:
    def test_grid_spec_validation(self):
        with pytest.raises(AdmissibilityError):
            GridSpec(count=2)
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
        k = int(np.argmax(np.abs(np.diff(res.modes))))
        assert (res.reports[k].mode, res.reports[k + 1].mode) == MODES_AROUND_JUMP

    def test_no_jump_reported_when_below_threshold(self):
        res = scan_rho(0.4, 100, GridSpec(count=201, margin=1e-3), jump_threshold=100)
        assert res.rho_star is None
        assert res.jump_size == 0

    def test_rejects_negative_jump_threshold(self):
        # Every mode is 0 here, so -1 would report a "jump" of size 0.
        with pytest.raises(AdmissibilityError, match="jump_threshold=-1 must be >= 0"):
            scan_rho(0.1, 10, GridSpec(count=5), jump_threshold=-1)

    @pytest.mark.parametrize("threshold", [0, 10])
    def test_flat_modes_report_no_jump(self, threshold):
        res = scan_rho(0.1, 10, GridSpec(count=5), jump_threshold=threshold)
        assert res.modes.tolist() == [0] * 5
        assert (res.rho_star, res.jump_size) == (None, 0)

    def test_mode_shape_along_grid(self):
        res = scan_rho(0.4, 100)
        grid, modes = res.rho_grid, res.modes
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

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_reports_equal_single_point_reports(self, p):
        # The scan evaluates each grid point through the single-point path, so
        # every report, peaks and moments included, matches it to the last bit.
        res = scan_rho(p, 2000, GridSpec(count=51))
        for rho, report in zip(res.rho_grid, res.reports, strict=True):
            cfg = ModelConfig(2000, p, float(rho))
            assert report == risk_report(loss_pmf(cfg), 0.99)
