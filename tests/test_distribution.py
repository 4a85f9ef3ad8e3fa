"""Tests for the loss distribution, its log-space kernel and its closed-form moments."""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dandelion_risk import (
    GridSpec,
    LossPmf,
    ModelConfig,
    enumerate_model,
    loss_moments,
    loss_pmf,
    peak_indices,
    risk_report,
    rho_noncentral,
    scan_rho,
)
from dandelion_risk import distribution
from dandelion_risk.distribution import (
    EXP_FLOOR,
    LSE_GAP,
    LSE_GAP_NARROW,
    _branch_window,
    _log_binom_table,
    _logaddexp_window,
)
from dandelion_risk.core_model import _branch_lines

from conftest import (
    LOG_DBL_MIN,
    lower_bound,
    oracle_log_binom_table,
    oracle_loss_pmf_full,
    oracle_mass,
    oracle_mixture_pmf,
    oracle_peak_indices,
    rho_at,
    traced_peak,
)


def test_loss_pmf_container_validates():
    with pytest.raises(ValueError):
        LossPmf(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        LossPmf(np.zeros(0))
    with pytest.raises(ValueError):
        LossPmf(np.array([0.0, -np.inf, 0.0]))
    # Masses summing below 3/4 are refused (TestSpanReading has more cases).
    with pytest.raises(ValueError, match="below 3/4"):
        LossPmf(np.log([0.5, 0.24]))
    assert LossPmf(np.log([0.5, 0.26])).span == (0, 2)
    pmf = LossPmf(np.log([0.5, 0.5]))
    assert pmf.n == 1
    np.testing.assert_allclose(pmf.mass, [0.5, 0.5], atol=1e-15)
    with pytest.raises(ValueError):
        pmf.log_mass[0] = 0.0
    with pytest.raises(ValueError):
        pmf.mass[0] = 0.0


class TestLossPmf:
    def test_binomial_limit(self):
        pmf = loss_pmf(ModelConfig(n_credits=100, p=0.4, rho=0.0))
        binom = stats.binom.pmf(np.arange(101), 100, 0.4)
        assert np.abs(pmf.mass - binom).max() < 1e-12

    def test_two_peak_structure(self):
        pos = loss_pmf(ModelConfig(n_credits=100, p=0.4, rho=0.26))
        peaks = peak_indices(pos.mass)
        assert peaks == [29, 56]
        assert pos.mass[29] > pos.mass[56]  # highest peak at low losses

        neg = loss_pmf(ModelConfig(n_credits=100, p=0.4, rho=-0.26))
        peaks = peak_indices(neg.mass)
        assert peaks == [24, 50]
        assert neg.mass[50] > neg.mass[24]  # highest peak at high losses

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(0.05, 0.95),
        t=st.floats(0.02, 0.98),
        n=st.integers(2, 150),
    )
    def test_normalization(self, p, t, n):
        pmf = loss_pmf(ModelConfig(n_credits=n, p=p, rho=rho_at(p, t)))
        assert abs(pmf.mass.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("rho", [-2.0 / 3.0 + 1e-6, 1.0 - 1e-6])
    def test_normalization_near_bounds(self, rho):
        pmf = loss_pmf(ModelConfig(n_credits=100, p=0.4, rho=rho))
        assert abs(pmf.mass.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_enumeration_over_leaf_states(self, n):
        cfg = ModelConfig(n_credits=n, p=0.4, rho=-0.5)
        pmf = loss_pmf(cfg)
        assert np.abs(pmf.mass - enumerate_model(cfg).loss_pmf_bf).max() < 1e-10


# Distances of p from 0 or 1, log-uniform on 1e-15..0.02.
EXTREME = st.floats(math.log(1e-15), math.log(0.02)).map(math.exp)


@st.composite
def kernel_configs(draw):
    """N log-uniform on 2..10**5; p on 0.02..0.98 or log-uniform within
    1e-15..0.02 of 0 or 1; rho near a bound, at or near 0, or interior."""
    n = round(math.exp(draw(st.floats(math.log(2), math.log(1e5)))))
    p = draw(st.floats(0.02, 0.98) | EXTREME | EXTREME.map(lambda e: 1.0 - e))
    d = draw(st.floats(1e-9, 1e-6))
    # Near p = 0 or 1 the lower bound is above -d, so -d is left out there.
    rho = draw(st.sampled_from([
        r for r in (lower_bound(p) + d, 1.0 - d, d, -d, 0.0, 5e-324, -5e-324,
                    rho_at(p, draw(st.floats(0.001, 0.999))))
        if r > lower_bound(p)
    ]))
    return ModelConfig(n_credits=n, p=p, rho=rho)


def assert_no_subnormal_mass(pmf):
    """Every non-zero mass is at least DBL_MIN, and the span's ends are
    non-zero."""
    mass = pmf.mass
    a, b = pmf.span
    assert mass[a] != 0.0 and mass[b - 1] != 0.0
    assert mass[mass != 0.0].min() >= sys.float_info.min


# Cancellation in c1 + slope1*N leaves the larger branch term at exactly 0.0
# here, where logaddexp returns the addend (2.05e-199 in the first), not 0.
ZERO_TOP_TERM = [
    ModelConfig(11348, 0.9999999999999976, 0.036661165738340086),
    ModelConfig(350, 0.9999999999999959, 0.750542720273491),
]

# rho near its upper bound, where the gap-800 window is not narrowed.
NEAR_UPPER = ModelConfig(1000, 0.2, 1 - 5e-7)


class TestSkippedWork:
    """The kernel skips logaddexp and exp where their bits are known; the
    output must stay byte-identical to the full-array formulas."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=kernel_configs())
    @example(cfg=ZERO_TOP_TERM[0])
    @example(cfg=ZERO_TOP_TERM[1])
    @example(cfg=NEAR_UPPER)
    def test_bytes_equal_full_formulas(self, cfg):
        log_mass, mass = oracle_loss_pmf_full(cfg)
        pmf = loss_pmf(cfg)
        assert pmf.log_mass.tobytes() == log_mass.tobytes()
        assert pmf.mass.tobytes() == mass.tobytes()
        assert_no_subnormal_mass(pmf)

    @pytest.mark.parametrize(
        "rho", [-2.0 / 3.0 + 1e-9, -0.5, 0.0, 5e-324, -5e-324, 0.3, 1.0 - 1e-9]
    )
    def test_bytes_equal_full_formulas_at_a_million(self, rho):
        cfg = ModelConfig(n_credits=10**6, p=0.4, rho=rho)
        log_mass, mass = oracle_loss_pmf_full(cfg)
        pmf = loss_pmf(cfg)
        assert pmf.log_mass.tobytes() == log_mass.tobytes()
        assert pmf.mass.tobytes() == mass.tobytes()
        assert_no_subnormal_mass(pmf)

    def test_mass_around_exp_floor(self):
        # Spans the zeros below the floor, exp's subnormal band (-745.13,
        # -708.4] among them, and the smallest normal masses above it; the
        # last entry, a mass of 1, makes the sum valid.
        log_mass = np.append(np.linspace(-776.0, -690.0, 2001), 0.0)
        pmf = LossPmf(log_mass)
        assert pmf.mass.tobytes() == oracle_mass(log_mass).tobytes()
        assert not pmf.mass[log_mass <= LOG_DBL_MIN].any()

    def test_exp_just_above_the_floor_is_normal(self):
        # exp is increasing, so every log mass above the floor has a normal
        # mass; the array form goes through numpy's SIMD loop.
        assert EXP_FLOOR == LOG_DBL_MIN
        assert np.exp(np.nextafter(EXP_FLOOR, 0.0)) >= sys.float_info.min
        assert np.exp(np.full(64, np.nextafter(EXP_FLOOR, 0.0))).min() >= sys.float_info.min

    @settings(max_examples=300, deadline=None)
    @given(
        alpha0=st.floats(-1e4, 1e4),
        beta=st.one_of(
            st.floats(-2000.0, 2000.0),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        ),
        n=st.integers(2, 3000),
    )
    @pytest.mark.parametrize("limit", [LSE_GAP, LSE_GAP_NARROW])
    def test_window_is_where_the_gap_is_small(self, limit, alpha0, beta, n):
        lo, hi = _logaddexp_window(alpha0, beta, n, limit)
        assert 0 <= lo <= hi <= n + 1
        assert type(lo) is int and type(hi) is int
        gap = np.abs(alpha0 + beta * np.arange(n + 1.0))
        inside = np.zeros(n + 1, dtype=bool)
        inside[lo:hi] = True
        # The tolerance covers rounding of the gap and of the window ends.
        tol = 1e-9 * (1.0 + abs(alpha0) + abs(beta) * n)
        # Skipped entries are past the gap where logaddexp returns the max ...
        assert np.all(gap[~inside] >= limit - tol)
        # ... and no entry is computed that could have been skipped.
        assert np.all(gap[inside] < limit + tol)

    @pytest.mark.parametrize("cfg, limit", [
        (ModelConfig(10**4, 0.4, 0.3), LSE_GAP_NARROW),
        (ModelConfig(10**4, 0.05, -0.05), LSE_GAP_NARROW),
        (ModelConfig(100, 0.4, -0.26), LSE_GAP_NARROW),
        # The largest branch term on the support is -0.511 here, so it is
        # narrowed; in the next two it is -0.260 and -0.210, above -1/2.
        (ModelConfig(100, 0.01, 0.5), LSE_GAP_NARROW),
        (ModelConfig(100, 0.01, 0.75), LSE_GAP),
        (ModelConfig(100, 0.99, 0.8), LSE_GAP),
        *((cfg, LSE_GAP) for cfg in ZERO_TOP_TERM),
        # Every term of the gap-800 window (452, 504) is below -1/2, but the
        # largest on the support is -0.223, at l = 0, so it is not narrowed.
        (NEAR_UPPER, LSE_GAP),
    ])
    def test_narrow_window_only_where_exact(self, cfg, limit):
        c0, slope0, c1, slope1 = _branch_lines(cfg)
        expected = _logaddexp_window(c1 - c0, slope1 - slope0, cfg.n_credits, limit)
        assert _branch_window(c0, slope0, c1, slope1, cfg.n_credits) == expected


class TestMemoryBudget:
    """A point query allocates its result and one scratch array of N+1 floats.

    At p = 0.47, rho = 0.31 the log-sum-exp window is about 1200 entries, so
    its temporary is small; 2.25 arrays leave room for it and the span
    bookkeeping but not for a third array (the full-array kernel reached 6.1).
    """

    N = 10**6
    CFG = ModelConfig(N, 0.47, 0.31)
    BUDGET = 2.25 * 8 * (N + 1)

    def test_loss_pmf(self):
        loss_pmf(self.CFG)  # grows the shared log k! prefix, which is kept
        assert traced_peak(loss_pmf, self.CFG) <= self.BUDGET

    def test_risk_report_on_a_fresh_pmf(self):
        # Building the pmf computes `mass`; the trace pays for it.
        log_mass = loss_pmf(self.CFG).log_mass
        assert traced_peak(lambda: risk_report(LossPmf(log_mass))) <= self.BUDGET


def test_scan_memory_budget():
    # A scan holds the shared log-binomial table and ramp 0..N besides a
    # point query's column, `mass` and the moments' scratch array: 5.0
    # arrays of 8(N+1) bytes, 4.0 before the ramp was shared.
    n = TestMemoryBudget.N
    scan_rho(0.47, n, GridSpec(count=3))  # grows the shared log k! prefix
    assert traced_peak(scan_rho, 0.47, n, GridSpec(count=3)) <= 5.25 * 8 * (n + 1)


class TestMemoryBudgetWholeWindow(TestMemoryBudget):
    """The same budget where the log-sum-exp window is the whole support.

    At rho = 0 the window's temporary is N+1 floats too.  Freeing it before
    the log-binomial table is built keeps the peak at 2.0 arrays; held, it
    read 3.0.
    """

    CFG = ModelConfig(TestMemoryBudget.N, 0.4, 0.0)


class TestLogBinomTable:
    NS = [2, 17, 1000, 99_999, 10**6]

    @pytest.mark.parametrize("order", ["rising", "falling"])
    def test_bytes_equal_three_gammaln_formula(self, monkeypatch, order):
        monkeypatch.setattr(distribution, "_log_factorials", np.zeros(0))
        ns = self.NS if order == "rising" else self.NS[::-1]
        # The second pass asks every n of a prefix grown past it.
        for n in ns + ns:
            table = _log_binom_table(n)
            assert table.tobytes() == oracle_log_binom_table(n).tobytes()

    def test_one_prefix_for_many_n(self, monkeypatch):
        monkeypatch.setattr(distribution, "_log_factorials", np.zeros(0))
        ns = np.unique(np.geomspace(2, 20_000, 400).astype(int))[-200:]
        assert len(ns) == 200
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in ns:
                _log_binom_table(int(n))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        prefix = distribution._log_factorials
        assert len(prefix) <= 2 * (ns.max() + 1)
        # Caching even a few of the 200 tables would keep far more than this.
        assert kept <= prefix.nbytes + 64 * 1024

    @pytest.mark.parametrize("n", [10**2, 10**3, 10**4, 10**5, 10**6])
    def test_within_four_ulp_of_log_n_factorial(self, n):
        # Against 60 digits at both ends, densely around the mode n/2 and at
        # 101 points across the support.  Each entry is two subtractions of
        # log-factorials no larger than log n!, so its error is a few ulp of it.
        mid = n // 2
        ls = sorted({*range(21), *range(n - 20, n + 1), *range(mid - 700, mid + 701),
                     *np.linspace(0, n, 101).astype(int).tolist()})
        ls = [l for l in ls if 0 <= l <= n]
        table = _log_binom_table(n)
        with mpmath.workdps(60):
            log_n_factorial = mpmath.loggamma(n + 1)
            error = max(
                abs(mpmath.mpf(table[l]) - log_n_factorial
                    + mpmath.loggamma(l + 1) + mpmath.loggamma(n - l + 1))
                for l in ls
            )
        assert error <= 4 * math.ulp(float(log_n_factorial))

    def test_prefix_growth_streams(self, monkeypatch):
        # Growing through a list of Python floats would peak at 5-9x the prefix.
        monkeypatch.setattr(distribution, "_log_factorials", np.zeros(0))
        tracemalloc.start()
        try:
            _log_binom_table(10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * distribution._log_factorials.nbytes

    def test_returned_table_is_a_fresh_array(self):
        table = _log_binom_table(50)
        table[:] = 0.0
        assert _log_binom_table(50).tobytes() == oracle_log_binom_table(50).tobytes()


class TestMixtureForm:
    """The loss pmf against its two-component binomial-mixture expansion."""

    @pytest.mark.parametrize("n, p, rho", [
        # A 70-point grid at rho = rho_at(p, t), ids n-t-p, and one more case.
        *(pytest.param(n, p, rho_at(p, t), id=f"{n}-{t}-{p}")
          for p in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)
          for t in (0.05, 0.3, 0.5, 0.7, 0.95)
          for n in (5, 100)),
        pytest.param(100, 0.4, -0.26, id="100-rho=-0.26-0.4"),
    ])
    def test_mixture_equals_loss_pmf(self, n, p, rho):
        # The scipy-only mixture expansion is the cross-check oracle.
        direct = loss_pmf(ModelConfig(n_credits=n, p=p, rho=rho)).mass
        assert np.abs(direct - oracle_mixture_pmf(p, rho, n)).max() < 1e-12


class TestPairMomentAndLeafCorrelation:
    def test_rho_noncentral_examples(self):
        assert rho_noncentral(ModelConfig(100, 0.4, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert rho_noncentral(ModelConfig(100, 0.4, -0.5)) == pytest.approx(
            0.25, abs=1e-12
        )
        # (E[Li*Lj] - p**2)/(p(1-p)) cancels here and came out -5.96e-16.
        rho = -2.081842401210066e-10
        cfg = ModelConfig(10, 0.7522709882372473, rho)
        assert rho_noncentral(cfg) == rho * rho > 0.0

    def test_squared_relation_on_dense_grid(self):
        lo = -2.0 / 3.0
        for rho in np.linspace(lo + 1e-3, 1.0 - 1e-3, 101):
            cfg = ModelConfig(n_credits=10, p=0.4, rho=float(rho))
            assert abs(rho_noncentral(cfg) - rho * rho) < 1e-12

    def test_leaf_correlation_positive_and_below_central(self):
        for rho in (-0.6, -0.3, -0.01, -1e-8, 1e-8, 0.01, 0.3, 0.9):
            r = rho_noncentral(ModelConfig(50, 0.4, rho))
            assert r > 0.0
            assert r < abs(rho)

    def test_negative_rho_range_claim(self):
        rng = np.random.default_rng(11)
        for rho in rng.uniform(-2.0 / 3.0 + 1e-4, -1e-4, size=200):
            r = rho_noncentral(ModelConfig(10, 0.4, float(rho)))
            assert 0.0 < r < 4.0 / 9.0


class TestLossMoments:
    def test_binomial_moments(self):
        mean, var = loss_moments(loss_pmf(ModelConfig(100, 0.4, 0.0)))
        assert mean == pytest.approx(40.0, abs=1e-9)
        assert var == pytest.approx(24.0, abs=1e-8)

    def test_negative_rho_variance(self):
        mean, var = loss_moments(loss_pmf(ModelConfig(10, 0.4, -0.5)))
        assert mean == pytest.approx(4.0, abs=1e-9)
        assert var == pytest.approx(7.8, abs=1e-8)

    def test_mean_is_np_under_positive_rho(self):
        mean, _ = loss_moments(loss_pmf(ModelConfig(100, 0.4, 0.26)))
        assert mean == pytest.approx(40.0, abs=1e-9)

    @given(p=st.floats(0.1, 0.9), t=st.floats(0.05, 0.95), n=st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_identities(self, p, t, n):
        rho = rho_at(p, t)
        mean, var = loss_moments(loss_pmf(ModelConfig(n, p, rho)))
        assert mean == pytest.approx(n * p, abs=1e-9)
        assert var == pytest.approx(
            n * p * (1 - p) * (1 + (n - 1) * rho * rho), abs=1e-8
        )

    @pytest.mark.parametrize("p, rho, n", [
        (0.972415838887344, -0.016714490560625447, 24422),
        (0.8860479809725482, 0.02049525871430427, 30298),
    ])
    def test_two_pass_moments_at_large_n(self, p, rho, n):
        # A one-pass E[L^2] - mean**2 is ~1e-7 off the closed form here.
        mean, var = loss_moments(loss_pmf(ModelConfig(n, p, rho)))
        assert mean == pytest.approx(n * p, rel=1e-10)
        assert var == pytest.approx(n * p * (1 - p) * (1 + (n - 1) * rho * rho), rel=1e-10)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # A BLAS dot splits sums this long across its threads; these three
        # pmfs' moments, and the N = 16 enumeration and max-ent sweep over
        # 2^17 states, differed in their last bits between 1 and 2 OpenBLAS
        # threads when they were summed by BLAS products.
        code = (
            "from dandelion_risk import ModelConfig, loss_moments, loss_pmf\n"
            "from dandelion_risk import enumerate_model, maxent_sweep\n"
            "for cfg in [(104393, 0.7745026313708422, 0.7122627087235156),\n"
            "            (112758, 0.3072212420793274, -0.30122691775681165),\n"
            "            (28149, 0.09388193965445124, 0.9440012304554601)]:\n"
            "    print(repr(loss_moments(loss_pmf(ModelConfig(*cfg)))))\n"
            "rep = enumerate_model(ModelConfig(16, 0.37, -0.21))\n"
            "print(repr(rep.moments), repr(rep.total_mass))\n"
            "moments, cov, _ = maxent_sweep((0.3, -0.5, 0.2), 16)\n"
            "print(moments.tobytes().hex(), cov.tobytes().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(distribution.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0].count("\n") == 5
        assert outputs[0] == outputs[1]

    def test_pmf_without_a_mass_above_the_floor_is_refused(self):
        # Every mass is 0.0 in double precision, so there are no moments.
        with pytest.raises(ValueError, match="below 3/4"):
            LossPmf(np.full(3, -800.0))


# 9 rho = rho_at(p, t) spread over each admissible interval.
MIRROR_TS = (0.001, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.999)
# Dyadic p, so that 1 - p is exact.
MIRROR_CASES = [
    pytest.param(p, rho_at(p, t), n, id=f"{p}-{t}-{n}")
    for p in (1 / 16, 1 / 8, 1 / 4, 3 / 8)
    for t in MIRROR_TS
    for n in (10, 100, 10**4)
]


def mirror_tolerance(n: int) -> float:
    return 1e-13 * (n + 1) + 1e-12


class TestMirrorIdentities:
    """Swapping default and survival on every node maps (p, rho) to
    (1-p, rho) and L to N-L; at p = 1/2 it is a symmetry of one model."""

    @pytest.mark.parametrize("p, rho, n", MIRROR_CASES)
    def test_one_minus_p_reverses_the_pmf(self, p, rho, n):
        here = loss_pmf(ModelConfig(n, p, rho)).log_mass
        mirrored = loss_pmf(ModelConfig(n, 1.0 - p, rho)).log_mass
        assert np.abs(mirrored[::-1] - here).max() <= mirror_tolerance(n)

    @pytest.mark.parametrize("n", [10, 100, 10**4])
    @pytest.mark.parametrize("t", MIRROR_TS)
    def test_half_is_a_palindrome_even_in_rho(self, t, n):
        # rho_at(0.5, t) = 2t - 1 covers (-1, 1); its negative is admissible too.
        rho = rho_at(0.5, t)
        log_mass = loss_pmf(ModelConfig(n, 0.5, rho)).log_mass
        flipped = loss_pmf(ModelConfig(n, 0.5, -rho)).log_mass
        assert np.array_equal(log_mass[::-1], log_mass)
        assert np.abs(flipped - log_mass).max() <= mirror_tolerance(n)


class TestPeakIndices:
    def test_single_hump(self):
        assert peak_indices(np.array([0.1, 0.3, 0.4, 0.15, 0.05])) == [2]

    def test_boundary_peaks(self):
        assert peak_indices(np.array([0.5, 0.3, 0.2])) == [0]
        assert peak_indices(np.array([0.2, 0.3, 0.5])) == [2]

    def test_two_humps(self):
        assert peak_indices(np.array([0.1, 0.3, 0.1, 0.05, 0.25, 0.2])) == [1, 4]

    def test_plateau_counts_once_at_leftmost(self):
        assert peak_indices(np.array([0.1, 0.3, 0.3, 0.1, 0.2])) == [1, 4]
        assert peak_indices(np.array([0.3, 0.3, 0.2, 0.2])) == [0]

    def test_interior_plateau_below_neighbour_not_a_peak(self):
        assert peak_indices(np.array([0.1, 0.2, 0.2, 0.4, 0.1])) == [3]

    def test_constant_counts_once(self):
        assert peak_indices(np.full(5, 0.2)) == [0]

    # A small alphabet makes plateaus, ties at either end and NaN/inf runs
    # common, where the run bookkeeping is easiest to get wrong; -0.0 equals
    # 0.0, and 5e-324 is the smallest mass above it.
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.1, 0.2, 0.3,
                                     np.inf, -np.inf, np.nan]),
                    min_size=0, max_size=40))
    # A pair with a NaN neither rises nor falls, yet it ends a run of equal
    # masses, which is then no peak.
    @example([2.0, 3.0, 3.0, np.nan, 3.0])
    @example([3.0, 3.0, np.nan, 2.0])
    @example([1.0, 2.0, np.nan, 2.0, 1.0, 2.0, 1.0])
    # A flat run at each end, and a single entry.
    @example([0.2, 0.2, 0.1, 0.3, 0.3])
    @example([0.3, 0.3, 0.1, 0.2, 0.2])
    @example([0.1])
    @example([np.nan])
    @settings(max_examples=500, deadline=None)
    def test_matches_scalar_walk_oracle(self, values):
        mass = np.array(values, dtype=np.float64)
        peaks = peak_indices(mass)
        assert peaks == oracle_peak_indices(mass)
        assert all(type(i) is int for i in peaks)
