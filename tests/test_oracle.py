"""Tests for the verification engines: enumeration, sampling, MaxEnt fit."""

import math

import numpy as np
import pytest

from dandelion_risk import (
    MAX_ENUM_N,
    AdmissibilityError,
    MaxEntConvergenceError,
    ModelConfig,
    calibrate,
    enumerate_model,
    loss_pmf,
    maxent_fit_small,
    maxent_sweep,
    rho_noncentral,
    sample,
)
from dandelion_risk import oracle
from dandelion_risk.oracle import _state_table

from conftest import lower_bound, rho_at


def test_state_table_rows_and_order():
    # Rows l0, sum(li), l0*sum(li), l1, l2; leaf codes with l0 = 0, then l0 = 1.
    table = _state_table(2)
    np.testing.assert_array_equal(table, [
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 2, 0, 1, 1, 2],
        [0, 0, 0, 0, 0, 1, 1, 2],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 0, 1, 1, 0, 0, 1, 1],
    ])
    assert not table.flags.writeable


class TestEnumerate:
    def test_moments_example(self):
        rep = enumerate_model(ModelConfig(n_credits=8, p=0.4, rho=0.26))
        e_l0, e_l1, e_l0l1, e_l1l2 = rep.moments
        assert e_l0 == pytest.approx(0.4, abs=1e-10)
        assert e_l1 == pytest.approx(0.4, abs=1e-10)
        assert e_l0l1 == pytest.approx(0.2224, abs=1e-10)
        # E[L1*L2] = p**2 + p(1-p)*Corr(L1, L2), with the library's correlation.
        assert e_l1l2 == pytest.approx(
            0.16 + 0.24 * rho_noncentral(ModelConfig(8, 0.4, 0.26)), abs=1e-10
        )

    def test_moments_are_python_floats(self):
        # As annotated, and as total_mass is: not numpy scalars.
        rep = enumerate_model(ModelConfig(n_credits=8, p=0.4, rho=0.26))
        assert [type(m) for m in (*rep.moments, rep.total_mass)] == [float] * 5

    def test_fair_coin_binomial(self):
        rep = enumerate_model(ModelConfig(n_credits=4, p=0.5, rho=0.0))
        np.testing.assert_allclose(
            rep.loss_pmf_bf, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-12
        )

    def test_leaf_correlation_by_brute_force(self):
        rep = enumerate_model(ModelConfig(n_credits=6, p=0.4, rho=-0.5))
        rho_nc = (rep.moments[3] - 0.16) / 0.24
        assert rho_nc == pytest.approx(0.25, abs=1e-10)

    def test_total_mass_validates_partition_function(self):
        # >= 100 random admissible configs across the full enumerable N <= 12
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = float(rng.uniform(0.05, 0.95))
            rho = rho_at(p, float(rng.uniform(0.02, 0.98)))
            n = int(rng.integers(2, 13))
            cfg = ModelConfig(n_credits=n, p=p, rho=rho)
            rep = enumerate_model(cfg)
            assert abs(rep.total_mass - 1.0) < 1e-10
            assert rep.moments[0] == pytest.approx(p, abs=1e-10)
            assert rep.moments[1] == pytest.approx(p, abs=1e-10)
            assert rep.moments[2] == pytest.approx(cfg.q, abs=1e-10)

    @pytest.mark.parametrize("rho", [-0.6, -0.26, 0.0, 0.26, 0.9])
    def test_loss_pmf_matches_closed_form(self, rho):
        cfg = ModelConfig(n_credits=12, p=0.4, rho=rho)
        rep = enumerate_model(cfg)
        assert np.abs(rep.loss_pmf_bf - loss_pmf(cfg).mass).max() < 1e-10

    @pytest.mark.parametrize("rho", [-0.6, 0.26])
    def test_at_the_size_cap(self, rho):
        cfg = ModelConfig(n_credits=MAX_ENUM_N, p=0.4, rho=rho)
        rep = enumerate_model(cfg)
        assert abs(rep.total_mass - 1.0) < 1e-10
        assert np.abs(rep.loss_pmf_bf - loss_pmf(cfg).mass).max() < 1e-10
        e_l1l2 = 0.16 + 0.24 * rho_noncentral(cfg)
        np.testing.assert_allclose(rep.moments, [0.4, 0.4, cfg.q, e_l1l2],
                                   rtol=0, atol=1e-10)

    def test_size_cap(self):
        with pytest.raises(AdmissibilityError):
            enumerate_model(ModelConfig(n_credits=17, p=0.4, rho=0.1))


class TestSample:
    def test_deterministic_given_seed(self):
        cfg = ModelConfig(n_credits=50, p=0.4, rho=-0.26)
        a = sample(cfg, 5000, seed=7)
        b = sample(cfg, 5000, seed=7)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, sample(cfg, 5000, seed=8))

    def test_shape_and_ranges(self):
        cfg = ModelConfig(n_credits=20, p=0.3, rho=0.1)
        draws = sample(cfg, 1000, seed=1)
        assert draws.shape == (1000, 2)
        assert set(np.unique(draws[:, 0])) <= {0, 1}
        assert draws[:, 1].min() >= 0 and draws[:, 1].max() <= 20

    def test_independence_mean_within_mc_error(self):
        cfg = ModelConfig(n_credits=100, p=0.4, rho=0.0)
        draws = sample(cfg, 10**6, seed=13)
        # Var(L) = N p (1-p) = 24 at rho = 0
        four_sigma = 4.0 * np.sqrt(24.0 / 1e6)
        assert abs(draws[:, 1].mean() - 40.0) < four_sigma

    def test_marginal_frequencies(self):
        cfg = ModelConfig(n_credits=100, p=0.4, rho=-0.26)
        draws = sample(cfg, 10**6, seed=42)
        four_sigma_l0 = 4.0 * np.sqrt(0.4 * 0.6 / 1e6)
        assert abs(draws[:, 0].mean() - 0.4) < four_sigma_l0
        var_loss = 24.0 * (1.0 + 99.0 * 0.26**2)
        four_sigma_leaf = 4.0 * np.sqrt(var_loss / (100.0**2 * 1e6))
        assert abs(draws[:, 1].mean() / 100.0 - 0.4) < four_sigma_leaf

    def test_total_variation_against_analytic_pmf(self):
        cfg = ModelConfig(n_credits=100, p=0.4, rho=-0.26)
        draws = sample(cfg, 10**6, seed=42)
        empirical = np.bincount(draws[:, 1], minlength=101) / 1e6
        tv = 0.5 * np.abs(empirical - loss_pmf(cfg).mass).sum()
        assert tv < 0.005

    def test_rejects_zero_count(self):
        with pytest.raises(AdmissibilityError):
            sample(ModelConfig(10, 0.4, 0.1), 0, seed=0)

    @pytest.mark.parametrize("count", [201.0, 5.5, "7"])
    def test_rejects_a_count_that_is_not_an_integer(self, count):
        with pytest.raises(AdmissibilityError, match=f"count={count!r}"):
            sample(ModelConfig(10, 0.4, 0.1), count, seed=0)

    def test_rejects_n_past_int64(self):
        # rng.binomial takes N as an int64; past that it would raise OverflowError.
        with pytest.raises(AdmissibilityError, match="9223372036854775807"):
            sample(ModelConfig(2**63, 0.4, 0.1), 1, seed=0)

    def test_n_at_int64_max_draws_without_per_credit_work(self):
        draws = sample(ModelConfig(2**63 - 1, 0.4, 0.1), 1, seed=0)
        assert draws.shape == (1, 2)
        assert 0 <= draws[0, 1] <= 2**63 - 1


class TestMaxEntFit:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.26])
    def test_recovers_closed_form(self, rho):
        q = ModelConfig(8, 0.4, rho).q if rho != 0.0 else 0.16
        fit = maxent_fit_small(0.4, q, 8)
        closed = calibrate(ModelConfig(n_credits=8, p=0.4, rho=rho))
        assert fit.matched_params.alpha == pytest.approx(closed.alpha, abs=1e-6)
        assert fit.matched_params.alpha0 == pytest.approx(closed.alpha0, abs=1e-6)
        assert fit.matched_params.beta == pytest.approx(closed.beta, abs=1e-6)

    def test_independence_gives_zero_coupling(self):
        fit = maxent_fit_small(0.4, 0.16, 6)
        assert fit.matched_params.beta == pytest.approx(0.0, abs=1e-6)

    def test_moment_match_is_the_invariant(self):
        p, q, n = 0.35, 0.1, 7
        fit = maxent_fit_small(p, q, n)
        moments = maxent_sweep(np.array(fit.lagrange), n)[0]
        np.testing.assert_allclose(moments, [p, n * p, n * q], atol=1e-10)
        assert fit.residual_norm < 1e-11

    def test_gradient_matches_finite_differences(self):
        theta = np.array([-2.1, 0.4, -0.7])
        n = 6
        analytic = maxent_sweep(theta, n)[0]
        h = 1e-6
        for k in range(3):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (maxent_sweep(up, n)[2] - maxent_sweep(dn, n)[2]) / (2 * h)
            assert abs(fd - analytic[k]) / abs(analytic[k]) < 1e-5

    @pytest.mark.parametrize("fault", ["singular-covariance", "stalled-moments"])
    def test_nonconvergence_reports_residual(self, monkeypatch, fault):
        # A zero covariance makes the Newton solve raise LinAlgError; moments
        # that no theta moves leave no step that reduces the residual.
        sweep = oracle.maxent_sweep
        first = []

        def faulty(theta, n):
            swept = sweep(theta, n)
            if fault == "singular-covariance":
                return swept[0], np.zeros((3, 3)), swept[2]
            first.append(swept)
            return first[0]  # the start's sweep, whatever theta is

        monkeypatch.setattr(oracle, "maxent_sweep", faulty)
        with pytest.raises(MaxEntConvergenceError) as err:
            maxent_fit_small(0.4, 0.2224, 8)
        assert np.isfinite(err.value.residual_norm)
        assert err.value.residual_norm > 0.0

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("place", ["lower+1e-8", "lower+1e-6", "zero",
                                       "1-1e-6", "1-1e-8"])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.5, 0.7, 0.98])
    def test_converges_at_the_edges_without_init(self, p, place, n):
        # Near the bounds the moments pin the parameters loosely, so only the
        # moment match is checked, not closeness to calibrate().
        rho = {"lower+1e-8": lower_bound(p) + 1e-8, "lower+1e-6": lower_bound(p) + 1e-6,
               "zero": 0.0, "1-1e-6": 1.0 - 1e-6, "1-1e-8": 1.0 - 1e-8}[place]
        q = ModelConfig(n, p, rho).q
        fit = maxent_fit_small(p, q, n)
        assert fit.residual_norm < 1e-10
        np.testing.assert_allclose(maxent_sweep(np.array(fit.lagrange), n)[0],
                                   [p, n * p, n * q], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("p, gap", [(0.499, 1e-7), (0.497, 2.1e-10), (0.24, 0.64)],
                             ids=["perturbed-stalls", "perturbed-stalls-near-bound",
                                  "zeros-stalls"])
    def test_converges_where_old_starts_stalled(self, p, gap):
        # Starting from the closed form with alpha and beta also shifted
        # (alpha0 + 0.5, alpha - 0.5, beta + 0.5) stalled on the first two
        # inputs, and starting from zeros on the third; shifting only alpha0
        # off the closed form converges on all three.
        n = 9
        cfg = ModelConfig(n, p, lower_bound(p) + gap)
        fit = maxent_fit_small(p, cfg.q, n)
        assert fit.residual_norm < 1e-10
        np.testing.assert_allclose(maxent_sweep(np.array(fit.lagrange), n)[0],
                                   [p, n * p, n * cfg.q], rtol=0, atol=1e-9)

    def test_converges_in_the_n9_stall_region(self):
        # A start that also shifts alpha and beta stalls on 5 of these 300 draws.
        rng = np.random.default_rng(20)
        n = 9
        for _ in range(300):
            p = rng.uniform(0.45, 0.55)
            q = ModelConfig(n, p, lower_bound(p) + 10.0 ** rng.uniform(-10, -6)).q
            assert maxent_fit_small(p, q, n).residual_norm < 1e-10, (p, q)

    def test_fit_builds_the_state_table_once(self, monkeypatch):
        # Every state sweep after the first reads the one cached table.
        sweeps = []
        state_weights = oracle._state_weights

        def counted(*args, **kwargs):
            sweeps.append(args)
            return state_weights(*args, **kwargs)

        monkeypatch.setattr(oracle, "_state_weights", counted)
        _state_table.cache_clear()
        maxent_fit_small(0.4, 0.2224, 8)
        info = _state_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits == len(sweeps) - 1

    def test_state_table_is_kept_for_each_n(self):
        # Calls that alternate N build each N's table once.
        _state_table.cache_clear()
        for n in (9, 10, 9, 10):
            enumerate_model(ModelConfig(n_credits=n, p=0.4, rho=0.26))
        assert _state_table.cache_info().misses == 2

    def test_fit_sweeps_each_theta_once(self, monkeypatch):
        # One sweep for the start and one per Newton step: the step's sweep
        # gives the next Jacobian and the final log Z.
        sweeps = []
        state_weights = oracle._state_weights

        def counted(*args, **kwargs):
            sweeps.append(args)
            return state_weights(*args, **kwargs)

        monkeypatch.setattr(oracle, "_state_weights", counted)
        fit = maxent_fit_small(0.4, 0.2224, 8)
        assert len(sweeps) == 4
        assert len({np.asarray(theta).tobytes() for theta, _ in sweeps}) == 4
        log_z = maxent_sweep(np.array(fit.lagrange), 8)[2]
        assert fit.matched_params.log_z.hex() == log_z.hex()

    def test_size_cap(self):
        with pytest.raises(AdmissibilityError, match="enumeration cap"):
            maxent_fit_small(0.4, 0.16, MAX_ENUM_N + 1)

    def test_converges_up_to_the_enumeration_cap(self):
        # Seeded draws at N = 11..16: p central and within 1e-4..0.02 of 0 or
        # 1, rho 1e-10..1e-6 inside either bound or in the interior.
        rng = np.random.default_rng(37)
        for n in range(11, MAX_ENUM_N + 1):
            for p in (rng.uniform(0.1, 0.9), 10.0 ** rng.uniform(-4, np.log10(0.02)),
                      1.0 - 10.0 ** rng.uniform(-4, np.log10(0.02))):
                gap = 10.0 ** rng.uniform(-10, -6)
                inside = rho_at(p, rng.uniform(0.1, 0.9))
                for rho in (lower_bound(p) + gap, inside, 1.0 - gap):
                    cfg = ModelConfig(n, p, rho)
                    fit = maxent_fit_small(p, cfg.q, n)
                    assert fit.residual_norm < 1e-10, (p, rho, n)
                    np.testing.assert_allclose(maxent_sweep(np.array(fit.lagrange), n)[0],
                                               [p, n * p, n * cfg.q], rtol=0, atol=1e-9)
                    if rho == inside:  # near the bounds theta is pinned loosely
                        closed = calibrate(cfg)
                        got = fit.matched_params
                        np.testing.assert_allclose(
                            [got.alpha0, got.alpha, got.beta],
                            [closed.alpha0, closed.alpha, closed.beta], rtol=0, atol=1e-6)

    # The sweep's moments and log Z, each read as its own slice.
    SWEEP_PARTS = pytest.mark.parametrize(
        "part", [0, 2], ids=["maxent_moments", "maxent_log_partition"])

    @pytest.mark.parametrize("n", [MAX_ENUM_N + 1, 30])
    @SWEEP_PARTS
    def test_state_sweeps_are_capped(self, part, n):
        # At N = 30 the state table alone would take ~86 GB.
        with pytest.raises(AdmissibilityError, match="enumeration cap"):
            maxent_sweep(np.zeros(3), n)[part]

    @pytest.mark.parametrize("n", [1, 0, -1])
    @SWEEP_PARTS
    def test_state_sweeps_refuse_n_below_2(self, part, n):
        with pytest.raises(AdmissibilityError, match=">= 2"):
            maxent_sweep(np.zeros(3), n)[part]

    @pytest.mark.parametrize("q", [0.45, 0.0, 0.4, -0.1, 0.5, math.nan])
    def test_rejects_inadmissible_q(self, q):
        with pytest.raises(AdmissibilityError, match="q="):
            maxent_fit_small(0.4, q, 8)

    def test_bad_p_is_reported_before_q(self):
        with pytest.raises(AdmissibilityError, match="p=1.5 must lie"):
            maxent_fit_small(1.5, 0.2, 8)
