"""Tests for the verification engines: enumeration, sampling, MaxEnt fit."""

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
    maxent_log_partition,
    maxent_moments,
    pair_moment,
    rho_to_q,
    sample,
)
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
        assert e_l1l2 == pytest.approx(
            pair_moment(ModelConfig(8, 0.4, 0.26)), abs=1e-10
        )

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
        np.testing.assert_allclose(rep.moments, [0.4, 0.4, cfg.q, pair_moment(cfg)],
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


class TestMaxEntFit:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.26])
    def test_recovers_closed_form(self, rho):
        q = rho_to_q(0.4, rho) if rho != 0.0 else 0.16
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
        fit = maxent_fit_small(p, q, n, tol=1e-11)
        moments = maxent_moments(np.array(fit.lagrange), n)
        np.testing.assert_allclose(moments, [p, n * p, n * q], atol=1e-10)
        assert fit.residual_norm < 1e-11

    def test_gradient_matches_finite_differences(self):
        theta = np.array([-2.1, 0.4, -0.7])
        n = 6
        analytic = maxent_moments(theta, n)
        h = 1e-6
        for k in range(3):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (maxent_log_partition(up, n) - maxent_log_partition(dn, n)) / (2 * h)
            assert abs(fd - analytic[k]) / abs(analytic[k]) < 1e-5

    def test_custom_init_converges(self):
        fit = maxent_fit_small(0.4, 0.2224, 8, init=[0.1, 0.1, 0.1])
        closed = calibrate(ModelConfig(8, 0.4, 0.26))
        assert fit.matched_params.beta == pytest.approx(closed.beta, abs=1e-6)

    def test_nonconvergence_reports_residual(self):
        with pytest.raises(MaxEntConvergenceError) as err:
            maxent_fit_small(0.4, 0.2224, 8, init=[300.0, -300.0, 300.0], max_iters=2)
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
        np.testing.assert_allclose(maxent_moments(np.array(fit.lagrange), n),
                                   [p, n * p, n * q], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("p, rho, failing_start", [
        (0.499, lower_bound(0.499) + 1e-7, "perturbed"),
        (0.24, lower_bound(0.24) + 0.64, "zeros"),
    ], ids=["perturbed-stalls", "zeros-stalls"])
    def test_each_start_converges_where_the_other_fails(self, p, rho, failing_start):
        n = 9
        cfg = ModelConfig(n, p, rho)
        closed = calibrate(cfg)
        starts = {"perturbed": [closed.alpha0 + 0.5, closed.alpha - 0.5, closed.beta + 0.5],
                  "zeros": [0.0, 0.0, 0.0]}
        with pytest.raises(MaxEntConvergenceError):
            maxent_fit_small(p, cfg.q, n, init=starts[failing_start])
        fit = maxent_fit_small(p, cfg.q, n)
        assert fit.residual_norm < 1e-10
        np.testing.assert_allclose(maxent_moments(np.array(fit.lagrange), n),
                                   [p, n * p, n * cfg.q], rtol=0, atol=1e-9)

    def test_fit_builds_the_state_table_once(self):
        # About a dozen state sweeps per fit; one table, kept alone, serves all.
        _state_table.cache_clear()
        maxent_fit_small(0.4, 0.2224, 8)
        info = _state_table.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (1, 1, 1)
        assert info.hits >= 10

    def test_size_cap(self):
        with pytest.raises(AdmissibilityError):
            maxent_fit_small(0.4, 0.16, 11)

    @pytest.mark.parametrize("n", [MAX_ENUM_N + 1, 30])
    @pytest.mark.parametrize("sweep", [maxent_moments, maxent_log_partition])
    def test_state_sweeps_are_capped(self, sweep, n):
        # At N = 30 the state table alone would take ~86 GB.
        with pytest.raises(AdmissibilityError, match="enumeration cap"):
            sweep(np.zeros(3), n)

    def test_rejects_inadmissible_q(self):
        with pytest.raises(AdmissibilityError):
            maxent_fit_small(0.4, 0.45, 8)
