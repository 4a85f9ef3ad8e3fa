"""Tests for parameter admissibility, rho -> q, and calibration."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dandelion_risk import (
    EPS_BOUND,
    AdmissibilityError,
    ModelConfig,
    calibrate,
    conditional_probs,
    rho_bounds,
)

from conftest import lower_bound, rho_at


class TestRhoBounds:
    def test_reference_points(self):
        b = rho_bounds(0.4)
        assert abs(b.lower - Fraction(-2, 3)) < 1e-15
        assert b.upper == 1.0

        assert rho_bounds(0.5).lower == -1.0
        assert rho_bounds(0.2).lower == -0.25

    @pytest.mark.parametrize("p", [-0.1, 0.0, 1.0, 1.5, math.nan])
    def test_rejects_bad_p(self, p):
        with pytest.raises(AdmissibilityError):
            rho_bounds(p)

    @given(p=st.floats(0.01, 0.99))
    def test_symmetric_in_p(self, p):
        assert rho_bounds(p).lower == pytest.approx(rho_bounds(1.0 - p).lower, abs=1e-14)

    @given(p=st.floats(0.01, 0.99))
    def test_lower_negative_upper_one(self, p):
        b = rho_bounds(p)
        assert -1.0 <= b.lower < 0.0
        assert b.upper == 1.0


class TestRhoQConversion:
    def test_rho_to_q_examples(self):
        assert ModelConfig(2, 0.4, 0.0).q == pytest.approx(0.16, abs=1e-15)
        assert ModelConfig(2, 0.4, -0.5).q == pytest.approx(0.04, abs=1e-15)
        assert ModelConfig(2, 0.4, 0.26).q == pytest.approx(0.2224, abs=1e-15)

    def test_rejects_rho_outside_bounds(self):
        with pytest.raises(AdmissibilityError):
            ModelConfig(2, 0.4, -0.7)
        with pytest.raises(AdmissibilityError):
            ModelConfig(2, 0.4, 1.0)
        # nan passes every bound comparison, so only the finiteness check
        # refuses it.
        with pytest.raises(AdmissibilityError, match="is not finite"):
            ModelConfig(10, 0.4, math.nan)
        for rho in (math.inf, -math.inf):
            with pytest.raises(AdmissibilityError):
                ModelConfig(10, 0.4, rho)



class TestModelConfig:
    def test_rejects_small_portfolio(self):
        with pytest.raises(AdmissibilityError):
            ModelConfig(n_credits=1, p=0.4, rho=0.1)

    def test_rejects_non_integer_n(self):
        with pytest.raises(AdmissibilityError):
            ModelConfig(n_credits=2.5, p=0.4, rho=0.1)

    def test_rejects_rho_within_eps_of_bound(self):
        lo = rho_bounds(0.4).lower
        with pytest.raises(AdmissibilityError):
            ModelConfig(n_credits=10, p=0.4, rho=lo + 0.5 * EPS_BOUND)
        with pytest.raises(AdmissibilityError):
            ModelConfig(n_credits=10, p=0.4, rho=1.0 - 0.5 * EPS_BOUND)

    def test_lower_margin_is_relative_to_the_bound(self):
        # At p = 1e-12 the lower bound is -1e-12, so an absolute margin of
        # EPS_BOUND would reject rho = 0 and the whole negative range.
        lo = rho_bounds(1e-12).lower
        for rho in (0.0, lo * (1.0 - 2e-10)):
            assert 0.0 < ModelConfig(n_credits=10, p=1e-12, rho=rho).q < 1e-12
        with pytest.raises(AdmissibilityError, match="violates the lower bound"):
            ModelConfig(n_credits=10, p=1e-12, rho=lo * (1.0 - 5e-11))

    def test_accepts_just_inside(self):
        lo = rho_bounds(0.4).lower
        cfg = ModelConfig(n_credits=10, p=0.4, rho=lo + 1e-9)
        assert 0.0 < cfg.q < 0.4

    def test_error_message_names_interval(self):
        with pytest.raises(AdmissibilityError, match=r"-0\.666666666666"):
            ModelConfig(n_credits=10, p=0.4, rho=-0.7)


class TestCalibrate:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.5, 0.8])
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_independence_gives_zero_coupling(self, p, n):
        params = calibrate(ModelConfig(n_credits=n, p=p, rho=0.0))
        assert params.beta == pytest.approx(0.0, abs=1e-12)
        assert params.alpha == pytest.approx(math.log(p / (1.0 - p)), abs=1e-12)

    def test_brute_force_moments_small_n(self):
        # Independent pure-Python sweep of all 2^(N+1) states at N = 8.
        cfg = ModelConfig(n_credits=8, p=0.4, rho=0.26)
        prm = calibrate(cfg)
        z = e_l0 = e_l1 = e_l0l1 = 0.0
        for l0 in (0, 1):
            for bits in itertools.product((0, 1), repeat=8):
                s = sum(bits)
                w = math.exp(prm.alpha0 * l0 + prm.alpha * s + prm.beta * l0 * s)
                z += w
                e_l0 += l0 * w
                e_l1 += bits[0] * w
                e_l0l1 += l0 * bits[0] * w
        assert math.log(z) == pytest.approx(prm.log_z, abs=1e-10)
        assert e_l0 / z == pytest.approx(0.4, abs=1e-10)
        assert e_l1 / z == pytest.approx(0.4, abs=1e-10)
        assert e_l0l1 / z == pytest.approx(0.2224, abs=1e-10)

    def test_boundary_approach_stays_finite(self):
        rho = -2.0 / 3.0 + 1e-9
        prm = calibrate(ModelConfig(n_credits=100, p=0.4, rho=rho))
        for v in (prm.alpha, prm.alpha0, prm.beta, prm.log_z):
            assert math.isfinite(v)

        # Reference: same double inputs, evaluated in 50-digit arithmetic.
        with mpmath.workdps(50):
            p, r = mpmath.mpf(0.4), mpmath.mpf(rho)
            q = r * p * (1 - p) + p * p
            alpha = mpmath.log((p - q) / (1 - 2 * p + q))
            alpha0 = 99 * mpmath.log((1 - p) / p) + 100 * alpha
            beta = mpmath.log(q / (p - q)) - alpha
            assert prm.alpha == pytest.approx(float(alpha), abs=1e-12)
            assert prm.alpha0 == pytest.approx(float(alpha0), abs=1e-10)
            assert prm.beta == pytest.approx(float(beta), abs=1e-6)

    def test_rejects_beyond_boundary(self):
        with pytest.raises(AdmissibilityError):
            ModelConfig(n_credits=100, p=0.4, rho=-2.0 / 3.0 - 1e-9)

    @given(p=st.floats(0.05, 0.95), t=st.floats(0.02, 0.98))
    def test_beta_combined_log_form(self, p, t):
        # beta in the independent q form log(q*(1-2p+q)/(p-q)^2).
        cfg = ModelConfig(n_credits=5, p=p, rho=rho_at(p, t))
        prm = calibrate(cfg)
        q = cfg.q
        combined = math.log(q * (1.0 - 2.0 * p + q) / (p - q) ** 2)
        assert prm.beta == pytest.approx(combined, abs=1e-10)

    @pytest.mark.parametrize("p", [1e-300, 1e-20, 1e-12, 0.3, 0.7, 1 - 1e-9, 1 - 1e-12,
                                   1 - 1e-15])
    def test_matches_60_digit_reference(self, p):
        # alpha, alpha+beta, alpha0 and log Z of the double inputs, from the
        # exact conditional rates.  At p = 0.7 the centre has r0 = 1/2, so alpha = 0
        # there, hence errors relative to max(|value|, 1); log Z > 0 is always
        # checked relative to itself, which a tiny p makes tiny too.
        def logit(r):
            return mpmath.log(r) - mpmath.log(1 - r)

        lo = lower_bound(p)
        checked = 0
        for rho, n in itertools.product((lo + 1e-6, (lo + 1.0) / 2, 1.0 - 1e-6),
                                        (2, 100, 10**6)):
            try:
                cfg = ModelConfig(n, p, rho)
            except AdmissibilityError:
                continue
            prm = calibrate(cfg)
            assert all(map(math.isfinite, (prm.alpha, prm.alpha0, prm.beta, prm.log_z)))
            with mpmath.workdps(60):
                mp, mr = mpmath.mpf(p), mpmath.mpf(rho)
                r0, r1 = mp * (1 - mr), mp + mr * (1 - mp)
                exact = (logit(r0), logit(r1),
                         logit(mp) + n * mpmath.log((1 - r1) / (1 - r0)),
                         -mpmath.log1p(-mp) - n * mpmath.log1p(-r0))
                got = (prm.alpha, prm.alpha + prm.beta, prm.alpha0, prm.log_z)
                names = ("alpha", "alpha+beta", "alpha0", "log_z")
                for name, g, e in zip(names, got, exact):
                    err = float(abs(g - e) / (abs(e) if name == "log_z" else max(abs(e), 1)))
                    assert err < 1e-10, (name, rho, n, err)
            checked += 1
        assert checked

    def test_no_overflow_near_both_bounds(self):
        for p in (0.2, 0.4, 0.5, 0.7):
            lo = rho_bounds(p).lower
            for rho in (lo + 1e-8, 1.0 - 1e-8):
                prm = calibrate(ModelConfig(n_credits=100, p=p, rho=rho))
                assert math.isfinite(prm.log_z)


class TestConditionalProbs:
    def test_examples(self):
        assert conditional_probs(ModelConfig(100, 0.4, 0.0)) == pytest.approx(
            (0.4, 0.4), abs=1e-12
        )
        assert conditional_probs(ModelConfig(100, 0.4, -0.5)) == pytest.approx(
            (0.6, 0.1), abs=1e-12
        )
        assert conditional_probs(ModelConfig(100, 0.4, 0.26)) == pytest.approx(
            (0.296, 0.556), abs=1e-12
        )

    @given(p=st.floats(0.02, 0.98), t=st.floats(0.01, 0.99))
    def test_total_probability_mixture(self, p, t):
        cfg = ModelConfig(n_credits=4, p=p, rho=rho_at(p, t))
        c0, c1 = conditional_probs(cfg)
        assert 0.0 < c0 < 1.0 and 0.0 < c1 < 1.0
        assert (1.0 - p) * c0 + p * c1 == pytest.approx(p, abs=1e-15)
