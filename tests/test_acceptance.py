"""Acceptance gate: one test per top-level criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Criterion 6 checks the detected mode jump against the model's exact
transition: the test bisects the argmax of the scipy-only binomial-mixture
oracle (`conftest.oracle_mixture_pmf`) for the rho at which the mode leaves the
low branch (rho* = -0.45873 at p=0.4, N=100), and requires the detected grid
bracket to contain it and the reported midpoint to lie within half a grid step
(0.00416) of it.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from dandelion_risk import (
    AdmissibilityError,
    ModelConfig,
    calibrate,
    enumerate_model,
    loss_moments,
    loss_pmf,
    maxent_fit_small,
    maxent_sweep,
    peak_indices,
    rho_bounds,
    rho_noncentral,
    sample,
    scan_rho,
)

from conftest import lower_bound, oracle_mixture_pmf, rho_at


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {status}{suffix}")


def test_criterion_01_binomial_limit():
    start = time.perf_counter()
    pmf = loss_pmf(ModelConfig(n_credits=100, p=0.4, rho=0.0))
    err = float(np.abs(pmf.mass - stats.binom.pmf(np.arange(101), 100, 0.4)).max())
    elapsed = time.perf_counter() - start
    ok = err < 1e-12 and elapsed < 1.0
    _report(1, "binomial limit at rho=0", ok, f"max err {err:.2e}, {elapsed:.3f}s")
    assert err < 1e-12
    assert elapsed < 1.0


def test_criterion_02_admissible_interval():
    bounds = rho_bounds(0.4)
    lower_exact = abs(Fraction(bounds.lower) - Fraction(-2, 3)) < Fraction(1, 10**15)
    upper_exact = bounds.upper == 1.0

    just_inside = calibrate(ModelConfig(100, 0.4, -2.0 / 3.0 + 1e-9))
    finite = all(
        math.isfinite(v)
        for v in (just_inside.alpha, just_inside.alpha0, just_inside.beta,
                  just_inside.log_z)
    )
    with pytest.raises(AdmissibilityError):
        ModelConfig(100, 0.4, -2.0 / 3.0 - 1e-9)
    with pytest.raises(AdmissibilityError):
        ModelConfig(100, 0.4, bounds.lower + 1e-11)  # inside eps_bound

    ok = lower_exact and upper_exact and finite
    _report(2, "open interval (-2/3, 1) and boundary behaviour", ok)
    assert lower_exact and upper_exact and finite


def test_criterion_03_leaf_correlation_is_rho_squared():
    start = time.perf_counter()
    lo = rho_bounds(0.4).lower
    worst = 0.0
    for rho in np.linspace(lo + 1e-3, 1.0 - 1e-3, 101):
        cfg = ModelConfig(n_credits=10, p=0.4, rho=float(rho))
        worst = max(worst, abs(rho_noncentral(cfg) - rho * rho))

    worst_bf = 0.0
    for rho in (-0.5, -0.26, 0.26, 0.5):
        rep = enumerate_model(ModelConfig(n_credits=6, p=0.4, rho=rho))
        bf = (rep.moments[3] - 0.16) / 0.24
        worst_bf = max(worst_bf, abs(bf - rho * rho))
    elapsed = time.perf_counter() - start

    ok = worst < 1e-12 and worst_bf < 1e-10 and elapsed < 10.0
    _report(3, "leaf correlation equals rho^2", ok,
            f"grid err {worst:.2e}, brute-force err {worst_bf:.2e}")
    assert worst < 1e-12
    assert worst_bf < 1e-10
    assert elapsed < 10.0


def test_criterion_04_negative_rho_leaf_range():
    rng = np.random.default_rng(2026)
    lo = rho_bounds(0.4).lower
    values = [
        rho_noncentral(ModelConfig(10, 0.4, float(r)))
        for r in rng.uniform(lo + 1e-4, -1e-4, size=200)
    ]
    ok = all(0.0 < v < 4.0 / 9.0 for v in values)
    _report(4, "leaf correlation in (0, 4/9) for negative rho", ok,
            f"range [{min(values):.3e}, {max(values):.6f}]")
    assert ok


def test_criterion_05_two_peak_structure():
    # halves of the support {0..N}: lower [0, N/2), upper [N/2, N]
    pos = loss_pmf(ModelConfig(100, 0.4, 0.26))
    pos_peaks = peak_indices(pos.mass)
    pos_argmax = int(np.argmax(pos.mass))

    neg = loss_pmf(ModelConfig(100, 0.4, -0.26))
    neg_peaks = peak_indices(neg.mass)
    neg_argmax = int(np.argmax(neg.mass))

    ok = (
        len(pos_peaks) == 2
        and pos_argmax < 50
        and len(neg_peaks) == 2
        and neg_argmax >= 50
    )
    _report(5, "two peaks, dominant side flips with sign of rho", ok,
            f"+0.26 peaks {pos_peaks} argmax {pos_argmax}; "
            f"-0.26 peaks {neg_peaks} argmax {neg_argmax}")
    assert len(pos_peaks) == 2 and len(neg_peaks) == 2
    assert pos_argmax < 50
    assert neg_argmax >= 50


def _exact_mode_switch(p: float, n: int, lo: float, hi: float) -> float:
    """Bisect for the rho at which the oracle's mode leaves the low branch.

    For rho < 0 the branch rates straddle p, so a mode below n*p sits on the
    low branch; the mode is there at lo and not at hi.
    """

    def on_low_branch(rho: float) -> bool:
        return int(np.argmax(oracle_mixture_pmf(p, rho, n))) < n * p

    assert on_low_branch(lo) and not on_low_branch(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if on_low_branch(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_mode_jump_transition():
    start = time.perf_counter()
    res = scan_rho(0.4, 100)
    elapsed = time.perf_counter() - start

    modes = [r.mode for r in res.reports]
    grid = res.rho_grid
    k = int(np.argmax(np.abs(np.diff(modes))))
    post_jump_mode = int(modes[k + 1])
    mode_at_zero = int(modes[int(np.argmin(np.abs(grid)))])
    mode_at_margin = int(modes[0])

    # reference: the oracle's exact switch, bracketed by the grid's lower end
    # (mode <= 2) and rho=-0.26 (mode above N*p, criterion 5)
    exact = _exact_mode_switch(0.4, 100, lower_bound(0.4) + 1e-3, -0.26)
    half_step = 0.5 * float(grid[1] - grid[0])
    exact_ok = abs(exact - (-0.45873)) <= 1e-5
    bracketed = bool(grid[k] < exact < grid[k + 1])
    near_exact = res.rho_star is not None and abs(res.rho_star - exact) <= half_step
    star = "none" if res.rho_star is None else f"{res.rho_star:.6f}"

    ok = (
        exact_ok
        and bracketed
        and near_exact
        and 55 <= post_jump_mode <= 65
        and mode_at_zero == 40
        and mode_at_margin <= 2
        and elapsed < 30.0
    )
    _report(6, "mode-jump transition", ok,
            f"rho_star {star}, exact {exact:.7f}, bracket "
            f"[{grid[k]:.6f}, {grid[k + 1]:.6f}], post-jump mode {post_jump_mode}, "
            f"mode@0 {mode_at_zero}, mode@margin {mode_at_margin}, {elapsed:.2f}s")
    assert 55 <= post_jump_mode <= 65
    assert mode_at_zero == 40
    assert mode_at_margin <= 2
    assert elapsed < 30.0
    assert exact_ok, f"oracle switch {exact:.7f} differs from -0.45873 by more than 1e-5"
    assert bracketed, (
        f"detected bracket [{grid[k]:.6f}, {grid[k + 1]:.6f}] does not contain "
        f"the oracle's exact mode switch {exact:.7f}"
    )
    assert near_exact, (
        f"detected rho_star={star} is not within half a grid step "
        f"({half_step:.5f}) of the oracle's exact mode switch {exact:.7f}"
    )


def test_criterion_07_mode_probability_shape():
    res = scan_rho(0.4, 100)
    prob = np.array([r.mode_prob for r in res.reports])
    grid = res.rho_grid

    def at(x):
        return prob[int(np.argmin(np.abs(grid - x)))]

    ok = at(0.0) > at(-0.2) and at(0.9) > at(0.5)
    _report(7, "mode probability high at extremes and near zero", ok,
            f"p(0)={at(0.0):.4f} p(-0.2)={at(-0.2):.4f} "
            f"p(0.9)={at(0.9):.4f} p(0.5)={at(0.5):.4f}")
    assert at(0.0) > at(-0.2)
    assert at(0.9) > at(0.5)


def test_criterion_08_maxent_fit_matches_closed_form():
    worst_param = 0.0
    for rho in (-0.5, 0.0, 0.26):
        q = ModelConfig(8, 0.4, rho).q if rho != 0.0 else 0.16
        fit = maxent_fit_small(0.4, q, 8)
        closed = calibrate(ModelConfig(8, 0.4, rho))
        worst_param = max(
            worst_param,
            abs(fit.matched_params.alpha - closed.alpha),
            abs(fit.matched_params.alpha0 - closed.alpha0),
            abs(fit.matched_params.beta - closed.beta),
        )

    theta = np.array([-4.0, 0.9, -1.1])
    analytic = maxent_sweep(theta, 8)[0]
    h = 1e-6
    worst_grad = 0.0
    for k in range(3):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd = (maxent_sweep(up, 8)[2] - maxent_sweep(dn, 8)[2]) / (2 * h)
        worst_grad = max(worst_grad, abs(fd - analytic[k]) / abs(analytic[k]))

    ok = worst_param < 1e-6 and worst_grad < 1e-5
    _report(8, "maxent fit recovers closed form", ok,
            f"param err {worst_param:.2e}, grad rel err {worst_grad:.2e}")
    assert worst_param < 1e-6
    assert worst_grad < 1e-5


def test_criterion_09_sampler_consistency():
    start = time.perf_counter()
    cfg = ModelConfig(n_credits=100, p=0.4, rho=-0.26)
    draws = sample(cfg, 10**6, seed=42)
    empirical = np.bincount(draws[:, 1], minlength=101) / 1e6
    tv = float(0.5 * np.abs(empirical - loss_pmf(cfg).mass).sum())
    mean_l0 = float(draws[:, 0].mean())
    four_sigma = 4.0 * math.sqrt(0.4 * 0.6 / 1e6)
    elapsed = time.perf_counter() - start

    ok = tv < 0.005 and abs(mean_l0 - 0.4) < four_sigma and elapsed < 60.0
    _report(9, "sampler total variation and marginal", ok,
            f"TV {tv:.5f}, |E[l0]-p| {abs(mean_l0 - 0.4):.2e} "
            f"(4-sigma {four_sigma:.2e}), {elapsed:.1f}s")
    assert tv < 0.005
    assert abs(mean_l0 - 0.4) < four_sigma
    assert elapsed < 60.0


def test_criterion_10_moment_identities():
    worst_mean = worst_var = 0.0
    checked = 0
    for p in (0.15, 0.3, 0.4, 0.5, 0.7):
        for t in (0.08, 0.3, 0.5, 0.7, 0.92):
            for n in (6, 100):
                rho = rho_at(p, t)
                cfg = ModelConfig(n_credits=n, p=p, rho=rho)
                pmf = loss_pmf(cfg)
                mean, var = loss_moments(pmf)
                worst_mean = max(worst_mean, abs(mean - n * p))
                worst_var = max(
                    worst_var,
                    abs(var - n * p * (1 - p) * (1 + (n - 1) * rho * rho)),
                )
                if n <= 10:
                    bf = enumerate_model(cfg).loss_pmf_bf
                    l = np.arange(n + 1)
                    bf_mean = float(l @ bf)
                    bf_var = float((l * l) @ bf - bf_mean**2)
                    worst_mean = max(worst_mean, abs(mean - bf_mean))
                    worst_var = max(worst_var, abs(var - bf_var))
                checked += 1

    ok = checked == 50 and worst_mean < 1e-9 and worst_var < 1e-8
    _report(10, "moment identities across 50 configurations", ok,
            f"mean err {worst_mean:.2e}, variance err {worst_var:.2e}")
    assert checked == 50
    assert worst_mean < 1e-9
    assert worst_var < 1e-8
