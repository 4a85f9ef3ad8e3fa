"""Independent verification engines for the star model.

Three routes that do not share code with the closed forms they check:

* exhaustive enumeration of all 2^(N+1) joint states (small N),
* conditional Monte Carlo sampling of (L0, loss) pairs,
* a damped-Newton maximum-entropy fit that recovers the natural parameters
  from the moment constraints alone, with the partition function and its
  derivatives obtained by brute-force state sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import (
    AdmissibilityError,
    CalibratedParams,
    ModelConfig,
    calibrate,
    conditional_probs,
    q_to_rho,
)

# 2^(N+1) states; the cap keeps enumeration comfortably under a second.
MAX_ENUM_N = 16
MAX_FIT_N = 10

# Recorded in sampler output manifests; the seed fully determines the stream.
GENERATOR_NAME = "numpy.random.Generator(PCG64)"


def _bit_matrix(n: int) -> np.ndarray:
    """All 2^n bit vectors as a (2^n, n) 0/1 matrix, row index = binary code."""
    codes = np.arange(2**n, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.float64)


@dataclass(frozen=True)
class EnumerationReport:
    """Brute-force moments and loss pmf from a full joint-state sweep.

    total_mass sums exp(joint log-probability) over every state using the
    closed-form log partition value, so it directly validates that value:
    it equals 1 only if the two-branch formula for Z is right.
    """

    n: int
    moments: tuple[float, float, float, float]
    loss_pmf_bf: np.ndarray
    total_mass: float


def enumerate_model(cfg: ModelConfig) -> EnumerationReport:
    """Sweep all 2^(N+1) states of the joint law; N is capped at MAX_ENUM_N.

    Returns exact values of (E[L0], E[L1], E[L0*L1], E[L1*L2]) and the
    brute-force loss pmf, all computed from per-state probabilities.
    """
    n = cfg.n_credits
    if n > MAX_ENUM_N:
        raise AdmissibilityError(
            f"n_credits={n} exceeds the enumeration cap {MAX_ENUM_N}"
        )
    params = calibrate(cfg)
    bits = _bit_matrix(n)
    k = bits.sum(axis=1)

    pmf = np.zeros(n + 1)
    moments = np.zeros(4)  # E[L0], E[L1], E[L0*L1], E[L1*L2]
    chunks = []
    for l0 in (0, 1):
        logw = (
            params.alpha0 * l0
            + params.alpha * k
            + params.beta * l0 * k
            - params.log_z
        )
        w = np.exp(logw)
        chunks.append(w)
        pmf += np.bincount(k.astype(np.intp), weights=w, minlength=n + 1)
        moments[0] += l0 * w.sum()
        moments[1] += w @ bits[:, 0]
        moments[2] += l0 * (w @ bits[:, 0])
        moments[3] += w @ (bits[:, 0] * bits[:, 1])
    total = math.fsum(float(x) for chunk in chunks for x in chunk)
    return EnumerationReport(
        n=n,
        moments=tuple(moments),
        loss_pmf_bf=pmf,
        total_mass=total,
    )


def sample(cfg: ModelConfig, count: int, seed: int) -> np.ndarray:
    """Draw (l0, loss) pairs by the conditional factorization of the joint law.

    L0 ~ Bernoulli(p); given L0, the N leaves are i.i.d. Bernoulli at the
    matching conditional rate, so the loss is drawn as a single Binomial per
    row.  Returns an int64 array of shape (count, 2); the seed fully
    determines the output (generator: GENERATOR_NAME).
    """
    if count < 1:
        raise AdmissibilityError(f"count={count!r} must be >= 1")
    rate_given_sound, rate_given_default = conditional_probs(cfg)
    rng = np.random.default_rng(seed)
    l0 = (rng.random(count) < cfg.p).astype(np.int64)
    rates = np.where(l0 == 1, rate_given_default, rate_given_sound)
    loss = rng.binomial(cfg.n_credits, rates).astype(np.int64)
    return np.column_stack([l0, loss])


# --- maximum-entropy fit -----------------------------------------------------
#
# theta = (alpha0, alpha, beta) multiplies the pooled sufficient statistics
# t(x) = (l0, sum(li), l0*sum(li)).  The textbook exponential-family statement
# uses exp(-sum(lambda_k f_k)); this module standardizes on the + convention,
# so those multipliers are lambda = -theta.  The moment match, not the sign,
# is the invariant.


def _maxent_states(theta, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """t(x) for all 2^(n+1) states as a (3, states) matrix, exp(theta . t(x) - m), m.

    The states run over the 2^n leaf codes with l0 = 0, then with l0 = 1; the
    shift m is the largest exponent, so no weight overflows.
    """
    a0, a, b = (float(v) for v in theta)
    k = _bit_matrix(n).sum(axis=1)
    exponents = np.concatenate([a * k, a0 + (a + b) * k])
    m = exponents.max()
    l0 = np.concatenate([np.zeros_like(k), np.ones_like(k)])
    kk = np.concatenate([k, k])
    return np.stack([l0, kk, l0 * kk]), np.exp(exponents - m), m


def maxent_log_partition(theta, n: int) -> float:
    """log Z(theta) by summing exp(theta . t(x)) over all 2^(n+1) states."""
    _, w, m = _maxent_states(theta, n)
    return float(m + np.log(w.sum()))


def maxent_moments(theta, n: int) -> np.ndarray:
    """E_theta[t(x)] = (E[L0], E[sum Li], E[L0 sum Li]) by state enumeration.

    These expectations are the analytic gradient of log Z(theta).
    """
    t, w, _ = _maxent_states(theta, n)
    w /= w.sum()
    # One dot per statistic: t @ w sums in another order and moves the fit ~1e-12.
    return np.array([w @ row for row in t])


def _maxent_covariance(theta, n: int) -> np.ndarray:
    t, w, _ = _maxent_states(theta, n)
    w /= w.sum()
    mean = t @ w
    return (t * w) @ t.T - np.outer(mean, mean)


@dataclass(frozen=True)
class MaxEntFit:
    """Converged moment-matching fit.

    lagrange holds (alpha0, alpha, beta) in the + sign convention (negate for
    the exp(-sum lambda f) form); matched_params packages them with the
    enumerated log-partition value for direct comparison with calibrate().
    """

    lagrange: tuple[float, float, float]
    residual_norm: float
    matched_params: CalibratedParams


class MaxEntConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(message)
        self.residual_norm = residual_norm


def _newton(theta0: np.ndarray, target: np.ndarray, n: int, tol: float,
            max_iters: int) -> tuple[np.ndarray, float, bool]:
    theta = theta0.astype(np.float64).copy()
    resid = maxent_moments(theta, n) - target
    norm = float(np.linalg.norm(resid))
    for _ in range(max_iters):
        if norm < tol:
            return theta, norm, True
        try:
            step = np.linalg.solve(_maxent_covariance(theta, n), -resid)
        except np.linalg.LinAlgError:
            return theta, norm, False
        lam = 1.0
        for _ in range(30):
            cand = theta + lam * step
            cand_resid = maxent_moments(cand, n) - target
            cand_norm = float(np.linalg.norm(cand_resid))
            if cand_norm < norm:
                break
            lam *= 0.5
        else:
            return theta, norm, False  # step no longer reduces the residual
        theta, resid, norm = cand, cand_resid, cand_norm
    return theta, norm, norm < tol


def maxent_fit_small(
    p: float,
    q: float,
    n: int,
    init=None,
    tol: float = 1e-10,
    max_iters: int = 200,
) -> MaxEntFit:
    """Solve the 3-parameter symmetric maximum-entropy problem numerically.

    Finds theta = (alpha0, alpha, beta) such that the enumerated distribution
    matches E[L0] = p, E[Li] = p (pooled over the exchangeable leaves), and
    E[L0*Li] = q (pooled), by damped Newton iteration on the moment residuals
    with the exact covariance of the sufficient statistics as Jacobian.

    Defaults start from a deliberately perturbed closed form and fall back to
    an all-zeros start; raises MaxEntConvergenceError with the final residual
    norm if neither run converges.
    """
    if n > MAX_FIT_N:
        raise AdmissibilityError(f"n={n} exceeds the fit cap {MAX_FIT_N}")
    cfg = ModelConfig(n_credits=n, p=p, rho=q_to_rho(p, q))  # admissibility gate
    target = np.array([p, n * p, n * q])

    if init is not None:
        starts = [np.asarray(init, dtype=np.float64)]
    else:
        closed = calibrate(cfg)
        perturbed = np.array([closed.alpha0, closed.alpha, closed.beta]) + np.array(
            [0.5, -0.5, 0.5]
        )
        starts = [perturbed, np.zeros(3)]

    best_norm = math.inf
    for theta0 in starts:
        theta, norm, ok = _newton(theta0, target, n, tol, max_iters)
        if ok:
            a0, a, b = (float(v) for v in theta)
            matched = CalibratedParams(
                alpha=a,
                alpha0=a0,
                beta=b,
                log_z=maxent_log_partition(theta, n),
                n_credits=n,
            )
            return MaxEntFit(
                lagrange=(a0, a, b), residual_norm=norm, matched_params=matched
            )
        best_norm = min(best_norm, norm)
    raise MaxEntConvergenceError(
        f"moment-matching Newton failed to converge for p={p!r}, q={q!r}, n={n} "
        f"(best residual norm {best_norm:.3e})",
        residual_norm=best_norm,
    )
