"""Verification engines for the star model.

Three routes, each sharing some inputs with the closed forms it checks:

* exhaustive enumeration of all 2^(N+1) joint states (small N) takes theta
  and log Z from calibrate(), the function it checks; the state sum itself is
  its own, so a total mass of 1 checks log Z, the moments check that theta
  gives E[L0] = E[Li] = p and E[L0*Li] = q, and the brute-force pmf checks
  loss_pmf's two-binomial expansion;
* conditional Monte Carlo sampling of (L0, loss) pairs draws at the
  conditional_probs() rates that loss_pmf also uses, so comparing draws with
  loss_pmf checks the branch weights and the log-space kernel, not the rates;
* a damped-Newton maximum-entropy fit starts from a perturbed calibrate()
  (or from zeros), but its answer is fixed by the moment constraints alone,
  with the partition function and its derivatives obtained by brute-force
  state sums, so it recovers theta and log Z independently.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=1)
def _state_table(n: int) -> np.ndarray:
    """Statistics of all 2^(n+1) joint states as a read-only (5, states) array.

    The rows are l0, sum(li), l0*sum(li), l1 and l2.  The states run over the
    2^n leaf codes (bit i of a code is l(i+1)) with l0 = 0, then with l0 = 1.
    Only the last table is kept, so repeated calls at one N build it once.
    Every state sweep builds its table here, so this is where N is capped.
    """
    if n > MAX_ENUM_N:
        raise AdmissibilityError(f"n_credits={n} exceeds the enumeration cap "
                                 f"{MAX_ENUM_N}")
    codes = np.arange(2**n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    leaves = np.array([bits.sum(axis=1), bits[:, 0], bits[:, 1]], dtype=np.float64)
    k, l1, l2 = np.tile(leaves, 2)
    l0 = np.repeat([0.0, 1.0], codes.size)
    table = np.array([l0, k, l0 * k, l1, l2])
    table.flags.writeable = False
    return table


def _state_weights(theta, n: int, shift=None) -> tuple[np.ndarray, np.ndarray, float]:
    """The state table, exp(theta . t(x) - shift) for every state, and the shift.

    t(x) = (l0, sum(li), l0*sum(li)) is the table's first three rows.  The
    shift defaults to the largest exponent, so no weight overflows.
    """
    table = _state_table(n)
    a0, a, b = (float(v) for v in theta)
    exponents = a0 * table[0] + a * table[1] + b * table[2]
    if shift is None:
        shift = exponents.max()
    return table, np.exp(exponents - shift), shift


@dataclass(frozen=True)
class EnumerationReport:
    """Brute-force moments and loss pmf from a full joint-state sweep.

    total_mass sums exp(joint log-probability) over every state using the
    closed-form log partition value, so it directly validates that value:
    it equals 1 only if the two-branch formula for Z is right.
    """

    moments: tuple[float, float, float, float]
    loss_pmf_bf: np.ndarray
    total_mass: float


def enumerate_model(cfg: ModelConfig) -> EnumerationReport:
    """Sweep all 2^(N+1) states of the joint law; N is capped at MAX_ENUM_N.

    Returns exact values of (E[L0], E[L1], E[L0*L1], E[L1*L2]) and the
    brute-force loss pmf, all computed from per-state probabilities.
    """
    n = cfg.n_credits
    params = calibrate(cfg)
    theta = (params.alpha0, params.alpha, params.beta)
    table, w, _ = _state_weights(theta, n, shift=params.log_z)
    l0, k, _, l1, l2 = table
    pmf = np.bincount(k.astype(np.intp), weights=w, minlength=n + 1)
    return EnumerationReport(
        moments=(w @ l0, w @ l1, w @ (l0 * l1), w @ (l1 * l2)),
        loss_pmf_bf=pmf,
        total_mass=math.fsum(w.tolist()),
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


def maxent_log_partition(theta, n: int) -> float:
    """log Z(theta) by summing exp(theta . t(x)) over all 2^(n+1) states."""
    _, w, m = _state_weights(theta, n)
    return float(m + np.log(w.sum()))


def maxent_moments(theta, n: int) -> np.ndarray:
    """E_theta[t(x)] = (E[L0], E[sum Li], E[L0 sum Li]) by state enumeration.

    These expectations are the analytic gradient of log Z(theta).
    """
    table, w, _ = _state_weights(theta, n)
    w /= w.sum()
    # One dot per statistic: table[:3] @ w sums in another order and moves the
    # fit ~1e-12.
    return np.array([w @ row for row in table[:3]])


def _maxent_covariance(theta, n: int) -> np.ndarray:
    table, w, _ = _state_weights(theta, n)
    t = table[:3]
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

    Runs from `init` when it is given.  Otherwise it runs from a deliberately
    perturbed closed form and, if that fails, from all zeros: neither start
    converges everywhere alone (the first stalls near the lower rho bound at
    N = 9, p ~ 0.497 or 0.499; the second at some interior points near
    p = 0.2).  A run fails on a singular covariance, a stalled line search or
    max_iters; if every run fails, raises MaxEntConvergenceError with the
    smallest final residual norm.
    """
    if n > MAX_FIT_N:
        raise AdmissibilityError(f"n={n} exceeds the fit cap {MAX_FIT_N}")
    cfg = ModelConfig(n_credits=n, p=p, rho=q_to_rho(p, q))  # admissibility gate
    target = np.array([p, n * p, n * q])

    if init is not None:
        starts = [init]
    else:
        closed = calibrate(cfg)
        starts = [[closed.alpha0 + 0.5, closed.alpha - 0.5, closed.beta + 0.5],
                  np.zeros(3)]

    best_norm = math.inf
    for start in starts:
        theta = np.array(start, dtype=np.float64)
        resid = maxent_moments(theta, n) - target
        norm = float(np.linalg.norm(resid))
        for _ in range(max_iters):
            if norm < tol:
                break
            try:
                step = np.linalg.solve(_maxent_covariance(theta, n), -resid)
            except np.linalg.LinAlgError:
                break
            lam = 1.0
            for _ in range(30):
                cand = theta + lam * step
                cand_resid = maxent_moments(cand, n) - target
                cand_norm = float(np.linalg.norm(cand_resid))
                if cand_norm < norm:
                    break
                lam *= 0.5
            else:
                break  # step no longer reduces the residual
            theta, resid, norm = cand, cand_resid, cand_norm
        if norm < tol:
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
