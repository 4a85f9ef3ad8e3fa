"""Verification engines for the star model.

Three routes, each sharing some inputs with the closed forms it checks:

* exhaustive enumeration of all 2^(N+1) joint states (small N) takes theta
  and log Z from calibrate(), the function it checks; the state sum itself is
  its own, so a total mass of 1 checks log Z, the moments check that theta
  gives E[L0] = E[Li] = p and E[L0*Li] = q, and the brute-force pmf checks
  loss_pmf's two-binomial expansion from outside the kernel's inputs, since
  loss_pmf reads neither theta nor log Z;
* conditional Monte Carlo sampling of (L0, loss) pairs draws at the
  conditional_probs() rates that loss_pmf also uses, so comparing draws with
  loss_pmf checks the branch weights and the log-space kernel, not the rates;
* a plain Newton maximum-entropy fit starts from calibrate() with alpha0
  shifted by 0.5, but its answer is fixed by the moment constraints alone,
  and one brute-force state sum per parameter vector gives the moments, their
  covariance and log Z, so it recovers theta and log Z independently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core_model import (
    _MAX_LENGTH,
    AdmissibilityError,
    CalibratedParams,
    ModelConfig,
    calibrate,
    conditional_probs,
    rho_bounds,
)

# 2^(N+1) states.  At the cap one enumeration takes ~30 ms with its 5.2 MB
# state table built and ~8 ms with it cached (one core, numpy 2.4.6); one
# table is cached per N, all of them together under 10.5 MB.
MAX_ENUM_N = 16

# Recorded in sampler output manifests; the seed fully determines the stream.
GENERATOR_NAME = "numpy.random.Generator(PCG64)"

# The rows of a table's block: the sampler draws them and `pmf` slices them
# this many at a time, and both writers format a block at once, so neither
# memory grows with the row count.  A block's byte matrix takes at most 44
# bytes per float cell and 20 per int64 cell, separator included, and each
# uint64 temporary of `_text`'s float kernel 128 KB.  Written through the
# CLI, the 10**6-row pmf peaks at 5.0 MB traced as CSV and 4.6 MB as JSON,
# and 10**6 draws at 1.0 MB as CSV; 65536-row blocks took 20.5 MB for the
# pmf as CSV and were slower.
BLOCK_ROWS = 16384


@functools.cache
def _state_table(n: int) -> np.ndarray:
    """Statistics of all 2^(n+1) joint states as a read-only (5, states) array.

    The rows are l0, sum(li), l0*sum(li), l1 and l2.  The states run over the
    2^n leaf codes (bit i of a code is l(i+1)) with l0 = 0, then with l0 = 1.
    One table is kept per N, so repeated calls at any N build it once.
    Every state sweep builds its table here, so this is where N is bounded.
    """
    if not 2 <= n <= MAX_ENUM_N:
        raise AdmissibilityError(f"n_credits={n} must be >= 2 and within the "
                                 f"enumeration cap {MAX_ENUM_N}")
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


@dataclass(frozen=True, eq=False)
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
        moments=tuple(float(np.einsum("i,i->", w, x)) for x in (l0, l1, l0 * l1, l1 * l2)),
        loss_pmf_bf=pmf,
        total_mass=math.fsum(w.tolist()),
    )


def sampler(cfg: ModelConfig, count: int, seed: int):
    """Check every input of `sample(cfg, count, seed)` now and return
    `blocks(names)`, the block source of the table (draw_index, l0, loss).

    Each call of `blocks` yields the rows again, in blocks of BLOCK_ROWS: a
    list of int64 arrays, one per name asked for, in that order, from
    `draw_index` (the row number), `l0` and `loss`.  A call draws only what
    its columns need: `draw_index` alone nothing, `l0` no loss.  The l0 and
    loss blocks, stacked, are `sample`'s array.  The checks run here, not in
    `blocks`, whose body runs only when its first block is asked for, so a
    caller can refuse bad input before it writes.  `cfg` has checked N, so
    only `count`, to the same _MAX_LENGTH, and the seed are checked here.

    `sample` once drew its l0 column with `random(count)` and then its losses
    with one `binomial` call on the same PCG64 stream.  `random` takes one
    64-bit word a double, so the losses start `count` words in: here a second
    PCG64 on the seed, advanced by `count`, draws them block by block
    (O'Neill 2014, "PCG: a family of simple fast space-efficient
    statistically good algorithms").  So a call that asks for `loss` alone
    still draws the same losses, and one that asks for `l0` alone stops
    short of them.  The split rests on numpy's word use; a test pins it
    against the one-call form.
    """
    if not isinstance(count, (int, np.integer)) or not 1 <= count <= _MAX_LENGTH:
        raise AdmissibilityError(f"count={count!r} must be an integer in [1, {_MAX_LENGTH}]")
    rates = np.array(conditional_probs(cfg))  # given L0 = 0, given L0 = 1
    seeds = np.random.SeedSequence(seed)  # refuses a negative seed

    def blocks(names):
        uniform = np.random.Generator(np.random.PCG64(seeds))
        binomial = np.random.Generator(np.random.PCG64(seeds).advance(count))
        for start in range(0, count, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, count)
            cells = {}
            if "draw_index" in names:
                cells["draw_index"] = np.arange(start, stop)
            if "l0" in names or "loss" in names:
                cells["l0"] = l0 = np.less(uniform.random(stop - start),
                                           cfg.p).astype(np.int64)
            if "loss" in names:
                cells["loss"] = binomial.binomial(cfg.n_credits, rates.take(l0))
            yield [cells[name] for name in names]

    return blocks


def sample(cfg: ModelConfig, count: int, seed: int) -> np.ndarray:
    """Draw (l0, loss) pairs by the conditional factorization of the joint law.

    L0 ~ Bernoulli(p); given L0, the N leaves are i.i.d. Bernoulli at the
    matching conditional rate, so the loss is drawn as a single Binomial per
    row.  Returns an int64 array of shape (count, 2); the seed fully
    determines the output (generator: GENERATOR_NAME).  The rows are the
    (l0, loss) blocks of `sampler(cfg, count, seed)`, stacked, so only the
    result grows with `count`.
    """
    blocks = sampler(cfg, count, seed)
    out = np.empty((count, 2), np.int64)
    for start, cols in zip(range(0, count, BLOCK_ROWS), blocks(("l0", "loss"))):
        np.stack(cols, axis=1, out=out[start:start + BLOCK_ROWS])
    return out


# --- maximum-entropy fit -----------------------------------------------------
#
# theta = (alpha0, alpha, beta) multiplies the pooled sufficient statistics
# t(x) = (l0, sum(li), l0*sum(li)).  The textbook exponential-family statement
# uses exp(-sum(lambda_k f_k)); this module standardizes on the + convention,
# so those multipliers are lambda = -theta.  The moment match, not the sign,
# is the invariant.

# The fit succeeds once the moment residual norm is below _FIT_TOL and fails
# after _FIT_MAX_STEPS Newton steps; none of 54,523 seeded fits took over 5.
_FIT_TOL = 1e-10
_FIT_MAX_STEPS = 200


def maxent_sweep(theta, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """E_theta[t(x)], the covariance of t(x) and log Z(theta), from one state sweep.

    t(x) = (l0, sum(li), l0*sum(li)); log Z sums exp(theta . t(x)) over all
    2^(n+1) states, and the moments are its analytic gradient.  np.einsum,
    not a BLAS product, forms E[t] and E[t t^T], so no BLAS thread count
    changes their bits; the covariance is E[t t^T] - E[t] E[t]^T.
    """
    table, w, m = _state_weights(theta, n)
    total = w.sum()
    w /= total
    t = table[:3]
    mean = np.einsum("ij,j->i", t, w)
    cov = np.einsum("ij,kj->ik", t * w, t) - np.outer(mean, mean)
    return mean, cov, float(m + np.log(total))


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


def maxent_fit_small(p: float, q: float, n: int) -> MaxEntFit:
    """Solve the 3-parameter symmetric maximum-entropy problem numerically.

    Finds theta = (alpha0, alpha, beta) such that the enumerated distribution
    matches E[L0] = p, E[Li] = p (pooled over the exchangeable leaves), and
    E[L0*Li] = q (pooled), by plain Newton iteration on the moment residuals
    with the exact covariance of the sufficient statistics as Jacobian; one
    state sweep per theta gives its moments, covariance and log Z.  N is
    bounded by the state table's MAX_ENUM_N.

    Runs once, from the closed form with alpha0 shifted by 0.5: off the
    answer, yet close enough that every full step tried reduced the residual,
    at every N, p and rho tried, including the lower rho bound at N = 9 where
    starts that also shift alpha and beta, or start from zeros, stall.  A
    singular covariance, a step that does not reduce the residual norm or
    running out of steps raises MaxEntConvergenceError with the final norm.
    """
    rho_bounds(p)  # a bad p is reported before q
    if not 0.0 < q < p:
        raise AdmissibilityError(f"q={q!r} must lie strictly inside (0, p={p!r})")
    cfg = ModelConfig(n_credits=n, p=p, rho=(q - p * p) / (p * (1.0 - p)))
    target = np.array([p, n * p, n * q])
    closed = calibrate(cfg)
    theta = np.array([closed.alpha0 + 0.5, closed.alpha, closed.beta])
    moments, cov, log_z = maxent_sweep(theta, n)
    norm = float(np.linalg.norm(moments - target))
    for _ in range(_FIT_MAX_STEPS):
        if norm < _FIT_TOL:
            break
        try:
            cand = theta + np.linalg.solve(cov, target - moments)
        except np.linalg.LinAlgError:
            break
        swept = maxent_sweep(cand, n)
        cand_norm = float(np.linalg.norm(swept[0] - target))
        if not cand_norm < norm:
            break  # the full step does not reduce the residual
        theta, norm, (moments, cov, log_z) = cand, cand_norm, swept
    if norm < _FIT_TOL:
        a0, a, b = (float(v) for v in theta)
        matched = CalibratedParams(alpha=a, alpha0=a0, beta=b, log_z=log_z)
        return MaxEntFit(lagrange=(a0, a, b), residual_norm=norm,
                         matched_params=matched)
    raise MaxEntConvergenceError(
        f"moment-matching Newton failed to converge for p={p!r}, q={q!r}, n={n} "
        f"(final residual norm {norm:.3e})", residual_norm=norm)
