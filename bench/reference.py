"""Independent correctness reference for the benchmark (numpy and scipy only).

Conditioning on the central node makes the N leaves i.i.d., so the loss is a
two-branch binomial mixture: weight 1-p at rate (p-q)/(1-p) and weight p at
rate q/p, with q = rho*p*(1-p) + p**2.  This module evaluates that mixture in
log space with ``scipy.stats.binom.logpmf`` and derives every checked quantity
from it.  It never imports the package under test.

Stated tolerances:

* log-mass: |log_mass - ref| <= log_tol(N) + dq * |d ref / dq| entry by entry,
  with log_tol(N) = 1e-13 * (N + 1) + 1e-12 and dq four roundings of q (see
  ``Mixture.log_tol``).  The log-binomial coefficients of both routes lose
  about N*eps to cancellation in log-gamma.  Over the benchmark's input
  ranges (N up to 10**6, rho within 1e-6 of either bound) the largest
  difference seen was 0.09 of this tolerance away from the bounds and 0.27
  of it next to them.
* linear mass and mode probability: relative error <= twice the log-mass
  tolerance, or an absolute error below 1e-300 where the value underflows.
* mean and variance against N*p and N*p*(1-p)*(1 + (N-1)*rho**2): a pmf whose
  entries each carry relative error eps (twice the largest log-mass
  tolerance) can move E[L] by eps*E[L] and Var[L] by 3*eps*E[L**2]; those are
  the bounds, plus 1e-9 absolute.
* mode, VaR and peak locations: exact, except where the reference itself
  cannot decide.  VaR is the smallest l with P(L > l) <= 1 - level,
  evaluated as a right-tail log-sum-exp so that levels such as 1 - 1e-15 are
  decided correctly.  Where two candidates are within the log-mass tolerance
  of a tie (two masses for the mode or a peak, P(L > l) and 1 - level for
  VaR), either answer is accepted.

Known defect: the package takes VaR from a left cumulative sum of linear
masses, whose absolute error (about 1e-14 at N=100, more at larger N) hides
tails such as 1 - 1e-15.  Where the pmf itself passed, a VaR mismatch that
this error explains is labelled with ``KNOWN_DEFECT``; the tolerances above
are not widened by it.

Every check returns a list of human-readable mismatch strings; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import stats
from scipy.special import gammaln


# Prefix of a mismatch that the package's known extreme-level VaR defect
# explains (see ``check_var_known_defect``).  Such mismatches are counted and
# printed apart from failures; every other mismatch is a failed operation.
KNOWN_DEFECT = "known defect: "


def log_tol(n: int) -> float:
    return 1e-13 * (n + 1) + 1e-12


def lower_bound(p: float) -> float:
    return max(-p / (1.0 - p), -(1.0 - p) / p)


@dataclass(frozen=True)
class Mixture:
    """The reference loss law for one (p, rho, N)."""

    p: float
    rho: float
    n: int

    @cached_property
    def _exact(self) -> tuple[Fraction, Fraction, Fraction]:
        # q, r1 = p*(1-rho) and r2 = p + rho*(1-p) in exact rational arithmetic,
        # so that rates within 1e-6 of 0 or 1 keep full relative precision.
        p, rho = Fraction(self.p), Fraction(self.rho)
        return rho * p * (1 - p) + p * p, p * (1 - rho), p + rho * (1 - p)

    @property
    def q(self) -> float:
        return float(self._exact[0])

    @property
    def rates(self) -> tuple[float, float]:
        return float(self._exact[1]), float(self._exact[2])

    def _branch_log_pmf(self, rate: Fraction) -> np.ndarray:
        # Pass scipy the smaller of rate and 1 - rate, each correctly rounded,
        # so that log1p(-rate) never sees a rate next to 1.
        l = np.arange(self.n + 1)
        if rate <= Fraction(1, 2):
            return stats.binom.logpmf(l, self.n, float(rate))
        return stats.binom.logpmf(self.n - l, self.n, float(1 - rate))

    @cached_property
    def log_mass(self) -> np.ndarray:
        _, r1, r2 = self._exact
        return np.logaddexp(
            math.log1p(-self.p) + self._branch_log_pmf(r1),
            math.log(self.p) + self._branch_log_pmf(r2),
        )

    @cached_property
    def log_tol(self) -> np.ndarray:
        """Per-entry log-mass tolerance: log_tol(N) plus the q-rounding term.

        A program that forms q = rho*p*(1-p) + p**2 in floating point carries
        an error of up to dq = 4*eps*(|rho|*p*(1-p) + p**2) in q.  Entry l of
        branch i then moves by dq * |d log b_i[l] / dq|, which is large only
        within ~1e-6 of an admissible bound.  Any answer that is exact for
        some q within dq of the true one is accepted.
        """
        p, n = self.p, self.n
        q, r1, r2 = (float(x) for x in self._exact)
        l = np.arange(n + 1, dtype=np.float64)
        p_minus_q = p * (1.0 - p) * (1.0 - self.rho)
        d1 = np.abs(-l / p_minus_q + (n - l) / ((1.0 - p) * (1.0 - r1)))
        d2 = np.abs(l / q - (n - l) / p_minus_q)
        dq = 4 * np.finfo(float).eps * (abs(self.rho) * p * (1.0 - p) + p * p)
        return log_tol(n) + dq * np.maximum(d1, d2)

    @cached_property
    def log_upper_tail(self) -> np.ndarray:
        """log P(L >= l) for l = 0..N, summed from the right in log space."""
        return np.logaddexp.accumulate(self.log_mass[::-1])[::-1]

    @property
    def mean(self) -> float:
        return self.n * self.p

    @property
    def variance(self) -> float:
        p, n = self.p, self.n
        return n * p * (1.0 - p) * (1.0 + (n - 1) * self.rho**2)

    @property
    def second_moment(self) -> float:
        return self.variance + self.mean**2

    @property
    def pair_moment(self) -> float:
        """E[Li*Lj] for two distinct leaves: (1-p)*r1**2 + p*r2**2."""
        r1, r2 = self.rates
        return (1.0 - self.p) * r1 * r1 + self.p * r2 * r2

    @cached_property
    def _log_tail_beyond(self) -> tuple[np.ndarray, np.ndarray]:
        """log P(L > l) for l = 0..N and its tolerance, the largest log-mass
        tolerance of the entries summed."""
        tail = np.append(self.log_upper_tail[1:], -np.inf)
        tol = np.append(np.maximum.accumulate(self.log_tol[::-1])[::-1][1:], 0.0)
        return tail, tol

    def value_at_risk(self, level: float) -> int:
        """Smallest l with P(L > l) <= 1 - level."""
        tail, _ = self._log_tail_beyond
        return int(np.flatnonzero(tail <= math.log(1.0 - level))[0])

    def var_accepted(self, level: float, value: int) -> bool:
        """Whether `value` is the VaR at `level` to within the tolerance: it
        meets the level, and value - 1 does not clearly meet it."""
        if not 0 <= value <= self.n:
            return False
        tail, tol = self._log_tail_beyond
        log_alpha = math.log(1.0 - level)
        return bool(tail[value] <= log_alpha + tol[value]
                    and (value == 0 or tail[value - 1] > log_alpha - tol[value - 1]))

    def var_within_cdf_error(self, level: float, value: int, cdf_error: float) -> bool:
        """Whether `value` is the VaR at `level` for some cumulative distribution
        within `cdf_error` (absolute) of the reference's: it meets the level
        raised by the error, and value - 1 does not meet it lowered by it."""
        if not 0 <= value <= self.n:
            return False
        tail = np.exp(self._log_tail_beyond[0])
        alpha = 1.0 - level
        return bool(tail[value] <= alpha + cdf_error
                    and (value == 0 or tail[value - 1] > alpha - cdf_error))

    def mode(self) -> int:
        return int(np.argmax(self.log_mass))

    def mode_accepted(self, value: int) -> bool:
        """Whether the mass at `value` ties the largest within the tolerance."""
        if not 0 <= value <= self.n:
            return False
        best = self.mode()
        return bool(self.log_mass[value] >= self.log_mass[best]
                    - self.log_tol[value] - self.log_tol[best])

    def peaks(self) -> list[int]:
        return plateau_peaks(np.exp(self.log_mass))

    def peaks_accepted(self, peaks) -> bool:
        """Whether `peaks` are the reference's peaks, up to near-ties.

        Neighbouring masses within the tolerance of each other form one
        cluster; the peaks must fall in the same clusters as the reference's.
        Without near-ties every cluster is one index, so this is exact.
        """
        peaks = [int(i) for i in peaks]
        if any(not 0 <= i <= self.n for i in peaks):
            return False
        mass = np.exp(self.log_mass)
        rel = 2 * self.log_tol
        tie = np.abs(np.diff(mass)) <= rel[:-1] * mass[:-1] + rel[1:] * mass[1:] + 1e-300
        cluster = np.r_[0, np.cumsum(~tie)]
        return [int(cluster[i]) for i in peaks] == [int(cluster[i]) for i in self.peaks()]


def plateau_peaks(mass: np.ndarray) -> list[int]:
    """Leftmost index of every run of equal values that beats both neighbours.

    A missing neighbour beyond either end of the support imposes nothing.
    """
    mass = np.asarray(mass, dtype=np.float64)
    starts = np.flatnonzero(np.r_[True, mass[1:] != mass[:-1]])
    values = mass[starts]
    left = np.r_[-np.inf, values[:-1]]
    right = np.r_[values[1:], -np.inf]
    return [int(s) for s in starts[(left < values) & (right < values)]]


def log_binom_coeff(n: int) -> np.ndarray:
    l = np.arange(n + 1, dtype=np.float64)
    return gammaln(n + 1.0) - gammaln(l + 1.0) - gammaln(n - l + 1.0)


# --- checks ------------------------------------------------------------------


def _rel_close(value: float, ref: float, rtol: float, atol: float = 1e-300) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


def check_log_mass(ref: Mixture, log_mass, what: str = "log_mass") -> list[str]:
    log_mass = np.asarray(log_mass, dtype=np.float64)
    if log_mass.shape != ref.log_mass.shape:
        return [f"{what}: shape {log_mass.shape}, expected {ref.log_mass.shape}"]
    excess = np.abs(log_mass - ref.log_mass) / ref.log_tol
    excess[~np.isfinite(excess)] = np.inf
    worst = int(np.argmax(excess))
    if excess[worst] > 1.0:
        return [
            f"{what}[{worst}] = {log_mass[worst]!r}, reference {ref.log_mass[worst]!r} "
            f"(tolerance {ref.log_tol[worst]:.1e})"
        ]
    return []


def check_mass(ref: Mixture, mass, what: str = "mass") -> list[str]:
    mass = np.asarray(mass, dtype=np.float64)
    if mass.shape != ref.log_mass.shape:
        return [f"{what}: shape {mass.shape}, expected {ref.log_mass.shape}"]
    expected = np.exp(ref.log_mass)
    bad = np.abs(mass - expected) > 2 * ref.log_tol * expected + 1e-300
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{what}[{i}] = {mass[i]!r}, reference {expected[i]!r}"]
    return []


def check_moments(ref: Mixture, mean: float, variance: float) -> list[str]:
    eps = 2 * float(ref.log_tol.max())
    out = []
    if not abs(mean - ref.mean) <= eps * ref.mean + 1e-9:
        out.append(f"mean = {mean!r}, reference N*p = {ref.mean!r}")
    if not abs(variance - ref.variance) <= 3 * eps * ref.second_moment + 1e-9:
        out.append(f"variance = {variance!r}, reference {ref.variance!r}")
    return out


def check_report(ref: Mixture, level: float, var_value: int, mode: int,
                 mode_prob: float, mean: float, variance: float,
                 peaks=None, mass=None) -> list[str]:
    """VaR, mode and peaks exactly up to near-ties; mode probability and
    moments to tolerance.  Given the pmf `mass` the report came from, a VaR
    mismatch is classified by ``check_var_known_defect``."""
    out = []
    if mass is not None:
        out.extend(check_var_known_defect(ref, level, var_value, mass))
    elif not ref.var_accepted(level, var_value):
        out.append(f"VaR({level!r}) = {var_value}, reference {ref.value_at_risk(level)}")
    if not ref.mode_accepted(mode):
        out.append(f"mode = {mode}, reference {ref.mode()}")
    elif not _rel_close(mode_prob, math.exp(ref.log_mass[mode]), 2 * ref.log_tol[mode]):
        out.append(f"mode_prob = {mode_prob!r}, reference "
                   f"{math.exp(ref.log_mass[mode])!r}")
    out.extend(check_moments(ref, mean, variance))
    if peaks is not None and not ref.peaks_accepted(peaks):
        out.append(f"peaks = {list(peaks)}, reference {ref.peaks()}")
    return out


def left_cdf_error(ref: Mixture, mass) -> float:
    """Largest absolute error of 1 - (left cumulative sum of `mass`) as P(L > l)."""
    left_tail = 1.0 - np.cumsum(np.asarray(mass, dtype=np.float64))
    return float(np.max(np.abs(left_tail - np.exp(ref._log_tail_beyond[0]))))


def check_var_known_defect(ref: Mixture, level: float, var_value: int,
                           mass) -> list[str]:
    """The VaR check of an output whose pmf `mass` passed its own check.

    A VaR that misses the reference but is exact for the left cumulative sum
    of `mass`, up to that sum's absolute error, is the package's known
    extreme-level VaR defect: linear masses summed from the left cannot
    resolve a tail 1 - level below their rounding and normalization error.
    Such a mismatch is returned with the KNOWN_DEFECT prefix; any other VaR
    mismatch is returned as a plain failure.
    """
    if ref.var_accepted(level, var_value):
        return []
    msg = f"VaR({level!r}) = {var_value}, reference {ref.value_at_risk(level)}"
    error = left_cdf_error(ref, mass)
    if ref.var_within_cdf_error(level, var_value, error):
        return [f"{KNOWN_DEFECT}{msg} (left cumulative sum error {error:.2g})"]
    return [msg]


def check_pmf_table(ref: Mixture, l, mass, log_mass) -> list[str]:
    """A parsed (l, mass, log_mass) table: support, values, mode and moments."""
    l = np.asarray(l)
    if l.shape != (ref.n + 1,) or not np.array_equal(l, np.arange(ref.n + 1)):
        return [f"support column is not 0..{ref.n}"]
    out = check_log_mass(ref, log_mass) + check_mass(ref, mass)
    mass = np.asarray(mass, dtype=np.float64)
    if not ref.mode_accepted(int(np.argmax(mass))):
        out.append(f"pmf argmax = {int(np.argmax(mass))}, reference mode {ref.mode()}")
    support = np.arange(ref.n + 1, dtype=np.float64)
    mean = float(support @ mass)
    out.extend(check_moments(ref, mean, float((support * support) @ mass - mean * mean)))
    return out


def check_natural_params(ref: Mixture, alpha: float, alpha0: float, beta: float,
                         log_z: float) -> list[str]:
    """The pmf implied by (alpha, alpha0, beta, log Z) must match the mixture."""
    l = np.arange(ref.n + 1, dtype=np.float64)
    implied = (
        log_binom_coeff(ref.n)
        + np.logaddexp(alpha * l, alpha0 + (alpha + beta) * l)
        - log_z
    )
    excess = float(np.max(np.abs(implied - ref.log_mass) / ref.log_tol))
    if not excess <= 1.0:
        return [f"pmf implied by the natural parameters is off by {excess:.1f} "
                f"times the log-mass tolerance"]
    return []


def check_maxent_fit(ref: Mixture, alpha: float, alpha0: float, beta: float,
                     log_z: float, tol: float = 1e-9) -> list[str]:
    """The fitted law must meet the moment constraints that define the fit.

    Summing the joint law over (l0, l) gives total mass 1, E[L0] = p,
    E[sum Li] = N*p and E[L0 * sum Li] = N*q.  The fit's own residual target
    is 1e-10, so each is allowed an absolute error of 1e-9.
    """
    l = np.arange(ref.n + 1, dtype=np.float64)
    base = log_binom_coeff(ref.n) + alpha * l - log_z
    w0 = np.exp(base)
    w1 = np.exp(base + alpha0 + beta * l)
    got = (w0.sum() + w1.sum(), w1.sum(), l @ (w0 + w1), l @ w1)
    want = (1.0, ref.p, ref.n * ref.p, ref.n * ref.q)
    names = ("total mass", "E[L0]", "E[sum Li]", "E[L0 sum Li]")
    return [f"max-ent fit {name} = {float(g)!r}, expected {w!r}"
            for name, g, w in zip(names, got, want) if not abs(g - w) <= tol]


def check_scan(p: float, n: int, level: float, rho, var_values, modes, mode_probs,
               means, variances, rho_star, jump_size, peaks=None,
               margin: float = 1e-3, count: int = 201,
               jump_threshold: int = 10) -> list[str]:
    """A full rho scan: the grid, every point, and the detected mode jump."""
    rho = np.asarray(rho, dtype=np.float64)
    out = []
    lo, hi = lower_bound(p) + margin, 1.0 - margin
    if rho.shape != (count,):
        return [f"scan has {rho.shape} points, expected {count}"]
    step = (hi - lo) / (count - 1)
    if (abs(rho[0] - lo) > 1e-15 or abs(rho[-1] - hi) > 1e-15
            or np.max(np.abs(np.diff(rho) - step)) > 1e-12):
        out.append("rho grid is not the even grid over [lower+margin, 1-margin]")
    for i, r in enumerate(rho):
        ref = Mixture(p, float(r), n)
        problems = check_report(
            ref, level, int(var_values[i]), int(modes[i]), float(mode_probs[i]),
            float(means[i]), float(variances[i]),
            None if peaks is None else peaks[i],
        )
        out.extend(f"rho={float(r)!r}: {msg}" for msg in problems)
    # The jump follows from the modes, which were checked above up to near-ties.
    diffs = np.diff(np.asarray(modes, dtype=np.int64))
    k = int(np.argmax(np.abs(diffs)))
    if abs(int(diffs[k])) > jump_threshold:
        want_star, want_jump = 0.5 * (rho[k] + rho[k + 1]), int(diffs[k])
    else:
        want_star, want_jump = None, 0
    if jump_size != want_jump:
        out.append(f"jump_size = {jump_size}, reference {want_jump}")
    if (rho_star is None) != (want_star is None) or (
            rho_star is not None and abs(rho_star - want_star) > 1e-15):
        out.append(f"rho_star = {rho_star!r}, reference {want_star!r}")
    return out


def check_enumeration(ref: Mixture, moments, loss_pmf_bf, total_mass) -> list[str]:
    out = []
    if not abs(total_mass - 1.0) <= 1e-12:
        out.append(f"enumerated total mass = {total_mass!r}")
    want = (ref.p, ref.p, ref.q, ref.pair_moment)
    for name, got, exp in zip(("E[L0]", "E[L1]", "E[L0*L1]", "E[L1*L2]"), moments, want):
        if not _rel_close(float(got), exp, 1e-12, 1e-15):
            out.append(f"enumerated {name} = {float(got)!r}, reference {exp!r}")
    out.extend(check_mass(ref, loss_pmf_bf, what="enumerated pmf"))
    return out


def check_sample(draws, count: int, n: int, p: float, rho: float) -> list[str]:
    """Shape, ranges, and 6-sigma agreement of the branch frequencies and means."""
    draws = np.asarray(draws)
    if draws.shape != (count, 2):
        return [f"sample shape {draws.shape}, expected ({count}, 2)"]
    l0, loss = draws[:, 0], draws[:, 1]
    if not np.isin(l0, (0, 1)).all() or loss.min() < 0 or loss.max() > n:
        return ["sample values out of range"]
    out = []
    k = int(l0.sum())
    if abs(k - count * p) > 6 * math.sqrt(count * p * (1 - p)):
        out.append(f"{k} central defaults in {count} draws at p={p!r}")
    for branch, rate in zip((0, 1), Mixture(p, rho, n).rates):
        losses = loss[l0 == branch]
        if losses.size == 0:
            continue
        sd = math.sqrt(n * rate * (1 - rate) / losses.size)
        if abs(losses.mean() - n * rate) > 6 * sd + 1e-12:
            out.append(f"mean loss {losses.mean()!r} given l0={branch}, "
                       f"reference {n * rate!r}")
    return out
