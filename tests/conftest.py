"""Shared helpers: independent scipy-based oracles, admissible-parameter maps
and a traced-memory probe.

The oracles here recompute everything from first principles (q from rho, the
two conditional rates, scipy binomials) so that package results are checked
against a route that shares no code with the log-space implementation.  The
exceptions pin the bytes of the package's loss kernel, not its mathematics:
`oracle_log_binom_table` takes the same `math.lgamma` values in three full
passes, with no shared prefix, and `oracle_loss_pmf_full` starts from the
package's own two normalised binomial lines, c + l*logit r for each state of
the central node, and applies them to every entry; and `oracle_sample` takes
the package's conditional rates, since it pins how the package's sampler uses
numpy's random stream, not the rates.
`exact_masses` shares nothing with the package either: it builds the pmf of
the exact rational rates as integers, with no tolerance.
The accuracy of `math.lgamma` itself is checked against 60-digit mpmath in
`tests/test_distribution.py`.
"""

import functools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
from scipy import stats

from dandelion_risk.core_model import _branch_lines, conditional_probs


def lower_bound(p: float) -> float:
    return max(-p / (1.0 - p), -(1.0 - p) / p)


def rho_at(p: float, t: float) -> float:
    """Map t in (0, 1) to a correlation strictly inside the admissible interval."""
    lo = lower_bound(p)
    return lo + t * (1.0 - lo)


def oracle_mixture_pmf(p: float, rho: float, n: int) -> np.ndarray:
    """Loss pmf as the two-branch binomial mixture, computed with scipy only."""
    q = rho * p * (1.0 - p) + p * p
    r1 = (p - q) / (1.0 - p)
    r2 = q / p
    l = np.arange(n + 1)
    return (1.0 - p) * stats.binom.pmf(l, n, r1) + p * stats.binom.pmf(l, n, r2)


def oracle_peak_indices(mass) -> list[int]:
    """Plateau-rule local maxima by a scalar walk over the runs of equal mass.

    A run is a peak when the masses just outside it (where they exist) are
    both strictly smaller; it is reported at its leftmost index.
    """
    mass = np.asarray(mass)
    n = len(mass) - 1
    peaks: list[int] = []
    i = 0
    while i <= n:
        j = i
        while j < n and mass[j + 1] == mass[i]:
            j += 1
        left_ok = i == 0 or mass[i - 1] < mass[i]
        right_ok = j == n or mass[j + 1] < mass[i]
        if left_ok and right_ok:
            peaks.append(i)
        i = j + 1
    return peaks


@functools.lru_cache(maxsize=8)
def oracle_log_binom_table(n: int) -> np.ndarray:
    """log C(n, l) for l = 0..n by three `math.lgamma` passes, read-only.

    Cached: a pass over a million entries takes a third of a second, and the
    byte-identity tests ask for n = 10**6 eleven times.
    """
    l = np.arange(n + 1, dtype=np.float64)
    lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
    table = lgamma(n + 1.0) - lgamma(l + 1.0) - lgamma(n - l + 1.0)
    table.flags.writeable = False
    return table


# Log masses at or below this read as mass 0.0: above it, exp is at least the
# smallest normal double.  Written out here, not read from the package.
LOG_DBL_MIN = math.log(sys.float_info.min)


def oracle_mass(log_mass: np.ndarray) -> np.ndarray:
    """exp of every log mass, with those at or below LOG_DBL_MIN flushed to 0.0."""
    return np.where(log_mass > LOG_DBL_MIN, np.exp(log_mass), 0.0)


def oracle_loss_pmf_full(cfg) -> tuple[np.ndarray, np.ndarray]:
    """(log_mass, mass) by the full-array formulas, with no entry skipped.

    logaddexp and exp run on every entry, and the masses of log mass at or
    below LOG_DBL_MIN are flushed to 0.0; the package skips entries whose
    result is known, and must agree with this byte for byte.  At p = 1/2 the
    upper half is the lower half mirrored, as in the package.
    """
    c0, slope0, c1, slope1 = _branch_lines(cfg)
    n = cfg.n_credits
    l = np.arange(n + 1, dtype=np.float64)
    log_mass = oracle_log_binom_table(n) + np.logaddexp(c0 + slope0 * l, c1 + slope1 * l)
    if cfg.p == 0.5:
        log_mass[n - n // 2:] = log_mass[n // 2::-1]
    return log_mass, oracle_mass(log_mass)


def exact_masses(p: float, rho: float, n: int) -> tuple[list[int], int]:
    """(M, D): P(L = l) = M[l] / D exactly, for the float inputs read as
    rationals.

    The rates r0 = p(1 - rho), r1 = p + rho(1 - p) are formed as Fractions
    over a common denominator d, so a branch of weight w/d and rate a/d puts
    w * C(n, l) * a**l * (d - a)**(n - l) over D = d**(n + 1) at l; each term
    follows from the one before by an exact integer division.
    """
    fp, fr = Fraction(p), Fraction(rho)
    rates = (1 - fp, fp * (1 - fr)), (fp, fp + fr * (1 - fp))
    d = math.lcm(*(x.denominator for pair in rates for x in pair))
    masses = [0] * (n + 1)
    for w, r in rates:
        a = r.numerator * (d // r.denominator)
        b = d - a
        t = w.numerator * (d // w.denominator) * b**n
        for l in range(n + 1):
            masses[l] += t
            t = t * (n - l) * a // ((l + 1) * b)
    total = d ** (n + 1)
    assert sum(masses) == total
    return masses, total


def oracle_sample(cfg, count: int, seed: int) -> np.ndarray:
    """`sample`'s (count, 2) int64 draws in one call per column: l0 from
    `random(count)`, then every loss from one `binomial` call on the same
    generator.  The package draws the losses from a second generator
    advanced past the first's `count` words, in blocks; both must agree."""
    rng = np.random.default_rng(seed)
    draws = np.empty((count, 2), np.int64)
    l0 = draws[:, 0]
    np.less(rng.random(count), cfg.p, out=l0)
    draws[:, 1] = rng.binomial(cfg.n_credits, np.array(conditional_probs(cfg)).take(l0))
    return draws


def traced_peak(fn, *args):
    """Peak traced memory of fn(*args) in bytes, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
