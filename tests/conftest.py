"""Shared helpers: independent scipy-based oracles and admissible-parameter maps.

The oracles here recompute everything from first principles (q from rho, the
two conditional rates, scipy binomials) so that package results are checked
against a route that shares no code with the log-space implementation.
"""

import numpy as np
from scipy import stats


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
