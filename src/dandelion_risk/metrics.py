"""Risk metrics on loss distributions and correlation-grid scans.

The scan sweeps rho across its admissible interval and records a RiskReport
per grid point.  Scanning the mode exposes the model's quasi-phase transition:
for p = 0.4, N = 100 the argmax of the loss pmf jumps by ~46 loss units
between adjacent grid points when the two mixture branches swap dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import _MAX_LENGTH, AdmissibilityError, ModelConfig, rho_bounds
from .distribution import LossPmf, _scan_kernel, loss_moments, peak_indices


@dataclass(frozen=True)
class RiskReport:
    """Point summary of one loss distribution."""

    var_level: float
    var_value: int
    mode: int
    mode_prob: float
    mean: float
    variance: float
    peaks: tuple[int, ...]


@dataclass(frozen=True)
class GridSpec:
    """Correlation grid: `count` <= _MAX_LENGTH points, `margin` inside each open bound."""

    count: int = 201
    margin: float = 1e-3

    def __post_init__(self) -> None:
        if not isinstance(self.count, (int, np.integer)) or not 3 <= self.count <= _MAX_LENGTH:
            raise AdmissibilityError(
                f"grid count={self.count!r} must be an integer in [3, {_MAX_LENGTH}]")
        if not self.margin > 0.0:
            raise AdmissibilityError(f"grid margin={self.margin!r} must be > 0")


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Per-rho risk reports plus the detected mode discontinuity, if any.

    rho_star is the midpoint of the adjacent grid pair with the largest
    absolute mode difference, reported only when that difference exceeds the
    jump threshold; jump_size is the signed mode change across that pair.
    """

    rho_grid: np.ndarray
    reports: tuple[RiskReport, ...]
    rho_star: float | None
    jump_size: int


# The first block of a VaR tail sum; each later block is twice the one before.
_FIRST_BLOCK = 1024


def _crossing(mass: np.ndarray, target: float, side: str) -> int:
    """mass.cumsum().searchsorted(target, side), summing no further than needed.

    The sum runs in blocks, the first _FIRST_BLOCK entries long and each
    later one twice the one before, and stops at the block whose sums cross
    the target.  A later block's sums start from the last sum before it,
    prepended to its masses, so every partial sum is the same sequential
    addition as in one cumsum over the whole array.
    """
    start, size = 0, _FIRST_BLOCK
    sums = mass[:size].cumsum()  # sums[i] sums mass[:start + i + 1]
    while True:
        k = int(sums.searchsorted(target, side=side))
        stop = start + len(sums)
        if k < len(sums) or stop == len(mass):
            return start + k
        # The carried sum has not crossed, so k >= 1 in the next block.
        start, size = stop - 1, 2 * size
        sums = np.concatenate((sums[-1:], mass[stop:stop + size])).cumsum()


def _check_level(level: float) -> None:
    if not (0.0 < level < 1.0):
        raise AdmissibilityError(f"confidence level={level!r} must be in (0, 1)")


def value_at_risk(pmf: LossPmf, level: float) -> int:
    """Smallest loss l with P(L <= l) >= level (lower quantile).

    Read from the smaller tail.  Above 0.5, l is the smallest loss with
    P(L > l) <= 1 - level (exact there), summing masses from the right, so
    levels such as 1 - 1e-15 are decided.  At or below 0.5, masses are summed
    from the left, capped at the answer for 0.5 to keep VaR monotone in level.
    Each sum stops at the block of entries where it crosses (see
    `_crossing`), in the same order of addition as a full cumulative sum, so
    it reads only the tail it needs and its error budget stands: both sums
    are within a relative delta = 1e-14*(N+1) + 1e-12 of the exact
    tails (60-digit mpmath, N <= 10**4, rho up to 1e-6 from either bound),
    plus an absolute (N+1)*2.3e-308 from the masses `LossPmf` flushes to 0.0,
    so l is exact unless an exact tail lies within that of 1 - level (of
    level at or below 0.5); then l may be any loss where one does.
    """
    _check_level(level)
    # Masses outside the span are 0.0, so the sums over it are bit for bit
    # those over the whole support.  The right sum crosses at k, where
    # P(L >= b - 1 - k) first exceeds 1 - max(level, 1/2); the total mass
    # exceeds 1/2 (see LossPmf), so k < b - a.
    a, b = pmf.span
    mass = pmf.mass[a:b]
    var = b - 1 - _crossing(mass[::-1], 1.0 - max(level, 0.5), "right")
    if level <= 0.5:
        var = min(a + _crossing(mass, level, "left"), var)
    return var


def _peaks(pmf: LossPmf) -> tuple[int, ...]:
    """`peak_indices` of the span, as indices of the whole support."""
    a, b = pmf.span
    return tuple(a + i for i in peak_indices(pmf.mass[a:b]))


def risk_report(pmf: LossPmf, level: float = 0.99) -> RiskReport:
    """Bundle VaR, mode, moments, and peak locations for one distribution.

    The mode is the smallest index of the largest mass.  That index starts a
    run of equal masses whose outside neighbours are both smaller, so it is a
    peak, and the first of the highest peaks, which `max` returns, is
    `argmax` bit for bit.
    """
    var_value = value_at_risk(pmf, level)
    peaks = _peaks(pmf)
    mode = max(peaks, key=pmf.mass.__getitem__)
    mean, variance = loss_moments(pmf)
    return RiskReport(
        var_level=level,
        var_value=var_value,
        mode=mode,
        mode_prob=float(pmf.mass[mode]),
        mean=mean,
        variance=variance,
        peaks=peaks,
    )


def scan_rho(
    p: float,
    n: int,
    grid_spec: GridSpec = GridSpec(),
    level: float = 0.99,
    jump_threshold: int = 10,
) -> ScanResult:
    """Evaluate risk metrics on an even rho grid inside the admissible interval.

    The grid spans [lower+margin, 1-margin]; each point is evaluated
    independently and results are merged in grid order, so the output is
    deterministic for identical inputs.  Every report is byte for byte
    risk_report(loss_pmf(cfg), level) at its point; the points share the
    kernel inputs of `distribution._scan_kernel`.  The points are even over
    that span, so negative rho gets about |lower|/(1+|lower|) of them: at
    p = 1e-2, 2 of 201; at 1e-3, 1; at 1e-4, where the default margin 1e-3
    exceeds |lower|, none (margin 1e-6 gives 1).
    """
    if not jump_threshold >= 0:
        raise AdmissibilityError(f"jump_threshold={jump_threshold!r} must be >= 0")
    margin = grid_spec.margin
    bounds = rho_bounds(p)
    lo = bounds.lower + margin
    hi = bounds.upper - margin
    if not lo < hi:
        raise AdmissibilityError(f"margin={margin!r} leaves no admissible grid at p={p!r}")
    # The grid's ends are lo and hi.  A margin inside ModelConfig's EPS_BOUND
    # band puts one of them out; n = 2 leaves a bad n to the configs below.
    for end in (lo, hi):
        try:
            ModelConfig(n_credits=2, p=p, rho=end)
        except AdmissibilityError as exc:
            raise AdmissibilityError(
                f"margin={margin!r} makes a grid end inadmissible at p={p!r}: {exc}"
            ) from None
    grid = np.linspace(lo, hi, grid_spec.count)
    grid.flags.writeable = False
    # Every input is checked, n included, before the kernel is sized by n.
    cfgs = [ModelConfig(n_credits=n, p=p, rho=float(r)) for r in grid]
    _check_level(level)
    pmf_of = _scan_kernel(n)
    reports = tuple(risk_report(pmf_of(cfg), level) for cfg in cfgs)
    modes = np.array([r.mode for r in reports])
    diffs = np.diff(modes)
    k = int(np.argmax(np.abs(diffs)))
    rho_star: float | None = None
    jump_size = 0
    if abs(int(diffs[k])) > jump_threshold:
        rho_star = float(0.5 * (grid[k] + grid[k + 1]))
        jump_size = int(diffs[k])
    return ScanResult(
        rho_grid=grid, reports=reports, rho_star=rho_star, jump_size=jump_size
    )
