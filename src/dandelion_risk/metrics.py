"""Risk metrics on loss distributions and correlation-grid scans.

The scan sweeps rho across its admissible interval and records a RiskReport
per grid point.  Scanning the mode exposes the model's quasi-phase transition:
for p = 0.4, N = 100 the argmax of the loss pmf jumps by ~46 loss units
between adjacent grid points when the two mixture branches swap dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import AdmissibilityError, ModelConfig, rho_bounds
from .distribution import LossPmf, loss_moments, loss_pmf, peak_indices


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
    """Correlation grid: `count` points, `margin` inside each open bound."""

    count: int = 201
    margin: float = 1e-3

    def __post_init__(self) -> None:
        if self.count < 3:
            raise AdmissibilityError(f"grid count={self.count!r} must be >= 3")
        if not self.margin > 0.0:
            raise AdmissibilityError(f"grid margin={self.margin!r} must be > 0")


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        grid = np.array(self.rho_grid, dtype=np.float64)
        grid.flags.writeable = False
        object.__setattr__(self, "rho_grid", grid)

    @property
    def modes(self) -> np.ndarray:
        return np.array([r.mode for r in self.reports])


def value_at_risk(pmf: LossPmf, level: float) -> int:
    """Smallest loss l with P(L <= l) >= level (lower quantile).

    Read from the smaller tail.  Above 0.5, l is the smallest loss with
    P(L > l) <= 1 - level (exact there), summing masses from the right, so
    levels such as 1 - 1e-15 are decided.  At or below 0.5, masses are summed
    from the left, capped at the answer for 0.5 to keep VaR monotone in level.
    Both sums are within a relative delta = 1e-14*(N+1) + 1e-12 of the exact
    tails (60-digit mpmath, N <= 10**4, rho up to 1e-6 from either bound), so
    l is exact unless an exact tail lies within delta of 1 - level (of level
    at or below 0.5); then l may be any loss where one does.
    """
    if not (0.0 < level < 1.0):
        raise AdmissibilityError(f"confidence level={level!r} must be in (0, 1)")
    # tail[k] = P(L >= n - k)
    tail = np.cumsum(pmf.mass[::-1])
    var = pmf.n - int(np.searchsorted(tail, 1.0 - max(level, 0.5), side="right"))
    if level <= 0.5:
        cdf = np.cumsum(pmf.mass)
        var = min(int(np.searchsorted(cdf, level, side="left")), var)
    # Only a LossPmf whose masses sum below 0.5 gives -1.
    return max(var, 0)


def mode_of(pmf: LossPmf) -> tuple[int, float]:
    """Argmax of the pmf and its probability; ties break to the smallest index."""
    mode = int(np.argmax(pmf.mass))
    return mode, float(pmf.mass[mode])


def risk_report(pmf: LossPmf, level: float = 0.99) -> RiskReport:
    """Bundle VaR, mode, moments, and peak locations for one distribution."""
    var_value = value_at_risk(pmf, level)
    mode, mode_prob = mode_of(pmf)
    mean, variance = loss_moments(pmf)
    return RiskReport(
        var_level=level,
        var_value=var_value,
        mode=mode,
        mode_prob=mode_prob,
        mean=mean,
        variance=variance,
        peaks=tuple(peak_indices(pmf.mass)),
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
    deterministic for identical inputs.
    """
    if jump_threshold < 0:
        raise AdmissibilityError(f"jump_threshold={jump_threshold!r} must be >= 0")
    bounds = rho_bounds(p)
    lo = bounds.lower + grid_spec.margin
    hi = bounds.upper - grid_spec.margin
    if not lo < hi:
        raise AdmissibilityError(
            f"margin={grid_spec.margin!r} leaves no admissible grid at p={p!r}"
        )
    grid = np.linspace(lo, hi, grid_spec.count)
    reports = tuple(
        risk_report(loss_pmf(ModelConfig(n_credits=n, p=p, rho=float(r))), level)
        for r in grid
    )
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
