"""Exact portfolio-loss distribution of the star model and its moments.

The portfolio loss L = L1 + ... + LN deliberately excludes the central node,
so its support is {0, ..., N}.  Conditioning on the central node's state
makes the leaves i.i.d. Bernoulli, so the loss pmf is a mixture of two
normalised binomials, with weights 1-p and p and the rates (r0, r1) of
:func:`conditional_probs`:

    P(L = l) = C(N, l) * ( e^(c0 + l*logit r0) + e^(c1 + l*logit r1) ),
    c0 = log(1-p) + N*log(1-r0),   c1 = log p + N*log(1-r1).

No partition function enters it.  The scipy expansion of that mixture in
``tests/conftest.py`` is the cross-check oracle for the log-space kernel.

The kernel skips transcendental work whose result is already known in double
precision, so its output is bit-for-bit that of the full-array formulas:

* The branch gap (c1 - c0) + (logit r1 - logit r0)*l is linear in l.
  Where it exceeds ``LSE_GAP`` = 800 in magnitude, exp(-gap) underflows to
  exactly 0.0 and ``np.logaddexp`` returns the larger branch, so it runs
  only on the one window of l (about 1600/|logit r1 - logit r0| wide) where
  the gap is smaller.
* ``exp`` of anything at or below ``EXP_FLOOR`` = -746 is exactly 0.0, so
  the linear view exponentiates only its span: the first to the last log
  mass above it.  Outside the span every mass is 0.0, so VaR, mode and peaks
  read the span alone.
* log C(N, l) comes from one prefix of log-factorials shared by every N.

``loss_pmf`` allocates its result, the log masses (first the log-binomial
table) and the linear masses, and one scratch column of N+1 floats, turned
into the branch terms in place and freed before the linear masses are made;
the window gets one temporary of its own size, freed before the table is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_model import ModelConfig, _branch_lines

# np.logaddexp(x, y) is max(x, y) + log1p(exp(-|x - y|)), and exp(-d) is
# exactly 0.0 for d > 745.14; past this gap it returns the larger term.
LSE_GAP = 800.0
# exp(t) is exactly 0.0 for t < -745.14.
EXP_FLOOR = -746.0

# log k! = math.lgamma(k + 1) for k = 0, 1, ...; grown on demand, read-only.
# Readers take it once into a local; if two threads grow it at once, the last
# write wins and is still a valid prefix.
_log_factorials = np.zeros(0)


def _log_binom_table(n: int) -> np.ndarray:
    """log C(n, l) for l = 0..n as log n! - log l! - log (n-l)!, a fresh array.

    The log-factorials come from one shared prefix, at least doubled whenever
    n outgrows it, so its length stays below 2*(n + 1) for the largest n
    asked; factorials themselves would overflow near n=170.
    """
    global _log_factorials
    g = _log_factorials
    if len(g) <= n:
        stop = max(n + 1, 2 * len(g))
        grown = map(math.lgamma, range(len(g) + 1, stop + 1))  # streamed, no list
        g = np.concatenate((g, np.fromiter(grown, np.float64, stop - len(g))))
        g.flags.writeable = False
        _log_factorials = g
    table = g[n] - g[: n + 1]
    table -= g[n::-1]
    return table


def _logaddexp_window(gap: float, slope: float, n: int) -> tuple[int, int]:
    """Slice [lo, hi) of {0..n} where the branch gap |gap + slope*l| < LSE_GAP.

    The gap is linear in l, so the slice is the integers strictly between
    two closed-form ends.  The ends are clamped as floats before they become
    ints, because a subnormal slope puts them at +-inf; at slope = 0 the gap
    is the same everywhere.
    """
    if slope == 0.0:
        return (0, n + 1) if abs(gap) < LSE_GAP else (0, 0)
    a, b = sorted(((-LSE_GAP - gap) / slope, (LSE_GAP - gap) / slope))
    lo = math.floor(min(max(a, -1.0), n)) + 1
    hi = math.ceil(min(max(b, 0.0), n + 1.0))
    return lo, max(hi, lo)


@dataclass(frozen=True)
class LossPmf:
    """Loss distribution on {0, ..., n}, stored in log space.

    The support end n is derived, len(log_mass) - 1, not stored.  log_mass is
    always finite and read-only.  A read-only float64 array that owns its data
    is kept as it is, which is how `loss_pmf` hands over its fresh result; any
    other input, a writeable array included, is copied.

    Both derived attributes are computed once, at construction.  `span` is
    [a, b), from the first to the last log mass above EXP_FLOOR: every mass
    outside it is 0.0, and inside, exp also gives 0.0 up to -745.13.  The
    read-only `mass` is exp(log_mass) elementwise.  Masses below ~1e-308
    underflow to 0.0 in it, which happens in the far tails and, very close to
    the admissible correlation boundary, between the two branches.

    A log_mass whose masses sum below 3/4 raises ValueError; the kernel's sum
    is within ~1e-9 of 1 at N = 10**6.  At 3/4, any order of summing stays
    above 1/2 for N below ~10**15, so the readers can rely on some tail
    exceeding 1 - max(level, 1/2) and on a positive mass.  At exactly 1/2, a
    cumulative sum could land on 1/2 while the total lies just above it.
    """

    log_mass: np.ndarray
    span: tuple[int, int] = field(init=False, repr=False, compare=False)
    mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lm = self.log_mass
        if not (type(lm) is np.ndarray and lm.dtype == np.float64
                and lm.base is None and not lm.flags.writeable):
            lm = np.array(lm, dtype=np.float64)
            lm.flags.writeable = False
        if lm.ndim != 1 or lm.size == 0:
            raise ValueError(f"log_mass has shape {lm.shape}, expected 1-D, non-empty")
        # min and max carry any NaN; together they find any infinity.
        if not (math.isfinite(lm.min()) and math.isfinite(lm.max())):
            raise ValueError("log_mass entries must all be finite")
        above = lm > EXP_FLOOR
        bits = above.tobytes()  # bytes.find and bytes.rfind are fast scans
        # With no entry above the floor, (a, b) = (-1, 0) slices nothing.
        a, b = bits.find(1), bits.rfind(1) + 1
        del bits  # so that it does not coexist with `mass`
        mass = np.zeros(lm.size)
        # The mask skips exp at or below the floor, ~20 ns each against ~1 ns.
        np.exp(lm[a:b], out=mass[a:b], where=above[a:b])
        total = mass[a:b].sum()
        if total < 0.75:
            raise ValueError(f"the masses sum to {float(total)!r}, below 3/4")
        mass.flags.writeable = False
        object.__setattr__(self, "log_mass", lm)
        object.__setattr__(self, "span", (a, b))
        object.__setattr__(self, "mass", mass)

    @property
    def n(self) -> int:
        return len(self.log_mass) - 1


def loss_pmf(cfg: ModelConfig) -> LossPmf:
    """Exact pmf of the loss count L = L1 + ... + LN (central node excluded).

    log_mass[l] = log C(N,l) + logaddexp(c0 + l*logit r0, c1 + l*logit r1),
    with the lines of :func:`core_model._branch_lines`.

    logaddexp runs only on the window of l where the branch gap is below
    LSE_GAP = 800; elsewhere it would return the larger branch exactly, so
    that is taken directly.  Near rho = 0, where the two rates nearly agree,
    the window is the whole support.
    """
    n = cfg.n_credits
    c0, slope0, c1, slope1 = _branch_lines(cfg)
    gap, slope = c1 - c0, slope1 - slope0
    lo, hi = _logaddexp_window(gap, slope, n)
    # Column l becomes the branch terms in place.  Past the window, on the
    # far side (where slope, or gap if slope = 0, makes the gap >= LSE_GAP),
    # the larger is y = c1 + slope1*l; on the near side x = c0 + slope0*l.
    col = np.arange(n + 1, dtype=np.float64)
    y = col[lo:hi] * slope1
    y += c1
    grows = (slope or gap) > 0.0
    near, far = (col[:hi], col[hi:]) if grows else (col[lo:], col[:lo])
    near *= slope0
    near += c0
    far *= slope1
    far += c1
    window = col[lo:hi]
    np.logaddexp(window, y, out=window)
    del y
    log_mass = _log_binom_table(n)
    log_mass += col
    log_mass.flags.writeable = False
    del col, near, far, window  # freed before LossPmf allocates `mass`
    return LossPmf(log_mass)


def rho_noncentral(cfg: ModelConfig) -> float:
    """Correlation between two distinct leaves: the paper's closed form rho**2.

    It is rho**2 of the float rho, correctly rounded: positive for rho != 0
    unless it underflows (|rho| below ~1.6e-162), and below |rho|, so even
    leaves negatively correlated with the center correlate mildly positively.
    (E[Li*Lj] - p**2)/(p(1-p)) equals it exactly but is not formed: the
    difference cancels at small |rho| and there came out 0.0 or negative.
    """
    return cfg.rho * cfg.rho


def loss_moments(pmf: LossPmf) -> tuple[float, float]:
    """Mean and variance of the loss count, computed from the pmf.

    For a calibrated model these equal N*p and N*p*(1-p)*(1 + (N-1)*rho**2).
    Both passes read the span alone and divide by its mass sum, and the
    variance is centred on the computed mean, so neither the sum's rounding
    nor E[L]**2 is carried into it.
    """
    a, b = pmf.span
    mass = pmf.mass[a:b]
    total = mass.sum()
    l = np.arange(a, b, dtype=np.float64)
    mean = float(l @ mass / total)
    l -= mean
    l *= l
    return mean, float(l @ mass / total)


def peak_indices(mass: np.ndarray) -> list[int]:
    """Local maxima of a pmf vector under a deterministic plateau rule.

    Index l is a peak when its mass is >= both neighbours with strict
    inequality on at least one side; a flat run of equal masses counts once,
    at its leftmost index.  Missing neighbours beyond the support ends impose
    no constraint, so a strictly decreasing pmf has its single peak at 0.
    """
    mass = np.asarray(mass)
    # A flat run starts at index 0 and wherever the mass differs from the one
    # before it; NaN differs from everything, so each NaN is a run of its own.
    new_run = np.ones(len(mass), dtype=bool)
    new_run[1:] = mass[1:] != mass[:-1]
    starts = np.flatnonzero(new_run)
    runs = mass[starts]
    above_left = np.ones(len(runs), dtype=bool)
    above_left[1:] = runs[1:] > runs[:-1]
    above_right = np.ones(len(runs), dtype=bool)
    above_right[:-1] = runs[:-1] > runs[1:]
    # tolist() gives Python ints, so a report's repr and JSON show plain ints.
    return starts[above_left & above_right].tolist()
