"""Exact portfolio-loss distribution of the star model and its moments.

The portfolio loss L = L1 + ... + LN deliberately excludes the central node,
so its support is {0, ..., N}.  Conditioning on the central node's state
makes the leaves i.i.d. Bernoulli, so the loss pmf is a mixture of two
normalised binomials, with weights 1-p and p and the rates (r0, r1) of
:func:`conditional_probs`:

    P(L = l) = C(N, l) * ( e^(c0 + l*logit r0) + e^(c1 + l*logit r1) ),
    c0 = log(1-p) + N*log(1-r0),   c1 = log p + N*log(1-r1).

No partition function enters it.  At p = 1/2, L and N - L have the same law,
so the kernel writes the upper half of the log masses as the lower half
mirrored: that pmf is an exact palindrome.  The scipy expansion of that
mixture in ``tests/conftest.py`` is the cross-check oracle for the kernel.

The kernel skips transcendental work whose result is already known in double
precision, so its output is bit-for-bit that of the full-array formulas, with
every mass below the smallest normal double flushed to 0.0:

* The branch gap (c1 - c0) + (logit r1 - logit r0)*l is linear in l, and
  past a gap of ``LSE_GAP`` = 800, or of ``LSE_GAP_NARROW`` = 40 where
  every branch term on the support is at most -1/2, ``np.logaddexp``
  returns the larger branch bit for bit; so it runs only on the one window
  of l where the gap is smaller (:func:`_branch_window` states the rule).
* A log mass at or below ``EXP_FLOOR`` = log(DBL_MIN) = -708.396... has
  mass 0.0, so no mass is subnormal: ``exp`` is slow on subnormal results,
  and so are the sums that read them.  The linear view exponentiates only
  its span, the first to the last log mass above the floor.  Outside the
  span every mass is 0.0, so VaR, mode and peaks read the span alone.
* log C(N, l) comes from one prefix of log-factorials shared by every N.

``loss_pmf`` allocates its result, the log masses and the linear masses, and
one log-binomial table of N+1 floats.  The log masses start as a column
turned into the branch terms in place; the window gets one temporary of its
own size, freed before the table is built.  The table is added into the
column and freed before the linear masses are made.  ``_scan_kernel``
builds the table and a ramp 0..N once, read-only, for all of a scan's points;
each point's column is written from the ramp into a fresh array and the
table is added into it, so a scan holds two arrays more (16 MB at N = 10**6).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core_model import ModelConfig, _branch_lines

# np.logaddexp(x, y) is max(x, y) + log1p(exp(-|x - y|)); past these gaps
# it returns the larger term (the rule for each is in _branch_window).
LSE_GAP = 800.0
LSE_GAP_NARROW = 40.0
# Log masses at or below log(DBL_MIN) are flushed to 0.0: exp above it is a
# normal double, so no mass is ever subnormal (a slow path in exp and sums).
EXP_FLOOR = math.log(sys.float_info.min)
_LOG_FOUR_THIRDS = math.log(4 / 3)

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


def _logaddexp_window(gap: float, slope: float, n: int, limit: float) -> tuple[int, int]:
    """Slice [lo, hi) of {0..n} where the branch gap |gap + slope*l| < limit.

    The gap is linear in l, so the slice is the integers strictly between
    two closed-form ends.  The ends are clamped as floats before they become
    ints, because a subnormal slope puts them at +-inf; at slope = 0 the gap
    is the same everywhere.
    """
    if slope == 0.0:
        return (0, n + 1) if abs(gap) < limit else (0, 0)
    a, b = sorted(((-limit - gap) / slope, (limit - gap) / slope))
    lo = math.floor(min(max(a, -1.0), n)) + 1
    hi = math.ceil(min(max(b, 0.0), n + 1.0))
    return lo, max(hi, lo)


@dataclass(frozen=True, eq=False)
class LossPmf:
    """Loss distribution on {0, ..., n}, stored in log space.

    The support end n is derived, len(log_mass) - 1, not stored.  log_mass is
    always finite and read-only.  A read-only float64 array that owns its data
    is kept as it is, which is how `loss_pmf` hands over its fresh result; any
    other input, a writeable array included, is copied.

    Both derived attributes are computed once, at construction.  `span` is
    [a, b), from the first to the last log mass above EXP_FLOOR: every mass
    outside it is 0.0, and mass[a] and mass[b-1] are not.  The read-only
    `mass` is exp(log_mass) where log_mass is above EXP_FLOOR and 0.0
    elsewhere, so every mass below DBL_MIN = 2.2250738585072014e-308 reads
    0.0 and no mass is subnormal.  That happens in the far tails and, very
    close to the admissible correlation boundary, between the two branches.
    The flush drops at most n+1 masses, each at most exp(EXP_FLOOR) <
    2.3e-308.  `total` is the sum of the span's masses, mass[a:b].sum(),
    which the moments divide by.

    A log_mass whose masses sum below 3/4 or above 4/3 raises ValueError; the
    kernel's sum is within ~1e-9 of 1 at N = 10**6.  At 3/4, any order of
    summing stays above 1/2 for N below ~10**15, so the readers can rely on
    some tail exceeding 1 - max(level, 1/2) and on a positive mass.  At
    exactly 1/2, a cumulative sum could land on 1/2 while the total lies just
    above it.  The upper bound keeps a mode probability or moment from
    reading above 1 by more than a third, or as inf or nan.
    """

    log_mass: np.ndarray
    span: tuple[int, int] = field(init=False, repr=False)
    mass: np.ndarray = field(init=False, repr=False)
    total: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lm = self.log_mass
        if not (type(lm) is np.ndarray and lm.dtype == np.float64
                and lm.base is None and not lm.flags.writeable):
            lm = np.array(lm, dtype=np.float64)
            lm.flags.writeable = False
        if lm.ndim != 1 or lm.size == 0:
            raise ValueError(f"log_mass has shape {lm.shape}, expected 1-D, non-empty")
        # min and max carry any NaN; together they find any infinity.
        top = lm.max()
        if not (math.isfinite(lm.min()) and math.isfinite(top)):
            raise ValueError("log_mass entries must all be finite")
        # One mass above 4/3 is refused before exp can overflow on it.
        if top > _LOG_FOUR_THIRDS:
            raise ValueError(f"a log mass of {float(top)!r} puts the sum above 4/3")
        above = lm > EXP_FLOOR
        bits = above.tobytes()  # bytes.find and bytes.rfind are fast scans
        # With no entry above the floor, (a, b) = (-1, 0) slices nothing.
        a, b = bits.find(1), bits.rfind(1) + 1
        # A gap at or below the floor between the branches is masked out of
        # exp, ~20 ns each against ~1 ns; the mask has a fixed cost of its
        # own, so a span with no such gap takes the plain exp.
        where = above[a:b] if bits.find(0, a, b) >= 0 else True
        del bits  # so that it does not coexist with `mass`
        mass = np.zeros(lm.size)
        np.exp(lm[a:b], out=mass[a:b], where=where)
        total = float(mass[a:b].sum())
        if not 0.75 <= total <= 4 / 3:
            side = "below 3/4" if total < 0.75 else "above 4/3"
            raise ValueError(f"the masses sum to {total!r}, {side}")
        mass.flags.writeable = False
        object.__setattr__(self, "log_mass", lm)
        object.__setattr__(self, "span", (a, b))
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "total", total)

    @property
    def n(self) -> int:
        return len(self.log_mass) - 1


def _branch_window(c0: float, slope0: float, c1: float, slope1: float,
                   n: int) -> tuple[int, int]:
    """Slice [lo, hi) of {0..n} where `loss_pmf` runs np.logaddexp.

    It is the window where the branch gap is below LSE_GAP, or below
    LSE_GAP_NARROW when every branch term on the support is at most -1/2
    and the rounding slack 8*eps*(|c0| + |c1| + N*(|slope0| + |slope1|)) of
    the lines is below 1.  The lines are evaluated at l = 0 and l = N as the
    kernel does, l*slope first, then + c; computed lines are monotone in l,
    so the four values bound every term on the support.

    Both limits give the same bytes.  Past a gap of 800, exp(-gap) is
    exactly 0.0.  Past a computed gap of 39, exp(-gap) < 2**-54, which
    log1p returns unchanged and which is below half an ulp of a larger term
    of magnitude >= 1/2, so np.logaddexp returns the larger term bit for
    bit.  The guard on the terms is needed: where cancellation in
    c1 + slope1*N leaves the larger term at exactly 0.0, logaddexp returns
    the addend itself (2.05e-199 at p = 1 - 2.4e-15, rho = 0.0367,
    N = 11348), not 0.
    """
    top = max(c0, n * slope0 + c0, c1, n * slope1 + c1)
    slack = 8 * math.ulp(1.0) * (abs(c0) + abs(c1) + n * (abs(slope0) + abs(slope1)))
    limit = LSE_GAP_NARROW if top <= -0.5 and slack < 1.0 else LSE_GAP
    return _logaddexp_window(c1 - c0, slope1 - slope0, n, limit)


def loss_pmf(cfg: ModelConfig) -> LossPmf:
    """Exact pmf of the loss count L = L1 + ... + LN (central node excluded).

    log_mass[l] = log C(N,l) + logaddexp(c0 + l*logit r0, c1 + l*logit r1),
    with the lines of :func:`core_model._branch_lines`.

    logaddexp runs only on the window of :func:`_branch_window`; elsewhere
    it would return the larger branch exactly, so that is taken directly.
    Near rho = 0, where the two rates nearly agree, the window is the whole
    support.  At p = 1/2 the upper half is the lower half mirrored, as the
    law of N - L is that of L.
    """
    return _loss_pmf(cfg)


def _scan_kernel(n: int):
    """`loss_pmf` for configs with N = n, sharing one log C(n, l) table and ramp."""
    table = _log_binom_table(n)
    ramp = np.arange(n + 1, dtype=np.float64)
    table.flags.writeable = ramp.flags.writeable = False
    return lambda cfg: _loss_pmf(cfg, table, ramp)


def _loss_pmf(cfg: ModelConfig, table: np.ndarray | None = None,
              ramp: np.ndarray | None = None) -> LossPmf:
    """`loss_pmf`, adding a log C(N, l) table shared across calls (a scan's)
    into the branch column, or a fresh one when table is None.  A shared
    read-only ramp 0..N, given with the table, is read for l; without it the
    column is its own ramp, turned into the branch terms in place."""
    n = cfg.n_credits
    c0, slope0, c1, slope1 = _branch_lines(cfg)
    lo, hi = _branch_window(c0, slope0, c1, slope1, n)
    # Column l gets the branch terms.  Past the window, on the far side
    # (where slope, or gap if slope = 0, makes the gap large), the larger is
    # y = c1 + slope1*l; on the near side x = c0 + slope0*l.
    if ramp is None:
        col = ramp = np.arange(n + 1, dtype=np.float64)
    else:
        col = np.empty(n + 1)
    y = ramp[lo:hi] * slope1
    y += c1
    grows = ((slope1 - slope0) or (c1 - c0)) > 0.0
    near, far = ((slice(0, hi), slice(hi, None)) if grows
                 else (slice(lo, None), slice(0, lo)))
    np.multiply(ramp[near], slope0, out=col[near])
    col[near] += c0
    np.multiply(ramp[far], slope1, out=col[far])
    col[far] += c1
    window = col[lo:hi]
    np.logaddexp(window, y, out=window)
    del y
    # A fresh table is built after the window temporary is freed, and freed
    # before LossPmf allocates `mass`.
    col += _log_binom_table(n) if table is None else table
    if cfg.p == 0.5:
        half = n // 2
        col[n - half:] = col[half::-1]
    col.flags.writeable = False
    return LossPmf(col)


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
    Both passes read the span alone and divide by its mass sum, `pmf.total`,
    and the variance is centred on the computed mean, so neither the sum's
    rounding nor E[L]**2 is carried into it.  The masses `LossPmf` flushes
    to 0.0 sum below d = (N+1)*2.3e-308, so the flush moves the mean by at
    most N*d/total and the variance by at most N**2*d/total (N**2*d is
    2.3e-290 at N = 10**6), absolute terms beside the rounding of the sums.
    """
    a, b = pmf.span
    mass = pmf.mass[a:b]
    l = np.arange(a, b, dtype=np.float64)
    # einsum, not the BLAS dot behind `@`: above 10**4 entries a threaded dot
    # splits the sum, so its bits would depend on the BLAS thread count.
    mean = float(np.einsum("i,i->", l, mass) / pmf.total)
    l -= mean
    l *= l
    return mean, float(np.einsum("i,i->", l, mass) / pmf.total)


def peak_indices(mass: np.ndarray) -> list[int]:
    """Local maxima of a pmf vector under a deterministic plateau rule.

    The vector splits into runs of equal masses; NaN equals nothing, so each
    NaN is a run of its own.  A run is a peak when the masses just outside
    it, where they exist, are both strictly smaller, and it is reported at
    its leftmost index: in [0.1, 0.2, 0.2, 0.4, 0.1] only 3 is a peak.
    Missing neighbours beyond the support ends impose no constraint, so a
    strictly decreasing pmf has its single peak at 0.
    """
    mass = np.asarray(mass)
    n = len(mass) - 1
    if n < 1:
        return list(range(n + 1))
    # Pair k is (mass[k], mass[k+1]).  A peak before the last index starts
    # at 0 or where the pairs stop rising; it is one when the pair from it
    # falls, or neither rises nor falls (a tie or a NaN) and its run ends at
    # the last index or in a fall.  bytes.find scans for the few starts.
    up = mass[1:] > mass[:-1]
    down = mass[1:] < mass[:-1]
    ends = (up[:-1] > up[1:]).tobytes()
    starts = [] if up[0] else [0]
    k = ends.find(1)
    while k >= 0:
        starts.append(k + 1)
        k = ends.find(1, k + 1)
    peaks = []
    differs = None
    for i in starts:
        if not down[i]:
            # The run ends at the first pair from i on that differs.
            if differs is None:
                differs = (mass[1:] != mass[:-1]).tobytes()
            j = differs.find(1, i)
            if j >= 0 and not down[j]:
                continue
        peaks.append(i)
    if up[-1]:
        peaks.append(n)
    return peaks
