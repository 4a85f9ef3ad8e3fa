"""Parameters and closed-form calibration of the star-graph (Dandelion) default model.

The model has one central default indicator L0 and N exchangeable non-central
indicators L1..LN, all Bernoulli(p), with a single correlation rho between L0
and each Li.  The joint law is the exponential family

    P(l0, l1, .., lN) = (1/Z) exp(alpha0*l0 + alpha*sum(li) + beta*l0*sum(li))

and the three natural parameters have closed forms in p and the two leaf
default rates conditional on the central node, r0 = p*(1-rho) and
r1 = p + rho*(1-p).  q = E[L0*Li] = rho*p*(1-p) + p**2 = p*r1 is the joint
default probability of the central node and any leaf.

:class:`ModelConfig` is the one admissibility check: it compares rho with the
bounds of :func:`rho_bounds`, and its ``q`` property forms q.

Everything here works in log space: Z = (1-r0)^-N / (1-p) is never formed in
linear space because it can overflow a double at N ~ 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Reject rho within this margin of either end of the open admissible interval,
# where the calibration's logarithms diverge; at the lower end it is relative
# to |lower|, which shrinks with p or 1-p (-1e-12 at p = 1e-12).
EPS_BOUND = 1e-10


class AdmissibilityError(ValueError):
    """Raised when (p, rho, q, ...) fall outside the model's admissible domain."""


@dataclass(frozen=True)
class RhoInterval:
    """Open admissible interval for the central correlation at a given p.

    lower = max(-p/(1-p), -(1-p)/p) < 0 and upper = 1; both ends excluded.
    """

    lower: float
    upper: float


def rho_bounds(p: float) -> RhoInterval:
    """Admissible open interval for the central correlation rho.

    It is exactly where both conditional default rates of
    :func:`conditional_probs` lie in (0, 1): r1 = p + rho*(1-p) > 0 is
    rho > -p/(1-p), r0 = p*(1-rho) < 1 is rho > -(1-p)/p, and r0 > 0 and
    r1 < 1 are both rho < 1.  So the open interval is

        ( max(-p/(1-p), -(1-p)/p),  1 )

    symmetric in p <-> 1-p, with the lower end reaching -1 only at p = 1/2.
    """
    if not 0.0 < p < 1.0:
        raise AdmissibilityError(f"p={p!r} must lie strictly inside (0, 1)")
    lower = max(-p / (1.0 - p), -(1.0 - p) / p)
    return RhoInterval(lower=lower, upper=1.0)


@dataclass(frozen=True)
class ModelConfig:
    """User-facing model parameters: portfolio size, default probability, correlation.

    Both the central node and the leaves share the same marginal default
    probability p.  Validation enforces rho strictly inside the open interval
    from :func:`rho_bounds`, at distance > EPS_BOUND*|lower| from the lower
    end and > EPS_BOUND from the upper end 1, and that neither conditional
    rate of :func:`conditional_probs` nor its complement rounds to 0.0.
    """

    n_credits: int
    p: float
    rho: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_credits, (int, np.integer)) or self.n_credits < 2:
            raise AdmissibilityError(
                f"n_credits={self.n_credits!r} must be an integer >= 2"
            )
        bounds = rho_bounds(self.p)
        if not math.isfinite(self.rho):
            raise AdmissibilityError(f"rho={self.rho!r} is not finite")
        if self.rho - bounds.lower <= EPS_BOUND * abs(bounds.lower):
            raise AdmissibilityError(
                f"rho={self.rho!r} violates the lower bound max(-p/(1-p), -(1-p)/p) "
                f"= {bounds.lower!r} at p={self.p!r}; admissible open interval is "
                f"({bounds.lower!r}, {bounds.upper!r})")
        if bounds.upper - self.rho <= EPS_BOUND:
            raise AdmissibilityError(
                f"rho={self.rho!r} violates the upper bound 1; admissible open "
                f"interval is ({bounds.lower!r}, {bounds.upper!r})")
        rates = _rates(self.p, self.rho)
        if min(rates) <= 0.0:
            # Inside the rho margins this happens only where a product
            # underflows at the smallest subnormal p: p = 5e-324, rho = 0.5
            # gives r0 = 0.0.
            raise AdmissibilityError(
                f"conditional default rates ({rates[0]!r}, {rates[2]!r}) or their "
                f"complements ({rates[1]!r}, {rates[3]!r}) vanished at "
                f"p={self.p!r}, rho={self.rho!r}"
            )

    @property
    def q(self) -> float:
        """Joint default moment E[L0*Li] = rho*p*(1-p) + p**2.

        It underflows to 0.0 at a tiny p; no model computation reads it.
        """
        return self.rho * self.p * (1.0 - self.p) + self.p * self.p


@dataclass(frozen=True)
class CalibratedParams:
    """Natural parameters of the exponential family plus the log partition value.

    Summing the leaves out of the sound-centre branch gives
    Z*(1-p) = (1 + e^alpha)^N = (1-r0)^-N, so log Z has the closed form

        log Z = -log(1-p) - N*log(1-r0).
    """

    alpha: float
    alpha0: float
    beta: float
    log_z: float


def _rates(p: float, rho: float) -> tuple[float, float, float, float]:
    """(r0, 1-r0, r1, 1-r1), the complements formed directly, not as 1 - r."""
    return p * (1.0 - rho), (1.0 - p) + p * rho, p + rho * (1.0 - p), (1.0 - p) * (1.0 - rho)


def conditional_probs(cfg: ModelConfig) -> tuple[float, float]:
    """Leaf default probabilities conditional on the central node's state.

    Returns (r0, r1) = (P(Li=1 | L0=0), P(Li=1 | L0=1)) = (p*(1-rho),
    p + rho*(1-p)).  Given L0 the leaves are i.i.d. Bernoulli at the matching
    rate, so these two numbers and the weights 1-p and p are the whole model;
    rho is admissible exactly where both lie in (0, 1), and they mix back to
    the marginal: (1-p)*r0 + p*r1 = p.
    """
    r0, _, r1, _ = _rates(cfg.p, cfg.rho)
    return r0, r1


def _branch_lines(cfg: ModelConfig) -> tuple[float, float, float, float]:
    """(c0, logit r0, c1, logit r1): the two normalised binomial lines.

    Given the centre's state the loss is binomial at r0 or r1, so the log of
    each branch's weighted mass at l is log C(N, l) + c + l*logit r, with

        c0 = log(1-p) + N*log(1-r0),   c1 = log p + N*log(1-r1).

    log(1-r) is log1p(-r) up to r = 1/2, so a tiny r is not lost in 1-r, and
    the log of the directly formed complement above, so 1-r keeps its digits.
    """
    p, n = cfg.p, cfg.n_credits
    r0, s0, r1, s1 = _rates(p, cfg.rho)
    log_s0, log_s1 = (math.log1p(-r) if r <= 0.5 else math.log(s)
                      for r, s in ((r0, s0), (r1, s1)))
    return (math.log1p(-p) + n * log_s0, math.log(r0) - log_s0,
            math.log(p) + n * log_s1, math.log(r1) - log_s1)


def calibrate(cfg: ModelConfig) -> CalibratedParams:
    """Closed-form natural parameters matching E[L0]=E[Li]=p and E[L0*Li]=q.

    They are read off the lines (c0, logit r0, c1, logit r1) of
    :func:`_branch_lines`:

        alpha        = logit r0
        alpha + beta = logit r1
        alpha0       = c1 - c0 = logit p + N*log((1-r1)/(1-r0))
        log Z        = -c0     = -log(1-p) - N*log(1-r0)

    The third line sets P(L0=1)/P(L0=0) = p/(1-p), and the last is
    :class:`CalibratedParams`' closed form.  Every output is finite.
    """
    c0, alpha, c1, logit_r1 = _branch_lines(cfg)
    return CalibratedParams(alpha=alpha, alpha0=c1 - c0, beta=logit_r1 - alpha, log_z=-c0)
