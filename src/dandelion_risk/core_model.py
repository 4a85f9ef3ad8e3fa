"""Parameters and closed-form calibration of the star-graph (Dandelion) default model.

The model has one central default indicator L0 and N exchangeable non-central
indicators L1..LN, all Bernoulli(p), with a single correlation rho between L0
and each Li.  The joint law is the exponential family

    P(l0, l1, .., lN) = (1/Z) exp(alpha0*l0 + alpha*sum(li) + beta*l0*sum(li))

and the three natural parameters have closed forms in p and the two leaf
default rates conditional on the central node, r0 = p*(1-rho) and
r1 = p + rho*(1-p).  q = E[L0*Li] = rho*p*(1-p) + p**2 = p*r1 is the joint
default probability of the central node and any leaf.

Everything here works in log space: Z is never formed in linear space because
either of its two branches can overflow or underflow a double at N ~ 100.
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


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise AdmissibilityError(f"p={p!r} must lie strictly inside (0, 1)")


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
    _check_p(p)
    lower = max(-p / (1.0 - p), -(1.0 - p) / p)
    return RhoInterval(lower=lower, upper=1.0)


def _joint_moment(p: float, rho: float) -> float:
    return rho * p * (1.0 - p) + p * p


def rho_to_q(p: float, rho: float) -> float:
    """Map the central correlation to the joint moment q = rho*p*(1-p) + p**2."""
    bounds = rho_bounds(p)
    if not math.isfinite(rho):
        raise AdmissibilityError(f"rho={rho!r} is not finite")
    if rho - bounds.lower <= EPS_BOUND * abs(bounds.lower):
        raise AdmissibilityError(
            f"rho={rho!r} violates the lower bound max(-p/(1-p), -(1-p)/p) "
            f"= {bounds.lower!r} at p={p!r}; admissible open interval is "
            f"({bounds.lower!r}, {bounds.upper!r})"
        )
    if bounds.upper - rho <= EPS_BOUND:
        raise AdmissibilityError(
            f"rho={rho!r} violates the upper bound 1; admissible open "
            f"interval is ({bounds.lower!r}, {bounds.upper!r})"
        )
    q = _joint_moment(p, rho)
    if not (0.0 < q < p):
        raise AdmissibilityError(
            f"implied joint moment q={q!r} falls outside the open interval (0, p={p!r})"
        )
    return q


def q_to_rho(p: float, q: float) -> float:
    """Inverse of :func:`rho_to_q`: rho = (q - p**2) / (p*(1-p))."""
    _check_p(p)
    if not (0.0 < q < p) or not math.isfinite(q):
        raise AdmissibilityError(f"q={q!r} must lie strictly inside (0, p={p!r})")
    return (q - p * p) / (p * (1.0 - p))


@dataclass(frozen=True)
class ModelConfig:
    """User-facing model parameters: portfolio size, default probability, correlation.

    Both the central node and the leaves share the same marginal default
    probability p.  Validation enforces rho strictly inside the open interval
    from :func:`rho_bounds`, at distance > EPS_BOUND*|lower| from the lower
    end and > EPS_BOUND from the upper end 1, and the implied q inside (0, p).
    """

    n_credits: int
    p: float
    rho: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_credits, (int, np.integer)) or self.n_credits < 2:
            raise AdmissibilityError(
                f"n_credits={self.n_credits!r} must be an integer >= 2"
            )
        rho_to_q(self.p, self.rho)

    @property
    def q(self) -> float:
        """Joint default moment E[L0*Li]; __post_init__ already validated it."""
        return _joint_moment(self.p, self.rho)


@dataclass(frozen=True)
class CalibratedParams:
    """Natural parameters of the exponential family plus the log partition value.

    log_z is the stable two-term log-sum of the two branch exponents

        N*log(1 + e^alpha)   and   alpha0 + N*log(1 + e^(alpha+beta)),

    which correspond to the central node being sound or defaulted.
    """

    alpha: float
    alpha0: float
    beta: float
    log_z: float


def _softplus(x: float) -> float:
    # log(1 + e^x) without overflow; equals max(x, 0) + log1p(e^-|x|).
    return float(np.logaddexp(0.0, x))


def conditional_probs(cfg: ModelConfig) -> tuple[float, float]:
    """Leaf default probabilities conditional on the central node's state.

    Returns (r0, r1) = (P(Li=1 | L0=0), P(Li=1 | L0=1)) = (p*(1-rho),
    p + rho*(1-p)).  Given L0 the leaves are i.i.d. Bernoulli at the matching
    rate, so these two numbers and the weights 1-p and p are the whole model;
    rho is admissible exactly where both lie in (0, 1), and they mix back to
    the marginal: (1-p)*r0 + p*r1 = p.
    """
    p, rho = cfg.p, cfg.rho
    return p * (1.0 - rho), p + rho * (1.0 - p)


def calibrate(cfg: ModelConfig) -> CalibratedParams:
    """Closed-form natural parameters matching E[L0]=E[Li]=p and E[L0*Li]=q.

    With (r0, r1) = :func:`conditional_probs` and their complements formed
    directly, not as 1 - r, as 1-r0 = (1-p) + p*rho and 1-r1 = (1-p)*(1-rho):

        alpha        = logit r0
        alpha + beta = logit r1
        alpha0       = logit p + N*log((1-r1)/(1-r0))

    The last line sets P(L0=1)/P(L0=0) = p/(1-p).  Every output is finite;
    log_z is assembled purely in log space.
    """
    p, rho, n = cfg.p, cfg.rho, cfg.n_credits
    r0, r1 = conditional_probs(cfg)
    s0, s1 = (1.0 - p) + p * rho, (1.0 - p) * (1.0 - rho)
    if min(r0, r1, s0, s1) <= 0.0:
        # ModelConfig's rho margin and q check keep all four above 0.0, at a
        # subnormal p too; only a config that skipped that validation stops here.
        raise AdmissibilityError(
            f"conditional default rates ({r0!r}, {r1!r}) or their complements "
            f"({s0!r}, {s1!r}) vanished at p={p!r}, rho={rho!r}"
        )
    log_s0, log_s1 = math.log(s0), math.log(s1)
    alpha = math.log(r0) - log_s0
    beta = (math.log(r1) - log_s1) - alpha
    alpha0 = math.log(p / (1.0 - p)) + n * (log_s1 - log_s0)
    log_z = float(
        np.logaddexp(n * _softplus(alpha), alpha0 + n * _softplus(alpha + beta))
    )
    return CalibratedParams(alpha=alpha, alpha0=alpha0, beta=beta, log_z=log_z)
