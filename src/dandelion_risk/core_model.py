"""Parameters and closed-form calibration of the star-graph (Dandelion) default model.

The model has one central default indicator L0 and N exchangeable non-central
indicators L1..LN, all Bernoulli(p), with a single correlation rho between L0
and each Li.  The joint law is the exponential family

    P(l0, l1, .., lN) = (1/Z) exp(alpha0*l0 + alpha*sum(li) + beta*l0*sum(li))

and the three natural parameters have closed forms in (p, q), where
q = E[L0*Li] = rho*p*(1-p) + p**2 is the joint default probability of the
central node and any leaf.

Everything here works in log space: Z is never formed in linear space because
either of its two branches can overflow or underflow a double at N ~ 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Reject rho closer than this to either end of the open admissible interval;
# the logarithms in the calibration formulas diverge at the ends.
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

    The joint-moment constraint 0 < q < p forces rho > -p/(1-p), and the
    log arguments of the calibration stay positive only for
    rho > -(1-p)/p; together with rho < 1 this gives the open interval

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
    if rho - bounds.lower <= EPS_BOUND:
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
    from :func:`rho_bounds` (at distance > EPS_BOUND from each end) and the
    implied q inside (0, p).
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


def calibrate(cfg: ModelConfig) -> CalibratedParams:
    """Closed-form natural parameters matching E[L0]=E[Li]=p and E[L0*Li]=q.

        alpha  = log((p - q) / (1 - 2p + q))
        alpha0 = (N - 1)*log((1-p)/p) + N*alpha
        beta   = log(q / (p - q)) - alpha

    All logarithm arguments are strictly positive for any valid ModelConfig,
    so every output is finite; log_z is assembled purely in log space.
    """
    p, n = cfg.p, cfg.n_credits
    q = cfg.q
    top = p - q
    bot = 1.0 - 2.0 * p + q
    if top <= 0.0 or bot <= 0.0 or q <= 0.0:
        # Unreachable for a validated config; kept as a hard stop against NaNs.
        raise AdmissibilityError(
            f"log argument vanished (p-q={top!r}, 1-2p+q={bot!r}, q={q!r}); "
            f"rho={cfg.rho!r} is too close to the admissible boundary"
        )
    alpha = math.log(top) - math.log(bot)
    alpha0 = (n - 1) * math.log((1.0 - p) / p) + n * alpha
    beta = (math.log(q) - math.log(top)) - alpha
    log_z = float(
        np.logaddexp(n * _softplus(alpha), alpha0 + n * _softplus(alpha + beta))
    )
    return CalibratedParams(
        alpha=alpha, alpha0=alpha0, beta=beta, log_z=log_z
    )


def conditional_probs(cfg: ModelConfig) -> tuple[float, float]:
    """Leaf default probabilities conditional on the central node's state.

    Returns (P(Li=1 | L0=0), P(Li=1 | L0=1)) = ((p-q)/(1-p), q/p).  Both lie
    in (0, 1) for any valid config, and they mix back to the marginal:
    (1-p)*first + p*second = p.
    """
    p, q = cfg.p, cfg.q
    return (p - q) / (1.0 - p), q / p
