"""Star-graph Ising (Dandelion) credit-risk model.

Exact loss distributions, risk metrics, and correlation scans for a portfolio
of N credits coupled to one central node, valid over the full admissible
correlation range including negative central correlations.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core_model import (
    EPS_BOUND,
    AdmissibilityError,
    CalibratedParams,
    ModelConfig,
    RhoInterval,
    calibrate,
    conditional_probs,
    rho_bounds,
)
from .distribution import (
    LossPmf,
    loss_moments,
    loss_pmf,
    peak_indices,
    rho_noncentral,
)
from .metrics import (
    GridSpec,
    RiskReport,
    ScanResult,
    risk_report,
    scan_rho,
    value_at_risk,
)
from .oracle import (
    GENERATOR_NAME,
    MAX_ENUM_N,
    EnumerationReport,
    MaxEntConvergenceError,
    MaxEntFit,
    enumerate_model,
    maxent_fit_small,
    maxent_sweep,
    sample,
)

# The names imported above; the submodules those imports bind are left out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
