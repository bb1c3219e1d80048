"""Latent correlation and sparse graph estimation for mixed ordinal and
continuous data under the latent Gaussian copula model.

The estimator inverts bridge functions mapping latent correlations to
population Kendall rank correlations, so no marginal transformations
need to be estimated.  The resulting matrix is projected to the positive
semidefinite cone and passed to a graphical lasso with HBIC model
selection to recover conditional-independence structure.
"""

from .bridge import (
    BridgeEval,
    BridgeInversionError,
    BridgeKind,
    DegenerateBridgeError,
    InversionResult,
    InversionTask,
    UnsupportedPairError,
    bridge_forward,
    bridge_forward_tau_b,
    estimate_cutoffs,
    invert_bridge,
    invert_bridges,
    tau_b_second_order,
)
from .estimator import (
    ColumnSpec,
    LatentCorrelationMatrix,
    estimate_latent_correlation,
    infer_column_specs,
    project_psd,
)
from .glasso import (
    GlassoConfig,
    PrecisionEstimate,
    default_lambda_path,
    glasso_fit,
    hbic_score,
    refit_support,
    select_hbic,
)
from .kendall import DegenerateColumnError, TauStatistics, tau_a, tau_b
from .simulate import (
    CopulaSpec,
    ErrorCurve,
    concentration_check,
    equal_mass_cutoffs,
    sample_copula,
    scenario1,
    scenario2,
)

__version__ = "1.0.0"

__all__ = [
    "BridgeEval",
    "BridgeInversionError",
    "BridgeKind",
    "ColumnSpec",
    "CopulaSpec",
    "DegenerateBridgeError",
    "DegenerateColumnError",
    "ErrorCurve",
    "GlassoConfig",
    "InversionResult",
    "InversionTask",
    "LatentCorrelationMatrix",
    "PrecisionEstimate",
    "TauStatistics",
    "UnsupportedPairError",
    "bridge_forward",
    "bridge_forward_tau_b",
    "concentration_check",
    "default_lambda_path",
    "equal_mass_cutoffs",
    "estimate_cutoffs",
    "estimate_latent_correlation",
    "glasso_fit",
    "hbic_score",
    "infer_column_specs",
    "invert_bridge",
    "invert_bridges",
    "project_psd",
    "sample_copula",
    "scenario1",
    "scenario2",
    "refit_support",
    "select_hbic",
    "tau_a",
    "tau_b",
    "tau_b_second_order",
]
