"""Least-squares estimation for general Gauss-Markoff models.

Handles the awkward cases plain regression routines refuse: singular
dispersion matrices, exact linear restrictions, rank-deficient designs,
and the interplay between all three.  Includes identification
diagnostics for seemingly-unrelated-regression systems, fixed-effects
panel estimators built on singular within-transformed dispersions, and
a Monte Carlo harness that checks the estimators against their claimed
sampling distributions.
"""

from .errors import (
    DesignRankDeficientError,
    DimensionMismatchError,
    DispersionNotNNDError,
    DispersionNotPDError,
    DispersionSingularError,
    GMLSError,
    IdentificationError,
    InconsistentRestrictionsError,
    IndefiniteInputError,
    InfeasibleParticularError,
    InvalidConfigError,
    NonFiniteError,
    NonSymmetricError,
    NullVectorMismatchError,
    ReducedGramSingularError,
    ResponseOutsideRangeError,
    RestrictionGramSingularError,
    ShiftInsufficientError,
    TheilRankConditionError,
    TooFewObservationsError,
)
from .spectral import (
    RankReport,
    SpectralDecomposition,
    default_tolerance,
    null_space_basis,
    numeric_rank,
    spectral_decompose,
)
from .model import (
    CombinedRestrictions,
    EstimateResult,
    EstimatorTag,
    GaussMarkoffModel,
    LinearRestrictions,
    SURLayout,
    build_model,
    stack_sur,
)
from .identify import (
    ImplicitRestrictions,
    TheilWitness,
    WitnessKind,
    check_joint_identification,
    check_mls_invertibility,
    check_restriction_consistency,
    check_theil_condition,
    combine_restrictions,
    extract_implicit_restrictions,
)
from .estimators import (
    RidgeSpec,
    StochasticRestrictions,
    constrained_singular_gls,
    gls,
    linear_representation,
    mls,
    ols,
    rgls,
    ridge,
    rols,
    stochastic_restricted_gls,
    tkn,
)
from .panel import (
    FEPanelModel,
    Theorem5Report,
    build_fe_model,
    centering_matrix,
    fe_drop_period,
    fe_gls,
    fe_mls,
    verify_theorem5,
    within_transform,
)
from .montecarlo import (
    MCReport,
    SimulationConfig,
    generate_instance,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "GMLSError", "NonFiniteError", "DimensionMismatchError",
    "NonSymmetricError", "IndefiniteInputError", "DispersionNotNNDError",
    "DispersionNotPDError", "DispersionSingularError",
    "ResponseOutsideRangeError", "TooFewObservationsError",
    "InconsistentRestrictionsError", "DesignRankDeficientError",
    "IdentificationError", "TheilRankConditionError",
    "NullVectorMismatchError", "RestrictionGramSingularError",
    "ReducedGramSingularError", "ShiftInsufficientError",
    "InfeasibleParticularError", "InvalidConfigError",
    "RankReport", "SpectralDecomposition", "default_tolerance",
    "null_space_basis", "numeric_rank", "spectral_decompose",
    "CombinedRestrictions", "EstimateResult", "EstimatorTag",
    "GaussMarkoffModel", "LinearRestrictions", "SURLayout", "build_model",
    "stack_sur",
    "ImplicitRestrictions", "TheilWitness", "WitnessKind",
    "check_joint_identification", "check_mls_invertibility",
    "check_restriction_consistency", "check_theil_condition",
    "combine_restrictions", "extract_implicit_restrictions",
    "RidgeSpec", "StochasticRestrictions",
    "constrained_singular_gls", "gls", "linear_representation", "mls",
    "ols", "rgls", "ridge", "rols", "stochastic_restricted_gls", "tkn",
    "FEPanelModel", "Theorem5Report", "build_fe_model", "centering_matrix",
    "fe_drop_period", "fe_gls", "fe_mls", "verify_theorem5",
    "within_transform",
    "MCReport", "SimulationConfig", "generate_instance", "run_study",
]
