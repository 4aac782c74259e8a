"""Least-squares estimation for general Gauss-Markoff models.

Handles the awkward cases plain regression routines refuse: singular
dispersion matrices, exact linear restrictions, rank-deficient designs,
and the interplay between all three.  Includes identification
diagnostics for seemingly-unrelated-regression systems, fixed-effects
panel estimators built on singular within-transformed dispersions, and
a Monte Carlo harness that checks the estimators against their claimed
sampling distributions.
"""

import importlib

# The submodule that defines each public name.  A name is imported on first
# access (PEP 562), so ``import gmls`` runs no submodule and a command loads
# only the modules it uses.
_HOME = {name: module for module, names in {
    "errors": (
        "DesignRankDeficientError", "DimensionMismatchError",
        "DispersionNotNNDError", "DispersionNotPDError",
        "DispersionSingularError", "GMLSError", "IdentificationError",
        "InconsistentRestrictionsError", "IndefiniteInputError",
        "InfeasibleParticularError", "InvalidConfigError", "NonFiniteError",
        "NonSymmetricError", "NullVectorMismatchError",
        "ReducedGramSingularError", "ResponseOutsideRangeError",
        "RestrictionGramSingularError", "ShiftInsufficientError",
        "TheilRankConditionError", "TooFewObservationsError"),
    "spectral": (
        "RankReport", "SpectralDecomposition", "default_tolerance",
        "null_space_basis", "numeric_rank", "spectral_decompose"),
    "model": (
        "CombinedRestrictions", "EstimateResult", "EstimatorTag",
        "GaussMarkoffModel", "LinearRestrictions", "SURLayout", "build_model",
        "stack_sur"),
    "identify": (
        "ImplicitRestrictions", "TheilWitness", "WitnessKind",
        "check_joint_identification", "check_mls_invertibility",
        "check_restriction_consistency", "check_theil_condition",
        "combine_restrictions", "extract_implicit_restrictions"),
    "estimators": (
        "constrained_singular_gls", "gls", "linear_representation", "mls",
        "ols", "rgls", "ridge", "rols", "stochastic_restricted_gls", "tkn"),
    "panel": (
        "FEPanelModel", "Theorem5Report", "build_fe_model", "centering_matrix",
        "fe_drop_period", "fe_gls", "fe_mls", "verify_theorem5",
        "within_transform"),
    "montecarlo": (
        "MCReport", "SimulationConfig", "generate_instance", "run_study"),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(__all__) | set(globals()))
