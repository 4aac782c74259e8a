"""Exception hierarchy for model validation, identification, and solving.

Every failure mode that callers are expected to branch on gets its own
class.  CLI code maps these onto exit codes: precondition and
identification failures are distinguished from genuinely numerical
breakdowns (a factorization that fails even though the rank checks
passed).
"""

from __future__ import annotations


class GMLSError(Exception):
    """Base class for all errors raised by this package.

    ``column`` is the index of the response column a per-column check
    refused, None when the refusal does not depend on the response.
    ``decision`` names a failed catalogue decision by the diagnostics key
    a fit records it under (e.g. "joint_identification"), None for other
    refusals.  ``report`` is the RankReport behind a rank refusal.
    """

    def __init__(self, *args, column: int | None = None, decision: str | None = None,
                 report=None):
        super().__init__(*args)
        self.column = column
        self.decision = decision
        self.report = report


class NonFiniteError(GMLSError):
    """Input contains NaN or infinite entries."""


class DimensionMismatchError(GMLSError):
    """Array shapes do not conform."""


class NonSymmetricError(GMLSError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class IndefiniteInputError(GMLSError):
    """A matrix required to be nonnegative definite has a negative eigenvalue."""


class DispersionNotNNDError(GMLSError):
    """The dispersion matrix is not symmetric nonnegative definite."""


class DispersionNotPDError(GMLSError):
    """The dispersion matrix must be positive definite for this path."""


class DispersionSingularError(GMLSError):
    """The dispersion matrix is singular where an inverse is required."""


class ResponseOutsideRangeError(GMLSError):
    """The response vector lies outside the column space of (design : dispersion)."""


class TooFewObservationsError(GMLSError):
    """The model needs strictly more observations than parameters."""


class InconsistentRestrictionsError(GMLSError):
    """The restriction system has no solution: rank(R) != rank(R, r)."""


class DesignRankDeficientError(GMLSError):
    """The design matrix does not have full column rank."""


class IdentificationError(GMLSError):
    """The joint rank condition on restrictions and design fails."""


class TheilRankConditionError(GMLSError):
    """The whitened design F'X lacks full column rank, so the
    pseudo-inverse normal matrix cannot be inverted."""


class NullVectorMismatchError(GMLSError):
    """Per-period dispersion blocks do not share the single null eigenvector."""


class RestrictionGramSingularError(GMLSError):
    """The restriction Gram matrix R C^{-1} R' cannot be inverted."""


class ReducedGramSingularError(GMLSError):
    """The normal matrix projected onto the feasible directions is singular."""


class ShiftInsufficientError(GMLSError):
    """The ridge shift leaves the shifted design [X; Psi^(1/2)] rank deficient."""


class InfeasibleParticularError(GMLSError):
    """A supplied particular solution does not satisfy the restrictions."""


class InvalidConfigError(GMLSError):
    """A simulation or estimator configuration is invalid."""
