"""Point estimators for the general Gauss-Markoff model.

The catalogue covers the regular cases (OLS, GLS), exact linear
restrictions (restricted OLS/GLS), deliberately biased shifts (ridge),
stochastic restrictions (mixed estimation on an augmented system), and
the singular-dispersion cases built on the Moore-Penrose inverse: the
pseudo-inverse estimator, its explicitly-restricted variant, and the
fully general constrained estimator that folds the restrictions the
singular dispersion itself imposes into the solve.

Every estimator solves one problem,

    minimize || W (y - X beta) ||  subject to  H beta = h,

with the whitener W = Lambda^{-1/2} F' of ``model.spectrum``
(W'W = Omega^+; W = I for OLS and restricted OLS) and H the estimator's
restriction rows; ridge appends rows to W X and W y, mixed estimation to
F'X and F'y under its own row scale.  The spectrum-whitened fits hand
the core the model's F'X and F'y, formed once per model and shared with
the Eq. (14) check, with the row scale Lambda^{1/2}: the core forms W X
and takes the step (F'y - F'X beta*) / Lambda^{1/2} in rotated
coordinates, subtracting before it scales, so W y is never formed.  One
core solves the problem in null-space coordinates beta = beta* + N c,
with an SVD of H and a thin SVD W X N = U S V', so no path forms the
normal matrix X' W'W X and squares the condition number of the design.
S decides the rank of W X N once; OLS, ridge, mixed estimation and the
panel estimators record that report as their rank decision.  The gain
G = N V S^{-1} U' and the covariance factor G G' come off the same SVD;
OLS, restricted OLS and ridge wrap G in their sandwich G Omega G', with
G F taken by the spectrum's projection, block by block.  Each estimator
states its (W, H) and its own pre-checks, and records each catalogue
decision among them (README) in its diagnostics under the key its
refusal names as ``decision``.  Restricted estimates satisfy
H beta_hat = H beta*, so the restrictions hold to rounding.

Every estimator takes a T x B response (see ``gmls.model``) and returns
a K x B ``beta_hat``: the factorizations and rank checks, which do not
depend on y, run once, and the gain is applied to all B columns.

The dispersion's decomposition comes from ``model.spectrum``, so its
rank is the one build_model fixed; an estimator's ``tol`` governs the
remaining rank decisions (design, restrictions, whitened design).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import (
    DesignRankDeficientError,
    DimensionMismatchError,
    DispersionSingularError,
    IdentificationError,
    InconsistentRestrictionsError,
    IndefiniteInputError,
    InfeasibleParticularError,
    NonSymmetricError,
    ReducedGramSingularError,
    RestrictionGramSingularError,
    ShiftInsufficientError,
    TheilRankConditionError,
)
from .identify import (
    ImplicitRestrictions,
    check_mls_invertibility,
    check_restriction_consistency,
)
from .model import (
    CombinedRestrictions,
    EstimateResult,
    EstimatorTag,
    GaussMarkoffModel,
    LinearRestrictions,
    _column_refusal,
)
from .spectral import (
    RankReport,
    SpectralDecomposition,
    _svd_rank,
    as_matrix,
    numeric_rank,
    spectral_decompose,
)


# ---------------------------------------------------------------------------
# the whitened least-squares core

def _rotated(model: GaussMarkoffModel):
    """F'X, F'y and the row scale Lambda^{1/2} that whitens them,
    W X = F'X / Lambda^{1/2} and W y = F'y / Lambda^{1/2}."""
    return (*model._range_products, np.sqrt(model.spectrum.eigenvalues_pos)[:, None])


def _whitened_lsq(x, y, refuse, tol, rows=None, particular=None, scale=None,
                  message="reduced whitened design has rank {} < {}", decision=None):
    """Minimize ||(y - x beta) / scale|| subject to H beta = h, rows = (H, h).

    ``scale`` is a column of row scales (None for 1), so W X = x / scale;
    y and h may hold B columns, one problem each on the same x and H.
    One SVD of H gives its rank report, an orthonormal null basis N and,
    unless ``particular`` supplies one, the minimum-norm
    beta* = V_r ((U_r'h) / s).  One thin SVD W X N = U S V' gives its rank
    report under numeric_rank's rule, the gain G = N V S^{-1} U', the
    estimate beta* + G ((y - x beta*) / scale) and the covariance factor
    G G'.  The step is formed before it is scaled, so the cancellation in
    y - x beta* happens in the caller's coordinates and W y is never
    formed.  A rank below the columns of W X N raises ``refuse`` with
    ``message`` formatted by (rank, columns), the report and the caller's
    catalogue ``decision``.  The SVD of H is thin unless H has fewer rows
    than columns, the one case that needs the full V'.

    Returns (beta_hat, gain, beta*, rank reports of H and of W X N);
    beta_hat is None when y is, for callers that apply the gain
    themselves.
    """
    wx = x if scale is None else x / scale
    k_dim = wx.shape[1]
    h_report = RankReport(0, np.zeros(0), 0.0, deficient=False)
    basis, beta_star = np.eye(k_dim), np.zeros((k_dim, 1))
    if rows is not None and rows[0].shape[0]:
        h_mat, h_vec = rows
        u, s, vt = np.linalg.svd(h_mat, full_matrices=h_mat.shape[0] < k_dim)
        h_report = _svd_rank(s, *h_mat.shape, tol)
        rank = h_report.numeric_rank
        basis = vt[rank:].T
        coords = u[:, :rank].T @ h_vec
        coords /= s[:rank, None]
        beta_star = vt[:rank].T @ coords
    if particular is not None:
        beta_star = particular
    reduced = wx @ basis
    u, s, vt = np.linalg.svd(reduced, full_matrices=False) if basis.shape[1] \
        else (np.zeros((len(wx), 0)), np.zeros(0), np.zeros((0, 0)))  # no N: G = 0
    report = _svd_rank(s, *reduced.shape, tol)
    if report.numeric_rank < reduced.shape[1]:
        raise refuse(message.format(report.numeric_rank, reduced.shape[1]), report=report,
                     decision=decision)
    gain = (basis @ (vt.T / s)) @ u.T
    if y is None:
        return None, gain, beta_star, h_report, report
    # y - x beta* overwrites x beta* when beta* has y's B columns
    step = x @ beta_star
    step = np.subtract(y, step, out=step if step.shape == y.shape else None)
    if scale is not None:
        step /= scale
    beta = gain @ step
    beta += beta_star
    return beta, gain, beta_star, h_report, report


def _sandwich(gain: np.ndarray, spec: SpectralDecomposition) -> np.ndarray:
    """G Omega G' as (G F Lambda^{1/2})(G F Lambda^{1/2})', F Lambda F' = Omega,
    with G F = (F'G')' taken by ``spec.project``, so a block decomposition
    never builds the dense T x rank F."""
    half = spec.project(gain.T).T * np.sqrt(spec.eigenvalues_pos)
    return half @ half.T


# ---------------------------------------------------------------------------
# pre-checks

def _pd_dispersion(model: GaussMarkoffModel) -> SpectralDecomposition:
    spec = model.spectrum
    if spec.rank < model.num_obs:
        raise DispersionSingularError(
            f"dispersion has rank {spec.rank} < T={model.num_obs}; "
            "use the pseudo-inverse estimators")
    return spec


def _consistency_or_raise(res: LinearRestrictions, tol):
    ok, report = check_restriction_consistency(res, tol=tol)
    if not ok:
        raise InconsistentRestrictionsError(
            "restriction system R beta = r has no solution",
            decision="restriction_consistency")
    return report


def _joint_identification_or_raise(x_mat: np.ndarray, restr: np.ndarray, tol):
    report = numeric_rank(np.vstack([restr, x_mat]), tol=tol)
    if report.numeric_rank < x_mat.shape[1]:
        raise IdentificationError(
            f"stacked restriction/design matrix has rank {report.numeric_rank} "
            f"< K={x_mat.shape[1]}", report=report, decision="joint_identification")
    return report


def _pseudo_inverse_lsq(model: GaussMarkoffModel, tol, rows=None):
    """The Eq. (14) report of F'X and the core's fit to W X and W y, for mls
    and tkn; a refusal by the pre-check or by the core names that decision."""
    ok, report = check_mls_invertibility(model, tol=tol)
    if not ok:
        raise TheilRankConditionError(
            f"F'X has rank {report.numeric_rank} < K={model.num_params}; "
            "the pseudo-inverse normal matrix is not invertible", report=report,
            decision="whitened_design_rank")
    fx, fy, root = _rotated(model)
    return report, _whitened_lsq(fx, fy, TheilRankConditionError, tol, rows=rows,
                                 scale=root, decision="whitened_design_rank")


# ---------------------------------------------------------------------------
# regular estimators

def ols(model: GaussMarkoffModel, tol: float | None = None) -> EstimateResult:
    """Ordinary least squares, beta_hat = (X'X)^{-1} X'y.

    The core's SVD of X decides the design rank.  The covariance factor
    is the sandwich (X'X)^{-1} X' Omega X (X'X)^{-1}, correct under the
    model dispersion sigma^2 * Omega.
    """
    beta, gain, _, _, report = _whitened_lsq(
        model.X, model.y, DesignRankDeficientError, tol,
        message="design has numeric rank {} < K={}")
    return EstimateResult(beta_hat=beta,
                          covariance_factor=_sandwich(gain, model.spectrum),
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.OLS,
                          diagnostics={"design_rank": report})


def gls(model: GaussMarkoffModel, tol: float | None = None) -> EstimateResult:
    """Generalized least squares for positive definite dispersion.

    beta_hat = (X' Omega^{-1} X)^{-1} X' Omega^{-1} y
    """
    spec = _pd_dispersion(model)
    report = numeric_rank(model.X, tol=tol)
    if report.numeric_rank < model.num_params:
        raise DesignRankDeficientError(
            f"design has numeric rank {report.numeric_rank} < K={model.num_params}")
    fx, fy, root = _rotated(model)
    beta, gain, _, _, _ = _whitened_lsq(fx, fy, DesignRankDeficientError, tol, scale=root,
                                        message="whitened design has rank {} < K={}")
    return EstimateResult(beta_hat=beta, covariance_factor=gain @ gain.T,
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.GLS,
                          diagnostics={"design_rank": report,
                                       "dispersion_rank": spec.rank,
                                       "dispersion_tolerance": spec.tolerance_used})


# ---------------------------------------------------------------------------
# exactly restricted estimators, regular dispersion

def rols(model: GaussMarkoffModel, res: LinearRestrictions,
         tol: float | None = None) -> EstimateResult:
    """Restricted OLS under R beta = r.

    Needs only the joint rank condition on (R; X), so a collinear design
    is fine when the restrictions pin its redundant directions.  The
    covariance factor is the sandwich G Omega G' of the gain G.
    """
    cons = _consistency_or_raise(res, tol)
    ident = _joint_identification_or_raise(model.X, res.R, tol)
    design = numeric_rank(model.X, tol=tol)
    beta, gain, _, _, _ = _whitened_lsq(model.X, model.y, IdentificationError, tol,
                                        rows=(res.R, res.r))
    return EstimateResult(beta_hat=beta,
                          covariance_factor=_sandwich(gain, model.spectrum),
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.ROLS,
                          diagnostics={"restriction_consistency": cons,
                                       "joint_identification": ident,
                                       "design_rank": design})


def rgls(model: GaussMarkoffModel, res: LinearRestrictions,
         tol: float | None = None) -> EstimateResult:
    """Restricted GLS under R beta = r, positive definite dispersion.

    Minimizes (y - X beta)' Omega^{-1} (y - X beta) over R beta = r; a
    collinear design is fine under the joint rank condition on (R; X).
    """
    cons = _consistency_or_raise(res, tol)
    ident = _joint_identification_or_raise(model.X, res.R, tol)
    spec = _pd_dispersion(model)
    design = numeric_rank(model.X, tol=tol)
    fx, fy, root = _rotated(model)
    beta, gain, _, _, _ = _whitened_lsq(fx, fy, IdentificationError, tol,
                                        rows=(res.R, res.r), scale=root)
    return EstimateResult(beta_hat=beta, covariance_factor=gain @ gain.T,
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.RGLS,
                          diagnostics={"restriction_consistency": cons,
                                       "joint_identification": ident,
                                       "design_rank": design,
                                       "dispersion_rank": spec.rank})


# ---------------------------------------------------------------------------
# ridge

class RidgeSpec:
    """Shift matrix for the ridge estimator (X'X + Psi)^{-1} X'y.

    Either a full K x K symmetric nonnegative definite matrix, or
    per-block parameters psi_i expanded to diag(psi_1 I_{K_1}, ...),
    which requires the block widths.
    """

    def __init__(self, full_matrix: np.ndarray | None = None,
                 block_parameters: tuple | None = None, block_widths: tuple | None = None):
        self.full_matrix = full_matrix
        self.block_parameters = block_parameters
        self.block_widths = block_widths

    @classmethod
    def scalar(cls, psi: float) -> "RidgeSpec":
        return cls(block_parameters=(float(psi),), block_widths=None)

    @classmethod
    def blocks(cls, parameters, widths) -> "RidgeSpec":
        return cls(block_parameters=tuple(float(p) for p in parameters),
                   block_widths=tuple(int(w) for w in widths))

    @classmethod
    def matrix(cls, psi) -> "RidgeSpec":
        return cls(full_matrix=as_matrix(psi, "psi"))

    def expand(self, num_params: int) -> np.ndarray:
        return self._expand(num_params)[0]

    def _expand(self, num_params: int):
        """Psi and rows S with S'S = Psi: Lambda^{1/2} F' from the
        decomposition of a full matrix, the root of the diagonal otherwise."""
        if self.full_matrix is not None:
            psi = self.full_matrix
            if psi.shape != (num_params, num_params):
                raise DimensionMismatchError(
                    f"shift matrix must be {num_params} x {num_params}, got {psi.shape}")
            try:
                spec = spectral_decompose(psi)
            except (NonSymmetricError, IndefiniteInputError) as exc:
                raise IndefiniteInputError(
                    f"shift matrix must be symmetric nonnegative definite: {exc}") from exc
            return psi, np.sqrt(spec.eigenvalues_pos)[:, None] * spec.eigenvectors_pos.T
        if self.block_parameters is None:
            raise DimensionMismatchError("ridge specification is empty")
        if any(p < 0 for p in self.block_parameters):
            raise IndefiniteInputError("ridge parameters must be nonnegative")
        if self.block_widths is None:
            if len(self.block_parameters) != 1:
                raise DimensionMismatchError(
                    "block parameters without widths only allowed for a scalar shift")
            diag = np.full(num_params, self.block_parameters[0])
        else:
            if sum(self.block_widths) != num_params:
                raise DimensionMismatchError(
                    f"block widths sum to {sum(self.block_widths)}, expected {num_params}")
            if len(self.block_parameters) != len(self.block_widths):
                raise DimensionMismatchError("one parameter per block required")
            diag = np.concatenate([np.full(w, p) for p, w
                                   in zip(self.block_parameters, self.block_widths)])
        return np.diag(diag), np.diag(np.sqrt(diag))


def ridge(model: GaussMarkoffModel, shift: RidgeSpec,
          tol: float | None = None) -> EstimateResult:
    """Ridge estimator beta_hat = (X'X + Psi)^{-1} X'y.

    Least squares on the rows [X; S] and [y; 0] with S'S = Psi, so
    X'X + Psi is never formed.  Deliberately biased unless Psi = 0;
    useful when X is ill conditioned.  Raises ShiftInsufficientError
    when the core's SVD finds [X; S] numerically rank deficient.  The
    covariance factor is the sandwich G Omega G' of the gain
    G = (X'X + Psi)^{-1} X'.
    """
    augmented = np.vstack([model.X, shift._expand(model.num_params)[1]])
    _, gain, _, _, report = _whitened_lsq(
        augmented, None, ShiftInsufficientError, tol,
        message="shifted design [X; Psi^(1/2)] has rank {} < K")
    # the appended rows have zero response, so only the gain on y acts
    gain = gain[:, :model.num_obs]
    beta = gain @ model.y
    return EstimateResult(beta_hat=beta, covariance_factor=_sandwich(gain, model.spectrum),
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.RIDGE,
                          diagnostics={"shifted_rank": report})


# ---------------------------------------------------------------------------
# stochastic restrictions

class StochasticRestrictions:
    """Noisy prior information r = R X_f beta + v, D(v) = Theta.

    With the default identity forecast design this is the classical
    mixed estimation setup r = R beta + v.  Theta must be positive
    definite: degenerate (exact) stochastic restrictions belong in
    LinearRestrictions instead.
    """

    def __init__(self, R: np.ndarray, r: np.ndarray, theta: np.ndarray,
                 forecast_design: np.ndarray | None = None):
        self.R = R
        self.r = r
        self.theta = theta
        self.forecast_design = forecast_design

    @classmethod
    def build(cls, R, r, theta, forecast_design=None) -> "StochasticRestrictions":
        R = as_matrix(R, "R")
        r = as_matrix(r, "r")
        theta = as_matrix(theta, "theta")
        fd = None if forecast_design is None else as_matrix(forecast_design,
                                                            "forecast_design")
        q = R.shape[0]
        if r.shape != (q, 1):
            raise DimensionMismatchError(f"r must be {q} x 1, got {r.shape}")
        if theta.shape != (q, q):
            raise DimensionMismatchError(f"theta must be {q} x {q}, got {theta.shape}")
        if fd is not None and fd.shape[0] != R.shape[1]:
            raise DimensionMismatchError(
                f"forecast design must have {R.shape[1]} rows, got {fd.shape}")
        return cls(R=R, r=r, theta=theta, forecast_design=fd)

    @property
    def count(self) -> int:
        return self.R.shape[0]

    def effective_restrictions(self, num_params: int) -> np.ndarray:
        if self.forecast_design is None:
            if self.R.shape[1] != num_params:
                raise DimensionMismatchError(
                    f"R must have {num_params} columns, got {self.R.shape[1]}")
            return self.R
        eff = self.R @ self.forecast_design
        if eff.shape[1] != num_params:
            raise DimensionMismatchError(
                f"R X_f must have {num_params} columns, got {eff.shape[1]}")
        return eff


def stochastic_restricted_gls(model: GaussMarkoffModel,
                              sres: StochasticRestrictions,
                              tol: float | None = None) -> EstimateResult:
    """GLS on the model augmented by noisy restrictions.

    The stacked system [y; r] = [X; R X_f] beta + [u; v] carries the
    block dispersion diag(s^2 Omega, Theta), with s^2 the model's sigma2
    when recorded and 1 otherwise.  The core fits [F'y; Theta_F' r] on
    [F'X; Theta_F' R X_f] under the row scale [s Lambda^{1/2}; theta^{1/2}],
    and its SVD decides the whitened augmented design's rank.  The
    covariance factor is V = (X' Omega^{-1} X + s^2 R' Theta^{-1} R)^{-1},
    so D(beta_hat) = s^2 V as for every estimator.  As Theta -> 0 the
    estimate tends to restricted GLS; as Theta -> infinity it tends to
    unrestricted GLS.
    """
    spec = _pd_dispersion(model)
    eff = sres.effective_restrictions(model.num_params)
    if sres.count == 0:
        return replace(gls(model, tol), estimator_tag=EstimatorTag.STOCHASTIC_RESTRICTED)
    theta_spec = spectral_decompose(sres.theta, tol=tol)
    if theta_spec.rank < sres.count:
        raise DispersionSingularError(
            "Theta is singular; express exact restrictions as LinearRestrictions")
    s2 = model.sigma2 if model.sigma2 is not None else 1.0
    fx, fy, root = _rotated(model)
    rotated_r = np.broadcast_to(theta_spec.project(sres.r), (sres.count, fy.shape[1]))
    beta, gain, _, _, ident = _whitened_lsq(
        np.vstack([fx, theta_spec.project(eff)]), np.vstack([fy, rotated_r]),
        IdentificationError, tol,
        scale=np.vstack([np.sqrt(s2) * root, np.sqrt(theta_spec.eigenvalues_pos)[:, None]]),
        message="augmented design lacks full column rank: whitened rank {} < K={}")
    # the whitened system has unit noise, so G G' = D(beta_hat) = s^2 V
    return EstimateResult(beta_hat=beta, covariance_factor=gain @ gain.T / s2,
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.STOCHASTIC_RESTRICTED,
                          diagnostics={"augmented_identification": ident,
                                       "dispersion_rank": spec.rank,
                                       "noise_scale": s2})


# ---------------------------------------------------------------------------
# singular-dispersion estimators

def mls(model: GaussMarkoffModel, tol: float | None = None) -> EstimateResult:
    """Pseudo-inverse least squares for (possibly) singular dispersion.

    beta_hat = (X' Omega^+ X)^{-1} X' Omega^+ y.  Exists exactly when
    F'X has full column rank; coincides with GLS whenever the dispersion
    is positive definite.
    """
    report, (beta, gain, _, _, _) = _pseudo_inverse_lsq(model, tol)
    return EstimateResult(beta_hat=beta, covariance_factor=gain @ gain.T,
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.MLS,
                          diagnostics={"whitened_design_rank": report,
                                       "dispersion_rank": model.spectrum.rank})


def tkn(model: GaussMarkoffModel, res: LinearRestrictions,
        tol: float | None = None) -> EstimateResult:
    """Pseudo-inverse estimator updated for exact restrictions.

    Minimizes (y - X beta)' Omega^+ (y - X beta) over R beta = r, which
    is b_mls + C+^{-1} R' [R C+^{-1} R']^{-1} (r - R b_mls) with
    C+ = X' Omega^+ X; R must have full row rank.  Reduces to restricted
    GLS for positive definite dispersion.
    """
    cons = _consistency_or_raise(res, tol)
    report, (beta, gain, _, r_report, _) = _pseudo_inverse_lsq(model, tol, (res.R, res.r))
    if r_report.numeric_rank < res.count:
        raise RestrictionGramSingularError(
            f"R has rank {r_report.numeric_rank} < {res.count} rows, "
            "so R C+^{-1} R' is singular")
    return EstimateResult(beta_hat=beta, covariance_factor=gain @ gain.T,
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.TKN,
                          diagnostics={"restriction_consistency": cons,
                                       "whitened_design_rank": report,
                                       "dispersion_rank": model.spectrum.rank})


# ---------------------------------------------------------------------------
# combined explicit + implicit restrictions

def _combined_checks(model: GaussMarkoffModel, combined: CombinedRestrictions, tol):
    """Identification, then combined consistency; the implicit rows A'X
    lie in the row space of X, so (explicit rows; X) decides rank(H; X)."""
    if combined.num_params != model.num_params:
        raise DimensionMismatchError(
            f"restrictions have {combined.num_params} columns, "
            f"design has {model.num_params}")
    ident = _joint_identification_or_raise(
        model.X, combined.H[:len(combined.explicit_rows)], tol)
    if not combined.consistent:
        raise _column_refusal(InconsistentRestrictionsError,
                              "combined restriction system H beta = h has no solution",
                              combined.inconsistent_column, combined.h.shape[1],
                              decision="combined_consistency")
    return ident


def _checked_particular(combined: CombinedRestrictions, particular):
    """A supplied particular solution, verified against each column of h."""
    if particular is None:
        return None
    part = as_matrix(particular, "particular")
    if part.shape != (combined.num_params, 1):
        raise DimensionMismatchError(
            f"particular solution must be {combined.num_params} x 1")
    if combined.count:
        gap = np.max(np.abs(combined.H @ part - combined.h), axis=0)
        missed = np.flatnonzero(gap > 1e-8 * (1.0 + np.max(np.abs(combined.h), axis=0)))
        if missed.size:
            j = int(missed[0])
            raise _column_refusal(InfeasibleParticularError,
                                  f"particular solution misses H beta = h by {gap[j]:.3g}",
                                  j, combined.h.shape[1])
    return part


def _constrained(model: GaussMarkoffModel, combined: CombinedRestrictions,
                 particular, tol):
    """The constrained estimate with the gain and beta* behind it."""
    ident = _combined_checks(model, combined, tol)
    part = _checked_particular(combined, particular)
    fx, fy, root = _rotated(model)
    beta, gain, beta_star, h_report, _ = _whitened_lsq(
        fx, fy, ReducedGramSingularError, tol, rows=(combined.H, combined.h),
        particular=part, scale=root)
    result = EstimateResult(beta_hat=beta, covariance_factor=gain @ gain.T,
                            y=model.y, X=model.X,
                            estimator_tag=EstimatorTag.CONSTRAINED_SINGULAR,
                            diagnostics={"joint_identification": ident,
                                         "combined_consistency": True,
                                         "dispersion_rank": model.spectrum.rank,
                                         "restriction_rank": h_report})
    return result, gain, beta_star


def constrained_singular_gls(model: GaussMarkoffModel,
                             combined: CombinedRestrictions,
                             particular=None,
                             tol: float | None = None) -> EstimateResult:
    """Best linear unbiased estimation under H beta = h with singular dispersion.

    With N an orthonormal null-space basis of H, beta* any solution of
    H beta = h, and the thin SVD W X N = U S V':

        beta_hat = beta* + N V S^{-1} U' W (y - X beta*)

    which equals N C_N^{-1} N' X' Omega^+ y + (I - N C_N^{-1} N' C+) beta*
    with C_N = N' C+ N.  The estimate does not depend on the choice of
    beta*; the covariance factor is N V S^{-2} V' N' = N C_N^{-1} N'.
    """
    return _constrained(model, combined, particular, tol)[0]


def linear_representation(model: GaussMarkoffModel,
                          combined: CombinedRestrictions,
                          free_coefficients,
                          implicit: ImplicitRestrictions,
                          particular=None,
                          tol: float | None = None) -> EstimateResult:
    """Member of the affine class of representations of the constrained estimator.

    Adds the identically-zero term G_free (A'y - g) to the constrained
    estimate, yielding beta_hat = L y + offset with

        L = G W + G_free A'
        offset = (I - G W X) beta* - G_free g

    where G = N V S^{-1} U' is the constrained estimator's gain.

    Different choices of G_free give different coefficient matrices L
    but the same estimate on admissible data; A is the null basis
    ``model.spectrum.eigenvectors_null``.  The map and offset are
    reported in the diagnostics under "linear_map" and "offset".
    """
    spec = model.spectrum
    g_free = as_matrix(free_coefficients, "free_coefficients")
    null_dim = model.num_obs - spec.rank
    if g_free.shape != (model.num_params, null_dim):
        raise DimensionMismatchError(
            f"free coefficients must be {model.num_params} x {null_dim}, "
            f"got {g_free.shape}")
    base, gain, beta_star = _constrained(model, combined, particular, tol)
    fx, _, root = _rotated(model)
    a_mat = spec.eigenvectors_null
    beta = base.beta_hat + (g_free @ (a_mat.T @ model.y) - g_free @ implicit.g)
    diagnostics = base.diagnostics
    # G W with W = Lambda^{-1/2} F', never materializing W
    diagnostics["linear_map"] = (gain / root.T) @ spec.eigenvectors_pos.T + g_free @ a_mat.T
    # G W X beta* as the core forms it: the rotated product, then its scale
    diagnostics["offset"] = (beta_star - gain @ ((fx @ beta_star) / root)) \
        - g_free @ implicit.g
    return EstimateResult(beta_hat=beta, covariance_factor=base.covariance_factor,
                          y=model.y, X=model.X,
                          estimator_tag=EstimatorTag.CONSTRAINED_SINGULAR,
                          diagnostics=diagnostics)
