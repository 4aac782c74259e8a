"""Point estimators for the general Gauss-Markoff model.

The catalogue covers the regular cases (OLS, GLS), exact linear
restrictions (restricted OLS/GLS), deliberately biased shifts (ridge),
stochastic restrictions (mixed estimation on an augmented system), and
the singular-dispersion cases built on the Moore-Penrose inverse: the
pseudo-inverse estimator, its explicitly-restricted variant, and the
fully general constrained estimator that folds the restrictions the
singular dispersion itself imposes into the solve.

Sign convention for restricted updates: every correction term uses the
orientation (r - R beta_unrestricted), which makes R beta_hat = r hold
exactly.  Restriction satisfaction is an invariant of the returned
estimates, not an approximation.

The dispersion's decomposition comes from ``model.spectrum``, so its
rank is the one build_model fixed; an estimator's ``tol`` governs the
remaining rank decisions (design, restrictions, whitened design).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    invert_restrictions,
)
from .spectral import (
    SpectralDecomposition,
    as_matrix,
    null_space_basis,
    numeric_rank,
    spectral_decompose,
)

__all__ = [
    "RidgeSpec",
    "StochasticRestrictions",
    "NormalSystemSolution",
    "ols",
    "gls",
    "rols",
    "rgls",
    "ridge",
    "stochastic_restricted_gls",
    "mls",
    "tkn",
    "solve_normal_system",
    "constrained_singular_gls",
    "linear_representation",
]


# ---------------------------------------------------------------------------
# shared plumbing

def _spd_solve(a: np.ndarray, b: np.ndarray, exc: Exception) -> np.ndarray:
    try:
        factor = scipy.linalg.cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        raise exc from None
    return scipy.linalg.cho_solve(factor, b)


def _spd_inverse(a: np.ndarray, exc: Exception) -> np.ndarray:
    inv = _spd_solve(a, np.eye(a.shape[0]), exc)
    return 0.5 * (inv + inv.T)


def _design_full_rank(model: GaussMarkoffModel, tol):
    report = numeric_rank(model.X, tol=tol)
    if report.numeric_rank < model.num_params:
        raise DesignRankDeficientError(
            f"design has numeric rank {report.numeric_rank} < K={model.num_params}")
    return report


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
            "restriction system R beta = r has no solution")
    return report


def _joint_identification_or_raise(x_mat: np.ndarray, restr: np.ndarray, tol):
    report = numeric_rank(np.vstack([restr, x_mat]), tol=tol)
    if report.numeric_rank < x_mat.shape[1]:
        raise IdentificationError(
            f"stacked restriction/design matrix has rank {report.numeric_rank} "
            f"< K={x_mat.shape[1]}", report=report)
    return report


# ---------------------------------------------------------------------------
# regular estimators

def ols(model: GaussMarkoffModel, tol: float | None = None) -> EstimateResult:
    """Ordinary least squares, beta_hat = (X'X)^{-1} X'y.

    The covariance factor is the sandwich (X'X)^{-1} X' Omega X (X'X)^{-1},
    correct under the model dispersion sigma^2 * Omega.
    """
    report = _design_full_rank(model, tol)
    beta = np.linalg.lstsq(model.X, model.y, rcond=None)[0]
    xtx = model.X.T @ model.X
    xtx_inv = _spd_inverse(xtx, DesignRankDeficientError("X'X is numerically singular"))
    middle = model.X.T @ model.dispersion @ model.X
    cov = xtx_inv @ middle @ xtx_inv
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.OLS,
                          diagnostics={"design_rank": report})


def _gls_core(model: GaussMarkoffModel, tol):
    spec = _pd_dispersion(model)
    report = _design_full_rank(model, tol)
    factor = scipy.linalg.cho_factor(0.5 * (model.dispersion + model.dispersion.T),
                                     lower=True)
    wx = scipy.linalg.cho_solve(factor, model.X)
    wy = scipy.linalg.cho_solve(factor, model.y)
    c_mat = model.X.T @ wx
    beta = _spd_solve(c_mat, model.X.T @ wy,
                      DesignRankDeficientError("X' Omega^{-1} X is singular"))
    cov = _spd_inverse(c_mat, DesignRankDeficientError("X' Omega^{-1} X is singular"))
    diag = {"design_rank": report, "dispersion_rank": spec.rank,
            "dispersion_tolerance": spec.tolerance_used}
    return beta, c_mat, cov, diag


def gls(model: GaussMarkoffModel, tol: float | None = None) -> EstimateResult:
    """Generalized least squares for positive definite dispersion.

    beta_hat = (X' Omega^{-1} X)^{-1} X' Omega^{-1} y
    """
    beta, _, cov, diag = _gls_core(model, tol)
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.GLS, diagnostics=diag)


# ---------------------------------------------------------------------------
# exactly restricted estimators, regular dispersion

def _restricted_lsq(x_mat, y_vec, res, tol):
    """Reparametrized solve of min ||y - X beta|| over R beta = r."""
    particular, basis = invert_restrictions(res, tol=tol)
    reduced = x_mat @ basis
    shifted = y_vec - x_mat @ particular
    coef = np.linalg.lstsq(reduced, shifted, rcond=None)[0]
    return particular + basis @ coef, basis


def rols(model: GaussMarkoffModel, res: LinearRestrictions,
         tol: float | None = None) -> EstimateResult:
    """Restricted OLS under R beta = r.

    With a full-rank design the closed form
        beta_hat = b_ols + (X'X)^{-1} R' [R (X'X)^{-1} R']^{-1} (r - R b_ols)
    is used; a collinear design is handled through the reparametrization
    beta = particular + N c, which needs only the joint rank condition
    on (R; X).
    """
    cons = _consistency_or_raise(res, tol)
    ident = _joint_identification_or_raise(model.X, res.R, tol)
    design = numeric_rank(model.X, tol=tol)
    rank_r = numeric_rank(res.R, tol=tol)
    if not design.deficient and rank_r.numeric_rank == res.count:
        base = np.linalg.lstsq(model.X, model.y, rcond=None)[0]
        xtx_inv = _spd_inverse(model.X.T @ model.X,
                               DesignRankDeficientError("X'X is singular"))
        v_mat = xtx_inv @ res.R.T
        gram = res.R @ v_mat
        beta = base + v_mat @ _spd_solve(
            gram, res.r - res.R @ base,
            RestrictionGramSingularError("R (X'X)^{-1} R' is singular"))
        basis = null_space_basis(res.R, tol=tol)
    else:
        beta, basis = _restricted_lsq(model.X, model.y, res, tol)
    cov = _restricted_sandwich(basis, model.X.T @ model.X, model, tol)
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.ROLS,
                          diagnostics={"restriction_consistency": cons,
                                       "joint_identification": ident,
                                       "design_rank": design})


def _restricted_sandwich(basis, metric, model, tol):
    """Covariance factor N S^{-1} N' X' Omega X N S^{-1} N', S = N' metric N."""
    if basis.shape[1] == 0:
        k_dim = model.num_params
        return np.zeros((k_dim, k_dim))
    s_mat = basis.T @ metric @ basis
    proj = basis @ _spd_inverse(
        s_mat, IdentificationError("restricted normal matrix is singular")) @ basis.T
    middle = model.X.T @ model.dispersion @ model.X
    return proj @ middle @ proj


def rgls(model: GaussMarkoffModel, res: LinearRestrictions,
         tol: float | None = None) -> EstimateResult:
    """Restricted GLS under R beta = r, positive definite dispersion.

    Closed form with full-rank design:
        beta_hat = b_gls + C^{-1} R' [R C^{-1} R']^{-1} (r - R b_gls),
    C = X' Omega^{-1} X.  Collinear designs go through the whitened
    reparametrization.
    """
    spec = _pd_dispersion(model)
    cons = _consistency_or_raise(res, tol)
    ident = _joint_identification_or_raise(model.X, res.R, tol)
    design = numeric_rank(model.X, tol=tol)
    rank_r = numeric_rank(res.R, tol=tol)
    whitener = (spec.eigenvectors_pos / np.sqrt(spec.eigenvalues_pos)).T
    if not design.deficient and rank_r.numeric_rank == res.count:
        beta_g, c_mat, c_inv, _ = _gls_core(model, tol)
        v_mat = c_inv @ res.R.T
        gram = res.R @ v_mat
        beta = beta_g + v_mat @ _spd_solve(
            gram, res.r - res.R @ beta_g,
            RestrictionGramSingularError("R C^{-1} R' is singular"))
        basis = null_space_basis(res.R, tol=tol)
    else:
        beta, basis = _restricted_lsq(whitener @ model.X, whitener @ model.y, res, tol)
        c_mat = (whitener @ model.X).T @ (whitener @ model.X)
    if basis.shape[1] == 0:
        cov = np.zeros((model.num_params, model.num_params))
    else:
        s_mat = basis.T @ c_mat @ basis
        cov = basis @ _spd_inverse(
            s_mat, IdentificationError("restricted normal matrix is singular")) @ basis.T
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.RGLS,
                          diagnostics={"restriction_consistency": cons,
                                       "joint_identification": ident,
                                       "design_rank": design,
                                       "dispersion_rank": spec.rank})


# ---------------------------------------------------------------------------
# ridge

@dataclass(frozen=True)
class RidgeSpec:
    """Shift matrix for the ridge estimator (X'X + Psi)^{-1} X'y.

    Either a full K x K symmetric nonnegative definite matrix, or
    per-block parameters psi_i expanded to diag(psi_1 I_{K_1}, ...),
    which requires the block widths.
    """

    full_matrix: np.ndarray | None = None
    block_parameters: tuple | None = None
    block_widths: tuple | None = None

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
        if self.full_matrix is not None:
            psi = self.full_matrix
            if psi.shape != (num_params, num_params):
                raise DimensionMismatchError(
                    f"shift matrix must be {num_params} x {num_params}, got {psi.shape}")
            try:
                spectral_decompose(psi)
            except (NonSymmetricError, IndefiniteInputError) as exc:
                raise IndefiniteInputError(
                    f"shift matrix must be symmetric nonnegative definite: {exc}") from exc
            return psi
        if self.block_parameters is None:
            raise DimensionMismatchError("ridge specification is empty")
        if any(p < 0 for p in self.block_parameters):
            raise IndefiniteInputError("ridge parameters must be nonnegative")
        if self.block_widths is None:
            if len(self.block_parameters) != 1:
                raise DimensionMismatchError(
                    "block parameters without widths only allowed for a scalar shift")
            return self.block_parameters[0] * np.eye(num_params)
        if sum(self.block_widths) != num_params:
            raise DimensionMismatchError(
                f"block widths sum to {sum(self.block_widths)}, expected {num_params}")
        if len(self.block_parameters) != len(self.block_widths):
            raise DimensionMismatchError("one parameter per block required")
        diag = np.concatenate([np.full(w, p) for p, w
                               in zip(self.block_parameters, self.block_widths)])
        return np.diag(diag)


def ridge(model: GaussMarkoffModel, shift: RidgeSpec,
          tol: float | None = None) -> EstimateResult:
    """Ridge estimator beta_hat = (X'X + Psi)^{-1} X'y.

    Deliberately biased unless Psi = 0; useful when X'X is ill
    conditioned.  Raises ShiftInsufficientError when X'X + Psi is still
    numerically singular.
    """
    psi = shift.expand(model.num_params)
    a_mat = model.X.T @ model.X + psi
    report = numeric_rank(a_mat, tol=tol)
    if report.numeric_rank < model.num_params:
        raise ShiftInsufficientError(
            f"shifted normal matrix has rank {report.numeric_rank} < K")
    a_inv = _spd_inverse(a_mat, ShiftInsufficientError("shifted normal matrix "
                                                       "is not positive definite"))
    beta = a_inv @ (model.X.T @ model.y)
    middle = model.X.T @ model.dispersion @ model.X
    return EstimateResult(beta_hat=beta, covariance_factor=a_inv @ middle @ a_inv,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.RIDGE,
                          diagnostics={"shifted_rank": report})


# ---------------------------------------------------------------------------
# stochastic restrictions

@dataclass(frozen=True)
class StochasticRestrictions:
    """Noisy prior information r = R X_f beta + v, D(v) = Theta.

    With the default identity forecast design this is the classical
    mixed estimation setup r = R beta + v.  Theta must be positive
    definite: degenerate (exact) stochastic restrictions belong in
    LinearRestrictions instead.
    """

    R: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    forecast_design: np.ndarray | None = None

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
    when recorded and 1 otherwise.  As Theta -> 0 the estimate tends to
    restricted GLS; as Theta -> infinity it tends to unrestricted GLS.
    """
    spec = _pd_dispersion(model)
    eff = sres.effective_restrictions(model.num_params)
    if sres.count == 0:
        beta, _, cov, diag = _gls_core(model, tol)
        return EstimateResult(beta_hat=beta, covariance_factor=cov,
                              residuals=model.y - model.X @ beta,
                              estimator_tag=EstimatorTag.STOCHASTIC_RESTRICTED,
                              diagnostics=diag)
    theta_spec = spectral_decompose(sres.theta, tol=tol)
    if theta_spec.rank < sres.count:
        raise DispersionSingularError(
            "Theta is singular; express exact restrictions as LinearRestrictions")
    s2 = model.sigma2 if model.sigma2 is not None else 1.0
    omega_factor = scipy.linalg.cho_factor(
        0.5 * s2 * (model.dispersion + model.dispersion.T), lower=True)
    theta_factor = scipy.linalg.cho_factor(0.5 * (sres.theta + sres.theta.T),
                                           lower=True)
    wx = scipy.linalg.cho_solve(omega_factor, model.X)
    wy = scipy.linalg.cho_solve(omega_factor, model.y)
    tr_eff = scipy.linalg.cho_solve(theta_factor, eff)
    tr_r = scipy.linalg.cho_solve(theta_factor, sres.r)
    ident = numeric_rank(np.vstack([eff, model.X]), tol=tol)
    if ident.numeric_rank < model.num_params:
        raise IdentificationError(
            "augmented design lacks full column rank", report=ident)
    a_mat = model.X.T @ wx + eff.T @ tr_eff
    beta = _spd_solve(a_mat, model.X.T @ wy + eff.T @ tr_r,
                      IdentificationError("augmented normal matrix is singular"))
    cov = _spd_inverse(a_mat, IdentificationError("augmented normal matrix is singular"))
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.STOCHASTIC_RESTRICTED,
                          diagnostics={"augmented_identification": ident,
                                       "dispersion_rank": spec.rank,
                                       "noise_scale": s2})


# ---------------------------------------------------------------------------
# singular-dispersion estimators

def _pinv_normal(model: GaussMarkoffModel):
    """C+ = X' Omega^+ X and X' Omega^+ y from the model's spectrum."""
    f = model.spectrum.eigenvectors_pos
    fx = f.T @ model.X
    inv_lam = (1.0 / model.spectrum.eigenvalues_pos)[:, None]
    return fx.T @ (fx * inv_lam), fx.T @ ((f.T @ model.y) * inv_lam)


def _mls_core(model: GaussMarkoffModel, tol):
    ok, report = check_mls_invertibility(model.X, model.spectrum, tol=tol)
    if not ok:
        raise TheilRankConditionError(
            f"F'X has rank {report.numeric_rank} < K={model.num_params}; "
            "the pseudo-inverse normal matrix is not invertible", report=report)
    c_plus, rhs = _pinv_normal(model)
    beta = _spd_solve(c_plus, rhs,
                      TheilRankConditionError("X' Omega^+ X is numerically singular",
                                              report=report))
    c_plus_inv = _spd_inverse(
        c_plus, TheilRankConditionError("X' Omega^+ X is numerically singular",
                                        report=report))
    return beta, c_plus_inv, report


def mls(model: GaussMarkoffModel, tol: float | None = None) -> EstimateResult:
    """Pseudo-inverse least squares for (possibly) singular dispersion.

    beta_hat = (X' Omega^+ X)^{-1} X' Omega^+ y.  Exists exactly when
    F'X has full column rank; coincides with GLS whenever the dispersion
    is positive definite.
    """
    beta, c_plus_inv, report = _mls_core(model, tol)
    return EstimateResult(beta_hat=beta, covariance_factor=c_plus_inv,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.MLS,
                          diagnostics={"whitened_design_rank": report,
                                       "dispersion_rank": model.spectrum.rank})


def tkn(model: GaussMarkoffModel, res: LinearRestrictions,
        tol: float | None = None) -> EstimateResult:
    """Pseudo-inverse estimator updated for exact restrictions.

    beta_hat = b_mls + C+^{-1} R' [R C+^{-1} R']^{-1} (r - R b_mls),
    C+ = X' Omega^+ X.  Reduces to restricted GLS for positive definite
    dispersion.
    """
    cons = _consistency_or_raise(res, tol)
    beta_m, c_plus_inv, report = _mls_core(model, tol)
    v_mat = c_plus_inv @ res.R.T
    gram = res.R @ v_mat
    correction = _spd_solve(
        gram, res.r - res.R @ beta_m,
        RestrictionGramSingularError("R C+^{-1} R' is singular"))
    beta = beta_m + v_mat @ correction
    gram_inv = _spd_inverse(gram,
                            RestrictionGramSingularError("R C+^{-1} R' is singular"))
    cov = c_plus_inv - v_mat @ gram_inv @ v_mat.T
    return EstimateResult(beta_hat=beta, covariance_factor=0.5 * (cov + cov.T),
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.TKN,
                          diagnostics={"restriction_consistency": cons,
                                       "whitened_design_rank": report,
                                       "dispersion_rank": model.spectrum.rank})


# ---------------------------------------------------------------------------
# combined explicit + implicit restrictions

@dataclass(frozen=True)
class NormalSystemSolution:
    """Solution of the bordered normal system.

    beta_hat is always unique under the rank preconditions; the
    multipliers are unique only when H has full row rank, which
    ``lagrange_unique`` records.  ``residual_norm`` is the Euclidean
    residual of the bordered system at the returned solution.
    """

    beta_hat: np.ndarray
    lagrange: np.ndarray
    residual_norm: float
    lagrange_unique: bool


def _combined_checks(model: GaussMarkoffModel, combined: CombinedRestrictions, tol):
    if not combined.consistent:
        raise InconsistentRestrictionsError(
            "combined restriction system H beta = h has no solution")
    if combined.num_params != model.num_params:
        raise DimensionMismatchError(
            f"restrictions have {combined.num_params} columns, "
            f"design has {model.num_params}")
    return _joint_identification_or_raise(model.X, combined.H, tol)


def solve_normal_system(model: GaussMarkoffModel,
                        combined: CombinedRestrictions,
                        tol: float | None = None) -> NormalSystemSolution:
    """Solve the bordered first-order system of the constrained problem.

        [ C+   H' ] [ beta   ]   [ X' Omega^+ y ]
        [ H    0  ] [ lambda ] = [ h            ]

    Redundant rows of H leave the system singular but consistent; the
    minimum-norm least-squares solution is returned and the multiplier
    block flagged non-unique.
    """
    _combined_checks(model, combined, tol)
    c_plus, rhs_top = _pinv_normal(model)
    k_dim, rows = model.num_params, combined.count
    system = np.zeros((k_dim + rows, k_dim + rows))
    system[:k_dim, :k_dim] = c_plus
    system[:k_dim, k_dim:] = combined.H.T
    system[k_dim:, :k_dim] = combined.H
    rhs = np.vstack([rhs_top, combined.h])
    solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(system @ solution - rhs))
    h_rank = numeric_rank(combined.H, tol=tol).numeric_rank
    return NormalSystemSolution(beta_hat=solution[:k_dim],
                                lagrange=solution[k_dim:],
                                residual_norm=residual,
                                lagrange_unique=h_rank == rows)


def _particular_solution(combined: CombinedRestrictions, particular, tol):
    if particular is not None:
        part = as_matrix(particular, "particular")
        if part.shape != (combined.num_params, 1):
            raise DimensionMismatchError(
                f"particular solution must be {combined.num_params} x 1")
        if combined.count:
            gap = float(np.max(np.abs(combined.H @ part - combined.h)))
            if gap > 1e-8 * (1.0 + float(np.max(np.abs(combined.h)))):
                raise InfeasibleParticularError(
                    f"particular solution misses H beta = h by {gap:.3g}")
        return part
    if combined.count == 0:
        return np.zeros((combined.num_params, 1))
    return np.linalg.lstsq(combined.H, combined.h, rcond=None)[0]


def constrained_singular_gls(model: GaussMarkoffModel,
                             combined: CombinedRestrictions,
                             particular=None,
                             tol: float | None = None) -> EstimateResult:
    """Best linear unbiased estimation under H beta = h with singular dispersion.

    With N an orthonormal null-space basis of H, S = N' C+ N, and beta*
    any solution of H beta = h:

        beta_hat = N S^{-1} N' X' Omega^+ y + (I - N S^{-1} N' C+) beta*

    The estimate does not depend on the choice of beta*; the covariance
    factor is N S^{-1} N'.
    """
    ident = _combined_checks(model, combined, tol)
    basis = null_space_basis(combined.H, tol=tol)
    beta_star = _particular_solution(combined, particular, tol)
    k_dim = model.num_params
    c_plus, rhs_top = _pinv_normal(model)
    if basis.shape[1] == 0:
        beta = beta_star
        cov = np.zeros((k_dim, k_dim))
    else:
        s_mat = basis.T @ c_plus @ basis
        s_report = numeric_rank(s_mat, tol=tol)
        s_inv = _spd_inverse(
            s_mat, ReducedGramSingularError(
                f"projected normal matrix has rank {s_report.numeric_rank} "
                f"< {basis.shape[1]}", report=s_report))
        proj = basis @ s_inv @ basis.T
        beta = proj @ rhs_top + (beta_star - proj @ (c_plus @ beta_star))
        cov = proj
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.CONSTRAINED_SINGULAR,
                          diagnostics={"joint_identification": ident,
                                       "dispersion_rank": model.spectrum.rank,
                                       "restriction_rank": numeric_rank(combined.H,
                                                                        tol=tol)})


def linear_representation(model: GaussMarkoffModel,
                          combined: CombinedRestrictions,
                          free_coefficients,
                          implicit: ImplicitRestrictions,
                          particular=None,
                          tol: float | None = None) -> EstimateResult:
    """Member of the affine class of representations of the constrained estimator.

    Adds the identically-zero term G_free (A'y - g) to the constrained
    estimate, yielding beta_hat = L y + offset with

        L = N S^{-1} N' X' Omega^+ + G_free A'
        offset = (I - N S^{-1} N' C+) beta* - G_free g

    Different choices of G_free give different coefficient matrices L
    but the same estimate on admissible data.  The map and offset are
    reported in the diagnostics under "linear_map" and "offset".
    """
    spec = model.spectrum
    g_free = as_matrix(free_coefficients, "free_coefficients")
    null_dim = model.num_obs - spec.rank
    if g_free.shape != (model.num_params, null_dim):
        raise DimensionMismatchError(
            f"free coefficients must be {model.num_params} x {null_dim}, "
            f"got {g_free.shape}")
    base = constrained_singular_gls(model, combined, particular=particular, tol=tol)
    correction = g_free @ (implicit.A.T @ model.y) - g_free @ implicit.g
    beta = base.beta_hat + correction
    ident = dict(base.diagnostics)
    c_plus, _ = _pinv_normal(model)
    basis = null_space_basis(combined.H, tol=tol)
    if basis.shape[1]:
        s_inv = _spd_inverse(basis.T @ c_plus @ basis,
                             ReducedGramSingularError("projected normal matrix "
                                                      "is singular"))
        proj = basis @ s_inv @ basis.T
    else:
        proj = np.zeros((model.num_params, model.num_params))
    pinv_omega = spec.pinv()
    beta_star = _particular_solution(combined, particular, tol)
    ident["linear_map"] = proj @ (model.X.T @ pinv_omega) + g_free @ implicit.A.T
    ident["offset"] = (beta_star - proj @ (c_plus @ beta_star)) - g_free @ implicit.g
    return EstimateResult(beta_hat=beta, covariance_factor=base.covariance_factor,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.CONSTRAINED_SINGULAR,
                          diagnostics=ident)
