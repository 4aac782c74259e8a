"""Fixed-effects panel estimation with intertemporal error correlation.

The model is y = X beta + Z gamma + u with one dummy per equation
(Z = I_n kron e_m) and per-equation error dispersion Sigma (common, the
Kronecker case) or Sigma_i (block-diagonal case).  Everything is stored
equation-major: row i*m + t is period t of equation i.

Two estimation routes exist for the slope vector and they coincide:
GLS after sweeping out the fixed effects with the oblique projector P,
and pseudo-inverse least squares on the within-transformed model, whose
dispersion I_n kron (M_m Sigma M_m) is singular of rank n(m-1).  The
identity P = M (I_n kron M_m Sigma M_m)^+ M is what verify_theorem5
checks numerically.

Responses may hold B >= 1 columns on the same designs and dispersion;
the estimators sweep and factor once and return K x B slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DispersionNotPDError,
    DispersionSingularError,
    IdentificationError,
    TheilRankConditionError,
)
from .model import (EstimateResult, EstimatorTag, GaussMarkoffModel, _block_diag,
                    build_model)
from .spectral import as_matrix, numeric_rank, spectral_decompose

# Projector matrices are materialized densely only up to this many rows.
DENSE_PROJECTOR_CAP = 2000


@dataclass(frozen=True)
class FEPanelModel:
    """Equation-major fixed-effects panel data.

    ``sigma`` holds the common m x m dispersion in the Kronecker case;
    ``sigma_blocks`` the per-equation dispersions otherwise.  Exactly
    one of the two is set.
    """

    n: int
    m: int
    X: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None
    sigma_blocks: tuple | None = None

    @property
    def num_obs(self) -> int:
        return self.n * self.m

    @property
    def num_params(self) -> int:
        return self.X.shape[1]

    @property
    def kronecker(self) -> bool:
        return self.sigma is not None

    def block(self, i: int) -> np.ndarray:
        return self.sigma if self.kronecker else self.sigma_blocks[i]

    def equation_rows(self, i: int) -> slice:
        return slice(i * self.m, (i + 1) * self.m)


@dataclass(frozen=True)
class ProjectorSet:
    """Dense projector matrices of the fixed-effects sweep.

    M centers each equation over time, Q projects onto the dummy columns
    along the metric I kron Sigma^{-1}, and P = (I kron Sigma^{-1})(I - Q)
    is the weighting matrix of the swept GLS problem.
    """

    M: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    centering: np.ndarray


def centering_matrix(m: int) -> np.ndarray:
    """M_m = I_m - e e'/m, the within (time-demeaning) operator."""
    return np.eye(m) - np.full((m, m), 1.0 / m)


def dummy_matrix(n: int, m: int) -> np.ndarray:
    """The fixed-effects design Z = I_n kron e_m."""
    return np.kron(np.eye(n), np.ones((m, 1)))


def build_fe_model(designs, responses, sigma=None, sigma_blocks=None) -> FEPanelModel:
    """Assemble a fixed-effects panel from per-equation data.

    designs: n matrices of shape m x K; responses: n vectors of length m,
    or n m x B matrices holding B responses each.  Provide either one
    common ``sigma`` (Kronecker dispersion) or ``sigma_blocks`` with one
    m x m matrix per equation.  Every block must be symmetric positive
    definite, so every finite response is admissible.
    """
    xs = [as_matrix(d, f"design {i}") for i, d in enumerate(designs)]
    ys = [as_matrix(r, f"response {i}") for i, r in enumerate(responses)]
    n = len(xs)
    if n == 0 or len(ys) != n:
        raise DimensionMismatchError("need matching non-empty design and response lists")
    m, k_dim = xs[0].shape
    columns = ys[0].shape[1]
    for i in range(n):
        if xs[i].shape != (m, k_dim):
            raise DimensionMismatchError(f"design {i} must be {m} x {k_dim}")
        if ys[i].shape != (m, columns) or columns == 0:
            raise DimensionMismatchError(
                f"response {i} must be {m} x 1 or {m} x B, all with the same B")
    if (sigma is None) == (sigma_blocks is None):
        raise DimensionMismatchError("provide exactly one of sigma, sigma_blocks")
    if sigma is not None:
        blocks = [as_matrix(sigma, "sigma")]
    else:
        blocks = [as_matrix(b, f"sigma block {i}") for i, b in enumerate(sigma_blocks)]
        if len(blocks) != n:
            raise DimensionMismatchError(f"need {n} sigma blocks, got {len(blocks)}")
    for i, b in enumerate(blocks):
        if b.shape != (m, m):
            raise DimensionMismatchError(f"sigma block {i} must be {m} x {m}")
        try:
            spec = spectral_decompose(b)
        except Exception as exc:
            raise DispersionNotPDError(f"sigma block {i}: {exc}") from exc
        if spec.rank < m:
            raise DispersionNotPDError(
                f"sigma block {i} is singular (rank {spec.rank} < {m})")
    return FEPanelModel(
        n=n, m=m, X=np.vstack(xs), y=np.vstack(ys),
        sigma=blocks[0] if sigma is not None else None,
        sigma_blocks=None if sigma is not None else tuple(blocks),
    )


def _sweep_blocks(model: FEPanelModel):
    """Per-equation (Q_i, P_i) blocks of the fixed-effects sweep."""
    ones = np.ones((model.m, 1))
    out = []
    for i in range(model.n):
        sig = 0.5 * (model.block(i) + model.block(i).T)
        try:
            np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            raise DispersionNotPDError(f"sigma block {i} is not positive definite") \
                from None
        sig_inv_e = np.linalg.solve(sig, ones)
        denom = float((ones.T @ sig_inv_e)[0, 0])
        q_i = ones @ (sig_inv_e.T / denom)
        p_i = np.linalg.solve(sig, np.eye(model.m) - q_i)
        out.append((q_i, p_i))
        if model.kronecker:
            return [out[0]] * model.n
    return out


def _solve_normal(normal: np.ndarray, rhs: np.ndarray):
    """Solution and symmetrized inverse of a positive definite normal system."""
    sol = np.linalg.solve(0.5 * (normal + normal.T),
                          np.hstack([rhs, np.eye(normal.shape[0])]))
    cov = sol[:, rhs.shape[1]:]
    return sol[:, :rhs.shape[1]], 0.5 * (cov + cov.T)


def build_projectors(model: FEPanelModel,
                     dense_cap: int = DENSE_PROJECTOR_CAP) -> ProjectorSet:
    """Materialize M, Q, and P as dense matrices.

    Refuses above ``dense_cap`` rows; the estimators never materialize
    these and work per equation block instead.
    """
    if model.num_obs > dense_cap:
        raise ValueError(
            f"refusing to materialize {model.num_obs} x {model.num_obs} projectors; "
            f"raise dense_cap explicitly if that is intended")
    cm = centering_matrix(model.m)
    blocks = _sweep_blocks(model)
    return ProjectorSet(
        M=np.kron(np.eye(model.n), cm),
        Q=_block_diag(*[q for q, _ in blocks]),
        P=_block_diag(*[p for _, p in blocks]),
        centering=cm,
    )


def fe_gls(model: FEPanelModel) -> EstimateResult:
    """Slope GLS after sweeping out the fixed effects.

    beta_hat = (X' P X)^{-1} X' P y, accumulated equation by equation.
    """
    blocks = _sweep_blocks(model)
    k_dim = model.num_params
    normal = np.zeros((k_dim, k_dim))
    rhs = np.zeros((k_dim, model.y.shape[1]))
    for i in range(model.n):
        rows = model.equation_rows(i)
        xp = model.X[rows].T @ blocks[i][1]
        normal += xp @ model.X[rows]
        rhs += xp @ model.y[rows]
    report = numeric_rank(normal)
    if report.numeric_rank < k_dim:
        raise IdentificationError(
            "swept normal matrix X'PX is singular; the slopes are not identified "
            "(check for time-invariant regressors)", report=report)
    beta, cov = _solve_normal(normal, rhs)
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.PANEL_GLS,
                          diagnostics={"swept_rank": report})


def within_transform(model: FEPanelModel) -> GaussMarkoffModel:
    """Center the panel over time and carry the induced dispersion.

    Returns the general Gauss-Markoff model {My, MX, I kron M Sigma M}.
    The transformed dispersion is singular by construction: its rank is
    n(m-1), one direction per equation having been removed.
    """
    cm = centering_matrix(model.m)
    xs, ys, disp = [], [], []
    for i in range(model.n):
        rows = model.equation_rows(i)
        xs.append(cm @ model.X[rows])
        ys.append(cm @ model.y[rows])
        disp.append(cm @ model.block(i) @ cm)
    omega = _block_diag(*disp)
    return build_model(np.vstack(ys), np.vstack(xs), omega)


def _within_pinv_blocks(model: FEPanelModel):
    """Pseudo-inverses of the per-equation within dispersions M Sigma M."""
    cm = centering_matrix(model.m)
    out = []
    for i in range(model.n):
        spec = spectral_decompose(cm @ model.block(i) @ cm)
        if spec.rank != model.m - 1:
            raise DispersionSingularError(
                f"within dispersion of equation {i} has rank {spec.rank}, "
                f"expected {model.m - 1}")
        out.append(spec)
        if model.kronecker:
            return [spec] * model.n
    return out


def fe_mls(model: FEPanelModel) -> EstimateResult:
    """Pseudo-inverse least squares on the within-transformed model.

    beta_hat = (X'M (I kron MSM)^+ MX)^{-1} X'M (I kron MSM)^+ y.
    Coincides with fe_gls whenever the latter exists.
    """
    cm = centering_matrix(model.m)
    specs = _within_pinv_blocks(model)
    k_dim = model.num_params
    normal = np.zeros((k_dim, k_dim))
    rhs = np.zeros((k_dim, model.y.shape[1]))
    whitened_rows = []
    for i in range(model.n):
        rows = model.equation_rows(i)
        wx = cm @ model.X[rows]
        pinv = specs[i].pinv()
        xp = wx.T @ pinv
        normal += xp @ wx
        rhs += xp @ model.y[rows]
        whitened_rows.append(
            (specs[i].eigenvectors_pos / np.sqrt(specs[i].eigenvalues_pos)).T @ wx)
    report = numeric_rank(np.vstack(whitened_rows))
    if report.numeric_rank < k_dim:
        raise TheilRankConditionError(
            "whitened within design lacks full column rank; the pseudo-inverse "
            "normal matrix is not invertible", report=report)
    beta, cov = _solve_normal(normal, rhs)
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.PANEL_MLS,
                          diagnostics={"whitened_within_rank": report})


def fe_drop_period(model: FEPanelModel, drop: int) -> EstimateResult:
    """GLS on the within model with one period deleted per equation.

    ``drop`` is the 1-based period index.  Deleting any single period
    from the centered data removes the rank deficiency, and the reduced
    GLS estimate equals fe_mls exactly.
    """
    if not 1 <= drop <= model.m:
        raise ValueError(f"drop period must be in 1..{model.m}, got {drop}")
    cm = centering_matrix(model.m)
    keep = [t for t in range(model.m) if t != drop - 1]
    k_dim = model.num_params
    normal = np.zeros((k_dim, k_dim))
    rhs = np.zeros((k_dim, model.y.shape[1]))
    reduced_inv = None
    for i in range(model.n):
        rows = model.equation_rows(i)
        within = cm @ model.block(i) @ cm
        reduced = within[np.ix_(keep, keep)]
        if reduced_inv is None or not model.kronecker:
            rep = numeric_rank(reduced)
            if rep.numeric_rank < model.m - 1:
                raise DispersionSingularError(
                    f"reduced within dispersion of equation {i} is singular")
            reduced = 0.5 * (reduced + reduced.T)
            try:
                np.linalg.cholesky(reduced)
            except np.linalg.LinAlgError:
                raise DispersionSingularError(
                    f"reduced within dispersion of equation {i} is not positive "
                    "definite") from None
            reduced_inv = np.linalg.solve(reduced, np.eye(model.m - 1))
        wx = (cm @ model.X[rows])[keep, :]
        wy = (cm @ model.y[rows])[keep, :]
        xp = wx.T @ reduced_inv
        normal += xp @ wx
        rhs += xp @ wy
    report = numeric_rank(normal)
    if report.numeric_rank < k_dim:
        raise IdentificationError("reduced within normal matrix is singular",
                                  report=report)
    beta, cov = _solve_normal(normal, rhs)
    return EstimateResult(beta_hat=beta, covariance_factor=cov,
                          residuals=model.y - model.X @ beta,
                          estimator_tag=EstimatorTag.PANEL_GLS,
                          diagnostics={"reduced_rank": report, "dropped_period": drop})


@dataclass(frozen=True)
class Theorem5Report:
    """Numerical check that the two slope estimators coincide.

    ``projector_gap`` measures || P - M (I kron MSM)^+ M ||_max, the
    matrix identity behind the equivalence; ``beta_gap`` is the max-norm
    distance of the two estimates.
    """

    beta_gls: np.ndarray
    beta_mls: np.ndarray
    beta_gap: float
    projector_gap: float
    tolerance: float
    beta_equal: bool
    projector_equal: bool

    @property
    def passed(self) -> bool:
        return self.beta_equal and self.projector_equal


def verify_theorem5(model: FEPanelModel, projectors: ProjectorSet | None = None,
                    tolerance: float = 1e-8) -> Theorem5Report:
    """Check fe_gls == fe_mls and the projector identity behind it.

    A precomputed (possibly perturbed) ProjectorSet may be supplied; by
    default the projectors are built from the model.
    """
    proj = projectors if projectors is not None else build_projectors(model)
    cm = centering_matrix(model.m)
    specs = _within_pinv_blocks(model)
    pinv_within = _block_diag(*[s.pinv() for s in specs])
    m_full = np.kron(np.eye(model.n), cm)
    gap = float(np.max(np.abs(proj.P - m_full @ pinv_within @ m_full)))
    res_gls = fe_gls(model)
    res_mls = fe_mls(model)
    beta_gap = float(np.max(np.abs(res_gls.beta_hat - res_mls.beta_hat)))
    scale = 1.0 + float(np.max(np.abs(res_mls.beta_hat)))
    return Theorem5Report(
        beta_gls=res_gls.beta_hat,
        beta_mls=res_mls.beta_hat,
        beta_gap=beta_gap,
        projector_gap=gap,
        tolerance=tolerance,
        beta_equal=beta_gap <= tolerance * scale,
        projector_equal=gap <= tolerance,
    )
