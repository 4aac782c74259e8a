"""Fixed-effects panel estimation with intertemporal error correlation.

The model is y = X beta + Z gamma + u with one dummy per equation
(Z = I_n kron e_m) and per-equation error dispersion Sigma (common, the
Kronecker case) or Sigma_i (block-diagonal case), given to build_fe_model
as one ``sigma``: one m x m block or n of them, read as stack_sur and
check_theil_condition read theirs.  Everything is stored equation-major:
row i*m + t is period t of equation i.

Two estimation routes exist for the slope vector and they coincide:
GLS after sweeping out the fixed effects with the oblique projector P,
and pseudo-inverse least squares on the within-transformed model, whose
dispersion I_n kron (M_m Sigma M_m) is singular of rank n(m-1).  The
identity P = M (I_n kron M_m Sigma M_m)^+ M is what verify_theorem5
checks numerically, over the m x m blocks (one per distinct Sigma_i) of
its two block-diagonal sides.  Each estimator is the least-squares core of
gmls.estimators on the rows W_i X_i, one whitener W_i per equation (one
for all in the Kronecker case), run once for B >= 1 response columns;
the core's one SVD of the stacked rows decides their rank and solves.
Every W_i comes from Sigma_i = F_i Lambda_i F_i', decomposed once when
the panel is built (fe_gls), or from the SVD of the factor
rows F_i Lambda_i^{1/2} with rows = M or D M (fe_mls, fe_drop_period).
The within model takes its spectrum from the same SVD at rows = M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DispersionNotPDError,
    IdentificationError,
    TheilRankConditionError,
)
from .estimators import _whitened_lsq
from .model import EstimateResult, EstimatorTag, GaussMarkoffModel, _admit, _require_more_rows
from .spectral import _as_matrices, _assemble, _decompose_blocks, _fix_signs, as_matrix

# Largest gap, in max norm, at which verify_theorem5 counts the two slope
# estimates (relative to 1 + max |beta|) and the two projectors as equal.
THEOREM5_TOLERANCE = 1e-8


@dataclass(frozen=True, eq=False, repr=False)
class FEPanelModel:
    """Equation-major fixed-effects panel data.

    ``sigmas`` stacks the distinct m x m dispersion blocks: the common
    block alone in the Kronecker case (1 x m x m), one per equation
    otherwise (n x m x m).  ``eigenvalues`` (count x m, descending) and
    ``eigenvectors`` (count x m x m) hold their eigenpairs, F_i and Lambda_i,
    from build_fe_model's one batched eigh; every estimator reads them.
    """

    n: int
    m: int
    X: np.ndarray
    y: np.ndarray
    sigmas: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def num_obs(self) -> int:
        return self.n * self.m

    @property
    def num_params(self) -> int:
        return self.X.shape[1]

    @property
    def kronecker(self) -> bool:
        return self.sigmas.shape[0] == 1

    def equation_rows(self, i: int) -> slice:
        return slice(i * self.m, (i + 1) * self.m)


def centering_matrix(m: int) -> np.ndarray:
    """M_m = I_m - e e'/m, the within (time-demeaning) operator."""
    return np.eye(m) - np.full((m, m), 1.0 / m)


def build_fe_model(designs, responses, sigma) -> FEPanelModel:
    """Assemble a fixed-effects panel from per-equation data.

    designs: n matrices of shape m x K; responses: n vectors of length m,
    or n m x B matrices holding B responses each.  ``sigma`` is one m x m
    block common to every equation (Kronecker dispersion) or n blocks,
    one per equation, read as stack_sur reads its blocks.  Every block
    must be symmetric positive definite, so every finite response is
    admissible.
    """
    xs = [as_matrix(d, f"design {i}") for i, d in enumerate(designs)]
    ys = [as_matrix(r, f"response {i}") for i, r in enumerate(responses)]
    n = len(xs)
    if n == 0 or len(ys) != n:
        raise DimensionMismatchError("need matching non-empty design and response lists")
    m, k_dim = xs[0].shape
    if m == 0:
        raise DimensionMismatchError("need at least one period")
    columns = ys[0].shape[1]
    for i in range(n):
        if xs[i].shape != (m, k_dim):
            raise DimensionMismatchError(f"design {i} must be {m} x {k_dim}")
        if ys[i].shape != (m, columns) or columns == 0:
            raise DimensionMismatchError(
                f"response {i} must be {m} x 1 or {m} x B, all with the same B")
    sigmas = _as_matrices(sigma, "sigma", (m, m), lambda i, shape: DimensionMismatchError(
        f"sigma block {i} must be {m} x {m}"))
    if len(sigmas) not in (1, n):
        raise DimensionMismatchError(f"need one sigma block or {n}, got {len(sigmas)}")
    vals, vecs, cutoffs, refusal = _decompose_blocks(sigmas)
    ranks = np.count_nonzero(vals > cutoffs[:, None], axis=1)
    singular = np.flatnonzero(ranks < m)
    # refuse the first failing block, as a block-by-block check would
    if singular.size and (refusal is None or singular[0] < refusal[0]):
        i = singular[0]
        raise DispersionNotPDError(f"sigma block {i} is singular (rank {ranks[i]} < {m})")
    if refusal is not None:
        raise DispersionNotPDError(f"sigma block {refusal[0]}: {refusal[1]}")
    return FEPanelModel(n=n, m=m, X=np.vstack(xs), y=np.vstack(ys), sigmas=sigmas,
                        eigenvalues=vals[:, ::-1].copy(),
                        eigenvectors=np.ascontiguousarray(vecs[:, :, ::-1]))


def _swept_whiteners(model: FEPanelModel) -> np.ndarray:
    """S_i = (I - u u') W_i with W_i = Lambda_i^{-1/2} F_i' from the carried
    Sigma_i = F_i Lambda_i F_i' and u the unit vector along W_i e, so
    S_i'S_i = P_i, the swept GLS weight."""
    w = (model.eigenvectors / np.sqrt(model.eigenvalues)[:, None]).transpose(0, 2, 1)
    u = w.sum(axis=2, keepdims=True)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return w - u @ (u.transpose(0, 2, 1) @ w)


def _within_svd(model: FEPanelModel, rows: np.ndarray):
    """U_i, S_i of B_i = rows F_i Lambda_i^{1/2} = U_i S_i V_i', the factor of
    rows Sigma_i rows', a product that cancels under large variance along e."""
    factors = rows @ (model.eigenvectors * np.sqrt(model.eigenvalues)[:, None])
    return np.linalg.svd(factors, full_matrices=False)[:2]


def _top_whiteners(model: FEPanelModel, rows: np.ndarray) -> np.ndarray:
    """S_i^{-1} U_i' rows from the top m - 1 singular pairs of B_i = U_i S_i V_i',
    so W_i'W_i = rows' (rows Sigma_i rows')^+ rows.  No rank is decided:
    rows = M or D M has rank m - 1 and rows Sigma_i rows' >= lambda_min
    rows rows', whose nonzero eigenvalues are >= 1/m, so sigma_{m-1}(B_i) >=
    sqrt(lambda_min / m) > sqrt(eps lambda_max) under build_fe_model's cut
    lambda_min > m eps lambda_max: 1 / (m sqrt(eps)), over 1e7 at m = 4, times
    the rounding residue m eps sqrt(lambda_max) left along the removed direction."""
    u, s = _within_svd(model, rows)
    return (u[:, :, :model.m - 1] / s[:, None, :model.m - 1]).transpose(0, 2, 1) @ rows


def _fit(model: FEPanelModel, whiteners: np.ndarray, refuse, tag: EstimatorTag,
         rank_key: str, **diagnostics) -> EstimateResult:
    """Slopes minimizing sum_i ||W_i (y_i - X_i beta)||^2, W_i of m or m - 1 rows.

    The core's one SVD of the stacked rows W_i X_i decides their rank,
    recorded under ``rank_key``, and gives the gain; that splits into
    blocks G_i, and the K x T operator hstack(G_i W_i) maps all responses.
    """
    k_dim = model.num_params
    wx = (whiteners @ model.X.reshape(model.n, model.m, k_dim)).reshape(-1, k_dim)
    _, gain, _, _, report = _whitened_lsq(
        wx, None, refuse, None, message="whitened design has rank {} < K={}; "
        "time-invariant regressors are not identified")
    blocks = gain.reshape(k_dim, model.n, -1).transpose(1, 0, 2) @ whiteners
    beta = blocks.transpose(1, 0, 2).reshape(k_dim, -1) @ model.y
    return EstimateResult(beta_hat=beta, covariance_factor=gain @ gain.T,
                          y=model.y, X=model.X, estimator_tag=tag,
                          diagnostics={rank_key: report, **diagnostics})


def fe_gls(model: FEPanelModel) -> EstimateResult:
    """Slope GLS after sweeping out the fixed effects: GLS on [X Z] under
    I kron Sigma, whitening equation i with S_i, S_i'S_i = P_i."""
    return _fit(model, _swept_whiteners(model), IdentificationError,
                EstimatorTag.PANEL_GLS, "swept_rank")


def within_transform(model: FEPanelModel) -> GaussMarkoffModel:
    """Center the panel over time and carry the induced dispersion.

    Returns the general Gauss-Markoff model {My, MX, I kron M Sigma M}.  Its
    spectrum is the SVD U_i S_i V_i' of the factor B_i = M F_i Lambda_i^{1/2}:
    eigenvectors U_i, eigenvalues S_i^2 with the smallest set to 0 (M e = 0),
    so the rank is n(m-1) with no cut deciding it (see _top_whiteners), and
    M Sigma M is neither formed nor decomposed.
    """
    cm = centering_matrix(model.m)
    u, s = _within_svd(model, cm)
    vals, vecs = s[:, ::-1] ** 2, _fix_signs(u[:, :, ::-1])
    vals[:, 0] = 0.0
    vals, vecs = (np.broadcast_to(a, (model.n, *a.shape[1:])) for a in (vals, vecs))
    rows = np.arange(model.num_obs).reshape(model.n, model.m)
    X, y = ((cm @ a[rows]).reshape(model.num_obs, -1) for a in (model.X, model.y))
    _require_more_rows(X)
    return _admit(y, X, (vecs * vals[:, None]) @ vecs.transpose(0, 2, 1),
                  _assemble(model.num_obs, [(rows, vals, vecs)], 0.0), None, None)


def fe_mls(model: FEPanelModel) -> EstimateResult:
    """Pseudo-inverse least squares on the within-transformed model,
    whitening equation i with S_i^{-1} U_i' M from the top m - 1 singular
    pairs of B_i = M F_i Lambda_i^{1/2} = U_i S_i V_i'.  Equals fe_gls."""
    return _fe_mls(model)[0]


def _fe_mls(model: FEPanelModel):
    """fe_mls and the within whiteners it fits with."""
    within = _top_whiteners(model, centering_matrix(model.m))
    return _fit(model, within, TheilRankConditionError, EstimatorTag.PANEL_MLS,
                "whitened_within_rank"), within


def fe_drop_period(model: FEPanelModel, drop: int) -> EstimateResult:
    """GLS on the within model with one period deleted per equation.

    ``drop`` is the 1-based period index.  Deleting any single period
    from the centered data removes the rank deficiency, and the reduced
    GLS estimate equals fe_mls exactly.  Equation i is whitened with
    S_i^{-1} U_i' D M, D deleting the period, from the SVD of the factor
    B_i = D M F_i Lambda_i^{1/2} of D M Sigma_i M D', of full rank m - 1.
    """
    if not 1 <= drop <= model.m:
        raise ValueError(f"drop period must be in 1..{model.m}, got {drop}")
    rows = centering_matrix(model.m)[np.arange(model.m) != drop - 1]
    whiteners = _top_whiteners(model, rows)
    return _fit(model, whiteners, IdentificationError, EstimatorTag.PANEL_GLS,
                "reduced_rank", dropped_period=drop)


class Theorem5Report:
    """Numerical check that the two slope estimators coincide.

    ``fe_gls`` and ``fe_mls`` are the two fits compared.
    ``projector_gap`` measures || P - M (I kron MSM)^+ M ||_max, the
    matrix identity behind the equivalence, as a max over the m x m
    blocks S_i'S_i - W_i'W_i; ``beta_gap`` is the max-norm distance of
    the two estimates.
    """

    def __init__(self, fe_gls: EstimateResult, fe_mls: EstimateResult, beta_gap: float,
                 projector_gap: float, tolerance: float, beta_equal: bool,
                 projector_equal: bool):
        self.fe_gls = fe_gls
        self.fe_mls = fe_mls
        self.beta_gap = beta_gap
        self.projector_gap = projector_gap
        self.tolerance = tolerance
        self.beta_equal = beta_equal
        self.projector_equal = projector_equal

    @property
    def beta_gls(self) -> np.ndarray:
        return self.fe_gls.beta_hat

    @property
    def beta_mls(self) -> np.ndarray:
        return self.fe_mls.beta_hat

    @property
    def passed(self) -> bool:
        return self.beta_equal and self.projector_equal


def verify_theorem5(model: FEPanelModel) -> Theorem5Report:
    """Fit fe_gls and fe_mls once each, and check that they agree and
    that the projector identity behind the agreement holds, block by
    block on the swept and within whiteners of the two fits.

    Both gaps are held to THEOREM5_TOLERANCE, the estimates' relative to
    1 + max |beta_mls|; the report records the tolerance it applied.
    """
    res_gls = fe_gls(model)
    res_mls, within = _fe_mls(model)
    swept = _swept_whiteners(model)
    # S_i'S_i = P_i against W_i'W_i = M U_i S_i^{-2} U_i' M = M (M Sigma_i M)^+ M
    gap = float(np.max(np.abs(swept.transpose(0, 2, 1) @ swept
                              - within.transpose(0, 2, 1) @ within)))
    beta_gap = float(np.max(np.abs(res_gls.beta_hat - res_mls.beta_hat)))
    scale = 1.0 + float(np.max(np.abs(res_mls.beta_hat)))
    return Theorem5Report(fe_gls=res_gls, fe_mls=res_mls,
                          beta_gap=beta_gap, projector_gap=gap,
                          tolerance=THEOREM5_TOLERANCE,
                          beta_equal=beta_gap <= THEOREM5_TOLERANCE * scale,
                          projector_equal=gap <= THEOREM5_TOLERANCE)
