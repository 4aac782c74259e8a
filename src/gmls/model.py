"""Model containers: the general Gauss-Markoff model, SUR stacking, restrictions.

A model is the triple {y, X, dispersion} with E(u) = 0 and
D(u) = sigma^2 * dispersion.  The dispersion matrix may be singular; the
only admissibility requirement on the data is that the response lies in
the column space of (X : dispersion), which build_model verifies.
build_model decomposes the dispersion once and the model carries that
decomposition, so its rank is fixed at construction.  The model stores
the dispersion as its diagonal blocks: stack_sur hands over its blocks'
batched decomposition, so a SUR dispersion is never assembled.

The response may hold B >= 1 columns, each a response on the same (X,
dispersion); every estimator is affine in y, so it fits all B in one
call and returns one column of estimates per response column.  Checks
that depend on y run per column and name the first column they refuse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DispersionNotNNDError,
    IndefiniteInputError,
    NonSymmetricError,
    ResponseOutsideRangeError,
    TooFewObservationsError,
)
from .spectral import (
    SpectralDecomposition,
    _as_matrices,
    _assemble,
    _decompose_blocks,
    as_matrix,
    default_tolerance,
    spectral_decompose,
)

# Relative tolerance for the column-space membership test on y.
MEMBERSHIP_RTOL = 1e-8

PERIOD_MAJOR = "period"
EQUATION_MAJOR = "equation"


class EstimatorTag(enum.Enum):
    OLS = "ols"
    GLS = "gls"
    ROLS = "rols"
    RGLS = "rgls"
    RIDGE = "ridge"
    MLS = "mls"
    TKN = "tkn"
    CONSTRAINED_SINGULAR = "constrained"
    STOCHASTIC_RESTRICTED = "mixed"
    PANEL_GLS = "fe-gls"
    PANEL_MLS = "fe-mls"


@dataclass(frozen=True, eq=False, repr=False)
class GaussMarkoffModel:
    """Immutable model triple with optional error-variance scale.

    The dispersion is zero off its diagonal blocks ``dispersion_blocks``
    (count x s x s), from which ``dispersion`` assembles it.  ``spectrum``
    is its decomposition F Lambda F' with null basis A, computed once by
    build_model or stack_sur; every estimator reads the dispersion rank
    from it.  ``ordering`` records the stacking convention when the model
    was produced from per-equation SUR blocks ("period" or "equation"),
    None otherwise.

    The model owns its rotated data as two pairs of read-only arrays, each
    projected on first use: ``_range_products`` (F'X, F'y) for the Eq. (14)
    check and every whitening, ``_null_products`` (A'X, A'y) for the
    admission check and the implicit restrictions, which combined
    restrictions may hold as they are; ``dataclasses.replace`` starts both
    afresh.
    """

    y: np.ndarray
    X: np.ndarray
    dispersion_blocks: np.ndarray
    spectrum: SpectralDecomposition
    sigma2: float | None = None
    ordering: str | None = None

    @property
    def dispersion(self) -> np.ndarray:
        return _block_diag(*self.dispersion_blocks)

    @property
    def num_obs(self) -> int:
        return self.X.shape[0]

    @property
    def num_params(self) -> int:
        return self.X.shape[1]

    def _project(self, null: bool) -> tuple:
        products = self.spectrum.project(self.X, null), self.spectrum.project(self.y, null)
        for product in products:  # shared read-only, e.g. as CombinedRestrictions.h
            product.flags.writeable = False
        return products

    _range_products = cached_property(lambda self: self._project(False))
    _null_products = cached_property(lambda self: self._project(True))


class LinearRestrictions:
    """Exact linear restrictions R beta = r."""

    def __init__(self, R: np.ndarray, r: np.ndarray):
        self.R = R
        self.r = r

    @property
    def count(self) -> int:
        return self.R.shape[0]

    @property
    def num_params(self) -> int:
        return self.R.shape[1]

    @classmethod
    def build(cls, R, r) -> "LinearRestrictions":
        R = as_matrix(R, "R")
        r = as_matrix(r, "r")
        if r.shape != (R.shape[0], 1):
            raise DimensionMismatchError(
                f"r must be {R.shape[0]} x 1 to conform with R, got {r.shape}")
        return cls(R=R, r=r)

    @classmethod
    def empty(cls, num_params: int) -> "LinearRestrictions":
        return cls(R=np.zeros((0, num_params)), r=np.zeros((0, 1)))


@dataclass(frozen=True, eq=False, repr=False)
class CombinedRestrictions:
    """Explicit restrictions stacked on top of the implicit ones.

    H = [R; A'X] and h = [r; A'y], where A spans the null space of the
    dispersion matrix; h has one column per response column.
    ``explicit_rows`` and ``implicit_rows`` index the two groups inside
    H; ``consistent`` records whether rank(H) = rank(H, h_j) held for
    every column h_j at construction time, and ``inconsistent_column``
    names the first column where it failed.
    """

    H: np.ndarray
    h: np.ndarray
    explicit_rows: range
    implicit_rows: range
    consistent: bool
    inconsistent_column: int | None = None

    @property
    def count(self) -> int:
        return self.H.shape[0]

    @property
    def num_params(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True, eq=False, repr=False)
class EstimateResult:
    """A point estimate with its covariance factor and residuals.

    ``beta_hat`` is K x B for the T x B response ``y`` on the T x K design
    ``X`` it was fitted to; ``covariance_factor`` is the matrix V such that
    D(beta_hat_j) = sigma^2 V for each column under the estimator's own
    assumptions.  ``diagnostics`` collects the identification checks that
    were consulted on the way.  ``residuals``, y - X beta_hat (T x B), are
    computed on first access, so a caller that reads only the estimate
    never forms them.
    """

    beta_hat: np.ndarray
    covariance_factor: np.ndarray
    y: np.ndarray
    X: np.ndarray
    estimator_tag: EstimatorTag
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def residuals(self) -> np.ndarray:
        return self.y - self.X @ self.beta_hat


class SURLayout:
    """Per-equation designs of a seemingly-unrelated-regressions system.

    ``block_design[i]`` is the m x K_i design of equation i.  All
    equations share the same number of periods m; the stacked parameter
    vector concatenates the per-equation coefficient blocks in equation
    order.
    """

    def __init__(self, block_design: tuple):
        self.block_design = block_design

    @classmethod
    def build(cls, designs) -> "SURLayout":
        blocks = tuple(as_matrix(d, f"design block {i}") for i, d in enumerate(designs))
        if not blocks:
            raise DimensionMismatchError("need at least one equation")
        m = blocks[0].shape[0]
        for i, b in enumerate(blocks):
            if b.shape[0] != m:
                raise DimensionMismatchError(
                    f"equation {i} has {b.shape[0]} periods, expected {m}")
        return cls(block_design=blocks)

    @property
    def n(self) -> int:
        return len(self.block_design)

    @property
    def m(self) -> int:
        return self.block_design[0].shape[0]

    @property
    def block_widths(self) -> tuple:
        return tuple(b.shape[1] for b in self.block_design)

    @property
    def num_params(self) -> int:
        return sum(self.block_widths)

    def column_slices(self) -> list:
        """Column ranges of each equation's coefficients in the stacked beta."""
        out, start = [], 0
        for w in self.block_widths:
            out.append(slice(start, start + w))
            start += w
        return out


def _period_rows(layout: SURLayout) -> np.ndarray:
    """The m x n x K stack of period-major design blocks: entry t holds
    row t of equation i's design in row i, under that equation's columns."""
    rows = np.zeros((layout.m, layout.n, layout.num_params))
    for i, (block, cols) in enumerate(zip(layout.block_design, layout.column_slices())):
        rows[:, i, cols] = block
    return rows


def build_model(y, X, dispersion, sigma2: float | None = None,
                tol: float | None = None,
                ordering: str | None = None) -> GaussMarkoffModel:
    """Validate and assemble a general Gauss-Markoff model.

    Checks, in order: dimensional conformity (y is T x 1, or T x B for B
    responses), T > K, the dispersion is symmetric nonnegative definite,
    and each response column lies in the column space of
    (X : dispersion) within 1e-8 relative.  The dispersion is decomposed
    here, with rank cutoff ``tol``, and nowhere else.
    """
    y = as_matrix(y, "y")
    X = as_matrix(X, "X")
    omega = as_matrix(dispersion, "dispersion")
    t_dim = X.shape[0]
    if y.shape[0] != t_dim or y.shape[1] == 0:
        raise DimensionMismatchError(f"y must be {t_dim} x 1 or {t_dim} x B, got {y.shape}")
    if omega.shape != (t_dim, t_dim):
        raise DimensionMismatchError(
            f"dispersion must be {t_dim} x {t_dim}, got {omega.shape}")
    _require_more_rows(X)
    try:
        spec = spectral_decompose(omega, tol=tol)
    except (NonSymmetricError, IndefiniteInputError) as exc:
        raise DispersionNotNNDError(
            f"dispersion is not symmetric nonnegative definite: {exc}") from exc
    return _admit(y, X, omega[None], spec, sigma2, ordering)


def _require_more_rows(X) -> None:
    t_dim, k_dim = X.shape
    if t_dim <= k_dim:
        raise TooFewObservationsError(
            f"need more observations than parameters, got T={t_dim}, K={k_dim}")


def _admit(y, X, blocks, spec, sigma2, ordering) -> GaussMarkoffModel:
    """The model on (y, X) and the dispersion with diagonal blocks
    ``blocks`` and decomposition ``spec``, once y passes the membership
    check."""
    t_dim, k_dim = X.shape
    model = GaussMarkoffModel(y=y, X=X, dispersion_blocks=blocks, spectrum=spec,
                              sigma2=sigma2, ordering=ordering)
    # y must lie in the column space of (X : dispersion) for the model to
    # be internally consistent with probability one.  col(dispersion) =
    # col(F), so the distance of y from that space is the least-squares
    # residual of A'y on A'X.
    if spec.order_null.size:
        g, g_y = model._null_products
        u, s, _ = np.linalg.svd(g, full_matrices=False)
        # the largest singular value of (X : dispersion) is within a factor
        # sqrt(2) of this scale; sigma_1(X)^2 is the Gram X'X's top eigenvalue
        lam_max = spec.eigenvalues_pos[0] if spec.rank else 0.0
        scale = np.hypot(np.sqrt(np.linalg.eigvalsh(X.T @ X)[-1]), lam_max)
        cutoff = default_tolerance(t_dim, t_dim + k_dim, scale)
        basis = u[:, : int(np.count_nonzero(s > cutoff))]
        resid = g_y - basis @ (basis.T @ g_y)
        outside = np.flatnonzero(np.linalg.norm(resid, axis=0)
                                 > MEMBERSHIP_RTOL * (1.0 + np.linalg.norm(y, axis=0)))
        if outside.size:
            raise _column_refusal(
                ResponseOutsideRangeError,
                "response is outside the column space of (design : dispersion)",
                int(outside[0]), y.shape[1])
    return model


def _column_refusal(cls, message: str, column: int | None, columns: int, **fields):
    """``cls`` for a check that failed on response column ``column`` of
    ``columns``; the message names the column when there are several."""
    if column is not None and columns > 1:
        message = f"{message} (response column {column})"
    return cls(message, column=column, **fields)


def _block_diag(*blocks) -> np.ndarray:
    """Dense matrix with the given 2-d blocks along its diagonal."""
    out = np.zeros(tuple(sum(b.shape[j] for b in blocks) for j in (0, 1)))
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return out


def stack_sur(layout: SURLayout, responses, dispersion_blocks,
              order: str = PERIOD_MAJOR, sigma2: float | None = None,
              tol: float | None = None) -> GaussMarkoffModel:
    """Stack a SUR system into a single Gauss-Markoff model.

    Parameters
    ----------
    layout : SURLayout
        Per-equation designs.
    responses : sequence
        n response vectors of length m, one per equation.
    dispersion_blocks : sequence or array_like
        Period-major order expects the m per-period n x n blocks
        Sigma_t; equation-major order expects the n per-equation m x m
        blocks, or one 2-d block for all, each symmetric nonnegative definite.
    order : str
        "period" or "equation"; recorded on the resulting model.

    The blocks' one batched eigh is the model's spectrum; a single block
    is decomposed once and repeated as views.
    """
    n, m = layout.n, layout.m
    ys = [as_matrix(r, f"response {i}") for i, r in enumerate(responses)]
    if len(ys) != n or any(v.shape != (m, 1) for v in ys):
        raise DimensionMismatchError(f"expected {n} response vectors of length {m}")
    if order == PERIOD_MAJOR:
        count, size = m, n
        design = _period_rows(layout).reshape(n * m, -1)
        y = np.hstack(ys).reshape(-1, 1)
    elif order == EQUATION_MAJOR:
        count, size = n, m
        design = _block_diag(*layout.block_design)
        y = np.vstack(ys)
    else:
        raise ValueError(f"unknown ordering {order!r}")
    mismatch = DimensionMismatchError(
        f"{order}-major stacking needs {count} blocks of shape {size} x {size}, or one")
    stack = _as_matrices(dispersion_blocks, "dispersion block {}", (size, size),
                         lambda t, shape: mismatch)
    if len(stack) not in (1, count):
        raise mismatch
    # each block is checked at its own scale, as if decomposed alone, which
    # is at least as strict as the checks on the stacked dispersion, so the
    # assembled spectrum passes them too
    vals, vecs, _, refusal = _decompose_blocks(stack, tol=tol)
    if refusal is not None:
        t, exc = refusal
        raise DispersionNotNNDError(f"dispersion block {t}: {exc}") from exc
    _require_more_rows(design)
    stack, vals, vecs = (np.broadcast_to(a, (count, *a.shape[1:]))
                         for a in (stack, vals, vecs))
    spec = _assemble(n * m, [(np.arange(n * m).reshape(count, size), vals, vecs)], tol)
    return _admit(y, design, stack, spec, sigma2, order)
