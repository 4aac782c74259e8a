"""Identification diagnostics: rank conditions, implicit restrictions, witnesses.

A singular dispersion matrix turns some error directions off exactly, so
the data satisfy A'y = A'X beta with probability one, where A spans the
null space of the dispersion.  These rows are restrictions the sample
imposes for free; identification is then a property of the explicit and
implicit restrictions jointly with the design.

For SUR systems whose per-period dispersion blocks share a single null
eigenvector, rank failure of the whitened design F'X has exactly two
sources, and check_theil_condition names the one at hand and produces a
certificate vector d with F_t' X_t d = 0 for every period.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionMismatchError, NullVectorMismatchError
from .model import (
    CombinedRestrictions,
    GaussMarkoffModel,
    LinearRestrictions,
    SURLayout,
    _period_rows,
)
from .spectral import (
    _as_matrices,
    _decompose_blocks,
    _fix_signs,
    as_matrix,
    default_tolerance,
    null_space_basis,
    numeric_rank,
)


class ImplicitRestrictions:
    """Restrictions implied by the null space of the dispersion matrix.

    G = A'X and g = A'y, A the model's ``spectrum.eigenvectors_null``; the
    model data satisfy G beta = g exactly for the true beta (with
    probability one).
    """

    def __init__(self, G: np.ndarray, g: np.ndarray):
        self.G = G
        self.g = g

    @property
    def count(self) -> int:
        return self.G.shape[0]


class WitnessKind(enum.Enum):
    NONE = "none"
    WITHIN_EQUATION_COLLINEARITY = "within-equation-collinearity"
    CROSS_EQUATION_COMBINATION = "cross-equation-combination"


class TheilWitness:
    """Certificate for (or against) rank failure of the whitened design.

    When ``kind`` is not NONE, ``d`` is a nonzero coefficient direction
    with F_t' X_t d = 0 in every period t.  For a cross-equation
    combination, d is a null vector of F'X and ``s`` the common column
    vector with X_i d_i = a_i s for every equation i, a_i the null-vector
    entries.  For within-equation collinearity, ``violating_equation`` names
    the offending block and s is zero.  ``note`` flags degenerate
    configurations (a single nonzero null-vector weight).
    """

    def __init__(self, kind: WitnessKind, d: np.ndarray, s: np.ndarray, a: np.ndarray,
                 violating_equation: int | None = None, note: str = ""):
        self.kind = kind
        self.d = d
        self.s = s
        self.a = a
        self.violating_equation = violating_equation
        self.note = note


def check_restriction_consistency(res: LinearRestrictions,
                                  tol: float | None = None):
    """Solvability of R beta = r, decided as combine_restrictions decides it.

    Returns (consistent, report) where the report describes the
    augmented matrix (R, r).
    """
    consistent = not _inconsistent_columns(res.R, res.r, tol).size
    return consistent, numeric_rank(np.hstack([res.R, res.r]), tol=tol)


def check_joint_identification(X, res: LinearRestrictions,
                               tol: float | None = None):
    """Full column rank of the stacked matrix (R; X).

    This is the condition under which restricted estimation determines a
    unique coefficient vector even when the design alone is collinear.
    """
    X = as_matrix(X, "X")
    if res.num_params != X.shape[1]:
        raise DimensionMismatchError(
            f"restrictions have {res.num_params} columns, design has {X.shape[1]}")
    report = numeric_rank(np.vstack([res.R, X]), tol=tol)
    return report.numeric_rank == X.shape[1], report


def extract_implicit_restrictions(model: GaussMarkoffModel) -> ImplicitRestrictions:
    """Implicit restrictions G = A'X, g = A'y from a singular dispersion.

    G and g are the model's (A'X, A'y), formed by its admission check; A,
    the null basis of its spectrum, is never built.  A positive definite
    dispersion yields an empty restriction set.
    """
    return ImplicitRestrictions(*model._null_products)


def combine_restrictions(explicit: LinearRestrictions,
                         implicit: ImplicitRestrictions,
                         tol: float | None = None) -> CombinedRestrictions:
    """Stack explicit restrictions on top of the implicit ones.

    The result records which rows came from where and whether the joint
    system H beta = h_j is solvable for every column h_j of h, one per
    response column (see _inconsistent_columns).  With no explicit rows,
    h is the implicit g itself, not a copy.
    """
    if implicit.G.shape[1] != explicit.num_params:
        raise DimensionMismatchError(
            f"explicit restrictions have {explicit.num_params} columns, "
            f"implicit have {implicit.G.shape[1]}")
    h_mat = np.vstack([explicit.R, implicit.G])
    h_vec = implicit.g if not explicit.count else np.vstack(
        [np.broadcast_to(explicit.r, (explicit.count, implicit.g.shape[1])), implicit.g])
    failing = _inconsistent_columns(h_mat, h_vec, tol)
    return CombinedRestrictions(
        H=h_mat,
        h=h_vec,
        explicit_rows=range(0, explicit.count),
        implicit_rows=range(explicit.count, explicit.count + implicit.count),
        consistent=not failing.size,
        inconsistent_column=int(failing[0]) if failing.size else None,
    )


def _inconsistent_columns(h_mat: np.ndarray, h_vec: np.ndarray, tol) -> np.ndarray:
    """The columns h_j for which H beta = h_j has no solution.

    H of full numeric row rank is onto, so every h_j is consistent
    (Bjorck 1996, sec. 1.2).  Otherwise rank(H, h_j) must equal rank(H)
    by numeric_rank's rule, from one stacked SVD over the columns.
    """
    rank_h = numeric_rank(h_mat, tol=tol).numeric_rank
    if rank_h == h_mat.shape[0]:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(_augmented_ranks(h_mat, h_vec, tol) != rank_h)


def _augmented_ranks(h_mat: np.ndarray, h_vec: np.ndarray, tol) -> np.ndarray:
    """numeric_rank of (H, h_j) for every column h_j of h."""
    rows, cols = h_mat.shape[0], h_mat.shape[1] + 1
    stacked = np.concatenate(
        [np.broadcast_to(h_mat, (h_vec.shape[1], *h_mat.shape)), h_vec.T[:, :, None]],
        axis=2)
    values = np.linalg.svd(stacked, compute_uv=False)
    cutoff = default_tolerance(rows, cols, 1.0) * values[:, :1] if tol is None \
        else float(tol)
    return np.count_nonzero(values > cutoff, axis=1)


def check_mls_invertibility(model: GaussMarkoffModel, tol: float | None = None):
    """Eq. (14): full column rank of the model's F'X, F the positive-eigenvalue
    eigenvectors of its dispersion, which the estimators' whitening shares.

    This is the exact condition for X' Omega^+ X to be invertible, i.e.
    for the pseudo-inverse estimator to exist.
    """
    report = numeric_rank(model._range_products[0], tol=tol)
    return report.numeric_rank == model.num_params, report


def _unit(v: np.ndarray) -> np.ndarray:
    return _fix_signs(v / np.linalg.norm(v))


def check_theil_condition(layout: SURLayout, dispersion_blocks,
                          tol: float | None = None) -> TheilWitness:
    """Decide rank failure of F'X for a SUR system and certify the cause.

    Parameters
    ----------
    layout : SURLayout
        Per-equation designs.
    dispersion_blocks : sequence or array_like
        The m per-period n x n dispersion blocks, or a single block used
        for every period (homoskedastic case).  Each block must have
        exactly one zero eigenvalue, with the same null eigenvector
        across periods.
    tol : float, optional
        Rank cutoff of every block.  Defaults to the cutoff stack_sur
        applies to the stacked dispersion: T eps max |lambda|, T = n m.

    Block ranks come from eigenvalues alone; block 0 alone gives vectors:
    a, and F_0 spanning a-perp, the range of every block sharing a, so
    F_0' X_t has the rank and null vectors of F_t' X_t (a block whose null
    vector is within the check's 1e-8 of a is whitened by F_0).

    Returns
    -------
    TheilWitness
        kind NONE when F'X has full column rank; otherwise a certificate
        d (unit norm) with F_t' X_t d = 0 for all t, classified as
        within-equation collinearity or a cross-equation combination.

    Raises
    ------
    NullVectorMismatchError
        If some block has a different null space than the first, or a
        zero eigenvalue of multiplicity other than one.
    """
    n, m, k_total = layout.n, layout.m, layout.num_params
    stack = _as_matrices(
        dispersion_blocks, "s", (n, n), lambda t, shape: DimensionMismatchError(
            f"expected a square matrix, got {shape}" if shape[0] != shape[1]
            else f"dispersion block {t} is not {n} x {n}"))
    if len(stack) not in (1, m):
        raise DimensionMismatchError(f"expected {m} dispersion blocks, got {len(stack)}")
    # each block is refused as spectral_decompose would refuse it alone
    vals, _, _, refusal = _decompose_blocks(stack, tol, vectors=False)
    if refusal is not None:
        raise refusal[1]
    cutoff = default_tolerance(n * m, n * m, np.max(np.abs(vals))) if tol is None else tol
    ranks = np.count_nonzero(vals > cutoff, axis=1)
    wrong = np.flatnonzero(ranks != n - 1)
    if wrong.size:
        t = int(wrong[0])
        raise NullVectorMismatchError(
            f"dispersion block {t} has {n - int(ranks[t])} zero eigenvalues, expected 1")
    # eigenvalues ascend: a is block 0's first eigenvector, F_0 the rest
    vecs = _decompose_blocks(stack[:1])[1][0]
    a = vecs[:, :1].copy()
    null_tol = 1e-8 * (1.0 + float(np.max(np.abs(stack))))
    stray = np.flatnonzero(np.max(np.abs(stack @ a), axis=(1, 2)) > null_tol)
    if stray.size:
        raise NullVectorMismatchError(
            f"dispersion block {int(stray[0])} does not annihilate the common null vector")

    rows = _period_rows(layout)
    whitened = np.matmul(vecs[:, :0:-1].T, rows).reshape(-1, k_total)
    report = numeric_rank(whitened, tol=tol)
    if report.numeric_rank == k_total:
        return TheilWitness(kind=WitnessKind.NONE, d=np.zeros((k_total, 1)),
                            s=np.zeros((m, 1)), a=a)

    slices = layout.column_slices()
    # source one: some equation's own design is collinear
    for i, block in enumerate(layout.block_design):
        if numeric_rank(block, tol=tol).deficient:
            d = np.zeros((k_total, 1))
            d[slices[i]] = null_space_basis(block, tol=tol)[:, :1]
            return TheilWitness(kind=WitnessKind.WITHIN_EQUATION_COLLINEARITY,
                                d=_unit(d), s=np.zeros((m, 1)), a=a,
                                violating_equation=i)

    # source two: the designs of the equations with nonzero null-vector
    # weight share a common column-space vector s
    weight_tol = default_tolerance(n, 1, float(np.max(np.abs(a))))
    relevant = np.count_nonzero(np.abs(a) > weight_tol)
    note = "single nonzero null-vector weight" if relevant == 1 else ""
    # with no equation collinear, F_0'X_t d = 0 forces X_i d_i = a_i s for
    # every i: d_i = 0 where a_i = 0, and s != 0, so a null vector of F'X
    # is itself the combination
    d = _unit(null_space_basis(whitened, tol=tol)[:, :1])
    s_rec = (a.T @ rows @ d).reshape(m, 1)
    return TheilWitness(kind=WitnessKind.CROSS_EQUATION_COMBINATION, d=d,
                        s=s_rec, a=a, note=note)
