"""Symmetric spectral decompositions, pseudo-inverses, and numeric rank.

Rank is a tolerance decision, not an exact property.  Unless a caller
overrides it, every routine in this module uses the same rule:

    tol = max(rows, cols) * machine_epsilon * largest_[eigen|singular]_value

Values at or below the threshold count as zero, so ties resolve toward
the smaller (conservative) rank.  Input is refused as indefinite only
below -max(tol, 4 s eps lambda_max), the error bound of the eigensolver
on an s x s matrix.  All outputs are deterministic for identical inputs
within a single build of the underlying LAPACK.

A block-diagonal input (a period-major SUR dispersion, a within-transformed
panel) is decomposed block by block: its spectrum is the union of the
blocks' spectra, cut under the same rule at the largest eigenvalue of the
whole matrix.  The blocks are read off the zero pattern, so no caller
declares them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteInputError,
    NonFiniteError,
    NonSymmetricError,
)

# Relative asymmetry beyond this is treated as a hard input error rather
# than noise to be symmetrized away.
SYMMETRY_RTOL = 1e-12
_ASYMMETRY_MESSAGE = "matrix is not symmetric within 1e-12 relative asymmetry"

# A backward-stable symmetric eigensolver returns each eigenvalue of an
# s x s matrix B within p(s) * eps * ||B||_2 of the exact one (LAPACK
# Users' Guide, sec. 4.7; Demmel 1997, Applied Numerical Linear Algebra,
# sec. 5.2), p a modestly growing function of s.  A computed eigenvalue
# above -p(s) * eps * lambda_max is therefore consistent with a
# nonnegative definite input and is not refused; p(s) = 4 s.
_EIGENVALUE_ERROR_FACTOR = 4


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-d float array, rejecting non-finite entries.

    1-d input is reshaped to a single column.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def default_tolerance(rows: int, cols: int, scale: float) -> float:
    """Default rank cutoff: max(rows, cols) * eps * scale."""
    return max(rows, cols) * np.finfo(float).eps * float(scale)


def _indefiniteness_threshold(size: int, lam_max, cutoff):
    """max(cutoff, p(size) * eps * lambda_max): input with an eigenvalue
    below its negative is refused as indefinite."""
    bound = _EIGENVALUE_ERROR_FACTOR * size * np.finfo(float).eps * lam_max
    return np.maximum(cutoff, bound)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the first entry of largest magnitude is positive.

    Works on a matrix or a stack of matrices (columns along the last axis);
    the result is a new C-ordered array.
    """
    if vectors.shape[-2] == 0:
        return vectors.copy()
    lead = np.take_along_axis(
        vectors, np.abs(vectors).argmax(axis=-2)[..., None, :], axis=-2)
    return np.multiply(vectors, np.where(lead < 0, -1.0, 1.0), order="C")


def _block_ends(sym: np.ndarray) -> np.ndarray:
    """End rows (exclusive) of the finest contiguous block-diagonal partition.

    A block ends at row j when no row up to j has a nonzero entry past
    column j; a zero row is a 1 x 1 block.  One block when row 0 reaches
    the last column, without scanning the matrix.
    """
    t_dim = sym.shape[0]
    if sym[0, -1] != 0:
        return np.array([t_dim])
    nonzero = sym != 0
    rows = np.arange(t_dim)
    last = t_dim - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    last = np.where(nonzero[rows, last], last, rows)
    return np.flatnonzero(np.maximum.accumulate(last) == rows) + 1


def _decompose_blocks(blocks: np.ndarray, tol: float | None = None):
    """spectral_decompose's checks and cutoff on each of a stack of blocks.

    ``blocks`` is count x s x s.  One batched ``eigh`` decomposes every
    block; each block is checked for symmetry at its own scale and cut at
    its own s * eps * lambda_max (or ``tol``), as spectral_decompose would
    on that block alone.  Returns ``(vals, vecs, cutoffs, refusal)``:
    ascending eigenvalues (count x s), sign-fixed eigenvectors as columns
    (count x s x s), the cutoffs (count,), and ``(t, error)`` for the
    first block spectral_decompose would refuse, None when all pass.
    """
    size = blocks.shape[-1]
    flat = blocks.reshape(blocks.shape[0], -1)
    scale = np.max(np.abs(flat), axis=1, initial=0.0)
    asym = np.max(np.abs(blocks - blocks.transpose(0, 2, 1)).reshape(flat.shape),
                  axis=1, initial=0.0) > SYMMETRY_RTOL * (1.0 + scale)
    # block 0 alone would have raised this once past its symmetry check
    if tol is not None and tol < 0 and not asym[0]:
        raise ValueError("tolerance must be nonnegative")
    vals, vecs = np.linalg.eigh(0.5 * (blocks + blocks.transpose(0, 2, 1)))
    lam_max = np.max(np.abs(vals), axis=1, initial=0.0)
    cutoffs = default_tolerance(size, size, 1.0) * lam_max if tol is None \
        else np.full(blocks.shape[0], float(tol))
    floors = _indefiniteness_threshold(size, lam_max, cutoffs)
    failing = np.flatnonzero(asym | (vals[:, 0] < -floors))
    refusal = None
    if failing.size:
        t = int(failing[0])
        refusal = (t, NonSymmetricError(_ASYMMETRY_MESSAGE) if asym[t]
                   else _indefinite(vals[t, 0], floors[t]))
    return vals, _fix_signs(vecs), cutoffs, refusal


def _indefinite(value: float, cutoff: float) -> IndefiniteInputError:
    return IndefiniteInputError(
        f"matrix has eigenvalue {value:.6g} below -tol={-cutoff:.6g}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a symmetric nonnegative definite matrix.

    The eigenvector matrix splits into an orthonormal basis of the null
    space (``eigenvectors_null``, one column per zero eigenvalue) and the
    eigenvectors of the strictly positive eigenvalues
    (``eigenvectors_pos``), whose eigenvalues are stored descending in
    ``eigenvalues_pos``.  Stacked side by side the two blocks form a
    complete orthonormal basis of R^source_dim.
    """

    source_dim: int
    eigenvectors_null: np.ndarray
    eigenvectors_pos: np.ndarray
    eigenvalues_pos: np.ndarray
    rank: int
    tolerance_used: float

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse reassembled from the positive part."""
        f = self.eigenvectors_pos
        if self.rank == 0:
            return np.zeros((self.source_dim, self.source_dim))
        return (f / self.eigenvalues_pos) @ f.T

    def reconstruct(self) -> np.ndarray:
        """Reassemble the original matrix from the positive part."""
        f = self.eigenvectors_pos
        if self.rank == 0:
            return np.zeros((self.source_dim, self.source_dim))
        return (f * self.eigenvalues_pos) @ f.T


@dataclass(frozen=True)
class RankReport:
    """Outcome of a numeric rank decision.

    ``values`` holds the singular (or eigen) values in descending order;
    ``deficient`` is True when the numeric rank falls short of the
    maximum possible rank min(rows, cols).
    """

    numeric_rank: int
    values: np.ndarray
    tolerance: float
    deficient: bool


def spectral_decompose(s, tol: float | None = None) -> SpectralDecomposition:
    """Decompose a symmetric nonnegative definite matrix.

    Parameters
    ----------
    s : array_like
        Square symmetric matrix, nonnegative definite up to tolerance.
    tol : float, optional
        Rank cutoff.  Defaults to the module tolerance rule evaluated at
        the largest absolute eigenvalue.

    Returns
    -------
    SpectralDecomposition

    Raises
    ------
    NonSymmetricError
        If the relative asymmetry exceeds 1e-12.
    IndefiniteInputError
        If any eigenvalue falls below -max(tol, 4 T eps lambda_max), the
        eigensolver's error bound for a T x T input.
    NonFiniteError
        If the input contains NaN or Inf.
    """
    mat = as_matrix(s, "s")
    t_dim = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    # one T x T temporary at a time, each reused in place
    asym = mat - mat.T
    if t_dim and float(np.max(np.abs(asym, out=asym))) > SYMMETRY_RTOL * (1.0 + scale):
        raise NonSymmetricError(_ASYMMETRY_MESSAGE)
    del asym
    sym = mat + mat.T
    sym *= 0.5
    if t_dim == 0:
        return SpectralDecomposition(0, np.zeros((0, 0)), np.zeros((0, 0)),
                                     np.zeros(0), 0, 0.0)
    ends = _block_ends(sym)
    if ends.size > 1:
        return _decompose_block_diagonal(sym, ends, tol)
    vals, vecs = np.linalg.eigh(sym)
    lam_max = float(np.max(np.abs(vals)))
    cutoff = default_tolerance(t_dim, t_dim, lam_max) if tol is None else float(tol)
    if cutoff < 0:
        raise ValueError("tolerance must be nonnegative")
    floor = _indefiniteness_threshold(t_dim, lam_max, cutoff)
    if float(vals[0]) < -floor:
        raise _indefinite(vals[0], floor)
    positive = vals > cutoff
    # eigh returns ascending order; positive eigenvalues are re-listed descending
    idx_pos = np.nonzero(positive)[0][::-1]
    idx_null = np.nonzero(~positive)[0]
    f = _fix_signs(vecs[:, idx_pos])
    a = _fix_signs(vecs[:, idx_null])
    return SpectralDecomposition(
        source_dim=t_dim,
        eigenvectors_null=a,
        eigenvectors_pos=f,
        eigenvalues_pos=vals[idx_pos].copy(),
        rank=int(idx_pos.size),
        tolerance_used=cutoff,
    )


def _decompose_block_diagonal(sym: np.ndarray, ends: np.ndarray,
                              tol: float | None) -> SpectralDecomposition:
    """spectral_decompose of a block-diagonal matrix, one batched eigh per
    block size.

    The union of the block spectra is cut at the whole matrix's cutoff and
    listed in the dense path's order (ascending by a stable sort, the
    positive part reversed); each eigenvector is its block's sign-fixed
    eigenvector embedded at the block's rows.
    """
    t_dim = sym.shape[0]
    starts = np.concatenate([[0], ends[:-1]])
    sizes = ends - starts
    groups = []
    for size in sorted(set(sizes.tolist())):
        rows = starts[sizes == size][:, None] + np.arange(size)
        # symmetry was checked on the whole matrix and the cut is global, so
        # the per-block verdicts are not used
        vals, vecs = _decompose_blocks(sym[rows[:, :, None], rows[:, None, :]], tol)[:2]
        groups.append((rows, vals, vecs))
    every = np.concatenate([vals.ravel() for _, vals, _ in groups])
    lam_max = float(np.max(np.abs(every)))
    cutoff = default_tolerance(t_dim, t_dim, lam_max) if tol is None else float(tol)
    if cutoff < 0:
        raise ValueError("tolerance must be nonnegative")
    order = np.argsort(every, kind="stable")
    floor = _indefiniteness_threshold(t_dim, lam_max, cutoff)
    if float(every[order[0]]) < -floor:
        raise _indefinite(every[order[0]], floor)
    positive = every > cutoff
    idx_pos = order[positive[order]][::-1]
    idx_null = order[~positive[order]]
    column = np.empty(t_dim, dtype=int)
    column[idx_pos] = np.arange(idx_pos.size)
    column[idx_null] = np.arange(idx_null.size)
    f = np.zeros((t_dim, idx_pos.size))
    a = np.zeros((t_dim, idx_null.size))
    first = 0
    for rows, vals, vecs in groups:
        pair = first + np.arange(vals.size).reshape(vals.shape)
        for target, keep in ((f, positive[pair]), (a, ~positive[pair])):
            block, j = np.nonzero(keep)
            target[rows[block], column[pair[block, j]][:, None]] = vecs[block, :, j]
        first += vals.size
    return SpectralDecomposition(
        source_dim=t_dim,
        eigenvectors_null=a,
        eigenvectors_pos=f,
        eigenvalues_pos=every[idx_pos],
        rank=int(idx_pos.size),
        tolerance_used=cutoff,
    )


def pseudo_inverse(s, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric nonnegative definite matrix.

    Computed as F diag(1/lambda) F' from the spectral decomposition, so
    the null space of the input is exactly the null space of the output.
    """
    return spectral_decompose(s, tol=tol).pinv()


def numeric_rank(b, tol: float | None = None) -> RankReport:
    """Numeric rank of a general matrix via its singular values."""
    mat = as_matrix(b, "b")
    rows, cols = mat.shape
    if mat.size == 0:
        return RankReport(0, np.zeros(0), 0.0, deficient=False)
    values = np.linalg.svd(mat, compute_uv=False)
    cutoff = default_tolerance(rows, cols, values[0]) if tol is None else float(tol)
    rank = int(np.count_nonzero(values > cutoff))
    return RankReport(rank, values, cutoff, deficient=rank < min(rows, cols))


def null_space_basis(b, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of a general matrix.

    Returns a cols x (cols - rank) matrix N with B N = 0 and N'N = I.
    An empty restriction matrix (zero rows) yields the identity basis.
    """
    mat = as_matrix(b, "b")
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0:
        return np.eye(cols)
    _, values, vt = np.linalg.svd(mat, full_matrices=True)
    cutoff = default_tolerance(rows, cols, values[0] if values.size else 0.0) \
        if tol is None else float(tol)
    rank = int(np.count_nonzero(values > cutoff))
    return _fix_signs(vt[rank:, :].T)
