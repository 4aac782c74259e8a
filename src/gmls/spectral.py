"""Symmetric spectral decompositions, numeric rank and null-space bases.

Rank is a tolerance decision, not an exact property.  Unless a caller
overrides it, every routine in this module uses the same rule:

    tol = max(rows, cols) * machine_epsilon * largest_[eigen|singular]_value

Values at or below the threshold count as zero, so ties resolve toward
the smaller (conservative) rank.  Input is refused as indefinite only
below -max(tol, 4 s eps lambda_max), the error bound of the eigensolver
on an s x s matrix.  All outputs are deterministic for identical inputs
within a single build of the underlying LAPACK.

A block-diagonal input (a period-major SUR dispersion) is decomposed
block by block: its spectrum is the union of the blocks' spectra, cut
under the same rule at the largest eigenvalue of the whole matrix.
spectral_decompose reads the blocks off the zero pattern, so no caller
declares them; a caller that already holds the blocks' eigenpairs
(stack_sur, or panel.within_transform with its cut at 0) hands them to
the same assembly.  The
decomposition keeps its block form, and its dense eigenvector matrices
are built only on request.  The products F'M and A'M of a decomposition
handed over as blocks are taken block by block; those of a dense matrix
take the dense eigenvector matrices, as they always have.
"""

from __future__ import annotations

from functools import cached_property

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


def _as_matrices(blocks, name: str, shape: tuple, mismatch) -> np.ndarray:
    """A sequence of blocks of ``shape``, or one block as a 2-d array, as a
    new count x r x c float array, converted and checked at once.
    Otherwise as_matrix refuses the first block it cannot read, named
    ``name.format(index)``, or the error ``mismatch(index, its shape)``
    refuses the first block of another shape."""
    if not isinstance(blocks, np.ndarray):
        blocks = list(blocks)
    elif blocks.ndim == 2:
        blocks = blocks[None]
    try:
        stack = np.array(blocks, dtype=float)
    except (TypeError, ValueError):
        stack = None
    if stack is not None and stack.shape[1:] == shape and np.all(np.isfinite(stack)):
        return stack
    mats = [as_matrix(b, name.format(t)) for t, b in enumerate(blocks)]
    for t, b in enumerate(mats):
        if b.shape != shape:
            raise mismatch(t, b.shape)
    return np.array(mats)


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


def _decompose_blocks(blocks: np.ndarray, tol: float | None = None, vectors: bool = True):
    """spectral_decompose's checks and cutoff on each of a stack of blocks.

    ``blocks`` is count x s x s.  One batched ``eigh`` decomposes every
    block; each block is checked for symmetry at its own scale and cut at
    its own s * eps * lambda_max (or ``tol``), as spectral_decompose would
    on that block alone.  Returns ``(vals, vecs, cutoffs, refusal)``:
    ascending eigenvalues (count x s), sign-fixed eigenvectors as columns
    (count x s x s), the cutoffs (count,), and ``(t, error)`` for the
    first block spectral_decompose would refuse, None when all pass;
    without ``vectors``, vecs is None and a batched ``eigvalsh`` runs.
    """
    size = blocks.shape[-1]
    flat = blocks.reshape(blocks.shape[0], -1)
    scale = np.max(np.abs(flat), axis=1, initial=0.0)
    asym = np.max(np.abs(blocks - blocks.transpose(0, 2, 1)).reshape(flat.shape),
                  axis=1, initial=0.0) > SYMMETRY_RTOL * (1.0 + scale)
    # block 0 alone would have raised this once past its symmetry check
    if tol is not None and tol < 0 and not asym[0]:
        raise ValueError("tolerance must be nonnegative")
    sym = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(sym) if vectors else (np.linalg.eigvalsh(sym), None)
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
    return vals, vecs if vecs is None else _fix_signs(vecs), cutoffs, refusal


def _indefinite(value: float, cutoff: float) -> IndefiniteInputError:
    return IndefiniteInputError(
        f"matrix has eigenvalue {value:.6g} below -tol={-cutoff:.6g}")


class SpectralDecomposition:
    """Eigendecomposition of a symmetric nonnegative definite matrix.

    ``blocks`` holds per diagonal block size s the blocks' rows in the
    matrix (count x s), ascending eigenvalues (count x s) and sign-fixed
    eigenvectors (count x s x s); without block structure, one T x T
    block.  In that order the eigenpairs form the stacked spectrum, whose
    positive eigenvalues ``order_pos`` indexes (descending, valued in
    ``eigenvalues_pos``) and whose zero ones ``order_null`` indexes.  The
    embedded eigenvectors of the two parts, F (``eigenvectors_pos``) and A
    (``eigenvectors_null``), form an orthonormal basis of R^source_dim;
    both are built on first use.  ``dense`` marks the decomposition of a
    dense matrix, whose caller has paid for T x T storage already.
    """

    def __init__(self, source_dim: int, blocks: tuple, order_pos: np.ndarray,
                 order_null: np.ndarray, eigenvalues_pos: np.ndarray, rank: int,
                 tolerance_used: float, dense: bool = False):
        self.source_dim = source_dim
        self.blocks = blocks
        self.order_pos = order_pos
        self.order_null = order_null
        self.eigenvalues_pos = eigenvalues_pos
        self.rank = rank
        self.tolerance_used = tolerance_used
        self.dense = dense

    def project(self, mat: np.ndarray, null: bool = False) -> np.ndarray:
        """F'M, or A'M when ``null``: block by block, or, for a dense
        matrix, with the dense view as the dense path always has.  That
        keeps its last bits, which the selected rows of V'M do not (A'X at
        T = 1000 moves by 1.5e-15 relative), and spares small matrices the
        per-block overhead."""
        if self.dense:
            return (self.eigenvectors_null if null else self.eigenvectors_pos).T @ mat
        parts = [(vecs.transpose(0, 2, 1) @ mat[rows]).reshape(-1, mat.shape[1])
                 for rows, _, vecs in self.blocks]
        stacked = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return stacked[self.order_null if null else self.order_pos]

    @cached_property
    def eigenvectors_pos(self) -> np.ndarray:
        """F, T x rank, built on first use."""
        return self._embed(self.order_pos)

    @cached_property
    def eigenvectors_null(self) -> np.ndarray:
        """A, T x (T - rank), built on first use."""
        return self._embed(self.order_null)

    def _embed(self, order: np.ndarray) -> np.ndarray:
        """The eigenvectors at stacked positions ``order`` as dense columns."""
        if self.blocks[0][0].shape[1] == self.source_dim:  # one block: a column copy
            return np.ascontiguousarray(self.blocks[0][2][0][:, order])
        out = np.zeros((self.source_dim, order.size))
        column = np.full(self.source_dim, -1)
        column[order] = np.arange(order.size)
        first = 0
        for rows, vals, vecs in self.blocks:
            cols = column[first:first + vals.size].reshape(vals.shape)
            block, j = np.nonzero(cols >= 0)
            out[rows[block], cols[block, j][:, None]] = vecs[block, :, j]
            first += vals.size
        return out


class RankReport:
    """Outcome of a numeric rank decision.

    ``values`` holds the singular (or eigen) values in descending order;
    ``deficient`` is True when the numeric rank falls short of the
    maximum possible rank min(rows, cols).
    """

    def __init__(self, numeric_rank: int, values: np.ndarray, tolerance: float,
                 deficient: bool):
        self.numeric_rank = numeric_rank
        self.values = values
        self.tolerance = tolerance
        self.deficient = deficient


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
    ends = _block_ends(sym) if t_dim else np.array([0])
    if ends.size == 1:
        vals, vecs = np.linalg.eigh(sym)
        return _assemble(t_dim, [(np.arange(t_dim)[None], vals[None], _fix_signs(vecs)[None])],
                         tol, dense=True)
    starts = np.concatenate([[0], ends[:-1]])
    sizes = ends - starts
    groups = []
    for size in sorted(set(sizes.tolist())):
        rows = starts[sizes == size][:, None] + np.arange(size)
        # the blocks are cut from the checked, symmetrized matrix and the cut
        # is global, so each size takes one batched eigh and no check
        vals, vecs = np.linalg.eigh(sym[rows[:, :, None], rows[:, None, :]])
        groups.append((rows, vals, _fix_signs(vecs)))
    return _assemble(t_dim, groups, tol, dense=True)


def _assemble(t_dim: int, groups, tol: float | None,
              dense: bool = False) -> SpectralDecomposition:
    """The decomposition of a T x T block-diagonal matrix from its blocks'
    eigenpairs, ``groups`` holding (rows, values, vectors) per block size.

    The union of the block spectra is cut at the whole matrix's cutoff and
    refused as indefinite below the whole matrix's threshold; it is listed
    in the dense path's order (ascending by a stable sort, the positive
    part reversed).
    """
    every = np.concatenate([vals.ravel() for _, vals, _ in groups])
    lam_max = float(np.max(np.abs(every), initial=0.0))
    cutoff = default_tolerance(t_dim, t_dim, lam_max) if tol is None else float(tol)
    if cutoff < 0:
        raise ValueError("tolerance must be nonnegative")
    order = np.argsort(every, kind="stable")
    floor = _indefiniteness_threshold(t_dim, lam_max, cutoff)
    if every.size and float(every[order[0]]) < -floor:
        raise _indefinite(every[order[0]], floor)
    positive = every > cutoff
    order_pos = order[positive[order]][::-1]
    return SpectralDecomposition(
        source_dim=t_dim,
        blocks=tuple(groups),
        order_pos=order_pos,
        order_null=order[~positive[order]],
        eigenvalues_pos=every[order_pos],
        rank=int(order_pos.size),
        tolerance_used=cutoff,
        dense=dense,
    )


def _svd_rank(values, rows: int, cols: int, tol: float | None = None) -> RankReport:
    """The rank of a rows x cols matrix from its descending singular
    values under the module rule, or at ``tol`` when given."""
    cutoff = default_tolerance(rows, cols, values[0] if values.size else 0.0) \
        if tol is None else float(tol)
    rank = int(np.count_nonzero(values > cutoff))
    return RankReport(rank, values, cutoff, deficient=rank < min(rows, cols))


def numeric_rank(b, tol: float | None = None) -> RankReport:
    """Numeric rank of a general matrix via its singular values."""
    mat = as_matrix(b, "b")
    if mat.size == 0:
        return RankReport(0, np.zeros(0), 0.0, deficient=False)
    return _svd_rank(np.linalg.svd(mat, compute_uv=False), *mat.shape, tol)


def null_space_basis(b, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of a general matrix.

    Returns a cols x (cols - rank) matrix N with B N = 0 and N'N = I.
    An empty restriction matrix (zero rows) yields the identity basis.
    A tall B takes the thin SVD, whose V' is already cols x cols.
    """
    mat = as_matrix(b, "b")
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0:
        return np.eye(cols)
    _, values, vt = np.linalg.svd(mat, full_matrices=rows < cols)
    rank = _svd_rank(values, rows, cols, tol).numeric_rank
    return _fix_signs(vt[rank:, :].T)
