"""Spectral decomposition, rank decisions, and pseudo-inverse behavior."""

import numpy as np
import pytest

from gmls import (
    DimensionMismatchError,
    IndefiniteInputError,
    NonFiniteError,
    NonSymmetricError,
    default_tolerance,
    null_space_basis,
    numeric_rank,
    spectral_decompose,
)
from gmls.model import _block_diag
from gmls.spectral import _block_ends, _fix_signs, as_matrix

from conftest import random_nnd, random_spd
from oracles import fraction_rank, matrix_rank_svd, penrose_defects, reconstruct, spectral_pinv


def test_hand_diagonal_decomposition():
    spec = spectral_decompose(np.diag([2.0, 1.0, 0.0]))
    assert spec.rank == 2
    np.testing.assert_allclose(spec.eigenvalues_pos, [2.0, 1.0])
    # null direction is the third axis up to sign
    np.testing.assert_allclose(np.abs(spec.eigenvectors_null.ravel()), [0, 0, 1],
                               atol=1e-14)
    np.testing.assert_allclose(reconstruct(spec), np.diag([2.0, 1.0, 0.0]),
                               atol=1e-14)
    np.testing.assert_allclose(spectral_pinv(spec), np.diag([0.5, 1.0, 0.0]), atol=1e-14)


def test_eigenvalues_sorted_descending():
    rng = np.random.default_rng(0)
    spec = spectral_decompose(random_nnd(rng, 8, rank=5))
    assert np.all(np.diff(spec.eigenvalues_pos) <= 0)
    assert spec.eigenvalues_pos.shape == (5,)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim,rank", [(4, 4), (6, 3), (9, 7), (5, 1)])
def test_partition_properties(seed, dim, rank):
    """The two eigenvector blocks are orthonormal and complementary."""
    rng = np.random.default_rng(100 + seed)
    omega = random_nnd(rng, dim, rank=rank)
    spec = spectral_decompose(omega)
    assert spec.rank == rank
    f_mat, a_mat = spec.eigenvectors_pos, spec.eigenvectors_null
    np.testing.assert_allclose(f_mat.T @ f_mat, np.eye(rank), atol=1e-12)
    np.testing.assert_allclose(a_mat.T @ a_mat, np.eye(dim - rank), atol=1e-12)
    np.testing.assert_allclose(a_mat.T @ f_mat, np.zeros((dim - rank, rank)),
                               atol=1e-12)
    np.testing.assert_allclose(reconstruct(spec), omega, atol=1e-10)
    # null block really annihilates the matrix
    np.testing.assert_allclose(omega @ a_mat, 0.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_pinv_satisfies_penrose(seed):
    rng = np.random.default_rng(200 + seed)
    dim = int(rng.integers(2, 12))
    rank = int(rng.integers(1, dim + 1))
    omega = random_nnd(rng, dim, rank=rank)
    defects = penrose_defects(omega, spectral_pinv(spectral_decompose(omega)))
    assert max(defects) < 1e-10


def test_rank_against_exact_arithmetic():
    # integer matrices rank exactly over the rationals
    cases = [
        np.array([[1, 2], [2, 4]], dtype=float),
        np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2]], dtype=float),
        np.array([[3, 1], [1, 3]], dtype=float),
    ]
    for mat in cases:
        assert numeric_rank(mat).numeric_rank == fraction_rank(mat)


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_numpy_on_random_input(seed):
    rng = np.random.default_rng(300 + seed)
    rows, cols = int(rng.integers(2, 10)), int(rng.integers(2, 10))
    mat = rng.normal(size=(rows, cols))
    assert numeric_rank(mat).numeric_rank == matrix_rank_svd(mat)


def test_tolerance_tie_counts_as_zero():
    # an eigenvalue exactly at the cutoff is excluded
    spec = spectral_decompose(np.diag([1.0, 1e-6]), tol=1e-6)
    assert spec.rank == 1


def test_tolerance_scale_invariance():
    rng = np.random.default_rng(4)
    omega = random_nnd(rng, 7, rank=4)
    for scale in (1e-8, 1.0, 1e8):
        assert spectral_decompose(scale * omega).rank == 4


def test_default_tolerance_formula():
    eps = np.finfo(float).eps
    assert default_tolerance(10, 4, 3.0) == 10 * eps * 3.0
    assert default_tolerance(2, 20, 0.5) == 20 * eps * 0.5


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(9)
    spec = spectral_decompose(random_nnd(rng, 6, rank=4))
    for block in (spec.eigenvectors_pos, spec.eigenvectors_null):
        for j in range(block.shape[1]):
            col = block[:, j]
            assert col[np.argmax(np.abs(col))] > 0


def test_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        spectral_decompose(np.ones((3, 2)))


def test_rejects_asymmetric():
    mat = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(NonSymmetricError):
        spectral_decompose(mat)


def test_rejects_indefinite():
    with pytest.raises(IndefiniteInputError):
        spectral_decompose(np.diag([1.0, -0.5]))


def test_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        spectral_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_matrix_promotes_vectors():
    out = as_matrix(np.array([1.0, 2.0]), "v")
    assert out.shape == (2, 1)


def test_null_space_basis_properties():
    rng = np.random.default_rng(12)
    for _ in range(6):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        mat = rng.normal(size=(rows, cols))
        basis = null_space_basis(mat)
        assert basis.shape == (cols, cols - matrix_rank_svd(mat))
        if basis.size:
            np.testing.assert_allclose(mat @ basis, 0.0, atol=1e-12)
            np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]),
                                       atol=1e-12)


def test_null_space_of_empty_row_set():
    basis = null_space_basis(np.zeros((0, 4)))
    np.testing.assert_allclose(basis, np.eye(4))


def test_pinv_of_rank_one_ones():
    # ones(2,2) has pseudo-inverse ones(2,2)/4
    np.testing.assert_allclose(spectral_pinv(spectral_decompose(np.ones((2, 2)))),
                               np.ones((2, 2)) / 4.0, atol=1e-14)


# ---------------------------------------------------------------------------
# eigenvector signs and block-diagonal inputs


def _loop_fix_signs(vectors):
    """The sign rule applied one column at a time (the reference)."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col.size and col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    return out


def _bits(a):
    return a.shape, a.tobytes()


def test_fix_signs_matches_the_column_loop_bitwise():
    rng = np.random.default_rng(31)
    cases = [
        rng.normal(size=(6, 4)),
        # first-occurrence ties decide: the first of +-2 is kept positive
        np.array([[2.0, -2.0, 0.5], [-2.0, 2.0, -2.0], [1.0, 0.0, 2.0]]),
        # a zero column, a column of signed zeros, signed zeros under a flip
        np.array([[0.0, -0.0, -0.0], [0.0, 0.0, -3.0], [0.0, -0.0, 1.0]]),
        np.zeros((0, 3)),
        np.zeros((4, 0)),
        rng.normal(size=(5, 7))[:, [6, 2, 3]],  # a non-contiguous input
    ]
    for vectors in cases:
        fixed = _fix_signs(vectors)
        assert _bits(fixed) == _bits(_loop_fix_signs(vectors))
        assert fixed.flags.c_contiguous
    stack = rng.normal(size=(3, 4, 4))
    stack[1, :, 0] = [-1.0, 1.0, -0.0, 0.5]
    fixed = _fix_signs(stack)
    for k in range(stack.shape[0]):
        assert _bits(fixed[k].copy()) == _bits(_loop_fix_signs(stack[k]))


def _dense_decomposition(sym, tol=None):
    """spectral_decompose's dense path: one eigh of the whole matrix."""
    vals, vecs = np.linalg.eigh(sym)
    cutoff = default_tolerance(*sym.shape, np.max(np.abs(vals))) if tol is None else tol
    positive = vals > cutoff
    idx_pos = np.nonzero(positive)[0][::-1]
    idx_null = np.nonzero(~positive)[0]
    return (_loop_fix_signs(vecs[:, idx_pos]), _loop_fix_signs(vecs[:, idx_null]),
            vals[idx_pos], cutoff)


def _block_cases():
    rng = np.random.default_rng(32)
    tied = random_spd(rng, 3)
    return {
        "mixed sizes": ([random_spd(rng, 3), random_nnd(rng, 5, rank=2),
                         random_spd(rng, 1), random_nnd(rng, 4, rank=4),
                         random_nnd(rng, 3, rank=1)], None),
        "zero rows": ([np.zeros((1, 1)), random_spd(rng, 2), np.zeros((2, 2)),
                       random_nnd(rng, 3, rank=2), np.zeros((1, 1))], None),
        "tied blocks": ([tied] * 6 + [random_nnd(rng, 2, rank=1)] * 3, None),
        "singular blocks": ([random_nnd(rng, 4, rank=r) for r in (1, 2, 3, 0, 2)], None),
        "tol given": ([np.diag([4.0, 2e-4]), random_spd(rng, 3),
                       np.diag([2e-3, 5e-4, 1.0])], 1e-3),
    }


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_block_diagonal_input_agrees_with_the_dense_eigh(case):
    blocks, tol = _block_cases()[case]
    omega = _block_diag(*blocks)
    assert _block_ends(omega).size > 1
    spec = spectral_decompose(omega, tol=tol)
    f_ref, a_ref, vals_ref, cutoff = _dense_decomposition(omega, tol)
    assert spec.rank == vals_ref.size
    assert abs(spec.tolerance_used - cutoff) <= 1e-12 * cutoff
    np.testing.assert_allclose(spec.eigenvalues_pos, vals_ref, rtol=0, atol=1e-13)
    f_mat, a_mat = spec.eigenvectors_pos, spec.eigenvectors_null
    np.testing.assert_allclose(f_mat @ f_mat.T, f_ref @ f_ref.T, rtol=0, atol=1e-13)
    np.testing.assert_allclose(a_mat @ a_mat.T, a_ref @ a_ref.T, rtol=0, atol=1e-13)
    basis = np.hstack([f_mat, a_mat])
    np.testing.assert_allclose(basis.T @ basis, np.eye(omega.shape[0]), atol=1e-13)
    for block in (f_mat, a_mat):
        assert _bits(block) == _bits(_loop_fix_signs(block))


def test_block_partition_follows_the_zero_pattern():
    mat = np.zeros((9, 9))
    mat[0, 2] = mat[2, 0] = 1.0      # rows 0-2 tie together through row 0
    mat[1, 1] = 1.0
    mat[3, 3] = 1.0                   # 1 x 1
    mat[5, 7] = mat[7, 5] = 1.0       # row 4 is zero; rows 5-7 one block
    mat[6, 6] = 1.0
    np.testing.assert_array_equal(_block_ends(mat), [3, 4, 5, 8, 9])
    # row 0 reaching the last column makes one block without a scan
    full = np.ones((4, 4))
    np.testing.assert_array_equal(_block_ends(full), [4])
    # a permuted block structure is not contiguous: one block
    perm = np.array([0, 3, 1, 4, 2, 5])
    split = _block_diag(np.ones((3, 3)), np.ones((3, 3)))
    np.testing.assert_array_equal(_block_ends(split[np.ix_(perm, perm)]), [6])


def test_block_diagonal_input_refuses_like_the_dense_path():
    rng = np.random.default_rng(33)
    good = [random_spd(rng, 3) for _ in range(4)]
    skewed = good[2].copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(NonSymmetricError):
        spectral_decompose(_block_diag(good[0], good[1], skewed, good[3]))
    with pytest.raises(IndefiniteInputError, match="eigenvalue -0.5 below"):
        spectral_decompose(_block_diag(good[0], np.diag([1.0, -0.5]), good[3]))


@pytest.mark.parametrize("seed", range(4))
def test_dense_input_keeps_the_dense_path_bitwise(seed):
    rng = np.random.default_rng(34 + seed)
    dim = int(rng.integers(3, 40))
    omega = random_nnd(rng, dim, rank=int(rng.integers(1, dim + 1)))
    if seed % 2:
        # a zero corner sends the input through the full scan, still one block
        omega += np.abs(omega).sum() * np.eye(dim)
        omega[0, -1] = omega[-1, 0] = 0.0
    assert _block_ends(omega).size == 1
    spec = spectral_decompose(omega)
    f_ref, a_ref, vals_ref, cutoff = _dense_decomposition(0.5 * (omega + omega.T))
    assert _bits(spec.eigenvectors_pos) == _bits(f_ref)
    assert _bits(spec.eigenvectors_null) == _bits(a_ref)
    assert _bits(spec.eigenvalues_pos) == _bits(vals_ref)
    assert spec.tolerance_used == cutoff
    # a dense matrix projects with the dense views' products, bit for bit
    mat = rng.normal(size=(dim, 3))
    assert _bits(spec.project(mat)) == _bits(f_ref.T @ mat)
    assert _bits(spec.project(mat, null=True)) == _bits(a_ref.T @ mat)
