"""Identification checks, implicit restrictions, and rank-failure witnesses."""

import numpy as np
import pytest

from gmls import (
    DimensionMismatchError,
    IndefiniteInputError,
    LinearRestrictions,
    NonSymmetricError,
    NullVectorMismatchError,
    SURLayout,
    WitnessKind,
    build_model,
    check_joint_identification,
    check_mls_invertibility,
    check_restriction_consistency,
    check_theil_condition,
    combine_restrictions,
    extract_implicit_restrictions,
    spectral_decompose,
)

from conftest import random_nnd
from oracles import fraction_rank, matrix_rank_svd


def test_consistency_holds_for_solvable_system():
    res = LinearRestrictions.build(np.array([[1.0, 1.0], [1.0, -1.0]]),
                                   np.array([[2.0], [0.0]]))
    ok, report = check_restriction_consistency(res)
    assert ok
    assert report.numeric_rank == 2


def test_consistency_fails_for_contradiction():
    res = LinearRestrictions.build(np.array([[1.0, 1.0], [2.0, 2.0]]),
                                   np.array([[1.0], [3.0]]))
    ok, report = check_restriction_consistency(res)
    assert not ok
    # oracle: the augmented matrix gains a rank over R
    aug = np.hstack([res.R, res.r])
    assert fraction_rank(aug) == fraction_rank(res.R) + 1
    assert report.numeric_rank == fraction_rank(aug)


def test_joint_identification_repairs_deficient_design():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(9, 3))
    x[:, 2] = x[:, 0]  # collinear
    assert matrix_rank_svd(x) == 2
    bad = LinearRestrictions.empty(3)
    ok, _ = check_joint_identification(x, bad)
    assert not ok
    fix = LinearRestrictions.build(np.array([[1.0, 0.0, -1.0]]),
                                   np.array([[0.0]]))
    ok, report = check_joint_identification(x, fix)
    assert ok
    assert report.numeric_rank == 3


def test_joint_identification_ignores_redundant_rows():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(9, 3))
    x[:, 2] = x[:, 0]
    # this row lies inside the deficient column space, so it cannot help
    useless = LinearRestrictions.build(np.array([[1.0, 0.0, 1.0]]),
                                       np.array([[0.0]]))
    ok, _ = check_joint_identification(x, useless)
    assert not ok


def _singular_model(rng, t_dim=7, k_dim=2, omega_rank=4):
    x = rng.normal(size=(t_dim, k_dim))
    root = rng.normal(size=(t_dim, omega_rank))
    omega = root @ root.T
    beta = rng.normal(size=(k_dim, 1))
    y = x @ beta + root @ rng.normal(size=(omega_rank, 1))
    return build_model(y, x, omega), beta


@pytest.mark.parametrize("seed", range(5))
def test_implicit_restrictions_hold_for_true_beta(seed):
    """Data generated inside the model satisfy A'X beta = A'y exactly."""
    rng = np.random.default_rng(400 + seed)
    model, beta = _singular_model(rng)
    implicit = extract_implicit_restrictions(model)
    assert implicit.count == model.num_obs - 4
    np.testing.assert_allclose(implicit.G @ beta, implicit.g, atol=1e-8)
    # the extractor's A block annihilates the dispersion
    np.testing.assert_allclose(model.dispersion @ implicit.A, 0.0, atol=1e-8)


def test_implicit_restrictions_empty_for_pd_dispersion():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(6, 2))
    y = x @ np.ones((2, 1))
    model = build_model(y, x, np.eye(6))
    implicit = extract_implicit_restrictions(model)
    assert implicit.count == 0


def test_combine_restrictions_layout_and_consistency():
    rng = np.random.default_rng(31)
    model, beta = _singular_model(rng)
    # the implicit rows already pin beta, so the explicit row must agree
    # with the truth to stay consistent
    explicit = LinearRestrictions.build(np.array([[1.0, 1.0]]),
                                        np.array([[float(beta.sum())]]))
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(explicit, implicit)
    assert combined.count == explicit.count + implicit.count
    assert list(combined.explicit_rows) == [0]
    assert list(combined.implicit_rows) == list(range(1, combined.count))
    np.testing.assert_allclose(combined.H[0:1], explicit.R, atol=1e-14)
    np.testing.assert_allclose(combined.H[1:], implicit.G, atol=1e-14)
    assert combined.consistent


def test_combine_restrictions_flags_conflict():
    rng = np.random.default_rng(32)
    model, beta = _singular_model(rng)
    implicit = extract_implicit_restrictions(model)
    # contradict one implicit row outright
    row = implicit.G[:1]
    bad = LinearRestrictions.build(row, implicit.g[:1] + 1.0)
    combined = combine_restrictions(bad, implicit)
    assert not combined.consistent


def test_mls_invertibility_matches_direct_rank():
    rng = np.random.default_rng(33)
    t_dim = 8
    x = rng.normal(size=(t_dim, 3))
    omega = random_nnd(rng, t_dim, rank=5)
    spec = spectral_decompose(omega)
    ok, report = check_mls_invertibility(x, spec)
    direct = matrix_rank_svd(spec.eigenvectors_pos.T @ x)
    assert report.numeric_rank == direct
    assert ok == (direct == 3)


def test_mls_invertibility_fails_when_rank_drops_below_params():
    rng = np.random.default_rng(34)
    t_dim = 8
    x = rng.normal(size=(t_dim, 4))
    omega = random_nnd(rng, t_dim, rank=2)  # only 2 positive directions
    ok, report = check_mls_invertibility(x, spectral_decompose(omega))
    assert not ok
    assert report.numeric_rank <= 2


# ---------------------------------------------------------------------------
# rank-failure witnesses for SUR systems


def _adding_up_blocks(rng, n, m, hetero=True):
    a = np.full((n, 1), 1.0 / np.sqrt(n))
    proj = np.eye(n) - a @ a.T
    if hetero:
        return [proj @ np.diag(rng.uniform(0.5, 1.5, size=n)) @ proj
                for _ in range(m)], a
    return [proj @ np.diag(rng.uniform(0.5, 1.5, size=n)) @ proj] * m, a


def _whitened(layout, blocks):
    specs = [spectral_decompose(b) for b in blocks]
    return np.vstack([specs[t].eigenvectors_pos.T @ layout.period_row(t)
                      for t in range(layout.m)])


def test_generic_system_passes():
    rng = np.random.default_rng(41)
    n, m = 3, 6
    layout = SURLayout.build([rng.normal(size=(m, 2)) for _ in range(n)])
    blocks, _ = _adding_up_blocks(rng, n, m)
    witness = check_theil_condition(layout, blocks)
    assert witness.kind is WitnessKind.NONE
    assert matrix_rank_svd(_whitened(layout, blocks)) == layout.num_params


@pytest.mark.parametrize("seed", range(5))
def test_within_equation_collinearity_witness(seed):
    rng = np.random.default_rng(500 + seed)
    n, m = 3, 6
    designs = [rng.normal(size=(m, 2)) for _ in range(n)]
    bad = int(rng.integers(0, n))
    col = rng.normal(size=(m, 1))
    designs[bad] = np.hstack([col, 2.0 * col])
    layout = SURLayout.build(designs)
    blocks, _ = _adding_up_blocks(rng, n, m)
    witness = check_theil_condition(layout, blocks)
    assert witness.kind is WitnessKind.WITHIN_EQUATION_COLLINEARITY
    assert witness.violating_equation == bad
    # the certificate kills every whitened period row
    resid = _whitened(layout, blocks) @ witness.d
    assert float(np.max(np.abs(resid))) < 1e-8
    # support is confined to the violating equation's block
    mask = np.zeros(layout.num_params, dtype=bool)
    mask[layout.column_slices()[bad]] = True
    assert np.allclose(witness.d[~mask], 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_cross_equation_witness(seed):
    rng = np.random.default_rng(600 + seed)
    n, m = 3, 6
    shared = rng.normal(size=(m, 1))
    designs = [np.hstack([shared, rng.normal(size=(m, 1))]) for _ in range(n)]
    layout = SURLayout.build(designs)
    blocks, a = _adding_up_blocks(rng, n, m)
    witness = check_theil_condition(layout, blocks)
    assert witness.kind is WitnessKind.CROSS_EQUATION_COMBINATION
    resid = _whitened(layout, blocks) @ witness.d
    assert float(np.max(np.abs(resid))) < 1e-8
    # the combination involves more than one equation
    involved = [i for i, cols in enumerate(layout.column_slices())
                if float(np.max(np.abs(witness.d[cols]))) > 1e-10]
    assert len(involved) >= 2


def test_homoskedastic_identical_designs_always_fail():
    """Equal dispersion blocks with identical covariates cannot satisfy
    the rank condition, whatever the values are."""
    rng = np.random.default_rng(43)
    n, m = 3, 7
    common = rng.normal(size=(m, 2))
    layout = SURLayout.build([common.copy() for _ in range(n)])
    blocks, _ = _adding_up_blocks(rng, n, m, hetero=False)
    witness = check_theil_condition(layout, blocks[0])  # single block broadcast
    assert witness.kind is WitnessKind.CROSS_EQUATION_COMBINATION
    resid = _whitened(layout, blocks) @ witness.d
    assert float(np.max(np.abs(resid))) < 1e-8


def test_single_block_broadcast_matches_list():
    rng = np.random.default_rng(44)
    n, m = 3, 5
    layout = SURLayout.build([rng.normal(size=(m, 2)) for _ in range(n)])
    blocks, _ = _adding_up_blocks(rng, n, m, hetero=False)
    w_list = check_theil_condition(layout, blocks)
    w_bcast = check_theil_condition(layout, blocks[0])
    assert w_list.kind is w_bcast.kind
    np.testing.assert_allclose(w_list.d, w_bcast.d, atol=1e-12)


def test_single_nonzero_weight_gets_note():
    # null vector e1: equation 0 has deterministic errors, so its block
    # of the whitened design vanishes identically
    rng = np.random.default_rng(45)
    n, m = 3, 5
    layout = SURLayout.build([rng.normal(size=(m, 2)) for _ in range(n)])
    blocks = [np.diag([0.0, *rng.uniform(0.5, 1.5, size=n - 1)]) for _ in range(m)]
    witness = check_theil_condition(layout, blocks)
    assert witness.kind is WitnessKind.CROSS_EQUATION_COMBINATION
    assert witness.note == "single nonzero null-vector weight"
    resid = _whitened(layout, blocks) @ witness.d
    assert float(np.max(np.abs(resid))) < 1e-8


def test_mismatched_null_vectors_rejected():
    rng = np.random.default_rng(46)
    n, m = 3, 4
    layout = SURLayout.build([rng.normal(size=(m, 1)) for _ in range(n)])
    blocks = [np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 1.0]),
              np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 1.0, 1.0])]
    with pytest.raises(NullVectorMismatchError):
        check_theil_condition(layout, blocks)


def test_double_null_eigenvalue_rejected():
    rng = np.random.default_rng(47)
    n, m = 3, 4
    layout = SURLayout.build([rng.normal(size=(m, 1)) for _ in range(n)])
    with pytest.raises(NullVectorMismatchError):
        check_theil_condition(layout, np.diag([0.0, 0.0, 1.0]))


def test_wrong_block_count_rejected():
    rng = np.random.default_rng(48)
    layout = SURLayout.build([rng.normal(size=(4, 1)) for _ in range(3)])
    blocks, _ = _adding_up_blocks(rng, 3, 2)
    with pytest.raises(DimensionMismatchError):
        check_theil_condition(layout, blocks)


def test_bad_period_blocks_keep_their_refusals():
    rng = np.random.default_rng(49)
    n, m = 3, 5
    layout = SURLayout.build([rng.normal(size=(m, 2)) for _ in range(n)])
    blocks, _ = _adding_up_blocks(rng, n, m)
    skewed = list(blocks)
    skewed[3] = blocks[3] + np.triu(np.ones((n, n)), 1) * 1e-6
    with pytest.raises(NonSymmetricError):
        check_theil_condition(layout, skewed)
    indefinite = list(blocks)
    indefinite[2] = np.diag([0.0, 1.0, -1.0])
    with pytest.raises(IndefiniteInputError, match="eigenvalue -1 below"):
        check_theil_condition(layout, indefinite)
    wrong = list(blocks)
    wrong[4] = np.eye(n + 1)
    with pytest.raises(DimensionMismatchError, match="dispersion block 4 is not 3 x 3"):
        check_theil_condition(layout, wrong)
    double = list(blocks)
    double[1] = np.diag([0.0, 0.0, 1.0])
    with pytest.raises(NullVectorMismatchError, match="dispersion block 1 has 2 zero"):
        check_theil_condition(layout, double)
