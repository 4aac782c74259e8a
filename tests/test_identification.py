"""Identification checks, implicit restrictions, and rank-failure witnesses."""

import os

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
    null_space_basis,
    rols,
    spectral_decompose,
    stack_sur,
    tkn,
)
from gmls.cli import read_matrix, read_panel, read_restrictions
from gmls.identify import ImplicitRestrictions, _inconsistent_columns

from conftest import FIXTURES, random_nnd
from oracles import augmented_rank_refusals, fraction_rank, matrix_rank_svd, period_row


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
    # the rows are A'X and A'y for the model's null basis A, which
    # annihilates the dispersion
    a_mat = model.spectrum.eigenvectors_null
    np.testing.assert_allclose(model.dispersion @ a_mat, 0.0, atol=1e-8)
    np.testing.assert_allclose(implicit.G, a_mat.T @ model.X, atol=1e-12)
    np.testing.assert_allclose(implicit.g, a_mat.T @ model.y, atol=1e-12)


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


def test_combined_rows_share_the_models_read_only_products():
    """With no explicit rows h is the model's cached A'y itself; the model's
    products are read-only, so no holder can change what the others read."""
    rng = np.random.default_rng(33)
    model, _ = _singular_model(rng)
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(LinearRestrictions.empty(model.num_params), implicit)
    assert combined.h is implicit.g is model._null_products[1]
    with pytest.raises(ValueError, match="read-only"):
        combined.h[0, 0] = 1.0
    for product in model._range_products + model._null_products:
        assert not product.flags.writeable
    explicit = LinearRestrictions.build(np.array([[1.0, 1.0]]), np.array([[0.0]]))
    assert not np.shares_memory(combine_restrictions(explicit, implicit).h, implicit.g)


def test_combine_restrictions_flags_conflict():
    rng = np.random.default_rng(32)
    model, beta = _singular_model(rng)
    implicit = extract_implicit_restrictions(model)
    # contradict one implicit row outright
    row = implicit.G[:1]
    bad = LinearRestrictions.build(row, implicit.g[:1] + 1.0)
    combined = combine_restrictions(bad, implicit)
    assert not combined.consistent


def test_invertible_system_with_a_large_rhs_is_consistent():
    """H = diag(1, 1e-10) maps onto the plane, so H beta = (1e8, 0)' has a
    solution although the numeric rank of (H, h) is 1 < rank(H) = 2."""
    h_mat = np.diag([1.0, 1e-10])
    h_vec = np.array([[1e8], [0.0]])
    assert augmented_rank_refusals(h_mat, h_vec).tolist() == [0]
    ok, report = check_restriction_consistency(LinearRestrictions.build(h_mat, h_vec))
    assert ok
    # the report still describes the augmented matrix (R, r)
    assert report.numeric_rank == 1
    combined = _combined(h_mat, h_vec, None)
    assert combined.consistent and combined.inconsistent_column is None
    # and the restricted estimators, tkn's row-rank test included, fit it
    rng = np.random.default_rng(33)
    model = build_model(rng.normal(size=(6, 1)), rng.normal(size=(6, 2)), np.eye(6))
    for fit in (rols, tkn):
        np.testing.assert_allclose(
            fit(model, LinearRestrictions.build(h_mat, h_vec)).beta_hat, h_vec,
            rtol=1e-12, atol=1e-6)


def _fixture_systems():
    """(H, h) of every restriction system the CLI fixtures feed the checks."""
    def path(name):
        return os.path.join(FIXTURES, name)
    model = build_model(read_matrix(path("response.csv")), read_matrix(path("design.csv")),
                        read_matrix(path("dispersion.csv")))
    designs, responses, _, periods = read_panel(path("sur_ok.csv"))
    sigma = read_matrix(path("sigma.csv"))
    sur = stack_sur(SURLayout.build(designs), responses, [sigma] * len(periods),
                    order="period")
    systems = []
    for fit, name in ((model, "restrictions.csv"), (model, "useless_restrictions.csv"),
                      (model, "inconsistent_restrictions.csv"),
                      (sur, "conflicting_sur_restrictions.csv")):
        explicit = read_restrictions(path(name))
        systems.append((explicit.R, explicit.r))
        combined = combine_restrictions(explicit, extract_implicit_restrictions(fit))
        systems.append((combined.H, combined.h))
    return systems


def _random_systems(rng, full_row_rank):
    """Random (H, h): columns in col(H), outside it, and scaled far apart."""
    for _ in range(60):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 8))
        rank = min(rows, cols) if full_row_rank else int(rng.integers(1, min(rows, cols)))
        if full_row_rank and rows > cols:
            rows = cols
        h_mat = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        if full_row_rank:
            # rows of very different scale: some numerically near-dependent
            h_mat *= 10.0 ** rng.integers(-12, 1, size=(rows, 1))
        inside = h_mat @ rng.normal(size=(cols, 8))
        outside = rng.normal(size=(rows, 8))
        h_vec = np.hstack([inside, outside, 1e8 * inside, 1e8 * outside])
        yield h_mat, h_vec


def _combined(h_mat, h_vec, tol):
    """combine_restrictions on H beta = h posed as implicit rows."""
    implicit = ImplicitRestrictions(G=h_mat, g=h_vec)
    return combine_restrictions(LinearRestrictions.empty(h_mat.shape[1]), implicit,
                                tol=tol)


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_consistency_on_rank_deficient_h_is_the_augmented_rank_rule(tol):
    rng = np.random.default_rng(7070)
    deficient = [(h_mat, h_vec) for h_mat, h_vec in _fixture_systems()
                 if matrix_rank_svd(h_mat) < h_mat.shape[0]]
    assert len(deficient) >= 2  # the two conflicting fixtures at least
    refused = 0
    for h_mat, h_vec in deficient + list(_random_systems(rng, full_row_rank=False)):
        expected = augmented_rank_refusals(h_mat, h_vec, tol)
        assert _inconsistent_columns(h_mat, h_vec, tol).tolist() == expected.tolist()
        combined = _combined(h_mat, h_vec, tol)
        assert combined.consistent == (expected.size == 0)
        assert combined.inconsistent_column == (expected[0] if expected.size else None)
        refused += expected.size
        if h_vec.shape[1] == 1:
            res = LinearRestrictions.build(h_mat, h_vec)
            assert check_restriction_consistency(res, tol)[0] == (expected.size == 0)
    assert refused > 0


def test_consistency_on_full_row_rank_h_only_accepts_more():
    rng = np.random.default_rng(7071)
    systems = [(h_mat, h_vec) for h_mat, h_vec in
               _fixture_systems() + list(_random_systems(rng, full_row_rank=True))
               if matrix_rank_svd(h_mat) == h_mat.shape[0]]
    assert len(systems) >= 60
    flipped = 0
    for h_mat, h_vec in systems:
        assert _inconsistent_columns(h_mat, h_vec, None).size == 0
        assert _combined(h_mat, h_vec, None).consistent
        flipped += augmented_rank_refusals(h_mat, h_vec).size
    # the battery reaches columns the augmented rule refused
    assert flipped > 0


def test_mls_invertibility_matches_direct_rank():
    rng = np.random.default_rng(33)
    t_dim = 8
    x = rng.normal(size=(t_dim, 3))
    omega = random_nnd(rng, t_dim, rank=5)
    model = build_model(x @ np.ones((3, 1)), x, omega)
    ok, report = check_mls_invertibility(model)
    direct = matrix_rank_svd(model.spectrum.eigenvectors_pos.T @ x)
    assert report.numeric_rank == direct
    assert ok == (direct == 3)


def test_mls_invertibility_fails_when_rank_drops_below_params():
    rng = np.random.default_rng(34)
    t_dim = 8
    x = rng.normal(size=(t_dim, 4))
    omega = random_nnd(rng, t_dim, rank=2)  # only 2 positive directions
    ok, report = check_mls_invertibility(build_model(x @ np.ones((4, 1)), x, omega))
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
    return np.vstack([specs[t].eigenvectors_pos.T @ period_row(layout, t)
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


@pytest.mark.parametrize("kind", [WitnessKind.CROSS_EQUATION_COMBINATION,
                                  WitnessKind.WITHIN_EQUATION_COLLINEARITY])
def test_theil_witness_holds_in_every_blocks_own_eigenbasis(kind):
    """Heteroskedastic period blocks share one null vector a but no other
    eigenvector.  The certificate d is found from block 0's basis alone and
    must still give F_t' X_t d = 0 with each block's own eigenvectors."""
    rng = np.random.default_rng(52)
    n, m = 3, 6
    designs = [rng.normal(size=(m, 2)) for _ in range(n)]
    if kind is WitnessKind.CROSS_EQUATION_COMBINATION:
        shared = rng.normal(size=(m, 1))
        designs = [np.hstack([shared, x[:, 1:]]) for x in designs]
    else:
        designs[1] = np.hstack([designs[1][:, :1], -3.0 * designs[1][:, :1]])
    layout = SURLayout.build(designs)
    a = rng.normal(size=(n, 1))
    a /= np.linalg.norm(a)
    roots = [(np.eye(n) - a @ a.T) @ rng.normal(size=(n, n)) for _ in range(m)]
    blocks = [r @ r.T for r in roots]
    witness = check_theil_condition(layout, blocks)
    assert witness.kind is kind
    np.testing.assert_allclose(np.abs(witness.a), np.abs(a), atol=1e-12)
    for t, block in enumerate(blocks):
        # eigenvalues ascend: column 0 is the null vector, the rest span F_t
        f_t = np.linalg.eigh(block)[1][:, 1:]
        resid = f_t.T @ period_row(layout, t) @ witness.d
        assert float(np.max(np.abs(resid))) < 1e-8, t


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


def test_cross_equation_witness_at_two_thousand_periods_stays_at_the_size_of_the_designs():
    """n = 4, m = 2000, K = 12 with one column shared by every equation.
    The certificate is a null vector of the (n - 1) m x K whitened design,
    so no m x m array (32 MB) is built: the check peaks under 8 MB and
    takes well under a second, and its certificate holds in every period."""
    import time
    import tracemalloc

    rng = np.random.default_rng(2000)
    n, m = 4, 2000
    shared = rng.normal(size=(m, 1))
    layout = SURLayout.build([np.hstack([shared, rng.normal(size=(m, 2))])
                              for _ in range(n)])
    blocks, _ = _adding_up_blocks(rng, n, m)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        witness = check_theil_condition(layout, blocks)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.kind is WitnessKind.CROSS_EQUATION_COMBINATION
    assert peak < 8 * 2 ** 20
    assert elapsed < 1.0
    rows = np.stack([period_row(layout, t) for t in range(m)])
    # eigenvalues ascend: column 0 is the null vector, the rest span F_0
    whitened = np.linalg.eigh(blocks[0])[1][:, 1:].T @ rows
    assert float(np.max(np.abs(whitened @ witness.d))) \
        <= 1e-8 * (1.0 + float(np.max(np.abs(whitened))))
    np.testing.assert_allclose(witness.s[:, 0], (witness.a.T @ rows @ witness.d)[:, 0, 0],
                               rtol=0, atol=1e-12)


def test_witness_at_a_loose_tol_is_a_null_vector_of_the_whitened_design(monkeypatch):
    """A shared column moved by about 1e-10 in each equation.  At tol = 1e-8
    the whitened design is deficient and no equation is collinear, though
    the column spaces meet only to about 1e-10; the certificate is a null
    vector of F'X, the one SVD taken after the collinearity checks."""
    from gmls import identify

    rng = np.random.default_rng(53)
    n, m = 3, 6
    shared = rng.normal(size=(m, 1))
    layout = SURLayout.build([np.hstack([shared + 1e-10 * rng.normal(size=(m, 1)),
                                         rng.normal(size=(m, 1))]) for _ in range(n)])
    blocks, _ = _adding_up_blocks(rng, n, m)
    shapes = []

    def recorded(b, tol=None):
        shapes.append(np.shape(b))
        return null_space_basis(b, tol=tol)
    monkeypatch.setattr(identify, "null_space_basis", recorded)
    witness = check_theil_condition(layout, blocks, tol=1e-8)
    assert witness.kind is WitnessKind.CROSS_EQUATION_COMBINATION
    assert shapes == [((n - 1) * m, layout.num_params)]
    assert float(np.max(np.abs(_whitened(layout, blocks) @ witness.d))) < 1e-8
    for t in range(m):
        assert abs(float((witness.a.T @ period_row(layout, t) @ witness.d)[0, 0])
                   - float(witness.s[t, 0])) <= 1e-12


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


@pytest.mark.parametrize("seed, call", [(206, 8), (286, 4)])
def test_theil_condition_cuts_blocks_where_stack_sur_cuts(seed, call):
    """Adding-up SUR instances whose block null eigenvalue sits just above
    the block's own 4 eps lambda_max but far below the stacked dispersion's
    T eps lambda_max: the model has one null direction per period, so the
    Theil check must find exactly one in every block too.  Drawn as the
    fit-sur benchmark draws its call ``call`` under seed ``seed``."""
    n, m, kw = 4, 500, 3
    rng = np.random.default_rng([seed, call])
    designs = [rng.normal(size=(m, kw)) for _ in range(n)]
    a = np.full((n, 1), 1.0 / np.sqrt(n))
    proj = np.eye(n) - a @ a.T
    blocks = [proj @ np.diag(d) @ proj for d in rng.uniform(0.5, 1.5, size=(m, n))]
    layout = SURLayout.build(designs)
    responses = [d @ np.ones((kw, 1)) for d in designs]
    model = stack_sur(layout, responses, blocks, order="period")
    assert model.spectrum.rank == m * (n - 1)
    witness = check_theil_condition(layout, blocks)
    assert witness.kind is WitnessKind.NONE
    np.testing.assert_allclose(np.abs(witness.a), a, atol=1e-12)
