"""Estimator correctness against independent reference computations."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gmls import (
    CombinedRestrictions,
    DesignRankDeficientError,
    DimensionMismatchError,
    DispersionSingularError,
    EstimatorTag,
    IdentificationError,
    InconsistentRestrictionsError,
    IndefiniteInputError,
    InfeasibleParticularError,
    LinearRestrictions,
    NonFiniteError,
    ReducedGramSingularError,
    ResponseOutsideRangeError,
    RestrictionGramSingularError,
    ShiftInsufficientError,
    SpectralDecomposition,
    SURLayout,
    TheilRankConditionError,
    build_fe_model,
    build_model,
    combine_restrictions,
    constrained_singular_gls,
    default_tolerance,
    extract_implicit_restrictions,
    gls,
    linear_representation,
    mls,
    ols,
    rgls,
    ridge,
    rols,
    spectral_decompose,
    stack_sur,
    stochastic_restricted_gls,
    tkn,
)

from gmls.estimators import _rotated, _whitened_lsq
from gmls.methods import METHODS, PANEL

from conftest import assert_same_rank_decision, random_nnd, random_spd
from oracles import (
    bordered_normal_system,
    constrained_wls,
    dense_sandwich,
    formed_whitened_step,
    fraction_solve,
    mixed_direct,
    mixed_dispersion,
    mixed_stacked_lstsq,
    pinv_mls,
    ridge_direct,
    whitened_gls,
)


def _regular(rng, t_dim=10, k_dim=3):
    x = rng.normal(size=(t_dim, k_dim))
    y = x @ rng.normal(size=(k_dim, 1)) + rng.normal(size=(t_dim, 1))
    return build_model(y, x, random_spd(rng, t_dim))


def _restriction(rng, k_dim, count=1):
    r_mat = rng.normal(size=(count, k_dim))
    return LinearRestrictions.build(r_mat, rng.normal(size=(count, 1)))


# ---------------------------------------------------------------------------
# ordinary and generalized least squares


def test_ols_hand_value():
    # beta solves [[4,6],[6,14]] beta = [9,18]; exactly (0.9, 0.9)
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    y = np.array([[1.0], [2.0], [2.0], [4.0]])
    result = ols(build_model(y, x, np.eye(4)))
    expected = fraction_solve(x.T @ x, x.T @ y)
    np.testing.assert_allclose(result.beta_hat, expected, atol=1e-14)
    np.testing.assert_allclose(result.beta_hat.ravel(), [0.9, 0.9], atol=1e-14)
    assert result.estimator_tag is EstimatorTag.OLS


@pytest.mark.parametrize("seed", range(8))
def test_ols_normal_equations(seed):
    rng = np.random.default_rng(700 + seed)
    model = _regular(rng)
    result = ols(model)
    # residuals orthogonal to the design columns
    np.testing.assert_allclose(model.X.T @ result.residuals, 0.0, atol=1e-10)


def test_ols_rejects_deficient_design():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(8, 3))
    x[:, 2] = x[:, 1]
    y = x @ np.ones((3, 1))
    with pytest.raises(DesignRankDeficientError):
        ols(build_model(y, x, np.eye(8)))


@pytest.mark.parametrize("seed", range(8))
def test_gls_matches_whitening_oracle(seed):
    rng = np.random.default_rng(710 + seed)
    model = _regular(rng)
    result = gls(model)
    oracle = whitened_gls(model.y, model.X, model.dispersion)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-9)
    assert result.estimator_tag is EstimatorTag.GLS


def test_gls_covariance_inverts_weighted_gram():
    rng = np.random.default_rng(51)
    model = _regular(rng)
    result = gls(model)
    c_mat = model.X.T @ np.linalg.solve(model.dispersion, model.X)
    np.testing.assert_allclose(c_mat @ result.covariance_factor,
                               np.eye(model.num_params), atol=1e-9)


def test_gls_equals_ols_under_identity_dispersion():
    rng = np.random.default_rng(52)
    x = rng.normal(size=(9, 3))
    y = x @ np.ones((3, 1)) + rng.normal(size=(9, 1))
    model = build_model(y, x, np.eye(9))
    np.testing.assert_allclose(gls(model).beta_hat, ols(model).beta_hat,
                               atol=1e-12)


def test_gls_rejects_singular_dispersion():
    rng = np.random.default_rng(53)
    x = rng.normal(size=(8, 2))
    omega = random_nnd(rng, 8, rank=5)
    y = x @ np.ones((2, 1))  # inside the span through X alone
    with pytest.raises(DispersionSingularError):
        gls(build_model(y, x, omega))


def test_gls_scale_equivariance():
    rng = np.random.default_rng(54)
    model = _regular(rng)
    for scale in (7.0, 100.0):
        scaled = build_model(model.y, model.X, scale * model.dispersion)
        np.testing.assert_allclose(gls(scaled).beta_hat, gls(model).beta_hat,
                                   atol=1e-10)
        np.testing.assert_allclose(gls(scaled).covariance_factor,
                                   scale * gls(model).covariance_factor, rtol=1e-8)


# ---------------------------------------------------------------------------
# restricted estimators on regular models


@pytest.mark.parametrize("seed", range(8))
def test_rols_matches_reparametrized_oracle(seed):
    rng = np.random.default_rng(720 + seed)
    model = _regular(rng)
    res = _restriction(rng, model.num_params)
    result = rols(model, res)
    oracle = constrained_wls(model.y, model.X, np.eye(model.num_obs),
                             res.R, res.r)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-9)
    np.testing.assert_allclose(res.R @ result.beta_hat, res.r, atol=1e-10)
    assert result.estimator_tag is EstimatorTag.ROLS


@pytest.mark.parametrize("seed", range(8))
def test_rgls_matches_reparametrized_oracle(seed):
    rng = np.random.default_rng(730 + seed)
    model = _regular(rng)
    res = _restriction(rng, model.num_params, count=2)
    result = rgls(model, res)
    oracle = constrained_wls(model.y, model.X,
                             np.linalg.inv(model.dispersion), res.R, res.r)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-8)
    np.testing.assert_allclose(res.R @ result.beta_hat, res.r, atol=1e-10)


def test_restricted_estimation_repairs_collinear_design():
    """A deficient design becomes estimable once the restrictions pin the
    redundant direction."""
    rng = np.random.default_rng(55)
    x = rng.normal(size=(10, 3))
    x[:, 2] = x[:, 0]
    y = x @ np.array([[1.0], [2.0], [1.0]]) + 0.1 * rng.normal(size=(10, 1))
    model = build_model(y, x, random_spd(rng, 10))
    res = LinearRestrictions.build(np.array([[1.0, 0.0, -1.0]]),
                                   np.array([[0.0]]))
    for fn in (rols, rgls):
        result = fn(model, res)
        np.testing.assert_allclose(res.R @ result.beta_hat, res.r, atol=1e-10)
        oracle = constrained_wls(
            model.y, model.X,
            np.eye(10) if fn is rols else np.linalg.inv(model.dispersion),
            res.R, res.r)
        np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-8)


def test_restricted_estimators_reject_inconsistent_rows():
    rng = np.random.default_rng(56)
    model = _regular(rng)
    res = LinearRestrictions.build(
        np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        np.array([[1.0], [3.0]]))
    for fn in (rols, rgls):
        with pytest.raises(InconsistentRestrictionsError):
            fn(model, res)


def test_restricted_estimators_reject_unidentified_model():
    rng = np.random.default_rng(57)
    x = rng.normal(size=(10, 3))
    x[:, 2] = x[:, 0]
    y = x @ np.ones((3, 1))
    model = build_model(y, x, np.eye(10))
    # restriction row inside the deficient span does not repair anything
    res = LinearRestrictions.build(np.array([[1.0, 0.0, 1.0]]),
                                   np.array([[2.0]]))
    for fn in (rols, rgls):
        with pytest.raises(IdentificationError):
            fn(model, res)


def test_rols_with_no_rows_equals_ols():
    rng = np.random.default_rng(58)
    model = _regular(rng)
    empty = LinearRestrictions.empty(model.num_params)
    np.testing.assert_allclose(rols(model, empty).beta_hat,
                               ols(model).beta_hat, atol=1e-12)


# ---------------------------------------------------------------------------
# ridge


def test_ridge_matches_direct_formula():
    rng = np.random.default_rng(60)
    model = _regular(rng)
    psi = 0.7
    result = ridge(model, psi)
    oracle = ridge_direct(model.y, model.X, psi * np.eye(model.num_params))
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-10)
    assert result.estimator_tag is EstimatorTag.RIDGE


def test_ridge_spec_variants_agree():
    """A number, its length-K vector and psi I give one estimate."""
    rng = np.random.default_rng(61)
    model = _regular(rng)
    k = model.num_params
    by_scalar = ridge(model, 0.5)
    by_vector = ridge(model, np.full(k, 0.5))
    by_matrix = ridge(model, 0.5 * np.eye(k))
    np.testing.assert_allclose(by_scalar.beta_hat, by_vector.beta_hat, atol=1e-12)
    np.testing.assert_allclose(by_scalar.beta_hat, by_matrix.beta_hat, atol=1e-12)


def test_ridge_handles_collinear_design_with_positive_shift():
    rng = np.random.default_rng(62)
    x = rng.normal(size=(9, 3))
    x[:, 2] = x[:, 1]
    y = x @ np.ones((3, 1))
    model = build_model(y, x, np.eye(9))
    result = ridge(model, 0.3)
    oracle = ridge_direct(y, x, 0.3 * np.eye(3))
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-10)


def test_ridge_zero_shift_on_deficient_design_fails():
    rng = np.random.default_rng(63)
    x = rng.normal(size=(9, 3))
    x[:, 2] = x[:, 1]
    y = x @ np.ones((3, 1))
    model = build_model(y, x, np.eye(9))
    with pytest.raises(ShiftInsufficientError):
        ridge(model, 0.0)


def test_ridge_shrinks_towards_ols():
    rng = np.random.default_rng(64)
    model = _regular(rng)
    base = ols(model).beta_hat
    tiny = ridge(model, 1e-12).beta_hat
    np.testing.assert_allclose(tiny, base, atol=1e-8)


def test_ridge_per_coefficient_shifts_match_direct_formula():
    rng = np.random.default_rng(65)
    model = _regular(rng)
    result = ridge(model, [1.0, 1.0, 4.0])
    oracle = ridge_direct(model.y, model.X, np.diag([1.0, 1.0, 4.0]))
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-10)


@pytest.mark.parametrize("psi, error, message", [
    (np.nan, NonFiniteError, "psi contains non-finite entries"),
    ([0.5, np.inf, 0.5], NonFiniteError, "psi contains non-finite entries"),
    (np.full((3, 3), np.nan), NonFiniteError, "psi contains non-finite entries"),
    (-0.5, IndefiniteInputError, "ridge parameters must be nonnegative"),
    ([0.5, 0.5], DimensionMismatchError,
     "ridge shift must be a number, 3 shifts or a 3 x 3 matrix, got shape (2,)"),
    (np.eye(2), DimensionMismatchError, "shift matrix must be 3 x 3, got (2, 2)"),
    (-np.eye(3), IndefiniteInputError, "shift matrix must be symmetric nonnegative definite: "
     "matrix has eigenvalue -1 below -tol=-2.66454e-15"),
], ids=["nan", "inf-shift", "nan-matrix", "negative", "short-vector", "small-matrix",
        "indefinite-matrix"])
def test_ridge_refuses_a_shift_it_cannot_read(psi, error, message):
    with pytest.raises(error) as refused:
        ridge(_regular(np.random.default_rng(67)), psi)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# the least-squares core's rank decision


def _kahan(n, theta):
    """Kahan's upper triangular K_n(theta) = diag(s^i) (I - c * strict upper ones)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def test_core_rank_is_revealed_by_singular_values():
    # K_100(1.2) padded with 5 zero rows: sigma_100 = 8.9e-17 sits under
    # the cutoff 105 eps sigma_1 = 2.2e-13, while every |diag R| of an
    # unpivoted QR stays at or above s^99 = 9.4e-4
    kahan = np.vstack([_kahan(100, 1.2), np.zeros((5, 100))])
    with pytest.raises(ReducedGramSingularError) as refused:
        _whitened_lsq(kahan, None, ReducedGramSingularError, None)
    report = refused.value.report
    assert report.deficient and report.numeric_rank == 99
    assert report.tolerance == default_tolerance(105, 100, report.values[0])


@pytest.mark.parametrize("tol", [None, 1e-9])
@pytest.mark.parametrize("method", ["ols", "ridge"])
def test_ols_and_ridge_record_the_cores_rank_decision(method, tol):
    """The report under design_rank / shifted_rank is numeric_rank's
    decision on the matrix the core factors, and a deficient one is
    refused with the class and message of the pre-check it replaces."""
    fits = {
        "ols": (lambda model, psi: ols(model, tol=tol), "design_rank",
                DesignRankDeficientError, "design has numeric rank 2 < K=3"),
        "ridge": (lambda model, psi: ridge(model, psi, tol=tol),
                  "shifted_rank", ShiftInsufficientError,
                  "shifted design [X; Psi^(1/2)] has rank 2 < K"),
    }
    fit, key, error, message = fits[method]
    rng = np.random.default_rng(66)
    model = _regular(rng)
    factored = model.X if method == "ols" else np.vstack([model.X, np.sqrt(0.3) * np.eye(3)])
    assert_same_rank_decision(fit(model, 0.3).diagnostics[key], factored, tol)
    x = rng.normal(size=(9, 3))
    x[:, 2] = x[:, 1]
    with pytest.raises(error) as refused:
        fit(build_model(x @ np.ones((3, 1)), x, np.eye(9)), 0.0)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# stochastic restrictions


@pytest.mark.parametrize("seed", range(6))
def test_mixed_matches_direct_oracle(seed):
    rng = np.random.default_rng(740 + seed)
    model = _regular(rng)
    res = _restriction(rng, model.num_params, count=2)
    theta = random_spd(rng, 2)
    result = stochastic_restricted_gls(model, res, theta)
    oracle = mixed_direct(model.y, model.X, model.dispersion,
                          res.R, res.r, theta, 1.0)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-8)
    assert result.estimator_tag is EstimatorTag.STOCHASTIC_RESTRICTED


def test_mixed_uses_model_sigma2_weighting():
    rng = np.random.default_rng(70)
    x = rng.normal(size=(10, 3))
    y = x @ np.ones((3, 1)) + rng.normal(size=(10, 1))
    omega = random_spd(rng, 10)
    model = build_model(y, x, omega, sigma2=4.0)
    res = _restriction(rng, 3)
    theta = random_spd(rng, 1)
    result = stochastic_restricted_gls(model, res, theta)
    oracle = mixed_direct(y, x, omega, res.R, res.r, theta, 4.0)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-8)


def _mixed_sigma2_instance(rng, rows, theta):
    x = rng.normal(size=(10, 3))
    y = x @ np.ones((3, 1)) + 2.0 * rng.normal(size=(10, 1))
    model = build_model(y, x, random_spd(rng, 10), sigma2=4.0)
    res = LinearRestrictions.build(rng.normal(size=(rows, 3)), rng.normal(size=(rows, 1)))
    return model, res, theta


def test_mixed_covariance_meets_the_no_row_limit():
    """D(beta_hat) = sigma2 V holds with and without rows, so an
    uninformative row (Theta = 1e12) leaves the no-row covariance."""
    rng = np.random.default_rng(74)
    model, loose, theta = _mixed_sigma2_instance(rng, 1, np.array([[1e12]]))
    np.testing.assert_allclose(
        stochastic_restricted_gls(model, loose, theta).covariance_factor,
        stochastic_restricted_gls(model, LinearRestrictions.empty(3),
                                  np.zeros((0, 0))).covariance_factor, rtol=1e-6)


def test_mixed_covariance_matches_textbook_dispersion():
    rng = np.random.default_rng(75)
    model, res, theta = _mixed_sigma2_instance(rng, 2, random_spd(rng, 2))
    result = stochastic_restricted_gls(model, res, theta)
    expected = mixed_dispersion(model.X, model.dispersion, res.R, theta, 4.0)
    np.testing.assert_allclose(4.0 * result.covariance_factor, expected, rtol=1e-10)


def test_mixed_with_no_rows_equals_gls():
    rng = np.random.default_rng(71)
    model = _regular(rng)
    result = stochastic_restricted_gls(model, LinearRestrictions.empty(3), np.zeros((0, 0)))
    np.testing.assert_allclose(result.beta_hat, gls(model).beta_hat, atol=0.0)
    assert result.estimator_tag is EstimatorTag.STOCHASTIC_RESTRICTED


def test_mixed_forecast_design_restricts_through_it():
    rng = np.random.default_rng(72)
    model = _regular(rng)
    xf = rng.normal(size=(2, model.num_params))
    r_mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    rhs = rng.normal(size=(2, 1))
    theta = random_spd(rng, 2)
    result = stochastic_restricted_gls(model, LinearRestrictions.build(r_mat @ xf, rhs), theta)
    oracle = mixed_direct(model.y, model.X, model.dispersion,
                          r_mat @ xf, rhs, theta, 1.0)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-8)


def test_mixed_rejects_singular_theta():
    rng = np.random.default_rng(73)
    model = _regular(rng)
    res = _restriction(rng, model.num_params, count=2)
    with pytest.raises(DispersionSingularError):
        stochastic_restricted_gls(model, res, np.zeros((2, 2)))


@pytest.mark.parametrize("seed", range(4))
def test_mixed_limits_bracket_rgls_and_gls(seed):
    rng = np.random.default_rng(750 + seed)
    model = _regular(rng)
    res = _restriction(rng, model.num_params)
    tight = stochastic_restricted_gls(model, res, 1e-10 * np.eye(1))
    loose = stochastic_restricted_gls(model, res, 1e12 * np.eye(1))
    target_r = rgls(model, res).beta_hat
    target_g = gls(model).beta_hat
    assert np.max(np.abs(tight.beta_hat - target_r)) \
        <= 1e-4 * (1.0 + np.max(np.abs(target_r)))
    assert np.max(np.abs(loose.beta_hat - target_g)) \
        <= 1e-4 * (1.0 + np.max(np.abs(target_g)))


def _mixed_instance(rng, columns=1, sigma2=None, t_dim=12, rows=2):
    x = rng.normal(size=(t_dim, 3))
    y = x @ np.ones((3, 1)) + rng.normal(size=(t_dim, columns))
    model = build_model(y, x, random_spd(rng, t_dim), sigma2=sigma2)
    res = LinearRestrictions.build(rng.normal(size=(rows, 3)), rng.normal(size=(rows, 1)))
    return model, res, random_spd(rng, rows)


@pytest.mark.parametrize("sigma2", [None, 2.0, 0.3])
@pytest.mark.parametrize("columns", [1, 3, 257])
def test_mixed_matches_the_stacked_whitened_lstsq(columns, sigma2):
    """Estimate and covariance factor agree within 1e-12 relative with
    lstsq on the system whitened by dense eigh whiteners of Omega and
    Theta, for every response column."""
    model, res, theta = _mixed_instance(np.random.default_rng(760 + columns), columns, sigma2)
    result = stochastic_restricted_gls(model, res, theta)
    expected = mixed_stacked_lstsq(model.y, model.X, model.dispersion, res.R, res.r,
                                   theta, 1.0 if sigma2 is None else sigma2)
    for got, want in zip((result.beta_hat, result.covariance_factor), expected):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [-60, -30, 30, 60])
def test_mixed_identification_does_not_depend_on_units(k):
    """(y, X, Omega) -> (c y, c X, c^2 Omega) with c = 2^k and R, r, Theta
    fixed scales F'X, F'y and Lambda^{1/2} by c exactly, so the whitened
    augmented design, its rank decision and the estimate are bit for bit
    the same.  A rank decision on the raw [R X_f; X] refuses at k = -60,
    where X's singular values fall under the cutoff that R's set."""
    model, res, theta = _mixed_instance(np.random.default_rng(77))
    base = stochastic_restricted_gls(model, res, theta)
    c = 2.0 ** k
    scaled = stochastic_restricted_gls(
        build_model(c * model.y, c * model.X, c * c * model.dispersion), res, theta)
    np.testing.assert_array_equal(scaled.beta_hat, base.beta_hat)
    np.testing.assert_array_equal(scaled.covariance_factor, base.covariance_factor)
    got, want = (fit.diagnostics["augmented_identification"] for fit in (scaled, base))
    assert (got.numeric_rank, got.tolerance) == (want.numeric_rank, want.tolerance)
    np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("tol", [None, 1e-9])
def test_mixed_refuses_a_row_that_misses_the_collinear_direction(tol):
    """X's third column repeats its second, so d = (0, 1, -1) spans its
    null space.  The row (1, 1, 1) has R d = 0 and leaves the whitened
    augmented design of rank 2: IdentificationError, with the core's
    report deciding that design's rank as numeric_rank does.  The row
    (0, 1, 0) repairs it, and the fit records the same kind of report."""
    rng = np.random.default_rng(78)
    x = rng.normal(size=(10, 3))
    x[:, 2] = x[:, 1]
    model = build_model(x @ np.ones((3, 1)) + rng.normal(size=(10, 1)), x,
                        random_spd(rng, 10), sigma2=2.0)
    theta = random_spd(rng, 1)
    fx, _, root = _rotated(model)
    theta_spec = spectral_decompose(theta)

    def whitened(row):
        return np.vstack([fx / (np.sqrt(2.0) * root), theta_spec.project(row)
                          / np.sqrt(theta_spec.eigenvalues_pos)[:, None]])
    missing, repairing = np.array([[1.0, 1.0, 1.0]]), np.array([[0.0, 1.0, 0.0]])
    with pytest.raises(IdentificationError) as refused:
        stochastic_restricted_gls(model, LinearRestrictions.build(missing, [[0.5]]), theta,
                                  tol=tol)
    assert refused.value.report.numeric_rank == 2
    assert_same_rank_decision(refused.value.report, whitened(missing), tol)
    fit = stochastic_restricted_gls(
        model, LinearRestrictions.build(repairing, [[0.5]]), theta, tol=tol)
    assert fit.diagnostics["augmented_identification"].numeric_rank == 3
    assert_same_rank_decision(fit.diagnostics["augmented_identification"],
                              whitened(repairing), tol)


def test_a_mixed_fit_of_many_responses_forms_no_whitened_response():
    """The traced peak of a mixed fit to B = 2000 responses (T = 12, q = 2,
    K = 3), the model's F'X and F'y formed beforehand, in units of one
    (T + q) x B float block.  Live at once: the stacked response
    [F'y; Theta_F' r] (1), the step ([F'y; Theta_F' r] - x beta*) / scale,
    a new array because beta* is K x 1 (1, scaled in place), and the K x B
    estimate (K / (T + q) = 0.21), so 2.21; NumPy's fixed 8192-element
    ufunc buffers for the broadcast operations, 0.29 of a block here,
    bring the measured peak to 2.46.  Whitening F'y before stacking, as a
    W y and a W y / s, read 3.33."""
    model, res, theta = _mixed_instance(np.random.default_rng(79), columns=2000, sigma2=2.0)
    assert model._range_products  # forms F'X and F'y before the trace
    tracemalloc.start()
    try:
        stochastic_restricted_gls(model, res, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * (12 + 2) * 2000 * 8


# ---------------------------------------------------------------------------
# singular-dispersion estimators


def _singular(rng, t_dim=9, k_dim=3, omega_rank=7):
    x = rng.normal(size=(t_dim, k_dim))
    root = rng.normal(size=(t_dim, omega_rank))
    omega = root @ root.T
    beta = rng.normal(size=(k_dim, 1))
    y = x @ beta + root @ rng.normal(size=(omega_rank, 1))
    return build_model(y, x, omega)


def test_mls_hand_value():
    # two unit-variance observations and one deterministic one the plain
    # estimator ignores: beta = (y1 + y2) / 2
    x = np.ones((3, 1))
    y = np.array([[1.0], [2.0], [0.0]])
    model = build_model(y, x, np.diag([1.0, 1.0, 0.0]))
    result = mls(model)
    np.testing.assert_allclose(result.beta_hat, [[1.5]], atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_mls_matches_pinv_oracle(seed):
    rng = np.random.default_rng(760 + seed)
    model = _singular(rng)
    result = mls(model)
    oracle = pinv_mls(model.y, model.X, model.dispersion)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-8)
    assert result.estimator_tag is EstimatorTag.MLS


def test_mls_equals_gls_on_regular_model():
    rng = np.random.default_rng(80)
    model = _regular(rng)
    np.testing.assert_allclose(mls(model).beta_hat, gls(model).beta_hat,
                               atol=1e-10)
    np.testing.assert_allclose(mls(model).covariance_factor,
                               gls(model).covariance_factor, atol=1e-10)


def test_mls_rejects_whitened_rank_failure():
    rng = np.random.default_rng(81)
    x = rng.normal(size=(8, 4))
    omega = random_nnd(rng, 8, rank=2)
    y = x @ np.ones((4, 1))
    model = build_model(y, x, omega)
    with pytest.raises(TheilRankConditionError):
        mls(model)


@pytest.mark.parametrize("seed", range(6))
def test_tkn_matches_constrained_oracle(seed):
    rng = np.random.default_rng(770 + seed)
    model = _singular(rng)
    res = _restriction(rng, model.num_params)
    result = tkn(model, res)
    oracle = constrained_wls(model.y, model.X,
                             np.linalg.pinv(model.dispersion, hermitian=True),
                             res.R, res.r)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-8)
    np.testing.assert_allclose(res.R @ result.beta_hat, res.r, atol=1e-10)
    assert result.estimator_tag is EstimatorTag.TKN


def test_tkn_equals_rgls_on_regular_model():
    rng = np.random.default_rng(82)
    model = _regular(rng)
    res = _restriction(rng, model.num_params)
    a = tkn(model, res)
    b = rgls(model, res)
    np.testing.assert_allclose(a.beta_hat, b.beta_hat, atol=1e-10)
    np.testing.assert_allclose(a.covariance_factor, b.covariance_factor,
                               atol=1e-10)


def test_tkn_refuses_duplicated_restriction_rows():
    # consistent but linearly dependent rows leave R C+^{-1} R' singular;
    # rols and rgls accept the same rows and match the single-row fit
    rng = np.random.default_rng(89)
    model = _regular(rng)
    single = _restriction(rng, model.num_params)
    doubled = LinearRestrictions.build(np.vstack([single.R, 2.0 * single.R]),
                                       np.vstack([single.r, 2.0 * single.r]))
    with pytest.raises(RestrictionGramSingularError):
        tkn(model, doubled)
    for fn in (rols, rgls):
        np.testing.assert_allclose(fn(model, doubled).beta_hat,
                                   fn(model, single).beta_hat, atol=1e-10)


def _combined_for(model, rng=None, explicit=None):
    if explicit is None:
        explicit = LinearRestrictions.empty(model.num_params)
    implicit = extract_implicit_restrictions(model)
    return combine_restrictions(explicit, implicit)


@pytest.mark.parametrize("seed", range(8))
def test_constrained_matches_oracle(seed):
    rng = np.random.default_rng(780 + seed)
    model = _singular(rng)
    combined = _combined_for(model)
    result = constrained_singular_gls(model, combined)
    oracle = constrained_wls(model.y, model.X,
                             np.linalg.pinv(model.dispersion, hermitian=True),
                             combined.H, combined.h)
    np.testing.assert_allclose(result.beta_hat, oracle, atol=1e-7)
    gap = np.max(np.abs(combined.H @ result.beta_hat - combined.h))
    assert gap <= 1e-9 * (1.0 + np.max(np.abs(combined.h)))
    assert result.estimator_tag is EstimatorTag.CONSTRAINED_SINGULAR


def test_constrained_invariant_to_particular_choice():
    rng = np.random.default_rng(83)
    model = _singular(rng)
    combined = _combined_for(model)
    base = constrained_singular_gls(model, combined)
    # build alternative feasible particular solutions by adding null
    # directions of H
    from gmls import null_space_basis
    null_h = null_space_basis(combined.H)
    spread = 0.0
    for j in range(null_h.shape[1]):
        part = np.linalg.lstsq(combined.H, combined.h, rcond=None)[0] \
            + 3.0 * null_h[:, j:j + 1]
        alt = constrained_singular_gls(model, combined, particular=part)
        spread = max(spread, float(np.max(np.abs(alt.beta_hat - base.beta_hat))))
    assert spread <= 1e-10


def test_constrained_rejects_infeasible_particular():
    rng = np.random.default_rng(84)
    model = _singular(rng)
    combined = _combined_for(model)
    bad = np.linalg.lstsq(combined.H, combined.h, rcond=None)[0] + 1.0
    with pytest.raises(InfeasibleParticularError):
        constrained_singular_gls(model, combined, particular=bad)


def test_constrained_empty_combined_equals_mls():
    rng = np.random.default_rng(85)
    model = _regular(rng)
    combined = _combined_for(model)
    assert combined.count == 0
    a = constrained_singular_gls(model, combined)
    b = mls(model)
    np.testing.assert_allclose(a.beta_hat, b.beta_hat, atol=1e-10)


def test_constrained_with_explicit_rows():
    rng = np.random.default_rng(86)
    model = _singular(rng)
    explicit = LinearRestrictions.build(np.array([[1.0, 1.0, 1.0]]),
                                        np.array([[1.0]]))
    combined = _combined_for(model, explicit=explicit)
    if not combined.consistent:
        pytest.skip("random instance produced a conflicting system")
    result = constrained_singular_gls(model, combined)
    np.testing.assert_allclose(explicit.R @ result.beta_hat, explicit.r,
                               atol=1e-9)


def test_constrained_detects_projected_gram_failure():
    # full-rank design but only two positive dispersion directions and no
    # implicit rows supplied: the projected normal matrix cannot be
    # inverted and the failure is a numerical one, not an identification
    # refusal
    rng = np.random.default_rng(87)
    x = rng.normal(size=(8, 4))
    omega = random_nnd(rng, 8, rank=2)
    y = x @ np.ones((4, 1))
    model = build_model(y, x, omega)
    hand_combined = CombinedRestrictions(
        H=np.zeros((0, 4)), h=np.zeros((0, 1)),
        explicit_rows=range(0), implicit_rows=range(0), consistent=True)
    with pytest.raises(ReducedGramSingularError):
        constrained_singular_gls(model, hand_combined)


def test_constrained_fully_determined_returns_particular():
    rng = np.random.default_rng(88)
    x = rng.normal(size=(6, 2))
    root = rng.normal(size=(6, 3))
    beta = np.array([[1.0], [-2.0]])
    y = x @ beta + root @ rng.normal(size=(3, 1))
    model = build_model(y, x, root @ root.T)
    # three implicit rows over two parameters pin beta completely
    combined = _combined_for(model)
    result = constrained_singular_gls(model, combined)
    np.testing.assert_allclose(result.beta_hat, beta, atol=1e-8)
    np.testing.assert_allclose(result.covariance_factor, 0.0, atol=1e-12)


def test_constrained_fit_on_a_tall_h_takes_thin_svds(monkeypatch):
    """Twelve implicit rows over three parameters: no SVD in the fit forms
    a U wider than the smaller side of its operand."""
    rng = np.random.default_rng(89)
    x = rng.normal(size=(15, 3))
    root = rng.normal(size=(15, 3))
    model = build_model(x @ np.ones((3, 1)) + root @ rng.normal(size=(3, 1)), x,
                        root @ root.T)
    combined = _combined_for(model)
    assert combined.H.shape == (12, 3)
    widths = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        if kwargs.get("compute_uv", True):
            widths.append((out[0].shape[1], min(np.shape(a)[-2:])))
        return out
    monkeypatch.setattr(np.linalg, "svd", recorded)
    constrained_singular_gls(model, combined)
    assert widths and all(width <= side for width, side in widths)


def test_restricted_refusals_come_in_catalogue_order():
    """With several faults at once the first catalogue decision refuses:
    consistency before identification before the dispersion's rank, and
    identification before combined consistency.  The refusal names the
    decision by its diagnostics key."""
    rng = np.random.default_rng(95)
    x = rng.normal(size=(9, 3))
    x[:, 2] = x[:, 0]
    singular = build_model(x @ np.ones((3, 1)), x, random_nnd(rng, 9, rank=7))
    contradiction = LinearRestrictions.build(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                                             np.array([[1.0], [3.0]]))
    with pytest.raises(InconsistentRestrictionsError) as refused:
        rgls(singular, contradiction)
    assert refused.value.decision == "restriction_consistency"
    useless = LinearRestrictions.build(np.array([[1.0, 0.0, 1.0]]), np.array([[2.0]]))
    with pytest.raises(IdentificationError) as refused:
        rgls(singular, useless)
    assert refused.value.decision == "joint_identification"
    base = _combined_for(singular)
    broken = replace(base, h=base.h + 1.0, consistent=False, inconsistent_column=0)
    with pytest.raises(IdentificationError) as refused:
        constrained_singular_gls(singular, broken)
    assert refused.value.decision == "joint_identification"


def test_core_refusal_of_the_whitened_design_keeps_the_eq14_label():
    """At an explicit tol, F'X can pass mls's and tkn's pre-check while the
    core refuses the whitened design W X = Lambda^{-1/2} F'X, here scaled
    by 1e-10 under Omega = 1e20 I; the refusal names the same decision.
    gls's rank(X) pre-check passes there too, and its core refusal names
    W X and K, not the design it accepted."""
    rng = np.random.default_rng(96)
    x = rng.normal(size=(10, 3))
    model = build_model(x @ np.ones((3, 1)), x, 1e20 * np.eye(10))
    one_row = LinearRestrictions.build(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0]]))
    for fit, refusal, message, decision in (
            (lambda: mls(model, tol=1e-9), TheilRankConditionError,
             "reduced whitened design has rank 0 < 3", "whitened_design_rank"),
            (lambda: tkn(model, one_row, tol=1e-9), TheilRankConditionError,
             "reduced whitened design has rank 0 < 2", "whitened_design_rank"),
            (lambda: gls(model, tol=1e-9), DesignRankDeficientError,
             "whitened design has rank 0 < K=3", None)):
        with pytest.raises(refusal) as refused:
            fit()
        assert str(refused.value) == message
        assert refused.value.decision == decision


# ---------------------------------------------------------------------------
# bordered system and representation class


def test_normal_system_agrees_with_constrained_estimate():
    rng = np.random.default_rng(90)
    model = _singular(rng)
    combined = _combined_for(model)
    beta, _, residual = bordered_normal_system(
        model.y, model.X, np.linalg.pinv(model.dispersion, hermitian=True),
        combined.H, combined.h)
    direct = constrained_singular_gls(model, combined)
    np.testing.assert_allclose(direct.beta_hat, beta, atol=1e-7)
    assert residual < 1e-8


def test_normal_system_flags_redundant_multipliers():
    rng = np.random.default_rng(91)
    model = _singular(rng)
    base = _combined_for(model)
    doubled = CombinedRestrictions(
        H=np.vstack([base.H, base.H[:1]]),
        h=np.vstack([base.h, base.h[:1]]),
        explicit_rows=range(0),
        implicit_rows=range(base.count + 1),
        consistent=True)
    solution = constrained_singular_gls(model, doubled)
    reference = constrained_singular_gls(model, base)
    np.testing.assert_allclose(solution.beta_hat, reference.beta_hat, atol=1e-7)
    # the bordered system is singular here, its minimum-norm solution
    # still carries the same beta
    beta, _, _ = bordered_normal_system(
        model.y, model.X, np.linalg.pinv(model.dispersion, hermitian=True),
        doubled.H, doubled.h)
    np.testing.assert_allclose(solution.beta_hat, beta, atol=1e-7)


def test_normal_system_rejects_inconsistent_combined():
    rng = np.random.default_rng(92)
    model = _singular(rng)
    base = _combined_for(model)
    broken = CombinedRestrictions(
        H=base.H, h=base.h + 1.0, explicit_rows=base.explicit_rows,
        implicit_rows=base.implicit_rows, consistent=False)
    with pytest.raises(InconsistentRestrictionsError):
        constrained_singular_gls(model, broken)


def test_linear_representation_invariance():
    rng = np.random.default_rng(93)
    model = _singular(rng)
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(
        LinearRestrictions.empty(model.num_params), implicit)
    base = constrained_singular_gls(model, combined)
    null_dim = implicit.count
    for k in range(5):
        g_free = rng.normal(size=(model.num_params, null_dim))
        rep = linear_representation(model, combined, g_free, implicit)
        np.testing.assert_allclose(rep.beta_hat, base.beta_hat, atol=1e-9)
        # the reported affine map reproduces the estimate on this data
        lin = rep.diagnostics["linear_map"] @ model.y + rep.diagnostics["offset"]
        np.testing.assert_allclose(lin, rep.beta_hat, atol=1e-8)


def test_linear_representation_shape_check():
    rng = np.random.default_rng(94)
    model = _singular(rng)
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(
        LinearRestrictions.empty(model.num_params), implicit)
    with pytest.raises(DimensionMismatchError):
        linear_representation(model, combined,
                              np.zeros((model.num_params, 1)), implicit)


# ---------------------------------------------------------------------------
# several responses in one call


def _fits_by_column(fit, model, columns):
    block = fit(model)
    for j in range(columns):
        single = fit(replace(model, y=model.y[:, j:j + 1]))
        scale = 1.0 + float(np.max(np.abs(single.beta_hat)))
        assert float(np.max(np.abs(block.beta_hat[:, j:j + 1] - single.beta_hat))) \
            <= 1e-12 * scale
        np.testing.assert_allclose(block.residuals[:, j:j + 1], single.residuals,
                                   rtol=0.0, atol=1e-12 * float(np.max(np.abs(model.y))))
        np.testing.assert_array_equal(block.covariance_factor, single.covariance_factor)
    assert block.beta_hat.shape == (model.num_params, columns)


def test_estimators_fit_each_response_column():
    rng = np.random.default_rng(95)
    columns = 4
    regular = _regular(rng)
    regular = replace(regular, y=regular.X @ rng.normal(size=(3, columns))
                      + rng.normal(size=(10, columns)))
    res = _restriction(rng, 3)
    for fit in (ols, gls, mls, lambda m: rols(m, res), lambda m: rgls(m, res),
                lambda m: tkn(m, res), lambda m: ridge(m, 0.3),
                lambda m: stochastic_restricted_gls(m, res, np.array([[0.5]]))):
        _fits_by_column(fit, regular, columns)
    singular = _singular(rng)
    root = singular.spectrum.eigenvectors_pos
    singular = replace(singular, y=singular.X @ rng.normal(size=(3, columns))
                       + root @ rng.normal(size=(root.shape[1], columns)))
    explicit = LinearRestrictions.build(np.array([[1.0, -1.0, 0.0]]), np.zeros((1, 1)))
    # a stack_sur model's admission has formed its A'X and A'y, which the
    # per-column copies must not reuse; every column keeps its beta, so
    # that one right-hand side of the explicit rows holds for all
    sur, sur_explicit = _adding_up_sur(rng, n=3, m=3, width=2)
    root = sur.spectrum.eigenvectors_pos
    sur = replace(sur, y=sur.y + root @ rng.normal(size=(root.shape[1], columns)))
    for model, rows in ((singular, explicit), (sur, sur_explicit)):
        for fit in (mls, lambda m: constrained_singular_gls(m, _combined_for(m)),
                    lambda m: constrained_singular_gls(m, _combined_for(m, explicit=rows))):
            _fits_by_column(fit, model, columns)


def _assert_residuals_on_demand(result, data):
    """Residuals are absent until read, then y - X beta_hat bit for bit,
    and a replaced result computes the same."""
    assert "residuals" not in vars(result)
    expected = data.y - data.X @ result.beta_hat
    np.testing.assert_array_equal(result.residuals, expected)
    assert "residuals" in vars(result)
    copied = replace(result, diagnostics={})
    assert "residuals" not in vars(copied)
    np.testing.assert_array_equal(copied.residuals, expected)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_method_computes_its_residuals_on_first_access(name):
    rng = np.random.default_rng(98)
    columns = 3
    method = METHODS[name]
    if method.kind == PANEL:
        designs = [rng.normal(size=(5, 2)) for _ in range(3)]
        datas = [build_fe_model(designs, [x @ rng.normal(size=(2, columns))
                                          + rng.normal(size=(5, columns)) for x in designs],
                                sigma=random_spd(rng, 5))]
    else:
        regular = _regular(rng)
        singular = _singular(rng)
        root = singular.spectrum.eigenvectors_pos
        datas = [replace(regular, y=regular.X @ rng.normal(size=(3, columns))
                         + rng.normal(size=(10, columns))),
                 replace(singular, y=singular.X @ rng.normal(size=(3, columns))
                         + root @ rng.normal(size=(root.shape[1], columns)))]
    inputs = {"restrictions": LinearRestrictions.build([[1.0, -1.0, 0.0]], [[0.0]]),
              "ridge_psi": 0.3, "theta": np.array([[0.5]])}
    fitted = 0
    for data in datas:
        try:
            result = method.fit(data, inputs, None)
        except DispersionSingularError:
            continue  # gls, rgls and mixed need a positive definite dispersion
        assert result.beta_hat.shape[1] == columns
        _assert_residuals_on_demand(result, data)
        fitted += 1
    assert fitted


def test_linear_representation_computes_its_residuals_on_first_access():
    rng = np.random.default_rng(99)
    model = _singular(rng)
    root = model.spectrum.eigenvectors_pos
    model = replace(model, y=model.X @ rng.normal(size=(3, 4))
                    + root @ rng.normal(size=(root.shape[1], 4)))
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(LinearRestrictions.empty(model.num_params), implicit)
    result = linear_representation(model, combined,
                                   rng.normal(size=(model.num_params, implicit.count)),
                                   implicit)
    _assert_residuals_on_demand(result, model)


def test_inconsistent_response_column_is_named():
    # the explicit row repeats the first implicit row with column 0's
    # right-hand side, so only column 1 conflicts
    rng = np.random.default_rng(96)
    model = _singular(rng)
    root = model.spectrum.eigenvectors_pos
    betas = np.hstack([np.ones((3, 1)), 2.0 * np.ones((3, 1))])
    y = model.X @ betas + root @ rng.normal(size=(root.shape[1], 2))
    model = build_model(y, model.X, model.dispersion)
    implicit = extract_implicit_restrictions(model)
    explicit = LinearRestrictions.build(implicit.G[:1], implicit.g[:1, :1])
    combined = combine_restrictions(explicit, implicit)
    assert not combined.consistent and combined.inconsistent_column == 1
    with pytest.raises(InconsistentRestrictionsError, match="column 1") as info:
        constrained_singular_gls(model, combined)
    assert info.value.column == 1
    first = combine_restrictions(explicit, extract_implicit_restrictions(
        replace(model, y=model.y[:, :1])))
    assert first.consistent and first.inconsistent_column is None


def test_build_model_names_the_response_column_outside_the_range():
    rng = np.random.default_rng(97)
    # six implicit rows on two parameters, so most null directions are outside
    model = _singular(rng, t_dim=12, k_dim=2, omega_rank=6)
    y = np.hstack([model.y, model.y + model.spectrum.eigenvectors_null[:, :1]])
    with pytest.raises(ResponseOutsideRangeError, match="column 1") as info:
        build_model(y, model.X, model.dispersion)
    assert info.value.column == 1


# ---------------------------------------------------------------------------
# the model's rotated data


def _adding_up_sur(rng, n, m, width):
    """A period-major SUR model whose period blocks P D_t P share the null
    vector 1/sqrt(n), with errors in their range, and two explicit
    restrictions on the first two equations' coefficients."""
    a = np.full((n, 1), 1.0 / np.sqrt(n))
    proj = np.eye(n) - a @ a.T
    scales = rng.uniform(0.5, 1.5, size=(m, n))
    designs = [rng.normal(size=(m, width)) for _ in range(n)]
    beta = rng.normal(size=(n * width, 1))
    errors = (proj @ (np.sqrt(scales) * rng.standard_normal(size=(m, n))).T).T
    responses = [designs[i] @ beta[i * width:(i + 1) * width, 0] + errors[:, i]
                 for i in range(n)]
    model = stack_sur(SURLayout.build(designs), responses,
                      [proj @ np.diag(d) @ proj for d in scales])
    rows = np.zeros((2, n * width))
    rows[0, 0] = rows[0, width] = rows[1, 1] = 1.0
    return model, LinearRestrictions.build(rows, rows @ beta)


def test_a_sur_fit_projects_onto_the_spectrum_four_times(monkeypatch):
    """A fit-sur-shaped fit (n = 4, m = 50, K = 12) projects its data once.

    stack_sur's admission check reads A'X and A'y, since every period block
    is singular: 2 calls.  extract_implicit_restrictions reads the same
    pair and combine_restrictions projects nothing: 0.  The constrained
    fit whitens from F'X and F'y, formed at this first use: 2.  mls's
    Eq. (14) check and its whitening read that pair: 0.  So 4 in all,
    where forming each product at each use made 2 + 2 + 2 + (1 + 2) = 9.
    """
    calls = []
    project = SpectralDecomposition.project

    def counting(self, mat, null=False):
        calls.append(null)
        return project(self, mat, null)

    monkeypatch.setattr(SpectralDecomposition, "project", counting)
    model, explicit = _adding_up_sur(np.random.default_rng(98), n=4, m=50, width=3)
    combined = combine_restrictions(explicit, extract_implicit_restrictions(model))
    constrained = constrained_singular_gls(model, combined)
    pseudo = mls(model)
    assert sorted(calls) == [False, False, True, True]
    gap = np.max(np.abs(combined.H @ constrained.beta_hat - combined.h))
    assert gap <= 1e-9 * (1.0 + np.max(np.abs(combined.h)))
    assert pseudo.beta_hat.shape == (12, 1)


def test_a_full_column_rank_h_takes_no_svd_of_an_empty_matrix(monkeypatch):
    """Fifty implicit and two explicit rows over twelve parameters leave H
    of full column rank, so N and W X N have no columns: the fit takes no
    SVD of an empty W X N, its gain is zero and its estimate is beta*."""
    model, explicit = _adding_up_sur(np.random.default_rng(99), n=4, m=50, width=3)
    combined = combine_restrictions(explicit, extract_implicit_restrictions(model))
    shapes = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recorded)
    result = constrained_singular_gls(model, combined)
    assert shapes and all(min(shape[-2:]) > 0 for shape in shapes)
    fx, fy, root = _rotated(model)
    _, gain, beta_star, _, report = _whitened_lsq(
        fx, fy, ReducedGramSingularError, None, rows=(combined.H, combined.h), scale=root)
    np.testing.assert_array_equal(result.beta_hat, beta_star)
    assert not gain.any() and not result.covariance_factor.any()
    assert (report.numeric_rank, report.deficient) == (0, False)


# ---------------------------------------------------------------------------
# the core's step in rotated coordinates


def _whitened_case(method, width):
    """A fit on ``width`` response columns, its model and the core's inputs
    beyond F'X and its scale: the restriction rows and the particular
    solution."""
    rng = np.random.default_rng(300 + width)
    if method in ("gls", "rgls"):
        model = _regular(rng)
        model = replace(model, y=model.X @ rng.normal(size=(3, width))
                        + rng.normal(size=(10, width)))
        res = _restriction(rng, 3)
        if method == "gls":
            return gls(model), model, None, None
        return rgls(model, res), model, (res.R, res.r), None
    model, explicit = _adding_up_sur(rng, n=3, m=4, width=2)
    root = model.spectrum.eigenvectors_pos
    model = replace(model, y=model.y + root @ rng.normal(size=(root.shape[1], width)))
    if method == "mls":
        return mls(model), model, None, None
    if method == "tkn":
        return tkn(model, explicit), model, (explicit.R, explicit.r), None
    combined = _combined_for(model, explicit=explicit)
    rows = (combined.H, combined.h)
    if method == "constrained":
        return constrained_singular_gls(model, combined), model, rows, None
    part = np.linalg.lstsq(combined.H, combined.h[:, :1], rcond=None)[0]
    return constrained_singular_gls(model, combined, particular=part), model, rows, part


@pytest.mark.parametrize("width", [1, 3, 257])
@pytest.mark.parametrize("method", ["gls", "mls", "rgls", "tkn", "constrained", "particular"])
def test_whitened_fits_take_the_formed_whitened_step(method, width):
    """beta* + G ((F'y - F'X beta*) / Lambda^{1/2}) is the update with W y
    and W X formed first: bit for bit where beta* = 0 (gls, mls), within
    1e-12 relative where the scale comes after the subtraction."""
    result, model, rows, part = _whitened_case(method, width)
    fx, _, root = _rotated(model)
    _, gain, beta_star, _, _ = _whitened_lsq(fx, None, ReducedGramSingularError, None,
                                             rows=rows, particular=part, scale=root)
    expected = formed_whitened_step(model, gain, beta_star)
    if method in ("gls", "mls"):
        np.testing.assert_array_equal(result.beta_hat, expected)
    else:
        gap = np.max(np.abs(result.beta_hat - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected))
    assert result.beta_hat.shape == (model.num_params, width)


def _fit_dense_instance(seed, t_dim=200, k_dim=10, null=5, cond=1e7):
    """Dense unstructured Omega = Q diag(lambda) Q' of rank T - 5, X with
    singular values from 1 down to 1/cond, and y = X beta without noise."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(t_dim, t_dim)))
    lam = np.concatenate([rng.uniform(0.5, 2.0, size=t_dim - null), np.zeros(null)])
    omega = (q * lam) @ q.T
    u, _ = np.linalg.qr(rng.normal(size=(t_dim, k_dim)))
    v, _ = np.linalg.qr(rng.normal(size=(k_dim, k_dim)))
    x = (u * np.logspace(0, -np.log10(cond), k_dim)) @ v.T
    beta = rng.normal(size=(k_dim, 1))
    return build_model(x @ beta, x, 0.5 * (omega + omega.T)), beta


def test_the_constrained_fit_subtracts_before_it_scales():
    """On eight noise-free instances with cond(X) = 1e7 the constrained
    estimate's median error, relative to the largest coefficient, reads
    9.0e-10, about 0.4 eps cond(X).  Taking beta* through an explicit
    H+ = (V_r / s) U_r', or the estimate as G W y + (I - G W X) H+ h, reads
    1.4e-8: both lose the cancellation in y - X beta* before the scale."""
    errors = []
    for seed in range(8):
        model, beta = _fit_dense_instance(seed)
        result = constrained_singular_gls(model, _combined_for(model))
        errors.append(np.max(np.abs(result.beta_hat - beta)) / np.max(np.abs(beta)))
    assert np.median(errors) <= 3e-9


def test_a_constrained_fit_of_many_responses_forms_no_whitened_response():
    """The traced peak of a constrained fit to B = 2000 responses, the
    model's F'X, F'y and A'y formed beforehand, in units of one r x B float
    block (r = 8 positive eigenvalues, q = 4 implicit rows, K = 6).  The
    core's last product holds the coordinates (U_r'h) / s (q/r, scaled in
    place), beta* (K/r), the step (F'y - F'X beta*) / Lambda^{1/2} (1,
    scaled in place) and beta_hat (K/r): (q + 2K)/r + 1 = 3.0.  A whitened
    W y adds 1."""
    rng = np.random.default_rng(31)
    model, _ = _adding_up_sur(rng, n=3, m=4, width=2)
    root = model.spectrum.eigenvectors_pos
    model = replace(model, y=model.y + root @ rng.normal(size=(root.shape[1], 2000)))
    combined = _combined_for(model)  # forms A'X and A'y
    assert model._range_products  # forms F'X and F'y before the trace
    tracemalloc.start()
    try:
        constrained_singular_gls(model, combined)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * model.spectrum.rank * 2000 * 8


@pytest.mark.parametrize("method", ["ols", "rols", "ridge"])
def test_the_sandwich_reads_g_f_block_by_block(method):
    """A fit-sur-sized model (n = 4, m = 500, T = 2000, rank 1500, K = 12):
    the sandwich takes G F from the period blocks, so the fit peaks under
    2 MB where the dense F alone takes 24 MB, and the covariance is the
    dense (G F Lambda^{1/2})(G F Lambda^{1/2})' within 1e-12 relative."""
    model, explicit = _adding_up_sur(np.random.default_rng(32), n=4, m=500, width=3)
    fit = {"ols": ols, "rols": lambda m: rols(m, explicit),
           "ridge": lambda m: ridge(m, 0.5)}[method]
    tracemalloc.start()
    try:
        result = fit(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    if method == "ols":
        _, gain, _, _, _ = _whitened_lsq(model.X, None, DesignRankDeficientError, None)
        expected = dense_sandwich(gain, model.spectrum)
        gap = np.max(np.abs(result.covariance_factor - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected))
