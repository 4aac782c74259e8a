"""Fixed-effects panel estimation and the projector algebra behind it."""

import numpy as np
import pytest

from gmls import (
    DimensionMismatchError,
    DispersionNotPDError,
    IdentificationError,
    TheilRankConditionError,
    build_fe_model,
    centering_matrix,
    fe_drop_period,
    fe_gls,
    fe_mls,
    mls,
    verify_theorem5,
    within_transform,
)

from gmls import panel as panel_module
from gmls.panel import _swept_whiteners, _top_whiteners

from conftest import assert_same_rank_decision, random_spd
from oracles import dense_fe_projectors, dummy_matrix, fe_joint_gls, matrix_rank_svd


def _panel(rng, n=3, m=5, k=2, kron=True):
    designs = [rng.normal(size=(m, k)) for _ in range(n)]
    beta = rng.normal(size=(k, 1))
    effects = rng.uniform(-1.0, 1.0, size=n)
    if kron:
        sigma = random_spd(rng, m)
        blocks = [sigma] * n
    else:
        blocks = [random_spd(rng, m) for _ in range(n)]
        sigma = None
    responses = []
    for i in range(n):
        chol = np.linalg.cholesky(blocks[i])
        responses.append(designs[i] @ beta + effects[i]
                         + chol @ rng.normal(size=(m, 1)))
    if kron:
        model = build_fe_model(designs, responses, sigma=sigma)
    else:
        model = build_fe_model(designs, responses, sigma_blocks=blocks)
    return model, blocks


def test_centering_and_dummy_shapes():
    cm = centering_matrix(4)
    np.testing.assert_allclose(cm @ np.ones((4, 1)), 0.0, atol=1e-14)
    np.testing.assert_allclose(cm @ cm, cm, atol=1e-14)
    z = dummy_matrix(3, 4)
    assert z.shape == (12, 3)
    np.testing.assert_allclose(z.sum(axis=1), 1.0)


def test_build_fe_model_validation():
    rng = np.random.default_rng(100)
    designs = [rng.normal(size=(4, 2)) for _ in range(3)]
    responses = [rng.normal(size=(4, 1)) for _ in range(3)]
    with pytest.raises(DimensionMismatchError):
        build_fe_model(designs, responses)  # needs exactly one dispersion form
    with pytest.raises(DimensionMismatchError):
        build_fe_model(designs, responses, sigma=np.eye(4),
                       sigma_blocks=[np.eye(4)] * 3)
    with pytest.raises(DispersionNotPDError):
        build_fe_model(designs, responses, sigma=np.diag([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        build_fe_model(designs, responses[:-1], sigma=np.eye(4))
    with pytest.raises(DimensionMismatchError):
        # every equation must carry the same number of response columns
        build_fe_model(designs, responses[:-1] + [np.ones((4, 2))], sigma=np.eye(4))


_ASYMMETRIC = np.eye(4)
_ASYMMETRIC[0, 1] = 0.5


@pytest.mark.parametrize("block,message", [
    (np.diag([1.0, 1.0, 1.0, 0.0]), " is singular (rank 3 < 4)"),
    (np.diag([1.0, 1.0, 1.0, -0.5]),
     ": matrix has eigenvalue -0.5 below -tol=-3.55271e-15"),
    (_ASYMMETRIC, ": matrix is not symmetric within 1e-12 relative asymmetry"),
], ids=["singular", "indefinite", "asymmetric"])
def test_sigma_blocks_are_refused_by_name(block, message):
    rng = np.random.default_rng(112)
    designs = [rng.normal(size=(4, 2)) for _ in range(3)]
    responses = [rng.normal(size=(4, 1)) for _ in range(3)]
    with pytest.raises(DispersionNotPDError) as common:
        build_fe_model(designs, responses, sigma=block)
    assert str(common.value) == f"sigma block 0{message}"
    with pytest.raises(DispersionNotPDError) as third:
        build_fe_model(designs, responses, sigma_blocks=[np.eye(4), np.eye(4), block])
    assert str(third.value) == f"sigma block 2{message}"


@pytest.mark.parametrize("kron", [True, False])
def test_panel_estimators_fit_each_response_column(kron):
    rng = np.random.default_rng(111)
    model, blocks = _panel(rng, kron=kron)
    columns = 3
    y = model.y + rng.normal(size=(model.num_obs, columns))
    designs = [model.X[model.equation_rows(i)] for i in range(model.n)]
    sigma = {"sigma": blocks[0]} if kron else {"sigma_blocks": blocks}
    block = build_fe_model(designs, [y[model.equation_rows(i)] for i in range(model.n)],
                           **sigma)
    for fit in (fe_gls, fe_mls, lambda p: fe_drop_period(p, 2)):
        both = fit(block)
        assert both.beta_hat.shape == (model.num_params, columns)
        for j in range(columns):
            single = fit(build_fe_model(
                designs, [y[model.equation_rows(i), j:j + 1] for i in range(model.n)],
                **sigma))
            np.testing.assert_allclose(both.beta_hat[:, j:j + 1], single.beta_hat,
                                       rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(both.covariance_factor, single.covariance_factor,
                                       rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kron", [True, False])
def test_projector_identities(kron):
    """Q reproduces the dummies, P annihilates them, and P is the
    dispersion-weighted within projector."""
    rng = np.random.default_rng(101)
    model, blocks = _panel(rng, kron=kron)
    cm, q, p = dense_fe_projectors(model)
    n, m = model.n, model.m
    z = dummy_matrix(n, m)
    np.testing.assert_allclose(q @ z, z, atol=1e-10)
    np.testing.assert_allclose(p @ z, 0.0, atol=1e-10)
    np.testing.assert_allclose(p @ cm, p, atol=1e-10)
    np.testing.assert_allclose(cm @ p @ cm, p, atol=1e-10)
    full = np.zeros((n * m, n * m))
    for i in range(n):
        rows = model.equation_rows(i)
        full[rows, rows] = blocks[i]
    np.testing.assert_allclose(p @ full @ p, p, atol=1e-10)


@pytest.mark.parametrize("kron", [True, False])
def test_block_projector_check_matches_the_dense_projectors(kron):
    """verify_theorem5 compares the m x m blocks S_i'S_i and W_i'W_i; the
    swept blocks are the diagonal blocks of the dense P built from its
    definition, and P is zero off them."""
    model, _ = _panel(np.random.default_rng(102), kron=kron)
    assert verify_theorem5(model).projector_gap <= 1e-8
    swept = _swept_whiteners(model)
    blocks = np.broadcast_to(swept.transpose(0, 2, 1) @ swept, (model.n, model.m, model.m))
    p = dense_fe_projectors(model)[2]
    stacked = np.zeros_like(p)
    for i in range(model.n):
        rows = model.equation_rows(i)
        stacked[rows, rows] = blocks[i]
    np.testing.assert_allclose(p, stacked, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kron", [True, False])
def test_fe_gls_matches_dummy_regression_oracle(seed, kron):
    """Sweeping the effects must equal GLS on the dummy-augmented system."""
    rng = np.random.default_rng(900 + seed)
    model, blocks = _panel(rng, kron=kron)
    result = fe_gls(model)
    oracle_beta, oracle_cov = fe_joint_gls(
        [model.X[model.equation_rows(i)] for i in range(model.n)],
        [model.y[model.equation_rows(i)] for i in range(model.n)],
        blocks)
    np.testing.assert_allclose(result.beta_hat, oracle_beta, atol=1e-8)
    np.testing.assert_allclose(result.covariance_factor, oracle_cov, atol=1e-8)


def test_fe_gls_rejects_time_invariant_regressor():
    rng = np.random.default_rng(103)
    n, m = 3, 5
    designs = [np.hstack([np.ones((m, 1)), rng.normal(size=(m, 1))])
               for _ in range(n)]
    responses = [rng.normal(size=(m, 1)) for _ in range(n)]
    model = build_fe_model(designs, responses, sigma=random_spd(rng, m))
    with pytest.raises(IdentificationError):
        fe_gls(model)


@pytest.mark.parametrize("fit,key,error", [
    pytest.param(fe_gls, "swept_rank", IdentificationError, id="fe_gls"),
    pytest.param(fe_mls, "whitened_within_rank", TheilRankConditionError, id="fe_mls"),
    pytest.param(lambda model: fe_drop_period(model, 2), "reduced_rank",
                 IdentificationError, id="fe_drop_period")])
def test_panel_fits_record_the_cores_rank_decision(fit, key, error):
    """The report under each rank key is numeric_rank's decision on the
    stacked rows W_i X_i the core factors, and a time-invariant
    regressor is refused with the class and message it always had."""
    rng = np.random.default_rng(107)
    model, _ = _panel(rng, kron=False)
    cm = centering_matrix(model.m)
    whiteners = {"swept_rank": lambda: _swept_whiteners(model),
                 "whitened_within_rank": lambda: _top_whiteners(model, cm),
                 "reduced_rank": lambda: _top_whiteners(model, np.delete(cm, 1, axis=0))}[key]()
    k_dim = model.num_params
    wx = (whiteners @ model.X.reshape(model.n, model.m, k_dim)).reshape(-1, k_dim)
    assert_same_rank_decision(fit(model).diagnostics[key], wx, None)
    designs = [np.hstack([np.ones((5, 1)), rng.normal(size=(5, 1))]) for _ in range(3)]
    deficient = build_fe_model(designs, [rng.normal(size=(5, 1)) for _ in range(3)],
                               sigma=random_spd(rng, 5))
    with pytest.raises(error) as refused:
        fit(deficient)
    assert str(refused.value) == ("whitened design has rank 1 < K=2; "
                                  "time-invariant regressors are not identified")


def test_within_transform_model_rank():
    rng = np.random.default_rng(104)
    model, _ = _panel(rng)
    within = within_transform(model)
    n, m = model.n, model.m
    assert within.num_obs == n * m
    # centering wipes one direction per equation
    assert matrix_rank_svd(within.dispersion) == n * (m - 1)
    # the within response is the centered response
    cm = centering_matrix(m)
    big = np.kron(np.eye(n), cm)
    np.testing.assert_allclose(within.y, big @ model.y, atol=1e-12)


@pytest.mark.parametrize("kron", [True, False])
def test_fe_mls_equals_fe_gls(kron):
    rng = np.random.default_rng(105)
    model, _ = _panel(rng, kron=kron)
    a = fe_gls(model)
    b = fe_mls(model)
    scale = 1.0 + float(np.max(np.abs(a.beta_hat)))
    assert float(np.max(np.abs(a.beta_hat - b.beta_hat))) <= 1e-8 * scale
    np.testing.assert_allclose(a.covariance_factor, b.covariance_factor,
                               atol=1e-8)


@pytest.mark.parametrize("kron", [True, False])
def test_drop_period_invariance(kron):
    """Removing any single period after centering changes nothing."""
    rng = np.random.default_rng(106)
    model, _ = _panel(rng, kron=kron)
    reference = fe_mls(model)
    for t0 in range(1, model.m + 1):
        dropped = fe_drop_period(model, t0)
        scale = 1.0 + float(np.max(np.abs(reference.beta_hat)))
        assert float(np.max(np.abs(dropped.beta_hat - reference.beta_hat))) \
            <= 1e-8 * scale
        assert dropped.diagnostics["dropped_period"] == t0


def _panel_with_large_variance_along_e(rng, n=3, eigenvalues=(1e6, 1.0, 1.5, 0.7)):
    """A Kronecker panel whose positive definite Sigma has the first of
    ``eigenvalues`` along e and the others across it."""
    m = len(eigenvalues)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(m), rng.normal(size=(m, m - 1))]))
    sigma = (basis * eigenvalues) @ basis.T
    sigma = 0.5 * (sigma + sigma.T)
    model = build_fe_model([rng.normal(size=(m, 2)) for _ in range(n)],
                           [rng.normal(size=(m, 1)) for _ in range(n)], sigma=sigma)
    return model, sigma


def test_within_fits_accept_a_sigma_with_large_variance_along_e():
    """With variance 1e6 along e the computed product M Sigma M is
    asymmetric beyond 1e-12 relative, which is rounding in the product and
    no fault of the input.  The within whiteners never form it: they come
    from the SVD of the factor M F Lambda^{1/2} (D M F Lambda^{1/2} for a
    dropped period) of the carried Sigma = F Lambda F'."""
    m = 4
    model, sigma = _panel_with_large_variance_along_e(np.random.default_rng(113))
    within = centering_matrix(m) @ sigma[None] @ centering_matrix(m)
    assert np.max(np.abs(within - within.transpose(0, 2, 1))) \
        > 1e-12 * (1.0 + np.max(np.abs(within)))
    reference = fe_gls(model).beta_hat
    for fit in [fe_mls] + [lambda p, t=t: fe_drop_period(p, t) for t in range(1, m + 1)]:
        np.testing.assert_allclose(fit(model).beta_hat, reference, rtol=0, atol=1e-8)
    assert verify_theorem5(model).passed


def test_within_transform_accepts_a_sigma_with_large_variance_along_e():
    """The within model carries I kron B B' with the factor
    B = M F Lambda^{1/2} of the carried Sigma = F Lambda F', symmetric by
    construction, so pseudo-inverse least squares on it is fe_gls."""
    model, _ = _panel_with_large_variance_along_e(np.random.default_rng(114))
    reference = fe_gls(model).beta_hat
    got = mls(within_transform(model)).beta_hat
    assert float(np.linalg.norm(got - reference)) <= 1e-8 * float(np.linalg.norm(reference))


# build_fe_model's cut m eps lambda_max at m = 4 and lambda_max = 1
_CUT = 4 * np.finfo(float).eps


@pytest.mark.parametrize("eigenvalues", [
    *(pytest.param((10.0 ** p, 1.0, 1.5, 0.7), id=f"along-e-1e{p}") for p in range(8, 17, 2)),
    pytest.param((1.0, 2 * _CUT, 0.5, 0.8), id="min-at-2x-cut"),
    pytest.param((1.0, 100 * _CUT, 0.5, 0.8), id="min-at-100x-cut"),
    # lambda_min / lambda_max across e from 2 m eps to 1e-2
    *(pytest.param((1.0, ratio, 0.5, 0.8), id=f"min-at-{ratio:.1e}")
      for ratio in np.geomspace(2 * _CUT, 1e-2, 9)[1:]),
])
def test_within_estimates_are_fe_gls_to_rounding(eigenvalues):
    """For every Sigma that build_fe_model admits, fe_mls, every
    fe_drop_period and mls on the within model are fe_gls to rounding,
    whatever Sigma's variance along e.  The edge cases put lambda_min across
    e, where the within factor's singular value sigma_{m-1} is smallest."""
    lam = np.asarray(eigenvalues)
    rng = np.random.default_rng(115)
    if lam.min() <= _CUT * lam.max():
        with pytest.raises(DispersionNotPDError):
            _panel_with_large_variance_along_e(rng, eigenvalues=eigenvalues)
        return
    model, _ = _panel_with_large_variance_along_e(rng, eigenvalues=eigenvalues)
    reference = fe_gls(model).beta_hat
    fits = [fe_mls, *(lambda p, t=t: fe_drop_period(p, t) for t in range(1, model.m + 1)),
            lambda p: mls(within_transform(p))]
    for fit in fits:
        got = fit(model).beta_hat
        assert float(np.linalg.norm(got - reference)) \
            <= 1e-12 * float(np.linalg.norm(reference))


def test_within_transform_neither_assembles_nor_decomposes_the_dispersion(monkeypatch):
    """The within model's spectrum is the SVD of the carried factor
    M F_i Lambda_i^{1/2}, of rank n(m - 1) with no cut deciding it, and the
    Theorem 5 check assembles no dense dispersion either."""
    from gmls import model as model_module
    from gmls import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("the within dispersion was assembled or decomposed")
    model, _ = _panel(np.random.default_rng(116), kron=False)
    for module, name in ((model_module, "_block_diag"),
                         (model_module, "spectral_decompose"),
                         (spectral, "spectral_decompose"), (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, refuse)
    within = within_transform(model)
    assert within.spectrum.rank == model.n * (model.m - 1)
    assert within.spectrum.tolerance_used == 0.0
    assert np.all(within.spectrum.eigenvalues_pos > 0.0)
    assert verify_theorem5(model).passed


def test_drop_period_range_check():
    rng = np.random.default_rng(107)
    model, _ = _panel(rng)
    with pytest.raises(ValueError):
        fe_drop_period(model, 0)
    with pytest.raises(ValueError):
        fe_drop_period(model, model.m + 1)


def test_equivalence_report_on_random_instance():
    rng = np.random.default_rng(108)
    model, _ = _panel(rng)
    report = verify_theorem5(model)
    assert report.passed
    assert report.beta_gap <= report.tolerance
    assert report.projector_gap <= report.tolerance


def test_equivalence_check_detects_corrupted_projector(monkeypatch):
    """Negative control: swept whiteners scaled by 1 + 1e-3 leave the
    slopes as they are but perturb every block of P, so only the
    projector comparison fails."""
    rng = np.random.default_rng(109)
    model, _ = _panel(rng)
    monkeypatch.setattr(panel_module, "_swept_whiteners",
                        lambda model: _swept_whiteners(model) * (1.0 + 1e-3))
    report = verify_theorem5(model)
    assert report.beta_equal
    assert not report.projector_equal
    assert not report.passed


def test_fe_two_periods_smallest_case():
    rng = np.random.default_rng(110)
    model, blocks = _panel(rng, n=4, m=2, k=1)
    result = fe_gls(model)
    oracle_beta, _ = fe_joint_gls(
        [model.X[model.equation_rows(i)] for i in range(model.n)],
        [model.y[model.equation_rows(i)] for i in range(model.n)],
        blocks)
    np.testing.assert_allclose(result.beta_hat, oracle_beta, atol=1e-8)
    # with m = 2 dropping either period leaves the same estimate
    for t0 in (1, 2):
        np.testing.assert_allclose(fe_drop_period(model, t0).beta_hat,
                                   fe_mls(model).beta_hat, atol=1e-8)
