"""Release gate for the library.

Eleven checks, each with a pinned tolerance and a wall-clock budget.  They
are deliberately redundant with the per-module suites: everything here
runs against public entry points only, at desk scale, with fixed seeds,
so a regression anywhere in the chain surfaces as a failed gate rather
than a subtly wrong number.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg

from gmls import (
    LinearRestrictions,
    SURLayout,
    WitnessKind,
    build_fe_model,
    build_model,
    centering_matrix,
    check_theil_condition,
    combine_restrictions,
    constrained_singular_gls,
    extract_implicit_restrictions,
    fe_drop_period,
    fe_gls,
    fe_mls,
    gls,
    linear_representation,
    mls,
    ols,
    rgls,
    ridge,
    rols,
    run_study,
    spectral_decompose,
    stack_sur,
    stochastic_restricted_gls,
    tkn,
    verify_theorem5,
)
from gmls.montecarlo import SINGULAR_ADDING_UP, SimulationConfig
from gmls.panel import _swept_whiteners

from conftest import FIXTURES, random_spd
from oracles import (dense_fe_projectors, dummy_matrix, exact_bordered_beta, matrix_rank_svd,
                     penrose_defects, period_row, spectral_pinv)
from test_cli import GOLDENS, run_cli


def rel_gap(a, b):
    """Max-norm distance scaled by the reference magnitude."""
    return float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(b))))


def random_nnd_exact_rank(rng, dim, rank):
    # spectrum spread over four decades; an unbounded condition number
    # would make the identity residuals meaningless in float64
    if rank == 0:
        return np.zeros((dim, dim))
    q, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
    lam = 10.0 ** rng.uniform(-2.0, 2.0, size=rank)
    return (q * lam) @ q.T


def singular_period_blocks(rng, n, m, hetero=True):
    """Per-period n x n blocks of rank n-1 sharing one null direction."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q[:, :1]
    basis = q[:, 1:]
    blocks = []
    for _ in range(m):
        lam = rng.uniform(0.5, 2.0, size=n - 1)
        blocks.append(basis @ np.diag(lam) @ basis.T)
        if not hetero:
            return [blocks[0]] * m, a
    return blocks, a


def whitened_stacked_design(layout, blocks):
    """F'X of the period-major stacked system, straight from eigh."""
    omega = scipy.linalg.block_diag(*blocks)
    spec = spectral_decompose(omega)
    x = np.vstack([period_row(layout, t) for t in range(layout.m)])
    return spec.eigenvectors_pos.T @ x, x


def sur_model_with_adding_up(rng, n=3, m=5, width=2, restriction_rows=1):
    """Singular SUR instance with consistent explicit restrictions."""
    layout = SURLayout.build([rng.normal(size=(m, width)) for _ in range(n)])
    blocks, a = singular_period_blocks(rng, n, m)
    beta = rng.normal(size=(layout.num_params, 1))
    spec = spectral_decompose(scipy.linalg.block_diag(*blocks))
    x = np.vstack([period_row(layout, t) for t in range(m)])
    noise = spec.eigenvectors_pos @ (
        np.sqrt(spec.eigenvalues_pos)[:, None]
        * rng.normal(size=(spec.rank, 1)))
    y = x @ beta + noise
    per_equation = [y[[t * n + i for t in range(m)]] for i in range(n)]
    model = stack_sur(layout, per_equation, blocks)
    big_r = rng.normal(size=(restriction_rows, layout.num_params))
    explicit = LinearRestrictions.build(big_r, big_r @ beta)
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(explicit, implicit)
    assert combined.consistent
    return model, explicit, implicit, combined, beta


# ---------------------------------------------------------------------------
# 1. pseudo-inverse contract

def test_pseudo_inverse_contract_on_random_nnd_matrices():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(200):
        dim = int(rng.integers(1, 21))
        rank = int(rng.integers(0, dim + 1))
        omega = random_nnd_exact_rank(rng, dim, rank)
        spec = spectral_decompose(omega)
        assert spec.rank == rank
        plus = spectral_pinv(spec)
        d1, d2, d3, d4 = penrose_defects(omega, plus)
        # identity residuals relative to their operand's magnitude; the
        # symmetry defects are about near-orthoprojectors of unit size
        assert d1 <= 1e-10 * (1.0 + float(np.max(np.abs(omega))))
        assert d2 <= 1e-10 * (1.0 + float(np.max(np.abs(plus))))
        assert d3 <= 1e-10
        assert d4 <= 1e-10
        # the null block really annihilates, and the pieces reassemble
        if spec.eigenvectors_null.shape[1]:
            assert float(np.max(np.abs(omega @ spec.eigenvectors_null))) <= 1e-10
        rebuilt = (spec.eigenvectors_pos * spec.eigenvalues_pos) \
            @ spec.eigenvectors_pos.T
        assert float(np.max(np.abs(rebuilt - omega))) <= 1e-10
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. estimator equivalence lattice

def test_estimators_collapse_into_each_other_on_regular_data():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(100):
        k = int(rng.integers(2, 7))
        t_dim = int(rng.integers(k + 2, 31))
        x = rng.normal(size=(t_dim, k))
        beta = rng.normal(size=(k, 1))
        y = x @ beta + rng.normal(size=(t_dim, 1))

        plain = build_model(y, x, np.eye(t_dim))
        assert rel_gap(gls(plain).beta_hat, ols(plain).beta_hat) <= 1e-10

        omega = random_spd(rng, t_dim)
        model = build_model(y, x, omega)
        assert rel_gap(mls(model).beta_hat, gls(model).beta_hat) <= 1e-10

        rows = int(rng.integers(1, k))
        big_r = rng.normal(size=(rows, k))
        res = LinearRestrictions.build(big_r, big_r @ rng.normal(size=(k, 1)))
        assert rel_gap(tkn(model, res).beta_hat,
                       rgls(model, res).beta_hat) <= 1e-10

        combined = combine_restrictions(LinearRestrictions.empty(k),
                                        extract_implicit_restrictions(model))
        assert rel_gap(constrained_singular_gls(model, combined).beta_hat,
                       mls(model).beta_hat) <= 1e-10
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. restricted estimates satisfy their restrictions

def test_every_restricted_estimator_honors_the_restriction():
    rng = np.random.default_rng(303)
    for trial in range(100):
        k = int(rng.integers(3, 7))
        t_dim = int(rng.integers(k + 3, 21))
        rows = int(rng.integers(1, k))
        x = rng.normal(size=(t_dim, k))
        big_r = rng.normal(size=(rows, k))
        r_vec = big_r @ rng.normal(size=(k, 1))
        res = LinearRestrictions.build(big_r, r_vec)
        bound = 1e-9 * (1.0 + float(np.max(np.abs(r_vec))))

        y = x @ rng.normal(size=(k, 1)) + rng.normal(size=(t_dim, 1))
        omega = random_spd(rng, t_dim)
        regular = build_model(y, x, omega)
        for estimate in (rols(regular, res), rgls(regular, res),
                         tkn(regular, res)):
            assert float(np.max(np.abs(big_r @ estimate.beta_hat - r_vec))) \
                <= bound

        model, explicit, _, combined, _ = sur_model_with_adding_up(
            rng, restriction_rows=int(rng.integers(1, 3)))
        fitted = constrained_singular_gls(model, combined)
        gap = float(np.max(np.abs(explicit.R @ fitted.beta_hat - explicit.r)))
        assert gap <= 1e-9 * (1.0 + float(np.max(np.abs(explicit.r))))


# ---------------------------------------------------------------------------
# 4. invariance to the particular point and to the free coefficients

def test_constrained_estimate_ignores_arbitrary_choices():
    rng = np.random.default_rng(404)
    for trial in range(10):
        model, _, implicit, combined, _ = sur_model_with_adding_up(rng)
        base = constrained_singular_gls(model, combined).beta_hat

        h_plus = np.linalg.pinv(combined.H)
        kernel = scipy.linalg.null_space(combined.H)
        estimates = []
        for _ in range(10):
            particular = h_plus @ combined.h
            if kernel.shape[1]:
                particular = particular + kernel @ rng.normal(
                    size=(kernel.shape[1], 1))
            fitted = constrained_singular_gls(model, combined,
                                              particular=particular)
            estimates.append(fitted.beta_hat)
        spread = float(np.max(np.abs(np.max(estimates, axis=0)
                                     - np.min(estimates, axis=0))))
        assert spread <= 1e-10

        null_dim = model.num_obs - spectral_decompose(model.dispersion).rank
        for _ in range(10):
            g_free = rng.normal(size=(model.num_params, null_dim))
            alt = linear_representation(model, combined, g_free, implicit)
            assert float(np.max(np.abs(alt.beta_hat - base))) <= 1e-10


# ---------------------------------------------------------------------------
# 5. rank condition against a direct oracle

def test_rank_condition_agrees_with_direct_rank_computation():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    checked_violations = 0

    def verify(layout, blocks):
        nonlocal checked_violations
        witness = check_theil_condition(layout, blocks)
        whitened, x = whitened_stacked_design(layout, blocks)
        oracle_holds = matrix_rank_svd(whitened) == layout.num_params
        assert (witness.kind is WitnessKind.NONE) == oracle_holds
        if witness.kind is not WitnessKind.NONE:
            checked_violations += 1
            assert float(np.max(np.abs(witness.d))) > 0
            scale = 1.0 + float(np.max(np.abs(x)))
            assert float(np.max(np.abs(whitened @ witness.d))) <= 1e-8 * scale
            # the per-period combination values are reproducible from
            # the weights and the certificate
            for t in range(layout.m):
                s_t = float((witness.a.T @ period_row(layout, t)
                             @ witness.d)[0, 0])
                assert abs(s_t - float(witness.s[t, 0])) <= 1e-8 * scale

    for trial in range(120):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(3, 7))
        widths = [int(rng.integers(1, 3)) for _ in range(n)]
        while sum(widths) > (n - 1) * m:
            widths[int(rng.integers(0, n))] = 1
        layout = SURLayout.build([rng.normal(size=(m, w)) for w in widths])
        blocks, _ = singular_period_blocks(rng, n, m)
        verify(layout, blocks)

    for trial in range(30):
        # more coefficients than the whitened row count: always deficient
        n, m = 2, 3
        layout = SURLayout.build([rng.normal(size=(m, 2)) for _ in range(n)])
        blocks, _ = singular_period_blocks(rng, n, m)
        verify(layout, blocks)

    for trial in range(25):
        # duplicated column inside one equation
        n, m = 3, 6
        designs = [rng.normal(size=(m, 2)) for _ in range(n)]
        col = rng.normal(size=(m, 1))
        designs[int(rng.integers(0, n))] = np.hstack([col, 2.0 * col])
        blocks, _ = singular_period_blocks(rng, n, m)
        verify(SURLayout.build(designs), blocks)

    for trial in range(25):
        # a covariate shared across equations lines up with the
        # adding-up weights even though each equation is fine alone
        n, m = 3, 6
        shared = rng.normal(size=(m, 1))
        designs = [np.hstack([shared, rng.normal(size=(m, 1))])
                   for _ in range(n)]
        blocks, _ = singular_period_blocks(rng, n, m)
        verify(SURLayout.build(designs), blocks)

    assert checked_violations >= 50

    for trial in range(100):
        # identical covariates with one shared dispersion block: the
        # combination always exists, whatever the numbers are
        n = int(rng.integers(2, 5))
        width = int(rng.integers(1, 3))
        m = width + int(rng.integers(2, 5))
        common = rng.normal(size=(m, width))
        layout = SURLayout.build([common.copy() for _ in range(n)])
        blocks, _ = singular_period_blocks(rng, n, m, hetero=False)
        witness = check_theil_condition(layout, blocks[0])
        assert witness.kind is WitnessKind.CROSS_EQUATION_COMBINATION
        whitened, x = whitened_stacked_design(layout, blocks)
        scale = 1.0 + float(np.max(np.abs(x)))
        assert float(np.max(np.abs(whitened @ witness.d))) <= 1e-8 * scale

    assert time.perf_counter() - start < 20.0


# ---------------------------------------------------------------------------
# 6 and 7 share instances

@pytest.fixture(scope="module")
def panel_instances():
    rng = np.random.default_rng(606)
    out = []
    for trial in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(3, 6))
        k = int(rng.integers(1, 4))
        designs = [rng.normal(size=(m, k)) for _ in range(n)]
        beta = rng.normal(size=(k, 1))
        sigma = random_spd(rng, m)
        chol = np.linalg.cholesky(sigma)
        responses = [designs[i] @ beta + rng.uniform(-1, 1)
                     + chol @ rng.normal(size=(m, 1)) for i in range(n)]
        out.append((build_fe_model(designs, responses, sigma=sigma), sigma))
    return out


def test_panel_slope_estimators_coincide(panel_instances):
    start = time.perf_counter()
    for model, sigma in panel_instances:
        report = verify_theorem5(model)
        scale = 1.0 + float(np.max(np.abs(report.beta_gls)))
        assert report.beta_gap <= 1e-8 * scale
        assert report.projector_gap <= 1e-8

        # independent recomputation of the weighting identity
        cm, _, p = dense_fe_projectors(model)
        centered_sigma = cm @ np.kron(np.eye(model.n), sigma) @ cm
        rebuilt = cm @ np.linalg.pinv(centered_sigma) @ cm
        assert float(np.max(np.abs(p - rebuilt))) <= 1e-8
        # the package's S'S is P's diagonal m x m block, and P is zero off them
        swept = _swept_whiteners(model)
        package = np.kron(np.eye(model.n), (swept.transpose(0, 2, 1) @ swept)[0])
        assert float(np.max(np.abs(p - package))) <= 1e-10

        reference = fe_mls(model).beta_hat
        for drop in range(1, model.m + 1):
            reduced = fe_drop_period(model, drop).beta_hat
            assert float(np.max(np.abs(reduced - reference))) \
                <= 1e-8 * (1.0 + float(np.max(np.abs(reference))))
    assert time.perf_counter() - start < 10.0


def test_panel_projector_identities(panel_instances):
    for model, sigma in panel_instances:
        cm, q, p = dense_fe_projectors(model)
        z = dummy_matrix(model.n, model.m)
        full_sigma = np.kron(np.eye(model.n), sigma)
        for lhs, rhs in (
                (q @ z, z),
                (p @ z, np.zeros_like(z)),
                (p @ cm, p),
                (cm @ p @ cm, p),
                (p @ full_sigma @ p, p)):
            assert float(np.max(np.abs(lhs - rhs))) <= 1e-10


# ---------------------------------------------------------------------------
# 8. simulation study of the constrained estimator

def test_adding_up_study_unbiased_with_matching_covariance():
    start = time.perf_counter()
    config = SimulationConfig(scenario=SINGULAR_ADDING_UP,
                              replications=10_000, seed=91,
                              n=3, m=4, coeff_count=2)
    report = run_study(config)
    assert report.replications == 10_000
    assert np.all(np.abs(report.bias) <= 4.0 * report.mc_se)
    gap = np.abs(report.sample_covariance - report.theoretical_covariance)
    assert np.all(gap <= 4.0 * report.covariance_se)
    assert report.passed
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 9. noisy restrictions interpolate between exact and none

def test_noisy_restriction_limits_reproduce_both_endpoints():
    rng = np.random.default_rng(909)
    for trial in range(20):
        k = int(rng.integers(3, 6))
        t_dim = int(rng.integers(10, 21))
        rows = int(rng.integers(1, k))
        x = rng.normal(size=(t_dim, k))
        y = x @ rng.normal(size=(k, 1)) + rng.normal(size=(t_dim, 1))
        model = build_model(y, x, random_spd(rng, t_dim))
        big_r = rng.normal(size=(rows, k))
        r_vec = big_r @ rng.normal(size=(k, 1))
        exact = LinearRestrictions.build(big_r, r_vec)

        tight = stochastic_restricted_gls(model, exact, 1e-10 * np.eye(rows))
        assert rel_gap(tight.beta_hat, rgls(model, exact).beta_hat) <= 1e-4

        loose = stochastic_restricted_gls(model, exact, 1e12 * np.eye(rows))
        assert rel_gap(loose.beta_hat, gls(model).beta_hat) <= 1e-4


# ---------------------------------------------------------------------------
# 10. command line end to end

def test_cli_machine_output_stable_and_refusals_coded():
    for name, argv in sorted(GOLDENS.items()):
        with open(os.path.join(FIXTURES, name), "rb") as f:
            expected = f.read()
        first = run_cli(*argv, text=False)
        second = run_cli(*argv, text=False)
        assert first.returncode == 0
        assert first.stdout == expected
        assert second.stdout == first.stdout

    refused = run_cli("estimate", "--sur", "sur.csv", "--sigma", "sigma.csv",
                      "--method", "mls")
    assert refused.returncode == 2

    biased = run_cli("simulate", "--scenario", "regular-gls", "--reps", "400",
                     "--seed", "3", "--inject-bias", "0.5")
    assert biased.returncode == 4


# ---------------------------------------------------------------------------
# 11. backward-stable solves on ill-conditioned designs

def ill_conditioned_design(rng, t_dim, k, cond):
    """A t_dim x k design with singular values spaced from 1 to 1/cond."""
    u, _ = np.linalg.qr(rng.normal(size=(t_dim, k)))
    v, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return (u * np.logspace(0.0, -np.log10(cond), k)) @ v.T


def relative_error(fitted, exact):
    return float(np.max(np.abs(fitted - exact))) / float(np.max(np.abs(exact)))


@pytest.mark.parametrize("cond", [1e6, 1e7])
def test_solves_stay_accurate_on_ill_conditioned_designs(cond):
    # noise-free y, so a solve that forms X' Omega^+ X loses about
    # cond(X)^2 * eps where an SVD of the whitened design loses cond(X) * eps
    rng = np.random.default_rng(1111 + int(np.log10(cond)))
    start = time.perf_counter()
    t_dim, k = 40, 6
    x = ill_conditioned_design(rng, t_dim, k, cond)
    beta = rng.normal(size=(k, 1))
    y = x @ beta
    # diagonal dispersions keep Omega^+ exact in rationals; the singular
    # one has three zeros at randomly permuted rows
    d_regular = rng.integers(1, 5, size=t_dim).astype(float)
    d_singular = d_regular.copy()
    d_singular[rng.permutation(t_dim)[:3]] = 0.0
    regular = build_model(y, x, np.diag(d_regular))
    singular = build_model(y, x, np.diag(d_singular))
    big_r = rng.normal(size=(2, k))
    res = LinearRestrictions.build(big_r, big_r @ beta)
    combined = combine_restrictions(res, extract_implicit_restrictions(singular))
    no_rows = (np.zeros((0, k)), np.zeros((0, 1)))
    cases = {
        "gls": (gls(regular), d_regular, no_rows),
        "rgls": (rgls(regular, res), d_regular, (res.R, res.r)),
        "mls": (mls(singular), d_singular, no_rows),
        "tkn": (tkn(singular, res), d_singular, (res.R, res.r)),
        "constrained": (constrained_singular_gls(singular, combined), d_singular,
                        (combined.H, combined.h)),
    }
    for name, (fitted, diag, (h_mat, h_vec)) in cases.items():
        exact = exact_bordered_beta(y, x, diag, h_mat, h_vec)
        err = relative_error(fitted.beta_hat, exact)
        assert err <= 1e-7, (name, err)

    # restricted OLS against LAPACK's equality-constrained least squares
    *_, lapack_beta, info = scipy.linalg.lapack.dgglse(x, big_r, y.ravel(),
                                                        res.r.ravel())
    assert info == 0
    fitted = rols(build_model(y, x, np.eye(t_dim)), res).beta_hat.ravel()
    err = relative_error(fitted, lapack_beta)
    assert err <= 1e-7, ("rols", err)
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("cond", [1e6, 1e7])
def test_panel_solves_stay_accurate_on_ill_conditioned_designs(cond):
    # the panel slopes are GLS on [X Z] under I kron Sigma; with integer
    # diagonal Sigma_i that system is exact in rationals
    rng = np.random.default_rng(1212 + int(np.log10(cond)))
    start = time.perf_counter()
    n, m, k = 3, 40, 6
    x = ill_conditioned_design(rng, n * m, k, cond)
    y = x @ rng.normal(size=(k, 1)) + np.repeat(rng.uniform(-1.0, 1.0, size=n), m)[:, None]
    diags = [rng.integers(1, 5, size=m).astype(float) for _ in range(n)]
    model = build_fe_model([x[i * m:(i + 1) * m] for i in range(n)],
                           [y[i * m:(i + 1) * m] for i in range(n)],
                           sigma=[np.diag(d) for d in diags])
    exact = exact_bordered_beta(y, np.hstack([x, dummy_matrix(n, m)]),
                                np.concatenate(diags), np.zeros((0, k + n)),
                                np.zeros((0, 1)))[:k]
    for name, fitted in (("fe_gls", fe_gls(model)), ("fe_mls", fe_mls(model)),
                         ("fe_drop_period", fe_drop_period(model, 7))):
        err = relative_error(fitted.beta_hat, exact)
        assert err <= 1e-7, (name, err)
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("psi", [1e-10, 1e-12])
def test_ridge_stays_accurate_on_an_ill_conditioned_design(psi):
    # the oracle forms X'X + psi I in rationals from X itself, so it
    # carries no rounding of a float normal matrix
    rng = np.random.default_rng(1313 + int(-np.log10(psi)))
    start = time.perf_counter()
    t_dim, k = 40, 6
    x = ill_conditioned_design(rng, t_dim, k, 1e7)
    y = x @ rng.normal(size=(k, 1))
    fitted = ridge(build_model(y, x, np.eye(t_dim)), psi)
    exact = exact_bordered_beta(y, x, np.ones(t_dim), np.zeros((0, k)),
                                np.zeros((0, 1)), shift=psi)
    err = relative_error(fitted.beta_hat, exact)
    assert err <= 1e-7, err
    assert time.perf_counter() - start < 10.0
