"""Model assembly, validation, and SUR stacking."""

import importlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from gmls import (
    DimensionMismatchError,
    DispersionNotNNDError,
    LinearRestrictions,
    NonFiniteError,
    ResponseOutsideRangeError,
    SURLayout,
    SimulationConfig,
    TooFewObservationsError,
    WitnessKind,
    build_fe_model,
    build_model,
    check_theil_condition,
    combine_restrictions,
    constrained_singular_gls,
    extract_implicit_restrictions,
    mls,
    run_study,
    stack_sur,
    spectral_decompose,
    tkn,
)
from gmls import montecarlo
from gmls.model import (
    EQUATION_MAJOR,
    MEMBERSHIP_RTOL,
    PERIOD_MAJOR,
    _block_diag,
)

from conftest import random_nnd, random_spd
from oracles import extract_sur_blocks, period_row, stacked_membership, stacking_permutation


def _simple_model(rng, t_dim=8, k_dim=3):
    x = rng.normal(size=(t_dim, k_dim))
    y = x @ rng.normal(size=(k_dim, 1)) + rng.normal(size=(t_dim, 1))
    return y, x, random_spd(rng, t_dim)


def test_build_model_accepts_valid_input():
    rng = np.random.default_rng(1)
    y, x, omega = _simple_model(rng)
    model = build_model(y, x, omega)
    assert model.num_obs == 8
    assert model.num_params == 3
    assert model.sigma2 is None


def test_build_model_rejects_wrong_shapes():
    rng = np.random.default_rng(2)
    y, x, omega = _simple_model(rng)
    with pytest.raises(DimensionMismatchError):
        build_model(y[:-1], x, omega)
    with pytest.raises(DimensionMismatchError):
        build_model(y, x, omega[:-1, :-1])


def test_build_model_rejects_too_few_observations():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3))
    with pytest.raises(TooFewObservationsError):
        build_model(np.zeros((3, 1)), x, np.eye(3))


def test_build_model_rejects_indefinite_dispersion():
    rng = np.random.default_rng(4)
    y, x, _ = _simple_model(rng)
    with pytest.raises(DispersionNotNNDError):
        build_model(y, x, np.diag([1.0] * 7 + [-1.0]))


def test_build_model_rejects_asymmetric_dispersion():
    rng = np.random.default_rng(5)
    y, x, omega = _simple_model(rng)
    omega[0, 1] += 0.3
    with pytest.raises(DispersionNotNNDError):
        build_model(y, x, omega)


def test_build_model_rejects_nan():
    rng = np.random.default_rng(6)
    y, x, omega = _simple_model(rng)
    y[2, 0] = np.nan
    with pytest.raises(NonFiniteError):
        build_model(y, x, omega)


def test_response_membership_with_singular_dispersion():
    """y must stay inside the span of the design and dispersion columns."""
    rng = np.random.default_rng(7)
    t_dim = 6
    x = rng.normal(size=(t_dim, 2))
    root = rng.normal(size=(t_dim, 3))
    omega = root @ root.T  # rank 3
    beta = np.array([[1.0], [2.0]])
    inside = x @ beta + root @ rng.normal(size=(3, 1))
    model = build_model(inside, x, omega)
    assert model.num_obs == t_dim

    # push y out of the 5-dimensional admissible span
    basis = np.linalg.svd(np.hstack([x, omega]))[0][:, :5]
    out_dir = np.linalg.svd(np.hstack([x, omega]))[0][:, 5:6]
    outside = inside + 10.0 * out_dir
    with pytest.raises(ResponseOutsideRangeError):
        build_model(outside, x, omega)
    del basis


def _accepts(y, x, omega) -> bool:
    try:
        build_model(y, x, omega)
    except ResponseOutsideRangeError:
        return False
    return True


def _pushed(y, direction, factor):
    """y moved along a unit direction by factor times the membership bound."""
    step = factor * MEMBERSHIP_RTOL * (1.0 + float(np.linalg.norm(y)))
    return y + step * direction / float(np.linalg.norm(direction))


def _membership_cases():
    """(label, y, X, Omega, expected) with the expected admissibility."""
    rng = np.random.default_rng(90)
    t_dim, k_dim = 10, 3
    cases = []

    def with_pushes(label, y, x, omega, toward=None):
        """y itself, then y pushed out of col(X : Omega) across the bound."""
        cases.append((label, y, x, omega, True))
        out = stacked_membership(y, x, omega)[2]
        out = out[:, :1] if toward is None else out @ (out.T @ toward)
        cases.append((label + " pushed 10x", _pushed(y, out, 10.0), x, omega, False))
        cases.append((label + " pushed 0.1x", _pushed(y, out, 0.1), x, omega, True))

    x = rng.normal(size=(t_dim, k_dim))
    root = rng.normal(size=(t_dim, 4))
    with_pushes("singular", x @ np.ones((k_dim, 1)) + root @ rng.normal(size=(4, 1)),
                x, root @ root.T)

    for label, y in (("pd", rng.normal(size=(t_dim, 1))),
                     ("pd scaled", 1e6 * rng.normal(size=(t_dim, 1)))):
        cases.append((label, y, x, random_spd(rng, t_dim), True))

    zero = np.zeros((t_dim, t_dim))
    with_pushes("zero dispersion", x @ rng.normal(size=(k_dim, 1)), x, zero)

    collinear = x.copy()
    collinear[:, 2] = collinear[:, 0] - collinear[:, 1]
    omega = random_nnd(rng, t_dim, rank=3)
    with_pushes("collinear", collinear @ np.ones((k_dim, 1)), collinear, omega)
    with_pushes("collinear, zero dispersion", collinear @ np.ones((k_dim, 1)),
                collinear, zero)

    # eigenvalues just above and just below both rank cutoffs
    q, _ = np.linalg.qr(rng.normal(size=(t_dim, t_dim)))
    lam = np.array([4.0, 3.0, 2.0, 1.0] + [0.0] * (t_dim - 4))
    eps = np.finfo(float).eps
    spectral_cut = t_dim * eps * lam[0]
    stacked_cut = stacked_membership(x @ np.ones((k_dim, 1)), x, (q * lam) @ q.T)[1]
    lam[4] = 10.0 * max(spectral_cut, stacked_cut)
    lam[5] = 0.1 * min(spectral_cut, stacked_cut)
    omega = (q * lam) @ q.T
    omega = 0.5 * (omega + omega.T)
    base = x @ np.ones((k_dim, 1)) + q[:, :4] @ rng.normal(size=(4, 1))
    # a draw from the model: the barely positive direction carries its
    # own standard deviation, at which both rules resolve it
    cases.append(("gap, barely positive direction",
                  base + 3.0 * np.sqrt(lam[4]) * q[:, 4:5], x, omega, True))
    with_pushes("gap, barely null direction", base, x, omega, toward=q[:, 5:6])
    return cases


@pytest.mark.parametrize("case", _membership_cases(), ids=lambda c: c[0])
def test_admissibility_matches_stacked_svd_reference(case):
    """build_model's A'y in col(A'X) test decides as the (X : Omega) SVD does."""
    _, y, x, omega, expected = case
    assert stacked_membership(y, x, omega)[0] is expected
    assert _accepts(y, x, omega) is expected


def _counting(monkeypatch, name, keep):
    real = getattr(np.linalg, name)
    calls = []

    def counted(a, *args, **kwargs):
        if keep(np.shape(a)):
            calls.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_singular_pipeline_decomposes_the_dispersion_once(monkeypatch):
    rng = np.random.default_rng(91)
    t_dim, k_dim = 10, 3
    x = rng.normal(size=(t_dim, k_dim))
    root = rng.normal(size=(t_dim, 7))
    y = x @ np.ones((k_dim, 1)) + root @ rng.normal(size=(7, 1))
    explicit = LinearRestrictions.build(np.array([[1.0, -1.0, 0.0]]), np.zeros((1, 1)))
    eighs = _counting(monkeypatch, "eigh", lambda shape: shape[0] == t_dim)
    svds = _counting(monkeypatch, "svd", lambda shape: shape[1] == t_dim + k_dim)

    model = build_model(y, x, root @ root.T)
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(explicit, implicit)
    constrained_singular_gls(model, combined)
    mls(model)
    tkn(model, explicit)
    assert len(eighs) == 1
    assert len(svds) == 0
    assert model.spectrum.rank == 7


def test_study_replications_never_decompose(monkeypatch):
    eighs = _counting(monkeypatch, "eigh", lambda shape: True)
    built = []
    real_build = montecarlo._build_structure

    def build(config):
        structure = real_build(config)
        built.append(len(eighs))
        return structure
    monkeypatch.setattr(montecarlo, "_build_structure", build)
    config = SimulationConfig(scenario=montecarlo.SINGULAR_ADDING_UP,
                              replications=50, seed=5, coeff_count=2)
    run_study(config)
    assert built == [1]
    assert len(eighs) == 1


def test_stacking_permutation_roundtrip():
    n, m = 3, 4
    fwd = stacking_permutation(n, m, src=EQUATION_MAJOR, dst=PERIOD_MAJOR)
    back = stacking_permutation(n, m, src=PERIOD_MAJOR, dst=EQUATION_MAJOR)
    idx = np.arange(n * m)
    np.testing.assert_array_equal(idx[fwd][back], idx)
    # row (i, t) of the equation-major stack lands at position t*n + i
    labels = np.array([(i, t) for i in range(n) for t in range(m)])
    moved = labels[fwd]
    for pos, (i, t) in enumerate(moved):
        assert pos == t * n + i
    # n != m, both directions pinned
    np.testing.assert_array_equal(
        stacking_permutation(2, 3, src=EQUATION_MAJOR, dst=PERIOD_MAJOR), [0, 3, 1, 4, 2, 5])
    np.testing.assert_array_equal(
        stacking_permutation(2, 3, src=PERIOD_MAJOR, dst=EQUATION_MAJOR), [0, 2, 4, 1, 3, 5])


def test_stacking_permutation_identity_and_validation():
    np.testing.assert_array_equal(
        stacking_permutation(2, 5, src=PERIOD_MAJOR, dst=PERIOD_MAJOR),
        np.arange(10))
    with pytest.raises(ValueError):
        stacking_permutation(2, 2, src="diagonal", dst=PERIOD_MAJOR)


def test_period_row_layout():
    d1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    d2 = np.array([[5.0], [6.0]])
    layout = SURLayout.build([d1, d2])
    assert layout.block_widths == (2, 1)
    row0 = period_row(layout, 0)
    np.testing.assert_allclose(row0, [[1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    row1 = period_row(layout, 1)
    np.testing.assert_allclose(row1, [[3.0, 4.0, 0.0], [0.0, 0.0, 6.0]])


def _sur_parts(rng, n=3, m=5, widths=(2, 1, 2)):
    layout = SURLayout.build([rng.normal(size=(m, w)) for w in widths])
    responses = [rng.normal(size=(m, 1)) for _ in range(n)]
    return layout, responses


def test_stack_sur_orders_agree_up_to_permutation():
    rng = np.random.default_rng(10)
    layout, responses = _sur_parts(rng)
    n, m = layout.n, layout.m
    sigma = random_spd(rng, n)
    period = stack_sur(layout, responses, [sigma] * m, order=PERIOD_MAJOR)
    # equation-major with a common period block Sigma has per-equation
    # dispersion sigma_ii * I_m
    eq_blocks = [sigma[i, i] * np.eye(m) for i in range(n)]
    equation = stack_sur(layout, responses, eq_blocks, order=EQUATION_MAJOR)
    perm = stacking_permutation(n, m, src=PERIOD_MAJOR, dst=EQUATION_MAJOR)
    np.testing.assert_allclose(period.y[perm], equation.y, atol=1e-14)
    np.testing.assert_allclose(period.X[perm], equation.X, atol=1e-14)
    assert period.ordering == PERIOD_MAJOR
    assert equation.ordering == EQUATION_MAJOR


def test_stack_sur_rejects_wrong_block_count():
    rng = np.random.default_rng(11)
    layout, responses = _sur_parts(rng)
    with pytest.raises(DimensionMismatchError):
        stack_sur(layout, responses, [np.eye(layout.n)] * (layout.m - 1),
                  order=PERIOD_MAJOR)


def test_stack_sur_rejects_indefinite_block():
    rng = np.random.default_rng(12)
    layout, responses = _sur_parts(rng)
    blocks = [np.eye(layout.n) for _ in range(layout.m)]
    blocks[2] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(DispersionNotNNDError):
        stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)


def test_period_major_stack_is_the_period_rows():
    rng = np.random.default_rng(15)
    layout, responses = _sur_parts(rng)
    n = layout.n
    model = stack_sur(layout, responses, [np.eye(n)] * layout.m, order=PERIOD_MAJOR)
    for t in range(layout.m):
        np.testing.assert_array_equal(model.X[t * n:(t + 1) * n], period_row(layout, t))
        np.testing.assert_array_equal(model.y[t * n:(t + 1) * n, 0],
                                      [responses[i][t, 0] for i in range(n)])


def test_stack_sur_takes_no_norm_of_the_design(monkeypatch):
    """The membership cutoff's scale sigma_1(X) comes from the K x K Gram
    X'X, not from an ord-2 norm, an SVD of the whole T x K design that no
    kernel count sees; a response outside col(X : Omega) is still refused."""
    rng = np.random.default_rng(17)
    layout, outside = _sur_parts(rng, m=8)
    n = layout.n
    a = np.full((n, 1), 1.0 / np.sqrt(n))
    blocks = [np.eye(n) - a @ a.T] * layout.m  # singular, so the check runs
    inside = [design @ np.ones((design.shape[1], 1)) for design in layout.block_design]
    orders = []
    real = np.linalg.norm

    def recorded(x, ord=None, *args, **kwargs):
        orders.append(ord)
        return real(x, ord, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", recorded)
    stack_sur(layout, inside, blocks, order=PERIOD_MAJOR)
    with pytest.raises(ResponseOutsideRangeError):
        stack_sur(layout, outside, blocks, order=PERIOD_MAJOR)
    assert orders and 2 not in orders


def test_stack_sur_names_the_first_failing_block():
    rng = np.random.default_rng(16)
    layout, responses = _sur_parts(rng)
    skewed = np.eye(layout.n)
    skewed[0, 1] = 0.5
    indefinite = np.diag([1.0, -1.0, 1.0])
    for first, second, message in ((skewed, indefinite, "not symmetric"),
                                   (indefinite, skewed, "eigenvalue -1 below")):
        blocks = [np.eye(layout.n) for _ in range(layout.m)]
        blocks[1], blocks[3] = first, second
        with pytest.raises(DispersionNotNNDError,
                           match=f"^dispersion block 1: .*{message}"):
            stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)
    # blocks that cannot be read as matrices are refused before any is
    # decomposed, the first bad block by name
    nan, inf = np.eye(layout.n), np.eye(layout.n)
    nan[0, 0], inf[2, 1] = np.nan, np.inf
    for first, second, error, message in (
            (inf, nan, NonFiniteError, "^dispersion block 1 contains non-finite entries"),
            (np.ones((1, layout.n, layout.n)), nan, DimensionMismatchError,
             "^dispersion block 1 must be 2-dimensional, got ndim=3"),
            (np.eye(layout.n + 1), np.eye(2), DimensionMismatchError,
             f"^period-major stacking needs {layout.m} blocks of shape 3 x 3")):
        blocks = [np.eye(layout.n) for _ in range(layout.m)]
        blocks[1], blocks[3] = first, second
        with pytest.raises(error, match=message):
            stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)
    blocks = np.stack([np.eye(layout.n), inf, np.eye(layout.n), nan, np.eye(layout.n)])
    with pytest.raises(NonFiniteError, match="^dispersion block 1 contains non-finite"):
        stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)


def test_stack_sur_cuts_each_block_at_its_own_scale():
    """-1e-12 is far below block 2's own cutoff 3 * eps * 1, but above
    the 15 * eps * 1e6 of the whole stacked dispersion."""
    rng = np.random.default_rng(17)
    layout, responses = _sur_parts(rng)
    blocks = [np.eye(layout.n) for _ in range(layout.m)]
    blocks[0] = 1e6 * np.eye(layout.n)
    blocks[2] = np.diag([1.0, 1.0, -1e-12])
    with pytest.raises(DispersionNotNNDError, match="^dispersion block 2: "):
        stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)


# Period blocks P diag(d) P, P the projector orthogonal to (1, 1, 1, 1)/2, of
# bench/workloads.py's sur_instance(80, 9) (block 304) and sur_instance(0, 131)
# (block 248): nonnegative definite by construction, but eigh computes their
# null eigenvalue as -1.03e-15 and -6.67e-16, just below -4 * eps * lambda_max.
ROUNDED_PSD_BLOCKS = [
    ["0x1.ac004b578465fp-1", "-0x1.cd622ea2c7044p-3", "-0x1.2ecf849e2bb39p-2",
     "-0x1.427ffabf79962p-2", "-0x1.cd622ea2c7044p-3", "0x1.3425094effe9fp-1",
     "-0x1.6de8852b4e6f2p-3", "-0x1.9549716dea343p-3", "-0x1.2ecf849e2bb39p-2",
     "-0x1.6de8852b4e6f2p-3", "0x1.7c43769bc81b5p-1", "-0x1.12c32603bd4b8p-2",
     "-0x1.427ffabf79961p-2", "-0x1.9549716dea342p-3", "-0x1.12c32603bd4b8p-2",
     "0x1.8ff3ecbd15fdep-1"],
    ["0x1.15c943ec0bb6dp-1", "-0x1.a1345f2e619a4p-3", "-0x1.456b418def91ep-3",
     "-0x1.70856ef3ddaf6p-3", "-0x1.a1345f2e619a4p-3", "0x1.0eec5773641d6p-1",
     "-0x1.37b1689ca05eep-3", "-0x1.62cb96028e7c6p-3", "-0x1.456b418def91ep-3",
     "-0x1.37b1689ca05eep-3", "0x1.c20f914656327p-2", "-0x1.070278621c741p-3",
     "-0x1.70856ef3ddaf6p-3", "-0x1.62cb96028e7c7p-3", "-0x1.070278621c741p-3",
     "0x1.ed29beac444ffp-2"],
]


@pytest.mark.parametrize("entries", ROUNDED_PSD_BLOCKS, ids=["80-9-304", "0-131-248"])
def test_period_blocks_psd_up_to_rounding_are_accepted(entries):
    """A computed eigenvalue within the eigensolver's error bound of zero
    is not evidence of an indefinite block."""
    block = np.array([float.fromhex(v) for v in entries]).reshape(4, 4)
    assert spectral_decompose(block).rank == 3
    rng = np.random.default_rng(19)
    layout = SURLayout.build([rng.normal(size=(6, 1)) for _ in range(4)])
    responses = [x[:, 0] * (i + 1.0) for i, x in enumerate(layout.block_design)]
    model = stack_sur(layout, responses, [block] * 6, order=PERIOD_MAJOR)
    assert model.spectrum.rank == 18
    assert check_theil_condition(layout, block).kind is WitnessKind.NONE


def test_sur_fit_makes_no_eigh_larger_than_a_period_block(monkeypatch):
    """The block-diagonal dispersion of a period-major SUR system is
    decomposed block by block, at n = 4 and m = 500 (T = 2000)."""
    rng = np.random.default_rng(18)
    n, m, width = 4, 500, 3
    layout = SURLayout.build([rng.normal(size=(m, width)) for _ in range(n)])
    a = np.full((n, 1), 1.0 / np.sqrt(n))
    proj = np.eye(n) - a @ a.T
    scales = rng.uniform(0.5, 1.5, size=(m, n))
    blocks = [proj @ np.diag(d) @ proj for d in scales]
    beta = rng.normal(size=(n * width, 1))
    errors = (proj @ (np.sqrt(scales) * rng.standard_normal(size=(m, n))).T).T
    responses = [layout.block_design[i] @ beta[i * width:(i + 1) * width, 0] + errors[:, i]
                 for i in range(n)]
    explicit = LinearRestrictions.build(np.eye(1, n * width), beta[:1])
    eighs = _counting(monkeypatch, "eigh", lambda shape: True)

    model = stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)
    combined = combine_restrictions(explicit, extract_implicit_restrictions(model))
    constrained_singular_gls(model, combined)
    mls(model)
    check_theil_condition(layout, blocks)
    assert eighs and max(shape[-1] for shape in eighs) == n
    assert model.spectrum.rank == (n - 1) * m


def _adding_up_system(rng, order, m=50, period_blocks=None):
    """A system like the fit-sur benchmark's, n = 4 equations of 3
    coefficients over m periods, with two explicit restrictions.

    Period-major, each Sigma_t is P D_t P, P the projector orthogonal to
    the common null vector (1, 1, 1, 1)/2, unless ``period_blocks`` gives
    diagonal Sigma_t; equation-major, each equation's m x m block has rank
    m - 2.  The errors lie in the column space of the dispersion.
    """
    n, width = 4, 3
    layout = SURLayout.build([rng.normal(size=(m, width)) for _ in range(n)])
    if order == PERIOD_MAJOR:
        a = np.full((n, 1), 0.5)
        roots = [(np.eye(n) - a @ a.T) * np.sqrt(rng.uniform(0.5, 1.5, size=n))
                 for _ in range(m)] if period_blocks is None \
            else [np.sqrt(b) for b in period_blocks]
        blocks = [r @ r.T for r in roots]
        errors = np.stack([r @ rng.normal(size=n) for r in roots])
    else:
        roots = [rng.normal(size=(m, m - 2)) for _ in range(n)]
        blocks = [r @ r.T for r in roots]
        errors = np.stack([r @ rng.normal(size=m - 2) for r in roots], axis=1)
    beta = rng.normal(size=(n * width, 1))
    responses = [x @ beta[i * width:(i + 1) * width, 0] + errors[:, i]
                 for i, x in enumerate(layout.block_design)]
    r_mat = np.zeros((2, n * width))
    r_mat[0, 0], r_mat[0, width], r_mat[1, 1], r_mat[1, 2 * width + 1] = 1.0, 1.0, 1.0, -1.0
    return layout, responses, blocks, LinearRestrictions.build(r_mat, r_mat @ beta)


def _fitted(model, explicit):
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(explicit, implicit)
    return (implicit.G, implicit.g, constrained_singular_gls(model, combined).beta_hat,
            mls(model).beta_hat)


def _assert_close_relative(actual, expected, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= rtol * scale


@pytest.mark.parametrize("order", [PERIOD_MAJOR, EQUATION_MAJOR])
def test_stack_sur_hands_over_the_stacked_dispersions_spectrum(order):
    """stack_sur's batched block decomposition is bit for bit the one
    build_model makes of the assembled dispersion; the fits, whose
    products are taken block by block, agree to rounding."""
    layout, responses, blocks, explicit = _adding_up_system(np.random.default_rng(21), order)
    model = stack_sur(layout, responses, blocks, order=order)
    dense = build_model(model.y, model.X, _block_diag(*blocks))
    np.testing.assert_array_equal(model.dispersion, _block_diag(*blocks))
    assert model.spectrum.rank == dense.spectrum.rank
    assert model.spectrum.tolerance_used == dense.spectrum.tolerance_used
    for view in ("eigenvalues_pos", "eigenvectors_pos", "eigenvectors_null"):
        np.testing.assert_array_equal(getattr(model.spectrum, view),
                                      getattr(dense.spectrum, view))
    for actual, expected in zip(_fitted(model, explicit), _fitted(dense, explicit)):
        _assert_close_relative(actual, expected)


@pytest.mark.parametrize("kind", ["identity", "diagonal"])
def test_stack_sur_agrees_with_the_stacked_path_on_reducible_blocks(kind):
    """A diagonal Sigma_t splits into 1 x 1 blocks when the stacked
    dispersion is decomposed, but stays one n x n block in stack_sur."""
    rng = np.random.default_rng(22)
    m = 50
    if kind == "identity":
        period_blocks = [np.eye(4)] * m
    else:
        period_blocks = [np.diag(np.where(np.arange(4) == t % 4, 0.0,
                                          rng.uniform(0.5, 1.5, size=4)))
                         for t in range(m)]
    layout, responses, blocks, explicit = _adding_up_system(
        rng, PERIOD_MAJOR, m=m, period_blocks=period_blocks)
    model = stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)
    dense = build_model(model.y, model.X, _block_diag(*blocks))
    np.testing.assert_array_equal(model.dispersion, _block_diag(*blocks))
    assert model.spectrum.rank == dense.spectrum.rank
    _assert_close_relative(model.spectrum.eigenvalues_pos, dense.spectrum.eigenvalues_pos)
    for actual, expected in zip(_fitted(model, explicit), _fitted(dense, explicit)):
        assert actual.shape == expected.shape
        _assert_close_relative(actual, expected)


@pytest.mark.parametrize("order", [PERIOD_MAJOR, EQUATION_MAJOR])
def test_one_block_serves_every_period_or_equation(monkeypatch, order):
    """One singular block and the list of its copies, one per period (or
    equation), give bit-identical spectra, implicit restrictions and mls
    and constrained fits; stack_sur decomposes the one block once."""
    rng = np.random.default_rng(26)
    layout, _, blocks, explicit = _adding_up_system(rng, order, m=20)
    block, count = blocks[0], (layout.m if order == PERIOD_MAJOR else layout.n)
    beta = rng.normal(size=(layout.num_params, 1))
    explicit = LinearRestrictions.build(explicit.R, explicit.R @ beta)
    # errors in the block's range, so either form admits the responses
    noise = block @ rng.normal(size=(len(block), count))
    errors = noise.T if order == PERIOD_MAJOR else noise
    responses = [x @ beta[cols] + errors[:, i:i + 1] for i, (x, cols)
                 in enumerate(zip(layout.block_design, layout.column_slices()))]
    eighs = _counting(monkeypatch, "eigh", lambda shape: True)
    one = stack_sur(layout, responses, block, order=order)
    assert eighs == [(1, *block.shape)]
    many = stack_sur(layout, responses, [block] * count, order=order)
    np.testing.assert_array_equal(one.dispersion, many.dispersion)
    assert (one.spectrum.rank, one.spectrum.tolerance_used) \
        == (many.spectrum.rank, many.spectrum.tolerance_used)
    for view in ("eigenvalues_pos", "eigenvectors_pos", "eigenvectors_null"):
        np.testing.assert_array_equal(getattr(one.spectrum, view),
                                      getattr(many.spectrum, view))
    for actual, expected in zip(_fitted(one, explicit), _fitted(many, explicit)):
        np.testing.assert_array_equal(actual, expected)


# The forms one dispersion block may take: alone as an array or a nested
# list, or repeated into a list or a 3-d array of ``count`` blocks.
_BLOCK_FORMS = {
    "ndarray": lambda block, count: block,
    "nested-list": lambda block, count: block.tolist(),
    "list": lambda block, count: [block] * count,
    "3-d-array": lambda block, count: np.stack([block] * count),
}


def _read_block_forms(make):
    """Spectrum, Theil witness and panel eigenpairs from stack_sur,
    check_theil_condition and build_fe_model, each given its one block
    in the form ``make(block, count)``."""
    rng = np.random.default_rng(27)
    layout, responses, blocks, _ = _adding_up_system(rng, PERIOD_MAJOR, m=6)
    # an intercept in every equation: a cross-equation Theil witness
    theil = SURLayout.build([np.hstack([np.ones((6, 1)), x[:, 1:]])
                             for x in layout.block_design])
    n, m = 3, 5
    designs = [rng.normal(size=(m, 2)) for _ in range(n)]
    panel_responses = [rng.normal(size=(m, 1)) for _ in range(n)]
    model = stack_sur(layout, responses, make(blocks[0], layout.m), order=PERIOD_MAJOR)
    witness = check_theil_condition(theil, make(blocks[0], layout.m))
    panel = build_fe_model(designs, panel_responses, make(random_spd(rng, m), n))
    spectrum = model.spectrum
    return witness.kind, [
        model.dispersion, spectrum.eigenvalues_pos, spectrum.eigenvectors_pos,
        spectrum.eigenvectors_null, witness.d, witness.s, witness.a,
        np.broadcast_to(panel.sigmas, (n, m, m)),
        np.broadcast_to(panel.eigenvalues, (n, m)),
        np.broadcast_to(panel.eigenvectors, (n, m, m))]


@pytest.mark.parametrize("form", sorted(_BLOCK_FORMS))
def test_every_entry_point_reads_the_same_block_forms(form):
    """A 2-d array, a 2-d nested list, a list of blocks and a 3-d array give
    bit-identical spectra, witnesses and panel eigenpairs."""
    kind, arrays = _read_block_forms(_BLOCK_FORMS[form])
    want_kind, want = _read_block_forms(_BLOCK_FORMS["ndarray"])
    assert kind is want_kind is WitnessKind.CROSS_EQUATION_COMBINATION
    for actual, expected in zip(arrays, want):
        np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("value", [None, 2.0, np.array(2.0)],
                         ids=["None", "float", "0-d-array"])
def test_every_entry_point_refuses_what_is_no_block(value):
    rng = np.random.default_rng(28)
    layout, responses, _, _ = _adding_up_system(rng, PERIOD_MAJOR, m=6)
    designs = [rng.normal(size=(5, 2)) for _ in range(3)]
    panel_responses = [rng.normal(size=(5, 1)) for _ in range(3)]
    for name, call in (
            ("dispersion", lambda: stack_sur(layout, responses, value)),
            ("dispersion", lambda: check_theil_condition(layout, value)),
            ("sigma", lambda: build_fe_model(designs, panel_responses, value))):
        with pytest.raises(DimensionMismatchError,
                           match=f"^{name} must be 2-dimensional, got ndim=0$"):
            call()


def test_period_major_stack_sur_never_assembles_the_dispersion(monkeypatch):
    from gmls import model as model_module

    def refuse(*args, **kwargs):
        raise AssertionError("the stacked dispersion was assembled or decomposed")
    layout, responses, blocks, _ = _adding_up_system(np.random.default_rng(23), PERIOD_MAJOR)
    monkeypatch.setattr(model_module, "_block_diag", refuse)
    monkeypatch.setattr(model_module, "spectral_decompose", refuse)
    eighs = _counting(monkeypatch, "eigh", lambda shape: True)
    stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)
    assert eighs == [(50, 4, 4)]


def test_stack_sur_keeps_its_own_copy_of_an_array_of_blocks():
    layout, responses, blocks, _ = _adding_up_system(np.random.default_rng(25), PERIOD_MAJOR)
    stack = np.array(blocks)
    model = stack_sur(layout, responses, stack, order=PERIOD_MAJOR)
    stack *= 2.0
    np.testing.assert_array_equal(model.dispersion, _block_diag(*blocks))


def test_sur_fit_stays_below_the_size_of_the_stacked_dispersion():
    """At n = 4 and m = 500 the stacked dispersion alone is 2000^2 * 8 B =
    32 MB; stack_sur, the implicit restrictions and both fits peak under
    half of that."""
    import tracemalloc

    layout, responses, blocks, explicit = _adding_up_system(
        np.random.default_rng(24), PERIOD_MAJOR, m=500)
    tracemalloc.start()
    try:
        model = stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)
        _fitted(model, explicit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_sur_fit_and_theil_check_stay_at_the_size_of_the_blocks():
    """At n = 4 and m = 500 the dense null basis A alone is 2000 * 500 * 8 B
    = 7.6 MiB; stack_sur, the implicit restrictions, both fits and the
    Theil check build no T x (T - rank) array and peak under 2 MiB."""
    import tracemalloc

    layout, responses, blocks, explicit = _adding_up_system(
        np.random.default_rng(24), PERIOD_MAJOR, m=500)
    tracemalloc.start()
    try:
        model = stack_sur(layout, responses, blocks, order=PERIOD_MAJOR)
        _fitted(model, explicit)
        witness = check_theil_condition(layout, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.kind is WitnessKind.NONE
    assert peak < 2 * 2 ** 20


def test_extract_sur_blocks_roundtrip():
    rng = np.random.default_rng(13)
    layout, responses = _sur_parts(rng)
    n, m = layout.n, layout.m
    sigma = random_spd(rng, n)
    model = stack_sur(layout, responses, [sigma] * m, order=PERIOD_MAJOR)
    for i, (block, resp) in enumerate(extract_sur_blocks(model, layout)):
        np.testing.assert_allclose(block, layout.block_design[i], atol=1e-14)
        np.testing.assert_allclose(resp, responses[i], atol=1e-14)


def test_extract_requires_recorded_order():
    rng = np.random.default_rng(14)
    y, x, omega = _simple_model(rng, t_dim=6, k_dim=2)
    model = build_model(y, x, omega)
    layout = SURLayout.build([rng.normal(size=(3, 1)), rng.normal(size=(3, 1))])
    with pytest.raises(ValueError):
        extract_sur_blocks(model, layout)


def test_linear_restrictions_build_validates():
    res = LinearRestrictions.build(np.array([[1.0, -1.0]]), np.array([[0.0]]))
    assert res.count == 1 and res.num_params == 2
    with pytest.raises(DimensionMismatchError):
        LinearRestrictions.build(np.ones((2, 3)), np.zeros((1, 1)))
    empty = LinearRestrictions.empty(4)
    assert empty.count == 0 and empty.num_params == 4


# Constructor signatures of the plain record classes, annotations dropped:
# the parameter names, order and defaults every caller relies on.
RECORD_SIGNATURES = {
    "spectral.SpectralDecomposition": "(source_dim, blocks, order_pos, order_null, "
                                      "eigenvalues_pos, rank, tolerance_used, dense=False)",
    "spectral.RankReport": "(numeric_rank, values, tolerance, deficient)",
    "model.LinearRestrictions": "(R, r)",
    "model.SURLayout": "(block_design)",
    "identify.ImplicitRestrictions": "(G, g)",
    "identify.TheilWitness": "(kind, d, s, a, violating_equation=None, note='')",
    "methods.Method": "(fit, kind, needs=())",
    "panel.Theorem5Report": "(fe_gls, fe_mls, beta_gap, projector_gap, tolerance, "
                            "beta_equal, projector_equal)",
    "montecarlo.SimulationConfig": "(scenario, replications, seed, n=3, m=4, "
                                   "coeff_count=3, sigma2=1.0)",
    "montecarlo.Instance": "(replication, true_beta, model=None, panel=None, "
                           "restrictions=None, layout=None)",
    "montecarlo.MCReport": "(scenario, estimator, replications, seed, true_beta, "
                           "mean_beta, bias, mc_se, sample_covariance, "
                           "theoretical_covariance, covariance_se, unbiased, covariance_ok)",
    "montecarlo._Structure": "(kind, true_beta, sigma2, template, restrictions=None, "
                             "layout=None, *, rng)",
}


# Signatures of the entry points whose inputs each come one way.
ENTRY_SIGNATURES = {
    "estimators.ridge": "(model, psi, tol=None)",
    "estimators.stochastic_restricted_gls": "(model, restrictions, theta, tol=None)",
    "model.build_model": "(y, X, dispersion, sigma2=None, tol=None)",
}


@pytest.mark.parametrize("path", sorted(ENTRY_SIGNATURES))
def test_entry_points_keep_their_signatures(path):
    module, name = path.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"gmls.{module}"), name)
                               ).parameters.values()
    bare = inspect.Signature([p.replace(annotation=p.empty) for p in params])
    assert str(bare) == ENTRY_SIGNATURES[path]


@pytest.mark.parametrize("path", sorted(RECORD_SIGNATURES))
def test_record_constructors_keep_their_signatures(path):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"gmls.{module}"), name)
    params = list(inspect.signature(cls).parameters.values())
    bare = inspect.Signature([p.replace(annotation=p.empty) for p in params])
    assert str(bare) == RECORD_SIGNATURES[path]
    values = {p.name: object() for p in params}
    positional = [values[p.name] for p in params if p.kind == p.POSITIONAL_OR_KEYWORD]
    keyword_only = {p.name: values[p.name] for p in params if p.kind == p.KEYWORD_ONLY}
    for record in (cls(*positional, **keyword_only), cls(**values)):
        assert all(getattr(record, key) is value for key, value in values.items())
    required = {p.name: values[p.name] for p in params if p.default is p.empty}
    record = cls(**required)
    assert all(getattr(record, p.name) == p.default for p in params
               if p.default is not p.empty)


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    rng = np.random.default_rng(30)
    model = build_model(*_simple_model(rng))
    combined = combine_restrictions(LinearRestrictions.empty(3),
                                    extract_implicit_restrictions(model))
    panel = build_fe_model([rng.normal(size=(4, 2)) for _ in range(3)],
                           [rng.normal(size=4) for _ in range(3)], sigma=random_spd(rng, 4))
    for record in (model, combined, mls(model), panel):
        assert record == record and record != replace(record)
        assert hash(record) == hash(record)
