"""Simulation harness: determinism, data-generation exactness, checks."""

import warnings

import numpy as np
import pytest

from gmls import (
    DispersionSingularError,
    GMLSError,
    InvalidConfigError,
    LinearRestrictions,
    SimulationConfig,
    combine_restrictions,
    constrained_singular_gls,
    extract_implicit_restrictions,
    fe_gls,
    fe_mls,
    generate_instance,
    gls,
    mls,
    ols,
    rgls,
    rols,
    run_study,
    spectral_decompose,
    tkn,
)
from gmls import montecarlo
from gmls.montecarlo import (
    COLLINEAR_RESTRICTED,
    FE_BLOCKDIAG,
    FE_KRONECKER,
    MODEL_ESTIMATORS,
    PANEL_ESTIMATORS,
    REGULAR_GLS,
    SCENARIOS,
    SINGULAR_ADDING_UP,
    STREAM_CHUNK,
    _build_structure,
    _draw,
    _draw_errors,
    _estimate,
    _jackknife_covariance_se,
)

from oracles import (
    jackknife_covariance_se_direct,
    matrix_rank_svd,
    spectral_errors,
    study_spread,
)


def _cfg(scenario, reps=200, seed=314, **kw):
    defaults = {"n": 3, "m": 4, "coeff_count": 3}
    if scenario == SINGULAR_ADDING_UP:
        defaults["coeff_count"] = 2
    defaults.update(kw)
    return SimulationConfig(scenario=scenario, replications=reps, seed=seed,
                            **defaults)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        SimulationConfig(scenario="bogus", replications=10, seed=1).validate()
    with pytest.raises(InvalidConfigError):
        _cfg(REGULAR_GLS, reps=0).validate()
    with pytest.raises(InvalidConfigError):
        _cfg(COLLINEAR_RESTRICTED, coeff_count=1).validate()
    with pytest.raises(InvalidConfigError):
        # K = n * coeff_count <= m leaves no free directions
        _cfg(SINGULAR_ADDING_UP, coeff_count=1).validate()
    with pytest.raises(InvalidConfigError):
        _cfg(REGULAR_GLS, sigma2=0.0).validate()


def test_single_replication_is_refused():
    # one replication has no sample dispersion: refuse it up front rather
    # than report NaN standard errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match="at least 2"):
            _cfg(REGULAR_GLS, reps=1).validate()
        with pytest.raises(InvalidConfigError, match="at least 2"):
            run_study(_cfg(REGULAR_GLS, reps=1))
        assert run_study(_cfg(REGULAR_GLS, reps=2)).replications == 2


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_any_split_of_a_study_draws_the_same_errors(seed):
    """Replication j's z is row j mod STREAM_CHUNK of one
    standard_normal((STREAM_CHUNK, r)) draw keyed (seed, 1 + j // STREAM_CHUNK),
    whichever range of replications asks for it."""
    ranks = (4, 4)

    def z_rows(first, count):
        return _draw_errors(np.eye(4), np.ones(4), 2, 1.0, seed, first, count).T

    whole = z_rows(0, 857)
    for chunk in range(-(-857 // STREAM_CHUNK)):
        key = np.array([seed, 1 + chunk], dtype=np.uint64)
        draw = np.random.Generator(np.random.Philox(key=key)).standard_normal(
            (STREAM_CHUNK, sum(ranks)))
        rows = whole[chunk * STREAM_CHUNK:(chunk + 1) * STREAM_CHUNK]
        np.testing.assert_array_equal(rows, draw[:len(rows)])
    for first in (0, 255, 256, 257):
        for count in range(1, 601):
            np.testing.assert_array_equal(z_rows(first, count),
                                          whole[first:first + count])


@pytest.mark.parametrize("scenario", [FE_KRONECKER, FE_BLOCKDIAG])
def test_fe_draws_are_the_noise_free_panel_plus_spectral_errors(monkeypatch, scenario):
    """Equation i of replication j holds X_i beta + effect_i
    + sqrt(sigma2) F_i (sqrt(lambda_i) z_ji), F_i and lambda_i from
    spectral_decompose of sigma block i and z_j replication j's row of
    its keyed chunk, bit for bit, in a study and in generate_instance."""
    cfg = _cfg(scenario, reps=300, seed=21, sigma2=2.0)
    n, m, k = cfg.n, cfg.m, cfg.coeff_count
    # the design stream's draws, in _build_structure's order
    rng = montecarlo._rng(cfg.seed, 0)
    designs = [rng.normal(size=(m, k)) for _ in range(n)]
    effects = rng.uniform(-1.0, 1.0, size=(n, 1))
    blocks = [montecarlo._random_spd(rng, m)] * n if scenario == FE_KRONECKER \
        else [montecarlo._random_spd(rng, m) for _ in range(n)]
    beta = 1.0 + 0.25 * np.arange(k, dtype=float).reshape(-1, 1)
    z = np.vstack([montecarlo._rng(cfg.seed, 1 + c).standard_normal((STREAM_CHUNK, n * m))
                   for c in range(-(-cfg.replications // STREAM_CHUNK))])
    specs = [spectral_decompose(block) for block in blocks]

    def panel_y(rows):
        return np.vstack([x_i @ beta + effects[i, 0] + np.sqrt(cfg.sigma2) * (
            spec.eigenvectors_pos @ (np.sqrt(spec.eigenvalues_pos)[:, None]
                                     * rows[:, i * m:(i + 1) * m].T))
            for i, (x_i, spec) in enumerate(zip(designs, specs))])

    fitted = []
    real = montecarlo._estimate
    monkeypatch.setattr(montecarlo, "_estimate",
                        lambda name, data, res: fitted.append(data.y) or real(name, data, res))
    run_study(cfg)
    np.testing.assert_array_equal(fitted[0], panel_y(z[:cfg.replications]))
    for j in (0, 255, 256, 299):
        np.testing.assert_array_equal(generate_instance(cfg, j).panel.y,
                                      panel_y(z[j:j + 1]))


def _error_factors(template):
    if isinstance(template, montecarlo.FEPanelModel):
        return template.eigenvectors, template.eigenvalues, template.n
    return template.spectrum.eigenvectors_pos, template.spectrum.eigenvalues_pos, 1


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_draw_errors_are_the_out_of_place_product_bit_for_bit(scenario):
    """Scaling z, the product and sigma in place moves no bit."""
    cfg = _cfg(scenario, reps=600, seed=29, sigma2=2.5)
    vectors, values, blocks = _error_factors(_build_structure(cfg).template)
    z = np.vstack([montecarlo._rng(cfg.seed, 1 + c).standard_normal(
        (STREAM_CHUNK, blocks * values.shape[-1])) for c in range(3)])
    for first, count in ((0, 1), (0, 2), (0, 257), (0, 600), (255, 3), (300, 44)):
        np.testing.assert_array_equal(
            _draw_errors(vectors, values, blocks, cfg.sigma2, cfg.seed, first, count),
            spectral_errors(vectors, values, blocks, cfg.sigma2, z[first:first + count]))


def test_instances_are_deterministic():
    cfg = _cfg(REGULAR_GLS)
    a = generate_instance(cfg, 7)
    b = generate_instance(cfg, 7)
    np.testing.assert_array_equal(a.model.y, b.model.y)
    np.testing.assert_array_equal(a.model.X, b.model.X)


def test_design_fixed_across_replications():
    cfg = _cfg(REGULAR_GLS)
    a = generate_instance(cfg, 0)
    b = generate_instance(cfg, 1)
    np.testing.assert_array_equal(a.model.X, b.model.X)
    np.testing.assert_array_equal(a.model.dispersion, b.model.dispersion)
    assert float(np.max(np.abs(a.model.y - b.model.y))) > 1e-6


def test_different_seeds_differ():
    a = generate_instance(_cfg(REGULAR_GLS, seed=1), 0)
    b = generate_instance(_cfg(REGULAR_GLS, seed=2), 0)
    assert float(np.max(np.abs(a.model.X - b.model.X))) > 1e-6


def test_adding_up_null_directions_are_exact():
    """Errors carry零 variance along the dispersion null space, so the
    implicit restrictions hold to machine precision in every draw."""
    cfg = _cfg(SINGULAR_ADDING_UP)
    for rep in range(5):
        inst = generate_instance(cfg, rep)
        model = inst.model
        spec = spectral_decompose(model.dispersion)
        beta0 = inst.true_beta.reshape(-1, 1)
        gap = spec.eigenvectors_null.T @ (model.y - model.X @ beta0)
        assert float(np.max(np.abs(gap))) < 1e-10
        # per-period adding-up identity on the raw errors
        n = cfg.n
        u = (model.y - model.X @ beta0).reshape(cfg.m, n)
        a_vec = np.full(n, 1.0 / np.sqrt(n))
        assert float(np.max(np.abs(u @ a_vec))) < 1e-12


@pytest.mark.parametrize("seed", [1000038, 1000039])
def test_adding_up_studies_with_rounding_size_residuals_are_accepted(seed):
    """H = A'X is 4 x 6 of full row rank in these studies, so every column
    of h is consistent; a residual rule ||(I - U U') h_j|| <= cutoff_j
    refused 1006 and 2000 of their 2000 columns."""
    cfg = _cfg(SINGULAR_ADDING_UP, reps=2000, seed=seed)
    structure = _build_structure(cfg)
    model = _draw(structure, cfg, 0, cfg.replications)
    implicit = extract_implicit_restrictions(model)
    assert implicit.G.shape == (4, 6) and matrix_rank_svd(implicit.G) == 4
    combined = combine_restrictions(LinearRestrictions.empty(6), implicit)
    assert combined.consistent and combined.inconsistent_column is None
    assert run_study(cfg).replications == 2000


def test_collinear_instances_verify_rank_repair():
    cfg = _cfg(COLLINEAR_RESTRICTED)
    for rep in range(3):
        inst = generate_instance(cfg, rep)
        x = inst.model.X
        assert matrix_rank_svd(x) == cfg.coeff_count - 1
        stacked = np.vstack([inst.restrictions.R, x])
        assert matrix_rank_svd(stacked) == cfg.coeff_count
        # truth satisfies the repairing restriction
        np.testing.assert_allclose(
            inst.restrictions.R @ inst.true_beta.reshape(-1, 1),
            inst.restrictions.r, atol=1e-12)


def test_fe_instance_layout():
    cfg = _cfg(FE_BLOCKDIAG)
    inst = generate_instance(cfg, 0)
    assert inst.panel is not None
    assert inst.panel.n == cfg.n and inst.panel.m == cfg.m
    assert not inst.panel.kronecker


@pytest.mark.parametrize("scenario,estimator", [
    (REGULAR_GLS, None),
    (SINGULAR_ADDING_UP, None),
    (COLLINEAR_RESTRICTED, None),
    (FE_KRONECKER, "fe-gls"),
    (FE_KRONECKER, "fe-mls"),
    (FE_BLOCKDIAG, "fe-gls"),
])
def test_default_studies_pass(scenario, estimator):
    report = run_study(_cfg(scenario, reps=300), estimator)
    assert report.unbiased
    assert report.covariance_ok
    assert report.passed


def test_report_reproducibility():
    cfg = _cfg(REGULAR_GLS, reps=150)
    a = run_study(cfg)
    b = run_study(cfg)
    np.testing.assert_array_equal(a.mean_beta, b.mean_beta)
    np.testing.assert_array_equal(a.sample_covariance, b.sample_covariance)


def test_injected_bias_is_caught():
    # negative control for the unbiasedness check
    report = run_study(_cfg(REGULAR_GLS, reps=300), bias_shift=0.5)
    assert not report.unbiased
    assert not report.passed


def test_theoretical_covariance_is_sigma2_scaled():
    cfg = _cfg(REGULAR_GLS, reps=120, sigma2=2.5)
    report = run_study(cfg)
    inst = generate_instance(cfg, 0)
    from gmls import gls
    direct = gls(inst.model)
    np.testing.assert_allclose(report.theoretical_covariance,
                               2.5 * direct.covariance_factor, atol=1e-10)


def test_gls_not_less_efficient_than_ols():
    """Sampling dispersion of GLS cannot exceed that of OLS."""
    cfg = _cfg(REGULAR_GLS, reps=600, seed=2718)
    trace_gls = float(np.trace(run_study(cfg, "gls").sample_covariance))
    trace_ols = float(np.trace(run_study(cfg, "ols").sample_covariance))
    assert trace_gls < trace_ols


def test_restricted_estimators_run_on_collinear_scenario():
    cfg = _cfg(COLLINEAR_RESTRICTED, reps=150)
    for name in ("rols", "rgls", "constrained"):
        report = run_study(cfg, name)
        assert report.unbiased, name


def test_tkn_refuses_collinear_scenario():
    # tkn requires the whitened design to have full column rank; a
    # deficient design repaired only through restrictions is outside its
    # preconditions
    from gmls import TheilRankConditionError
    with pytest.raises(TheilRankConditionError, match="replication 0:"):
        run_study(_cfg(COLLINEAR_RESTRICTED, reps=10), "tkn")


def test_estimator_scenario_mismatch():
    with pytest.raises(InvalidConfigError):
        run_study(_cfg(REGULAR_GLS, reps=100), "fe-gls")
    with pytest.raises(InvalidConfigError):
        run_study(_cfg(FE_KRONECKER, reps=100), "gls")
    with pytest.raises(InvalidConfigError):
        run_study(_cfg(REGULAR_GLS, reps=100), "rols")  # no restrictions exist
    with pytest.raises(InvalidConfigError):
        run_study(_cfg(REGULAR_GLS, reps=100), "telepathy")


def test_estimator_failures_carry_replication_index():
    # plain GLS cannot run under a singular dispersion; the error should
    # keep its type and name the replication
    with pytest.raises(DispersionSingularError, match="replication 0:"):
        run_study(_cfg(SINGULAR_ADDING_UP, reps=10), "gls")


def test_response_dependent_failures_name_their_replication(monkeypatch):
    from gmls import InconsistentRestrictionsError, montecarlo

    def refuse(name, data, res):
        raise InconsistentRestrictionsError("no solution", column=3)
    monkeypatch.setattr(montecarlo, "_estimate", refuse)
    with pytest.raises(InconsistentRestrictionsError, match="^replication 3: no solution"):
        run_study(_cfg(SINGULAR_ADDING_UP, reps=10))


def _jackknife(estimates):
    """_jackknife_covariance_se of B x K estimates, from their deviations D."""
    dev = estimates - estimates.mean(axis=0)
    return _jackknife_covariance_se(dev * dev, dev.T @ dev)


def test_jackknife_variance_scale():
    """Jackknife SE of a sample variance tracks the classic 2 sigma^4 / R rate."""
    rng = np.random.default_rng(99)
    reps = 2000
    draws = rng.normal(size=(reps, 1))
    se = _jackknife(draws)[0, 0]
    expected = np.sqrt(2.0 / reps)  # sigma = 1
    assert 0.5 * expected < se < 2.0 * expected


@pytest.mark.parametrize("reps", [3, 50, 2000])
def test_jackknife_closed_form_matches_all_delete_one_covariances(reps):
    rng = np.random.default_rng(1200 + reps)
    for _ in range(5):
        draws = rng.normal(size=(reps, 6)) * rng.uniform(0.1, 3.0, size=6) \
            + rng.normal(size=6)
        se = _jackknife(draws)
        assert np.all(np.isfinite(se))
        assert _relative_gap(se, jackknife_covariance_se_direct(draws)) <= 1e-12


def test_jackknife_closed_form_on_a_rank_deficient_study():
    """The collinear-restricted study ties its first and last coefficients,
    so the sample covariance of its estimates is singular."""
    cfg = _cfg(COLLINEAR_RESTRICTED, reps=500, seed=77)
    structure = _build_structure(cfg)
    fit = _estimate("constrained", _draw(structure, cfg, 0, cfg.replications),
                    structure.restrictions)
    estimates = fit.beta_hat.T
    assert matrix_rank_svd(np.cov(estimates.T)) < estimates.shape[1]
    se = _jackknife(estimates)
    assert np.all(np.isfinite(se))
    assert _relative_gap(se, jackknife_covariance_se_direct(estimates)) <= 1e-12
    np.testing.assert_array_equal(run_study(cfg).covariance_se, se)


def test_jackknife_clamps_a_rounding_negative_spread():
    """Two-point estimates d_i = +-a give every delete-one covariance the
    same value, so the spread is zero and rounding can put it below zero;
    the SE must come out at rounding size (the root of a rounding-size
    spread), never NaN."""
    rng = np.random.default_rng(55)
    negative = 0
    for _ in range(200):
        reps = int(rng.choice([4, 8]))
        a, c = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
        draws = c + a * np.repeat([1.0, -1.0], reps // 2)[:, None]
        dev = draws - draws.mean(axis=0)
        squares = dev * dev
        mean_outer = dev.T @ dev / reps
        negative += int((squares.T @ squares - reps * mean_outer * mean_outer)[0, 0] < 0)
        se = _jackknife(draws)
        assert np.all(np.isfinite(se)) and float(se[0, 0]) <= 1e-6 * a * a
        assert float(jackknife_covariance_se_direct(draws)[0, 0]) <= 1e-6 * a * a
    assert negative > 0


@pytest.mark.parametrize("reps", [3, 257])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_study_spread_is_np_std_np_cov_and_the_jackknife_bit_for_bit(
        monkeypatch, scenario, reps):
    """One deviation matrix gives the bits of np.std(ddof=1), np.cov and a
    jackknife that takes the mean again."""
    fits = []
    real = montecarlo._estimate
    monkeypatch.setattr(montecarlo, "_estimate",
                        lambda name, data, res: fits.append(real(name, data, res)) or fits[-1])
    report = run_study(_cfg(scenario, reps=reps, seed=41, sigma2=2.5))
    mc_se, sample_cov, cov_se = study_spread(fits[0].beta_hat.T + 0.0)
    np.testing.assert_array_equal(report.mc_se, mc_se)
    np.testing.assert_array_equal(report.sample_covariance, sample_cov)
    np.testing.assert_array_equal(report.covariance_se, cov_se)


@pytest.mark.parametrize("scenario, bound", [(SINGULAR_ADDING_UP, 4.5), (FE_BLOCKDIAG, 2.1)])
def test_a_study_makes_each_response_sized_array_once(scenario, bound):
    """The traced peak of a 2000-replication draw and fit, in units of one
    T x B float block, at the CLI's dimensions (n = 3, m = 4, T = 12).

    singular-adding-up (rank r = 8, q = 4 null rows, K = 6) peaks in the
    core's G ((F'y - F'X beta*) / Lambda^{1/2}), holding the response (1),
    the model's A'y, which is h (q/T), and F'y (r/T), the coordinates
    (U_r'h) / s (q/T), beta* (K/T), the step (r/T) and beta_hat (K/T):
    (T + 2q + 2r + 2K)/T = 4.00.
    fe-blockdiag (K = 3) peaks in the draw, holding z (B x nm, 1) and its
    product, the response (1); the fit adds K x B estimates (0.25) to the
    response alone.  Residuals or a copy of the response push either over."""
    import tracemalloc

    cfg = _cfg(scenario, reps=2000, seed=5)
    structure = _build_structure(cfg)
    name = montecarlo.DEFAULT_ESTIMATOR[scenario]
    tracemalloc.start()
    try:
        _estimate(name, _draw(structure, cfg, 0, cfg.replications), structure.restrictions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * structure.template.num_obs * cfg.replications * 8


# ---------------------------------------------------------------------------
# one estimator call per study


def _fit_instance(name, inst):
    if name == "fe-gls":
        return fe_gls(inst.panel)
    if name == "fe-mls":
        return fe_mls(inst.panel)
    model, res = inst.model, inst.restrictions
    if name == "constrained":
        explicit = res if res is not None \
            else LinearRestrictions.empty(model.num_params)
        return constrained_singular_gls(
            model, combine_restrictions(explicit, extract_implicit_restrictions(model)))
    if name in ("rols", "rgls", "tkn"):
        return {"rols": rols, "rgls": rgls, "tkn": tkn}[name](model, res)
    return {"ols": ols, "gls": gls, "mls": mls}[name](model)


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_study_matches_a_loop_over_instances(scenario):
    """Every scenario/estimator pair run_study accepts reports what a loop
    of the same estimator over generate_instance reports; a pair it
    refuses is refused by the loop with the same class."""
    cfg = _cfg(scenario, reps=40, seed=2024, sigma2=1.7)
    accepted = 0
    for name in MODEL_ESTIMATORS + PANEL_ESTIMATORS:
        try:
            report = run_study(cfg, name)
        except GMLSError as exc:
            if isinstance(exc, InvalidConfigError):
                continue
            with pytest.raises(type(exc)):
                _fit_instance(name, generate_instance(cfg, 0))
            continue
        accepted += 1
        fits = [_fit_instance(name, generate_instance(cfg, j)) for j in range(40)]
        estimates = np.vstack([f.beta_hat.T for f in fits])
        assert _relative_gap(report.mean_beta, estimates.mean(axis=0)) <= 1e-12, name
        assert _relative_gap(report.sample_covariance,
                             np.cov(estimates.T, ddof=1)) <= 1e-12, name
        assert _relative_gap(report.theoretical_covariance,
                             1.7 * fits[0].covariance_factor) <= 1e-12, name
    assert accepted >= 2


def _count_kernels(monkeypatch):
    calls = []
    for name in ("svd", "qr", "eigh", "cholesky"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_study_factorizations_do_not_grow_with_replications(monkeypatch, scenario):
    calls = _count_kernels(monkeypatch)
    counts = []
    for reps in (50, 500):
        del calls[:]
        run_study(_cfg(scenario, reps=reps))
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("reps", [50, STREAM_CHUNK, STREAM_CHUNK + 1, 2000])
@pytest.mark.parametrize("scenario", [SINGULAR_ADDING_UP, FE_BLOCKDIAG])
def test_study_keys_one_generator_per_chunk(monkeypatch, scenario, reps):
    """A study keys its design stream once and ceil(B / STREAM_CHUNK)
    error streams, one per chunk of replications, on one Philox bit
    generator: the design stream's, rekeyed for each chunk of errors."""
    streams, constructed = [], []
    real_key, real_philox = montecarlo._key, np.random.Philox

    def keyed(rng, seed, stream):
        streams.append(stream)
        return real_key(rng, seed, stream)

    def counted(*args, **kwargs):
        constructed.append(args)
        return real_philox(*args, **kwargs)
    monkeypatch.setattr(montecarlo, "_key", keyed)
    monkeypatch.setattr(np.random, "Philox", counted)
    run_study(_cfg(scenario, reps=reps))
    chunks = -(-reps // STREAM_CHUNK)
    assert sorted(streams) == list(range(chunks + 1))
    assert len(constructed) == 1


class _CountingGenerator:
    """A generator that records the size of each standard_normal draw."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        self._sizes.append(out.size if out is not None else int(np.prod(size)))
        return self._rng.standard_normal(size, dtype, out)


@pytest.mark.parametrize("scenario", [SINGULAR_ADDING_UP, FE_BLOCKDIAG])
def test_a_draw_requests_only_the_rows_it_uses(monkeypatch, scenario):
    """A chunk is drawn from its row 0 to the last replication asked for:
    B replications request B r normals, not ceil(B / STREAM_CHUNK)
    STREAM_CHUNK r, and replication j alone (j mod STREAM_CHUNK + 1) r."""
    sizes = []
    real_rng = montecarlo._rng
    monkeypatch.setattr(montecarlo, "_rng",
                        lambda seed, stream: _CountingGenerator(real_rng(seed, stream), sizes))
    cfg = _cfg(scenario, reps=2000)
    template = _build_structure(cfg).template
    rank = template.eigenvalues.shape[-1] * template.n if scenario == FE_BLOCKDIAG \
        else template.spectrum.rank
    run_study(cfg)
    assert sum(sizes) == 2000 * rank
    del sizes[:]
    generate_instance(cfg, 300)
    assert sum(sizes) == (300 % STREAM_CHUNK + 1) * rank
