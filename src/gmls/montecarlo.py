"""Monte Carlo verification of the estimator theory.

Replications use counter-based Philox (4x64, 10 rounds) streams: the
design of a scenario is drawn once from the stream keyed (seed, 0) and
held fixed across replications.  Replication j takes row j mod
STREAM_CHUNK of the one standard_normal((STREAM_CHUNK, r)) draw, r the
error rank, from the stream keyed (seed, 1 + j // STREAM_CHUNK).  Any
split of a study into replication ranges, in any order, therefore draws
the same data.  A study keys its design stream and then ceil(B / STREAM_CHUNK)
error streams on one rekeyed Philox, and draws a chunk only to the last
replication it serves.

A study stacks the responses of all its replications as the columns of
one T x B block and fits them with one estimator call, since every
estimator is affine in the response; generate_instance returns one
column of the same block.  The response block is the one T x B array a
draw allocates: z is scaled, multiplied out and shifted by the
noise-free response in place.  The study's spreads all come from one
deviation matrix of the B x K estimates.

Errors are always generated as F sqrt(Lambda) z with z standard normal,
F and Lambda from the spectral decomposition of the scenario dispersion.
Singular directions receive exactly zero variance, so data generated
under a singular dispersion satisfy its implicit restrictions to
machine precision.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import GMLSError, InvalidConfigError
from .methods import METHODS, MODEL, PANEL, SCENARIOS
from .model import (
    PERIOD_MAJOR,
    GaussMarkoffModel,
    LinearRestrictions,
    SURLayout,
    _block_diag,
    _period_rows,
    build_model,
)
from .panel import FEPanelModel, build_fe_model

(REGULAR_GLS, SINGULAR_ADDING_UP, COLLINEAR_RESTRICTED,
 FE_KRONECKER, FE_BLOCKDIAG) = SCENARIOS

# a study can supply restrictions, and no other input a method may need
MODEL_ESTIMATORS = tuple(name for name, method in METHODS.items()
                         if method.kind == MODEL and set(method.needs) <= {"restrictions"})
PANEL_ESTIMATORS = tuple(name for name, method in METHODS.items() if method.kind == PANEL)
_DATA = {MODEL: GaussMarkoffModel, PANEL: FEPanelModel}

DEFAULT_ESTIMATOR = {
    REGULAR_GLS: "gls",
    SINGULAR_ADDING_UP: "constrained",
    COLLINEAR_RESTRICTED: "constrained",
    FE_KRONECKER: "fe-gls",
    FE_BLOCKDIAG: "fe-gls",
}

# Threshold, in Monte Carlo standard errors, for the bias and covariance
# checks.  Four keeps the false-alarm rate per scalar check around 6e-5.
SE_MULTIPLE = 4.0

# Replications per keyed error stream; fixing it fixes the random numbers.
STREAM_CHUNK = 256


class SimulationConfig:
    """Scenario description.

    ``coeff_count`` is per equation for the SUR scenario
    (singular-adding-up) and the total otherwise.  ``true_beta``
    overrides the default deterministic coefficient pattern; the
    collinear scenario adjusts the pattern so its restriction holds in
    truth.
    """

    def __init__(self, scenario: str, replications: int, seed: int, n: int = 3,
                 m: int = 4, coeff_count: int = 3, sigma2: float = 1.0,
                 true_beta: tuple | None = None):
        self.scenario = scenario
        self.replications = replications
        self.seed = seed
        self.n = n
        self.m = m
        self.coeff_count = coeff_count
        self.sigma2 = sigma2
        self.true_beta = true_beta

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise InvalidConfigError(f"unknown scenario {self.scenario!r}; "
                                     f"choose from {', '.join(SCENARIOS)}")
        if self.replications < 2:
            # one replication has no sample dispersion to check
            raise InvalidConfigError("replications must be at least 2")
        if self.n < 2 or self.m < 2 or self.coeff_count < 1:
            raise InvalidConfigError("dimensions must satisfy n >= 2, m >= 2, K >= 1")
        if self.sigma2 <= 0:
            raise InvalidConfigError("sigma2 must be positive")
        if self.scenario == COLLINEAR_RESTRICTED and self.coeff_count < 2:
            raise InvalidConfigError("collinear scenario needs at least 2 coefficients")
        if self.scenario == SINGULAR_ADDING_UP and self.n * self.coeff_count <= self.m:
            # with m implicit adding-up rows and K <= m parameters the
            # restrictions determine the estimate completely; the study
            # would measure nothing but rounding noise
            raise InvalidConfigError(
                "adding-up scenario needs n*coeff_count > m so some "
                "coefficient directions remain free")


class Instance:
    """One replication's data set."""

    def __init__(self, replication: int, true_beta: np.ndarray,
                 model: GaussMarkoffModel | None = None,
                 panel: FEPanelModel | None = None,
                 restrictions: LinearRestrictions | None = None,
                 layout: SURLayout | None = None):
        self.replication = replication
        self.true_beta = true_beta
        self.model = model
        self.panel = panel
        self.restrictions = restrictions
        self.layout = layout


class MCReport:
    """Aggregated Monte Carlo results for one estimator.

    ``mc_se`` are the standard errors of the estimated means;
    ``covariance_se`` the delete-one jackknife standard errors of the
    sample covariance entries.  ``covariance_ok`` is None when the
    estimator's theoretical covariance is not checked.
    """

    def __init__(self, scenario: str, estimator: str, replications: int, seed: int,
                 true_beta: np.ndarray, mean_beta: np.ndarray, bias: np.ndarray,
                 mc_se: np.ndarray, sample_covariance: np.ndarray,
                 theoretical_covariance: np.ndarray | None,
                 covariance_se: np.ndarray | None, unbiased: bool,
                 covariance_ok: bool | None):
        self.scenario = scenario
        self.estimator = estimator
        self.replications = replications
        self.seed = seed
        self.true_beta = true_beta
        self.mean_beta = mean_beta
        self.bias = bias
        self.mc_se = mc_se
        self.sample_covariance = sample_covariance
        self.theoretical_covariance = theoretical_covariance
        self.covariance_se = covariance_se
        self.unbiased = unbiased
        self.covariance_ok = covariance_ok

    @property
    def passed(self) -> bool:
        return self.unbiased and self.covariance_ok is not False


def _rng(seed: int, stream: int) -> np.random.Generator:
    # key=0 spares deriving a key from the seed sequence; _key sets the real one
    return _key(np.random.Generator(np.random.Philox(key=0)), seed, stream)


def _key(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """``rng`` reset to what a fresh Philox(key=(seed, stream)) reports."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": (seed % 2**64, stream)},
        "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _default_beta(k_total: int) -> np.ndarray:
    return 1.0 + 0.25 * np.arange(k_total, dtype=float)


def _random_spd(rng: np.random.Generator, dim: int,
                lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = rng.uniform(lo, hi, size=dim)
    return (q * lam) @ q.T


class _Structure:
    """Replication-invariant part of a scenario.

    ``template`` is the model or panel with the noise-free response
    (X beta, plus the effects for a panel); the replications swap in
    their block of responses and keep the template's decomposed
    dispersion.  ``rng`` is the generator that drew the design, which
    the error draws rekey.
    """

    def __init__(self, kind: str, true_beta: np.ndarray, sigma2: float,
                 template: GaussMarkoffModel | FEPanelModel,
                 restrictions: LinearRestrictions | None = None,
                 layout: SURLayout | None = None, *, rng: np.random.Generator):
        self.kind = kind
        self.true_beta = true_beta
        self.sigma2 = sigma2
        self.template = template
        self.restrictions = restrictions
        self.layout = layout
        self.rng = rng


def _build_structure(config: SimulationConfig) -> _Structure:
    config.validate()
    rng = _rng(config.seed, 0)
    n, m, kw = config.n, config.m, config.coeff_count
    t_dim = n * m
    if config.scenario == SINGULAR_ADDING_UP:
        k_total = n * kw
    else:
        k_total = kw
    beta0 = np.asarray(config.true_beta, dtype=float) if config.true_beta is not None \
        else _default_beta(k_total)
    if beta0.shape != (k_total,):
        raise InvalidConfigError(f"true_beta must have {k_total} entries")

    if config.scenario in (FE_KRONECKER, FE_BLOCKDIAG):
        if m <= 1 or n * (m - 1) <= k_total:
            raise InvalidConfigError("need n*(m-1) > coefficient count for FE scenarios")
        designs = tuple(rng.normal(size=(m, k_total)) for _ in range(n))
        effects = rng.uniform(-1.0, 1.0, size=(n, 1))
        responses = [x_i @ beta0.reshape(-1, 1) + effects[i, 0]
                     for i, x_i in enumerate(designs)]
        if config.scenario == FE_KRONECKER:
            sigma = {"sigma": _random_spd(rng, m)}
        else:
            sigma = {"sigma_blocks": [_random_spd(rng, m) for _ in range(n)]}
        return _Structure(kind=config.scenario, true_beta=beta0, sigma2=config.sigma2,
                          template=build_fe_model(designs, responses, **sigma), rng=rng)

    restrictions = layout = ordering = None
    if config.scenario == SINGULAR_ADDING_UP:
        layout = SURLayout.build([rng.normal(size=(m, kw)) for _ in range(n)])
        a = np.full((n, 1), 1.0 / np.sqrt(n))
        proj = np.eye(n) - a @ a.T
        blocks = [proj @ np.diag(rng.uniform(0.5, 1.5, size=n)) @ proj
                  for _ in range(m)]
        design = _period_rows(layout).reshape(t_dim, -1)
        omega = _block_diag(*blocks)
        ordering = PERIOD_MAJOR
    else:
        if t_dim <= k_total:
            raise InvalidConfigError("need n*m > coefficient count")
        design = rng.normal(size=(t_dim, k_total))
        if config.scenario == COLLINEAR_RESTRICTED:
            design[:, -1] = design[:, 0]  # exact collinearity
            beta0 = beta0.copy()
            beta0[-1] = beta0[0]  # the repairing restriction holds in truth
            restr = np.zeros((1, k_total))
            restr[0, 0], restr[0, -1] = 1.0, -1.0
            restrictions = LinearRestrictions.build(restr, np.zeros((1, 1)))
        omega = _random_spd(rng, t_dim)
    template = build_model(design @ beta0.reshape(-1, 1), design, omega,
                           sigma2=config.sigma2, ordering=ordering)
    return _Structure(kind=config.scenario, true_beta=beta0, sigma2=config.sigma2,
                      template=template, restrictions=restrictions, layout=layout, rng=rng)


def _draw_errors(vectors, values, blocks: int, sigma2: float, seed: int, first: int,
                 count: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Errors F_i sqrt(Lambda_i) z_i of replications first, ..., first + count - 1,
    ``blocks`` T_i x count blocks stacked in turn; ``vectors`` (T_i x r) and
    ``values`` (r), or stacks of one or ``blocks`` of each, hold F_i and Lambda_i.
    Replication j's row of z holds the z of every block in turn.  One Philox,
    ``rng`` or a new one, rekeyed per chunk, draws each chunk only to the last
    replication asked for.  z and the returned product are scaled in place."""
    if rng is None:
        rng = _rng(seed, 0)
    z = np.empty((first % STREAM_CHUNK + count, blocks * values.shape[-1]))
    for start in range(0, len(z), STREAM_CHUNK):
        _key(rng, seed, 1 + (first + start) // STREAM_CHUNK)
        rng.standard_normal(out=z[start:start + STREAM_CHUNK])
    scaled = z[len(z) - count:].T.reshape(blocks, -1, count)
    scaled *= np.sqrt(values)[..., None]
    errors = vectors @ scaled
    errors *= np.sqrt(sigma2)
    return errors.reshape(-1, count)


def _draw(structure: _Structure, config: SimulationConfig, first: int, count: int):
    """The model or panel of replications first, ..., first + count - 1,
    with one response column per replication: the drawn errors, shifted
    in place by the noise-free response."""
    template = structure.template
    if isinstance(template, FEPanelModel):
        # a Kronecker panel's one block of eigenpairs serves every equation
        factors = template.eigenvectors, template.eigenvalues, template.n
    else:
        factors = template.spectrum.eigenvectors_pos, template.spectrum.eigenvalues_pos, 1
    response = _draw_errors(*factors, structure.sigma2, config.seed, first, count,
                            structure.rng)
    response += template.y
    return dataclasses.replace(template, y=response)


def generate_instance(config: SimulationConfig, replication: int) -> Instance:
    """Data for one replication; the design parts never vary with it."""
    if replication < 0:
        raise InvalidConfigError("replication index must be nonnegative")
    structure = _build_structure(config)
    data = _draw(structure, config, replication, 1)
    if isinstance(data, FEPanelModel):
        return Instance(replication=replication, true_beta=structure.true_beta,
                        panel=data)
    return Instance(replication=replication, true_beta=structure.true_beta,
                    model=data, restrictions=structure.restrictions,
                    layout=structure.layout)


def _estimate(name: str, data, res: LinearRestrictions | None):
    """Fit ``data`` (a GaussMarkoffModel or an FEPanelModel) with ``name``;
    a name no study can run is judged as a model estimator."""
    method = METHODS[name] if name in MODEL_ESTIMATORS + PANEL_ESTIMATORS else None
    kind = MODEL if method is None else method.kind
    if not isinstance(data, _DATA[kind]):
        raise InvalidConfigError(f"estimator {name!r} needs a {kind} scenario")
    if method is None:
        raise InvalidConfigError(f"unknown estimator {name!r}")
    if "restrictions" in method.needs and res is None:
        raise InvalidConfigError(f"estimator {name!r} needs explicit restrictions")
    return method.fit(data, {"restrictions": res}, None)


def _jackknife_covariance_se(squares: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Delete-one jackknife SEs for each sample covariance entry, from the
    entrywise squares D * D and the Gram matrix D'D of the B x K deviations
    D of the estimates from their mean.

    Deleting replication i downdates the sample covariance S by a rank
    one term, cov_-i = (B-1)/(B-2) S - B/((B-1)(B-2)) d_i d_i' with d_i
    the deviation of estimate i from the mean, so the jackknife spread
    of entry (k, l) needs only sum_i (d_ik d_il)^2 and M = D'D/B.
    """
    reps = squares.shape[0]
    mean_outer = gram / reps
    # a sum of squares; rounding can take it just below zero
    spread = np.maximum(squares.T @ squares - reps * mean_outer * mean_outer, 0.0)
    return reps / ((reps - 1) * (reps - 2)) * np.sqrt((reps - 1) / reps * spread)


def run_study(config: SimulationConfig, estimator: str | None = None,
              bias_shift: float = 0.0) -> MCReport:
    """Estimate every replication of a study with one estimator call.

    The replications' responses form the columns of one block, fitted
    at once.  A refusal keeps its class and is prefixed with the first
    replication it concerns: the column a per-response check refused,
    replication 0 when the refusal does not depend on the response.

    ``bias_shift`` adds a constant to every estimate and exists as a
    negative control: any nonzero shift beyond the Monte Carlo noise
    must make the bias check fail.
    """
    structure = _build_structure(config)
    name = estimator if estimator is not None else DEFAULT_ESTIMATOR[structure.kind]
    reps = config.replications
    data = _draw(structure, config, 0, reps)
    try:
        result = _estimate(name, data, structure.restrictions)
    except GMLSError as exc:
        raise type(exc)(f"replication {exc.column or 0}: {exc}") from exc
    estimates = result.beta_hat.T + bias_shift
    theoretical = config.sigma2 * result.covariance_factor
    mean_beta = estimates.mean(axis=0)
    bias = mean_beta - structure.true_beta
    # one deviation matrix D serves np.std(ddof=1), np.cov and the jackknife,
    # each step the one those functions take, so every bit is theirs
    deviations = estimates - mean_beta
    squares, gram = deviations * deviations, deviations.T @ deviations
    mc_se = np.sqrt(squares.sum(axis=0) / (reps - 1)) / np.sqrt(reps)
    sample_cov = gram * (1.0 / (reps - 1))
    cov_se = None
    cov_ok = None
    if reps > 2:
        cov_se = _jackknife_covariance_se(squares, gram)
        cov_ok = bool(np.all(np.abs(sample_cov - theoretical)
                             <= SE_MULTIPLE * cov_se))
    unbiased = bool(np.all(np.abs(bias) <= SE_MULTIPLE * mc_se))
    return MCReport(scenario=structure.kind, estimator=name, replications=reps,
                    seed=config.seed, true_beta=structure.true_beta,
                    mean_beta=mean_beta, bias=bias, mc_se=mc_se,
                    sample_covariance=sample_cov,
                    theoretical_covariance=theoretical, covariance_se=cov_se,
                    unbiased=unbiased, covariance_ok=cov_ok)
