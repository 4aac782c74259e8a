"""The benchmark workloads: what one call does and how its output is checked.

Each workload is a closed loop with one client: the next call starts when
the previous one has returned.  ``inputs(i)`` builds the inputs of call i
from the workload seed (untimed), ``call`` is the timed part and completes
``ops_per_call`` operations, ``check`` judges one call's output against a
reference that does not come from the code under test.  Checks run after
the timed loop, so references never enter the timed region or the
measured peak memory.

Library calls go through attributes of the ``gmls`` package looked up at
call time, so the tracer's patches take effect.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import gmls

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
ORACLES = os.path.join(ROOT, "tests", "oracles.py")

TRACE_MARKER = "gmls-bench-trace "

# Four golden invocations of the CLI test-suite plus a constrained SUR
# estimate that has no golden; every one exits 0 on the committed fixtures.
CLI_COMMANDS = (
    ("golden_estimate.json",
     ("estimate", "--design", "design.csv", "--response", "response.csv",
      "--dispersion", "dispersion.csv", "--restrictions", "restrictions.csv",
      "--method", "rgls", "--output", "machine")),
    ("golden_diagnose.json",
     ("diagnose", "--design", "design.csv", "--response", "response.csv",
      "--dispersion", "dispersion.csv", "--restrictions", "restrictions.csv",
      "--output", "machine")),
    ("golden_panel.json",
     ("panel", "--panel", "panel.csv", "--sigma", "panel_sigma.csv",
      "--output", "machine")),
    ("golden_simulate.json",
     ("simulate", "--scenario", "regular-gls", "--reps", "120", "--seed", "7",
      "--output", "machine")),
    (None,
     ("estimate", "--sur", "sur_ok.csv", "--sigma", "sigma.csv",
      "--method", "constrained", "--output", "machine")),
)

# Numbers in CLI output may move in their last bits when a later change
# regenerates the goldens; a wrong result moves them far more than this.
CLI_TOL = 1e-8

# Replications per run_study call.  Large studies keep the per-study set-up
# (design draw, aggregation) a small, fixed share of the call.
MC_REPS = 2000
# MCReport.passed tests at 4 Monte Carlo standard errors, a false alarm
# about once in 300 studies of this size; a benchmark run thousands of
# times checks the same report fields at 6, where a correct program fails
# about once in 10^7 studies and a 0.1 bias is still far outside.
MC_SE_MULTIPLE = 6.0

SUR_EQUATIONS, SUR_PERIODS, SUR_COEFFS = 4, 500, 3
DENSE_T, DENSE_K, DENSE_NULL, DENSE_COND = 1000, 10, 5, 1e7
# Agreement of a fit with its independent reference, relative to the
# largest reference coefficient.
FIT_RTOL = 1e-6
# Noise-free fit-dense: the error of a normal-equations solve grows like
# cond(X)^2 * eps, about 1e-2 here; a wrong solve is off by order one.
DENSE_BETA_TOL = 0.1


def load_oracles():
    """The test-suite's independent reference algorithms."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("gmls_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def numbers_match(expected, actual, tol: float = CLI_TOL) -> bool:
    """Structural equality of two JSON documents, numbers within tol."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and expected.keys() == actual.keys() \
            and all(numbers_match(expected[k], actual[k], tol) for k in expected)
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) \
            and all(numbers_match(e, a, tol) for e, a in zip(expected, actual))
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return expected == actual
    return isinstance(actual, (int, float)) and not isinstance(actual, bool) \
        and math.isclose(expected, actual, rel_tol=tol, abs_tol=tol)


def child_env() -> dict:
    """Environment of a gmls child: the checkout's src/ first on the path.

    Bytecode caching stays on, as in an installed package, so every child
    but the first imports gmls from its cached bytecode.
    """
    env = os.environ.copy()
    env.pop("GMLS_TOL", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
    return env


def _period_major(designs, responses):
    """Stacked y and X of a SUR system, rows ordered (period, equation)."""
    n, (m, _) = len(designs), designs[0].shape
    widths = [d.shape[1] for d in designs]
    x = np.zeros((m, n, sum(widths)))
    start = 0
    for i, (d, w) in enumerate(zip(designs, widths)):
        x[:, i, start:start + w] = d
        start += w
    y = np.stack([np.ravel(r) for r in responses], axis=1)
    return y.reshape(n * m, 1), x.reshape(n * m, -1)


class Workload:
    """Defaults: one operation per call, any call may end the loop, and the
    call times are rescaled by the calibration kernel (see run.py)."""

    ops_per_call = 1
    cycle = 1
    rescaled = True

    def extra_metrics(self, ops: int) -> dict:
        return {}

    def close(self) -> None:
        pass


class CliFixtures(Workload):
    """Fresh ``python -m gmls`` processes on the committed fixtures."""

    name = "cli-fixtures"
    op_name = "invocation"
    cycle = len(CLI_COMMANDS)

    def __init__(self, seed: int, references=None):
        self.seed = seed
        self.env = child_env()
        self.references = references if references is not None else self._references()
        self.startup = []
        self.peak_rss_kb = 0
        self._spawner = None

    def _references(self):
        refs = []
        for golden, _ in CLI_COMMANDS:
            if golden is None:
                refs.append(self._sur_reference())
            else:
                with open(os.path.join(FIXTURES, golden)) as f:
                    refs.append(json.load(f))
        return refs

    @staticmethod
    def _sur_reference():
        """Constrained estimate of the SUR fixture by reparametrization.

        The per-period block is the same in every period, so the stacked
        dispersion is I (x) Sigma, its pseudo-inverse I (x) Sigma^+ and its
        null space I (x) null(Sigma).
        """
        import scipy.linalg

        oracles = load_oracles()
        table = np.loadtxt(os.path.join(FIXTURES, "sur_ok.csv"), delimiter=",", skiprows=1)
        sigma = np.loadtxt(os.path.join(FIXTURES, "sigma.csv"), delimiter=",")
        equations = np.unique(table[:, 0])
        periods = np.unique(table[:, 1])
        designs, responses = [], []
        for eq in equations:
            rows = table[table[:, 0] == eq]
            rows = rows[np.argsort(rows[:, 1])]
            designs.append(rows[:, 3:])
            responses.append(rows[:, 2])
        y, x = _period_major(designs, responses)
        eye = np.eye(len(periods))
        a = np.kron(eye, scipy.linalg.null_space(sigma))
        weight = np.kron(eye, np.linalg.pinv(sigma, hermitian=True))
        h_mat, h_rhs = a.T @ x, a.T @ y
        beta = oracles.constrained_wls(y, x, weight, h_mat, h_rhs)
        return {"coefficients": beta.ravel().tolist(), "H": h_mat, "h": h_rhs}

    def order(self, cycle_index: int):
        rng = np.random.default_rng([self.seed, cycle_index])
        return rng.permutation(self.cycle)

    def inputs(self, i: int) -> int:
        return int(self.order(i // self.cycle)[i % self.cycle])

    def call(self, k: int, traced: bool):
        args = CLI_COMMANDS[k][1]
        env = self.env
        if traced:
            env = dict(env, GMLS_BENCH_SPAWN=repr(time.time()))
            argv = [sys.executable, os.path.join(BENCH, "cli_child.py"), *args]
        else:
            argv = [sys.executable, "-m", "gmls", *args]
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, "-S", os.path.join(BENCH, "spawner.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._spawner.stdin.write(json.dumps({"argv": argv, "cwd": FIXTURES, "env": env}) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        self.peak_rss_kb = reply["peak_rss_kb"]
        summary = None
        stderr = reply["stderr"]
        if traced:
            kept = []
            for line in stderr.splitlines():
                if line.startswith(TRACE_MARKER):
                    summary = json.loads(line[len(TRACE_MARKER):])
                    self.startup.append(summary.pop("startup_s"))
                else:
                    kept.append(line)
            stderr = "\n".join(kept)
        if reply["code"] != 0:
            sys.stderr.write(f"cli {' '.join(args)} exited {reply['code']}: {stderr.strip()}\n")
        return (reply["code"], reply["stdout"]), summary

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=60)
            self._spawner.stdout.close()
            self._spawner = None

    def check(self, k: int, out) -> bool:
        returncode, stdout = out
        if returncode != 0:
            return False
        try:
            doc = json.loads(stdout)
        except ValueError:
            return False
        ref = self.references[k]
        if CLI_COMMANDS[k][0] is not None:
            return numbers_match(ref, doc)
        beta = np.array(doc.get("results", {}).get("coefficients", []), dtype=float)
        expected = np.array(ref["coefficients"])
        if beta.shape != expected.shape:
            return False
        residual = float(np.linalg.norm(ref["H"] @ beta.reshape(-1, 1) - ref["h"]))
        return numbers_match(ref["coefficients"], beta.tolist()) \
            and residual <= CLI_TOL * (1.0 + float(np.linalg.norm(ref["h"])))

    def extra_metrics(self, ops: int) -> dict:
        return {"cli.startup_s": sum(self.startup) / ops if self.startup else 0.0}


class MonteCarlo(Workload):
    """In-process run_study at the CLI's default dimensions."""

    op_name = "replication"
    ops_per_call = MC_REPS

    def __init__(self, name: str, scenario: str, coeff_count: int, seed: int,
                 bias_shift: float = 0.0):
        self.name = name
        self.scenario = scenario
        self.coeff_count = coeff_count
        self.seed = seed
        self.bias_shift = bias_shift

    def inputs(self, i: int):
        return gmls.SimulationConfig(scenario=self.scenario, replications=MC_REPS,
                                     seed=self.seed * 1_000_003 + i, n=3, m=4,
                                     coeff_count=self.coeff_count)

    def call(self, config, traced: bool):
        report = gmls.run_study(config, None, bias_shift=self.bias_shift)
        return report, None

    def check(self, config, report) -> bool:
        if report.replications != config.replications \
                or not np.all(np.isfinite(report.mean_beta)):
            return False
        unbiased = np.all(np.abs(report.bias) <= MC_SE_MULTIPLE * report.mc_se)
        cov_ok = report.theoretical_covariance is None or np.all(
            np.abs(report.sample_covariance - report.theoretical_covariance)
            <= MC_SE_MULTIPLE * report.covariance_se)
        return bool(unbiased and cov_ok)


def sur_instance(seed: int, i: int) -> dict:
    """A period-major adding-up SUR system with two explicit restrictions.

    Every Sigma_t = P D_t P with P the projector orthogonal to the common
    null vector a = 1/sqrt(n), so the stacked dispersion is singular and
    block-diagonal; errors are P D_t^(1/2) z, exactly orthogonal to a.
    """
    n, m, kw = SUR_EQUATIONS, SUR_PERIODS, SUR_COEFFS
    rng = np.random.default_rng([seed, i])
    designs = [rng.normal(size=(m, kw)) for _ in range(n)]
    a = np.full((n, 1), 1.0 / np.sqrt(n))
    proj = np.eye(n) - a @ a.T
    scales = rng.uniform(0.5, 1.5, size=(m, n))
    blocks = [proj @ np.diag(d) @ proj for d in scales]
    k_total = n * kw
    r_mat = np.zeros((2, k_total))
    r_mat[0, 0], r_mat[0, kw] = 1.0, 1.0            # beta_1,1 + beta_2,1 = r_1
    r_mat[1, 1], r_mat[1, 2 * kw + 1] = 1.0, -1.0   # beta_1,2 = beta_3,2
    beta = rng.normal(size=(k_total, 1))
    beta[2 * kw + 1] = beta[1]
    r_rhs = r_mat @ beta
    errors = (proj @ (np.sqrt(scales) * rng.standard_normal(size=(m, n))).T).T
    responses = [designs[j] @ beta[j * kw:(j + 1) * kw, 0] + errors[:, j]
                 for j in range(n)]
    return {"designs": designs, "responses": responses, "blocks": blocks,
            "R": r_mat, "r": r_rhs, "beta": beta, "a": a}


class FitSur(Workload):
    """Constrained and pseudo-inverse fits of a large singular SUR system."""

    name = "fit-sur"
    op_name = "fit"
    # dense LAPACK time drifts less than the calibration kernel: rescaling
    # widened the spread of ten runs from 0.09 to 0.18
    rescaled = False

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        return sur_instance(self.seed, i)

    def call(self, inst: dict, traced: bool):
        layout = gmls.SURLayout.build(inst["designs"])
        model = gmls.stack_sur(layout, inst["responses"], inst["blocks"], order="period")
        implicit = gmls.extract_implicit_restrictions(model)
        combined = gmls.combine_restrictions(
            gmls.LinearRestrictions.build(inst["R"], inst["r"]), implicit)
        constrained = gmls.constrained_singular_gls(model, combined)
        pseudo = gmls.mls(model)
        witness = gmls.check_theil_condition(layout, inst["blocks"])
        return (constrained.beta_hat, pseudo.beta_hat, witness.kind), None

    def check(self, inst: dict, out) -> bool:
        """Both fits against reparametrized weighted least squares.

        The reference builds the stacked system itself, takes the
        pseudo-inverse block by block and the null space from the known
        null vector, so it shares no code with the package.
        """
        import scipy.linalg

        oracles = load_oracles()
        beta_c, beta_m, kind = out
        y, x = _period_major(inst["designs"], inst["responses"])
        weight = scipy.linalg.block_diag(*[np.linalg.pinv(b, hermitian=True)
                                           for b in inst["blocks"]])
        a = np.kron(np.eye(SUR_PERIODS), inst["a"])
        h_mat = np.vstack([inst["R"], a.T @ x])
        h_rhs = np.vstack([inst["r"], a.T @ y])
        ref_c = oracles.constrained_wls(y, x, weight, h_mat, h_rhs)
        ref_m = oracles.constrained_wls(y, x, weight, np.zeros((0, x.shape[1])),
                                        np.zeros((0, 1)))
        residual = float(np.linalg.norm(h_mat @ beta_c - h_rhs))
        return bool(
            kind == gmls.WitnessKind.NONE
            and _rel_err(beta_c, ref_c) <= FIT_RTOL
            and _rel_err(beta_m, ref_m) <= FIT_RTOL
            and residual <= FIT_RTOL * (1.0 + float(np.linalg.norm(h_rhs))))


def _rel_err(estimate: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(estimate - reference)) / np.max(np.abs(reference)))


def dense_instance(seed: int, i: int) -> dict:
    """Dense unstructured singular Omega, ill-conditioned X, y = X beta.

    Omega = Q diag(lambda) Q' has rank T - 5 with Q a random orthogonal
    matrix; X = U diag(s) V' has singular values from 1 down to 1/cond.
    The response carries no noise, so every unbiased estimator returns
    beta exactly in exact arithmetic.
    """
    t, k, null = DENSE_T, DENSE_K, DENSE_NULL
    rng = np.random.default_rng([seed, i])
    q, _ = np.linalg.qr(rng.normal(size=(t, t)))
    lam = np.concatenate([rng.uniform(0.5, 2.0, size=t - null), np.zeros(null)])
    omega = (q * lam) @ q.T
    omega = 0.5 * (omega + omega.T)
    u, _ = np.linalg.qr(rng.normal(size=(t, k)))
    v, _ = np.linalg.qr(rng.normal(size=(k, k)))
    x = (u * np.logspace(0, -np.log10(DENSE_COND), k)) @ v.T
    beta = rng.normal(size=(k, 1))
    return {"y": x @ beta, "X": x, "omega": omega, "beta": beta}


class FitDense(Workload):
    """Constrained and pseudo-inverse fits on a dense singular dispersion."""

    name = "fit-dense"
    op_name = "fit"
    rescaled = False  # as for fit-sur

    def __init__(self, seed: int):
        self.seed = seed
        self.errors = []

    def inputs(self, i: int) -> dict:
        return dense_instance(self.seed, i)

    def call(self, inst: dict, traced: bool):
        model = gmls.build_model(inst["y"], inst["X"], inst["omega"])
        implicit = gmls.extract_implicit_restrictions(model)
        combined = gmls.combine_restrictions(
            gmls.LinearRestrictions.empty(model.num_params), implicit)
        constrained = gmls.constrained_singular_gls(model, combined)
        pseudo = gmls.mls(model)
        return (constrained.beta_hat, pseudo.beta_hat), None

    def check(self, inst: dict, out) -> bool:
        beta_c, beta_m = out
        err_c, err_m = _rel_err(beta_c, inst["beta"]), _rel_err(beta_m, inst["beta"])
        self.errors.append((err_c, err_m))
        return err_c <= DENSE_BETA_TOL and err_m <= DENSE_BETA_TOL

    def extra_metrics(self, ops: int) -> dict:
        if not self.errors:
            return {}
        return {"accuracy.beta_err": float(np.median([e[0] for e in self.errors])),
                "accuracy.beta_err_mls": float(np.median([e[1] for e in self.errors]))}


WORKLOADS = ("cli-fixtures", "mc-adding-up", "mc-fe-blockdiag", "fit-sur", "fit-dense")


def make(name: str, seed: int):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "cli-fixtures":
        return CliFixtures(seed)
    if name == "mc-adding-up":
        return MonteCarlo(name, "singular-adding-up", 2, seed)
    if name == "mc-fe-blockdiag":
        return MonteCarlo(name, "fe-blockdiag", 3, seed)
    if name == "fit-sur":
        return FitSur(seed)
    if name == "fit-dense":
        return FitDense(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
