"""Command line frontend.

Four commands: estimate, diagnose, panel, simulate.  Matrix inputs are
headerless CSV; panel data is long-format CSV with the header
``equation,period,response,x1,...,xK``; restriction files carry one row
per restriction with the coefficient columns first and the right-hand
side last.  The panel and simulate commands import gmls.panel and
gmls.montecarlo when they run, so the model commands start without them.

Exit codes: 0 success, 1 input or usage problems, 2 identification or
model precondition failures, 3 numerical failures past the rank checks,
4 a simulation's statistical checks failed.  ``estimate`` fits through
the method table of gmls.methods; a refusal of one of the estimator's
own catalogue checks is named by its label (e.g. "Eq. (4)
identification failed"), and the ``checks`` block lists the decisions
the fit recorded.  The README lists the catalogue.

Machine output (--output machine) is canonical JSON with sorted keys and
shortest round-trip floats, byte-identical across runs on the same
inputs.  Human output renders the same content at 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    DimensionMismatchError,
    GMLSError,
    InvalidConfigError,
    NonFiniteError,
    NonSymmetricError,
    NullVectorMismatchError,
    ReducedGramSingularError,
    RestrictionGramSingularError,
    ShiftInsufficientError,
)
from .identify import (
    check_joint_identification,
    check_mls_invertibility,
    check_restriction_consistency,
    check_theil_condition,
    combine_restrictions,
    extract_implicit_restrictions,
)
from .methods import METHODS, MODEL, SCENARIOS
from .model import LinearRestrictions, SURLayout, build_model, stack_sur
from .spectral import RankReport, numeric_rank

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_STATISTICAL = 4

# Each catalogue decision by the diagnostics key an estimator records it
# under (and its refusal names): its key in the ``checks`` block and its
# label, used verbatim in refusal messages, in the order the decisions
# are made.
_CHECKS = {
    "restriction_consistency": ("restriction_consistency",
                                "Eq. (3) restriction consistency"),
    "joint_identification": ("identification", "Eq. (4) identification"),
    "whitened_design_rank": ("whitened_rank", "Eq. (14) whitened-design rank"),
    "combined_consistency": ("combined_consistency",
                             "Eq. (20) combined-restriction consistency"),
}

# every other GMLSError is a violated precondition
_INPUT_ERRORS = (DimensionMismatchError, NonFiniteError, NonSymmetricError,
                 InvalidConfigError)
_NUMERICAL_ERRORS = (ReducedGramSingularError, RestrictionGramSingularError,
                     ShiftInsufficientError)


class CommandFailure(Exception):
    """Abort the current command with a message and exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# input parsing

def _read_lines(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise CommandFailure(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _read_rows(path: str, lines: list, start: int = 0) -> list:
    """The numeric rows of lines[start:], blank lines skipped."""
    rows = []
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            raise CommandFailure(
                EXIT_INPUT, f"{path}: line {lineno}: malformed numeric row") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CommandFailure(
                EXIT_INPUT,
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}")
        rows.append(row)
    return rows


def read_matrix(path: str) -> np.ndarray:
    """Headerless CSV matrix; ragged or non-numeric rows are input errors."""
    rows = _read_rows(path, _read_lines(path))
    if not rows:
        raise CommandFailure(EXIT_INPUT, f"{path}: no data rows")
    return np.array(rows, dtype=float)


def read_restrictions(path: str) -> LinearRestrictions:
    """Rows of coefficients with the right-hand side in the final column.

    An optional non-numeric header row is skipped.
    """
    lines = _read_lines(path)
    start = 0
    if lines:
        try:
            [float(c) for c in lines[0].split(",")]
        except ValueError:
            start = 1
    rows = _read_rows(path, lines, start)
    if not rows:
        raise CommandFailure(EXIT_INPUT, f"{path}: no restriction rows")
    if len(rows[0]) < 2:
        raise CommandFailure(
            EXIT_INPUT, f"{path}: need coefficient columns plus a final rhs column")
    data = np.array(rows, dtype=float)
    return LinearRestrictions.build(data[:, :-1], data[:, -1:])


def read_panel(path: str):
    """Long-format panel CSV: header equation,period,response,x1,...,xK.

    Returns (designs, responses, equations, periods) with per-equation
    blocks ordered by the sorted period labels.
    """
    lines = _read_lines(path)
    if not lines:
        raise CommandFailure(EXIT_INPUT, f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 4 or header[:3] != ["equation", "period", "response"] \
            or any(h != f"x{j + 1}" for j, h in enumerate(header[3:])):
        raise CommandFailure(
            EXIT_INPUT,
            f"{path}: line 1: header must be equation,period,response,x1,...,xK")
    k_dim = len(header) - 3
    cells = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != len(header):
            raise CommandFailure(
                EXIT_INPUT,
                f"{path}: line {lineno}: expected {len(header)} columns, "
                f"got {len(parts)}")
        try:
            eq, per = int(parts[0]), int(parts[1])
            values = [float(c) for c in parts[2:]]
        except ValueError:
            raise CommandFailure(
                EXIT_INPUT, f"{path}: line {lineno}: malformed numeric row") from None
        if (eq, per) in cells:
            raise CommandFailure(
                EXIT_INPUT,
                f"{path}: line {lineno}: duplicate (equation, period) = ({eq}, {per})")
        cells[(eq, per)] = values
    equations = sorted({eq for eq, _ in cells})
    periods = sorted({per for _, per in cells})
    missing = [(eq, per) for eq in equations for per in periods
               if (eq, per) not in cells]
    if missing:
        raise CommandFailure(
            EXIT_INPUT,
            f"{path}: incomplete grid, first missing (equation, period) = "
            f"{missing[0]}")
    designs, responses = [], []
    for eq in equations:
        block = np.array([cells[(eq, per)][1:] for per in periods], dtype=float)
        resp = np.array([[cells[(eq, per)][0]] for per in periods], dtype=float)
        designs.append(block.reshape(len(periods), k_dim))
        responses.append(resp)
    return designs, responses, equations, periods


# ---------------------------------------------------------------------------
# rendering

def _clean(obj):
    """Recursively convert to JSON-serializable built-ins."""
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, RankReport):
        return {"rank": obj.numeric_rank, "values": _clean(obj.values),
                "tolerance": float(obj.tolerance), "deficient": bool(obj.deficient)}
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def _fmt_number(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _human_lines(obj, lines, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                _human_lines(value, lines, indent + 1)
            else:
                lines.append(f"{pad}{key}: {_fmt_number(value)}")
    elif isinstance(obj, list):
        if obj and all(isinstance(v, list) for v in obj):
            for row in obj:
                lines.append(pad + "  ".join(format(v, "12.6g") if isinstance(v, float)
                                             else str(v) for v in row))
        elif all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(pad + "[" + ", ".join(_fmt_number(v) for v in obj) + "]")
        else:
            for item in obj:
                _human_lines(item, lines, indent)
    else:
        lines.append(pad + _fmt_number(obj))


def emit(doc: dict, output: str) -> None:
    doc = _clean(doc)
    if output == "machine":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        lines = []
        _human_lines(doc, lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _rank_entry(report: RankReport) -> dict:
    return {"rank": report.numeric_rank, "tolerance": float(report.tolerance),
            "deficient": bool(report.deficient)}


def _check_entry(decision: str, holds: bool, report: RankReport | None = None) -> dict:
    entry = {"condition": _CHECKS[decision][1], "holds": holds}
    return entry if report is None else {**entry, **_rank_entry(report)}


def _witness_entry(witness) -> dict:
    entry = {
        "kind": witness.kind.value,
        "certificate_d": witness.d.ravel().tolist(),
        "common_vector_s": witness.s.ravel().tolist(),
        "null_weights_a": witness.a.ravel().tolist(),
    }
    if witness.violating_equation is not None:
        entry["violating_equation"] = int(witness.violating_equation)
    if witness.note:
        entry["note"] = witness.note
    return entry


def _result_entry(result) -> dict:
    return {
        "coefficients": result.beta_hat.ravel().tolist(),
        "covariance_factor": result.covariance_factor.tolist(),
        "residuals": result.residuals.ravel().tolist(),
        "diagnostics": {k: v for k, v in sorted(result.diagnostics.items())
                        if not isinstance(v, np.ndarray)},
    }


# ---------------------------------------------------------------------------
# model assembly shared by estimate and diagnose

def _load_model(args, tol):
    """Build the working model from either matrix files or a SUR file."""
    if getattr(args, "sur", None):
        if not getattr(args, "sigma", None):
            raise CommandFailure(EXIT_INPUT, "--sur requires --sigma")
        designs, responses, _, _ = read_panel(args.sur)
        layout = SURLayout.build(designs)
        sigma_block = read_matrix(args.sigma)
        if sigma_block.shape != (layout.n, layout.n):
            raise CommandFailure(
                EXIT_INPUT,
                f"--sigma must be {layout.n} x {layout.n} for {layout.n} equations, "
                f"got {sigma_block.shape}")
        model = stack_sur(layout, responses, sigma_block, order="period", tol=tol)
        return model, layout, sigma_block
    if not args.design or not args.response:
        raise CommandFailure(EXIT_INPUT,
                             "need --design and --response (or --sur with --sigma)")
    design = read_matrix(args.design)
    response = read_matrix(args.response)
    if response.shape[1] != 1:
        response = response.reshape(-1, 1)
    omega = read_matrix(args.dispersion) if args.dispersion else np.eye(design.shape[0])
    model = build_model(response, design, omega, tol=tol)
    return model, None, None


def _load_restrictions(args, model):
    """The --restrictions rows, None without the option."""
    if not args.restrictions:
        return None
    restrictions = read_restrictions(args.restrictions)
    if restrictions.num_params != model.num_params:
        raise CommandFailure(
            EXIT_INPUT,
            f"restrictions have {restrictions.num_params} coefficient columns, "
            f"design has {model.num_params}")
    return restrictions


def _refusal(decision, layout, sigma_block, tol) -> str:
    """The message of a failed catalogue decision; a whitened-rank failure
    of a SUR system carries the Theil witness when one can be built."""
    detail = f"{_CHECKS[decision][1]} failed"
    if decision != "whitened_design_rank" or layout is None:
        return detail
    try:
        witness = check_theil_condition(layout, sigma_block, tol=tol)
    except GMLSError:
        return detail
    return (f"{detail}; witness kind {witness.kind.value}, "
            f"certificate d = {witness.d.ravel().tolist()}")


# ---------------------------------------------------------------------------
# commands

_METHODS = tuple(name for name, method in METHODS.items() if method.kind == MODEL)


def cmd_estimate(args) -> int:
    tol = args.tol
    model, layout, sigma_block = _load_model(args, tol)
    restrictions = _load_restrictions(args, model)
    method = METHODS[args.method]
    inputs = {"restrictions": restrictions, "ridge_psi": args.ridge_psi,
              "theta": args.theta or None}
    for need in method.needs:
        if inputs[need] is None:
            raise CommandFailure(
                EXIT_INPUT, f"method {args.method} requires --{need.replace('_', '-')}")
    if "theta" in method.needs:
        inputs["theta"] = read_matrix(args.theta)
    try:
        result = method.fit(model, inputs, tol)
    except GMLSError as exc:
        if exc.decision not in _CHECKS:
            raise
        raise CommandFailure(EXIT_PRECONDITION,
                             _refusal(exc.decision, layout, sigma_block, tol)) from exc
    checks = {}
    for key, (entry, _) in _CHECKS.items():
        decided = result.diagnostics.get(key)
        if decided is not None:
            # a fitted estimate passed every decision it recorded
            checks[entry] = _check_entry(
                key, True, decided if isinstance(decided, RankReport) else None)
    rows = 0 if restrictions is None else restrictions.count
    design_rank = result.diagnostics.get("design_rank")
    if design_rank is None and not rows:
        # without explicit rows, the identification decision is rank(X)
        design_rank = result.diagnostics.get("joint_identification")
    if design_rank is None:
        design_rank = numeric_rank(model.X, tol=tol)

    doc = {
        "command": "estimate",
        "inputs": {
            "observations": model.num_obs,
            "parameters": model.num_params,
            "design_rank": _rank_entry(design_rank),
            "restriction_rows": rows,
            "tolerance": "default" if tol is None else float(tol),
        },
        "checks": checks,
        "results": {"method": args.method, **_result_entry(result)},
        "warnings": [],
        "exit_status": EXIT_OK,
    }
    emit(doc, args.output)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    tol = args.tol
    model, layout, sigma_block = _load_model(args, tol)
    explicit = _load_restrictions(args, model)
    if explicit is None:
        explicit = LinearRestrictions.empty(model.num_params)
    checks = {}
    if explicit.count:
        checks["restriction_consistency"] = _check_entry(
            "restriction_consistency", *check_restriction_consistency(explicit, tol=tol))
    checks["identification"] = _check_entry(
        "joint_identification", *check_joint_identification(model.X, explicit, tol=tol))
    checks["whitened_rank"] = _check_entry(
        "whitened_design_rank", *check_mls_invertibility(model, tol=tol))
    implicit = extract_implicit_restrictions(model)
    combined = combine_restrictions(explicit, implicit, tol=tol)
    checks["combined_consistency"] = {**_check_entry("combined_consistency",
                                                     combined.consistent),
                                      "explicit_rows": explicit.count,
                                      "implicit_rows": implicit.count}
    doc = {
        "command": "diagnose",
        "inputs": {
            "observations": model.num_obs,
            "parameters": model.num_params,
            "dispersion_rank": model.spectrum.rank,
            "tolerance": "default" if tol is None else float(tol),
        },
        "checks": checks,
        "warnings": [],
        "exit_status": EXIT_OK,
    }
    if layout is not None and sigma_block is not None:
        try:
            witness = check_theil_condition(layout, sigma_block, tol=tol)
            doc["witness"] = _witness_entry(witness)
        except NullVectorMismatchError as exc:
            doc["witness"] = {"kind": "not-applicable", "reason": str(exc)}
    emit(doc, args.output)
    return EXIT_OK


def cmd_panel(args) -> int:
    from .panel import build_fe_model, fe_drop_period, verify_theorem5

    designs, responses, _, periods = read_panel(args.panel)
    sigma = read_matrix(args.sigma)
    m = len(periods)
    if sigma.shape != (m, m):
        raise CommandFailure(
            EXIT_INPUT, f"--sigma must be {m} x {m} for {m} periods, got {sigma.shape}")
    model = build_fe_model(designs, responses, sigma=sigma)
    if args.drop_period is not None and not 1 <= args.drop_period <= model.m:
        raise CommandFailure(
            EXIT_INPUT,
            f"--drop-period must be in 1..{model.m}, got {args.drop_period}")
    report = verify_theorem5(model)
    drops = [args.drop_period] if args.drop_period is not None \
        else list(range(1, model.m + 1))
    drop_entries = {}
    max_gap = 0.0
    for t0 in drops:
        res_drop = fe_drop_period(model, t0)
        gap = float(np.max(np.abs(res_drop.beta_hat - report.beta_mls)))
        max_gap = max(max_gap, gap)
        drop_entries[f"period_{t0}"] = {
            "coefficients": res_drop.beta_hat.ravel().tolist(),
            "gap_to_mls": gap,
        }
    doc = {
        "command": "panel",
        "inputs": {"equations": model.n, "periods": model.m,
                   "parameters": model.num_params},
        "results": {
            "fe_gls": _result_entry(report.fe_gls),
            "fe_mls": _result_entry(report.fe_mls),
            "drop_period": drop_entries,
            "max_drop_gap": max_gap,
            "equivalence": {
                "beta_gap": report.beta_gap,
                "projector_gap": report.projector_gap,
                "tolerance": report.tolerance,
                "passed": report.passed,
            },
        },
        "warnings": [],
        "exit_status": EXIT_OK,
    }
    emit(doc, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .montecarlo import SimulationConfig, run_study

    if args.reps < 100:
        raise CommandFailure(EXIT_INPUT,
                             f"--reps must be at least 100, got {args.reps}")
    # singular-adding-up counts per equation; the total must exceed its m implicit rows
    default_k = 2 if args.scenario == "singular-adding-up" else 3
    config = SimulationConfig(
        scenario=args.scenario,
        replications=args.reps,
        seed=args.seed,
        n=args.equations,
        m=args.periods,
        coeff_count=args.coefficients if args.coefficients is not None else default_k,
        sigma2=args.sigma2,
    )
    report = run_study(config, args.estimator or None, bias_shift=args.inject_bias)
    status = EXIT_OK if report.passed else EXIT_STATISTICAL
    doc = {
        "command": "simulate",
        "inputs": {"scenario": report.scenario, "estimator": report.estimator,
                   "replications": report.replications, "seed": report.seed,
                   "injected_bias": args.inject_bias},
        "results": {
            "true_beta": report.true_beta.tolist(),
            "mean_beta": report.mean_beta.tolist(),
            "bias": report.bias.tolist(),
            "mc_se": report.mc_se.tolist(),
            "sample_covariance": report.sample_covariance.tolist(),
            "theoretical_covariance":
                None if report.theoretical_covariance is None
                else report.theoretical_covariance.tolist(),
            "unbiased": report.unbiased,
            "covariance_ok": report.covariance_ok,
            "passed": report.passed,
        },
        "warnings": [] if report.passed else ["statistical checks failed"],
        "exit_status": status,
    }
    emit(doc, args.output)
    return status


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_shared(parser, with_model=True):
    parser.add_argument("--output", choices=("human", "machine"), default="human")
    if with_model:
        parser.add_argument("--tol", type=float, default=None,
                            help="rank tolerance override (default: adaptive)")
        parser.add_argument("--design", help="design matrix CSV")
        parser.add_argument("--response", help="response vector CSV")
        parser.add_argument("--dispersion",
                            help="dispersion matrix CSV (default: identity)")
        parser.add_argument("--restrictions",
                            help="restriction rows CSV, rhs in final column")
        parser.add_argument("--sur", help="SUR system as long-format panel CSV")
        parser.add_argument("--sigma",
                            help="per-period dispersion block CSV (with --sur)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmls",
        description="Estimation and diagnostics for general Gauss-Markoff models")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="fit one estimator")
    _add_shared(est)
    est.add_argument("--method", choices=_METHODS, required=True)
    est.add_argument("--ridge-psi", type=float, default=None,
                     help="scalar ridge shift (method ridge)")
    est.add_argument("--theta", help="stochastic restriction dispersion CSV "
                                     "(method mixed)")

    diag = sub.add_parser("diagnose", help="run the identification checks")
    _add_shared(diag)

    pan = sub.add_parser("panel", help="fixed-effects panel estimation")
    pan.add_argument("--panel", required=True, help="long-format panel CSV")
    pan.add_argument("--sigma", required=True, help="intertemporal dispersion CSV")
    pan.add_argument("--drop-period", type=int, default=None,
                     help="1-based period to drop (default: all, one at a time)")
    _add_shared(pan, with_model=False)

    sim = sub.add_parser("simulate", help="Monte Carlo verification")
    sim.add_argument("--scenario", choices=SCENARIOS, required=True)
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=20240801)
    sim.add_argument("--estimator", default=None)
    sim.add_argument("--equations", type=int, default=3,
                     help="equations n (default 3)")
    sim.add_argument("--periods", type=int, default=4, help="periods m (default 4)")
    sim.add_argument("--coefficients", type=int, default=None,
                     help="coefficient count (per equation for singular-adding-up)")
    sim.add_argument("--sigma2", type=float, default=1.0)
    sim.add_argument("--inject-bias", type=float, default=0.0,
                     help="negative control: shift every estimate by this amount")
    _add_shared(sim, with_model=False)

    return parser


_DISPATCH = {
    "estimate": cmd_estimate,
    "diagnose": cmd_diagnose,
    "panel": cmd_panel,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.subcommand](args)
    except CommandFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except GMLSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
