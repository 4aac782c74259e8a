"""End-to-end exercises of the command line front end.

Most tests shell out to ``python3 -m gmls`` so argument parsing, file
loading, refusal paths, and report formatting are covered exactly as a
user would hit them.  The golden files under fixtures/ pin the machine
output format; byte-for-byte comparison is intentional.  The refusal
matrix and the kernel counts call ``cli.main`` in process.
"""

import ast
import contextlib
import glob
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIXTURES, SRC

GOLDENS = {
    "golden_estimate.json": (
        "estimate", "--design", "design.csv", "--response", "response.csv",
        "--dispersion", "dispersion.csv", "--restrictions", "restrictions.csv",
        "--method", "rgls", "--output", "machine"),
    "golden_diagnose.json": (
        "diagnose", "--design", "design.csv", "--response", "response.csv",
        "--dispersion", "dispersion.csv", "--restrictions", "restrictions.csv",
        "--output", "machine"),
    "golden_panel.json": (
        "panel", "--panel", "panel.csv", "--sigma", "panel_sigma.csv",
        "--output", "machine"),
    "golden_simulate.json": (
        "simulate", "--scenario", "regular-gls", "--reps", "120",
        "--seed", "7", "--output", "machine"),
}


def run_python(*args, text=True):
    env = os.environ.copy()
    # the child runs inside fixtures/, where a relative PYTHONPATH=src
    # would no longer resolve
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          cwd=FIXTURES, env=env, capture_output=True, text=text)


def run_cli(*argv, text=True):
    return run_python("-m", "gmls", *argv, text=text)


# ---------------------------------------------------------------------------
# golden machine output

@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_machine_output_matches_golden_bytes(name):
    with open(os.path.join(FIXTURES, name), "rb") as f:
        expected = f.read()
    first = run_cli(*GOLDENS[name], text=False)
    second = run_cli(*GOLDENS[name], text=False)
    assert first.returncode == 0, first.stderr
    assert first.stdout == expected
    # determinism across consecutive runs, not just against the archive
    assert second.stdout == first.stdout


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_machine_output_is_sorted_json(name):
    with open(os.path.join(FIXTURES, name)) as f:
        doc = json.load(f)
    assert list(doc) == sorted(doc)
    assert doc["exit_status"] == 0
    assert "results" in doc or doc["command"] == "diagnose"


def test_human_and_machine_agree_on_coefficients():
    machine = json.loads(run_cli(*GOLDENS["golden_estimate.json"]).stdout)
    human = run_cli("estimate", "--design", "design.csv",
                    "--response", "response.csv",
                    "--dispersion", "dispersion.csv",
                    "--restrictions", "restrictions.csv",
                    "--method", "rgls").stdout
    assert "exit_status: 0" in human
    for value in machine["results"]["coefficients"]:
        assert f"{value:.6g}" in human


# ---------------------------------------------------------------------------
# input errors, exit 1

def test_ragged_csv_reports_offending_line():
    res = run_cli("estimate", "--design", "bad_rows.csv",
                  "--response", "response.csv", "--method", "ols")
    assert res.returncode == 1
    assert "bad_rows.csv" in res.stderr and "line 3" in res.stderr


def test_missing_file_is_an_input_error():
    res = run_cli("estimate", "--design", "nope.csv",
                  "--response", "response.csv", "--method", "ols")
    assert res.returncode == 1


def test_restricted_method_requires_restriction_file():
    res = run_cli("estimate", "--design", "design.csv",
                  "--response", "response.csv", "--method", "rgls")
    assert res.returncode == 1
    assert "restrictions" in res.stderr


def test_unknown_method_rejected_by_parser():
    res = run_cli("estimate", "--design", "design.csv",
                  "--response", "response.csv", "--method", "magic")
    assert res.returncode == 1


def test_drop_period_out_of_range():
    res = run_cli("panel", "--panel", "panel.csv",
                  "--sigma", "panel_sigma.csv", "--drop-period", "9")
    assert res.returncode == 1
    assert "1..4" in res.stderr


def test_panel_fits_a_sigma_with_large_variance_along_e(tmp_path):
    # variance 1e10 along e, the direction centering removes; the within
    # fits must still be fe_gls to rounding
    rng = np.random.default_rng(7)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(4), rng.normal(size=(4, 3))]))
    sigma = (basis * [1e10, 1.0, 1.5, 0.7]) @ basis.T
    path = tmp_path / "sigma_along_e.csv"
    np.savetxt(path, 0.5 * (sigma + sigma.T), delimiter=",", fmt="%.17g")
    res = run_cli("panel", "--panel", "panel.csv", "--sigma", str(path),
                  "--output", "machine")
    assert res.returncode == 0, res.stderr
    results = json.loads(res.stdout)["results"]
    scale = 1.0 + max(abs(b) for b in results["fe_mls"]["coefficients"])
    assert results["max_drop_gap"] <= 1e-12 * scale


def test_core_refusal_at_an_explicit_tol_prints_the_eq14_label(tmp_path):
    # Omega = 1e20 I scales W X to about 3e-10, below tol = 1e-9, while F'X
    # passes mls's pre-check at the same tol
    rng = np.random.default_rng(96)
    x = rng.normal(size=(10, 3))
    for name, mat in (("x", x), ("y", x @ np.ones((3, 1))), ("omega", 1e20 * np.eye(10))):
        np.savetxt(tmp_path / f"{name}.csv", mat, delimiter=",", fmt="%.17g")
    res = run_cli("estimate", "--design", str(tmp_path / "x.csv"),
                  "--response", str(tmp_path / "y.csv"),
                  "--dispersion", str(tmp_path / "omega.csv"),
                  "--method", "mls", "--tol", "1e-9")
    assert res.returncode == 2
    assert "Eq. (14) whitened-design rank failed" in res.stderr


def test_simulate_rejects_tiny_replication_count():
    res = run_cli("simulate", "--scenario", "regular-gls", "--reps", "50")
    assert res.returncode == 1
    assert "at least 100" in res.stderr


def test_restriction_header_row_is_optional(tmp_path):
    with_header = tmp_path / "r.csv"
    with open(os.path.join(FIXTURES, "restrictions.csv")) as f:
        with_header.write_text("b1,b2,b3,rhs\n" + f.read())
    base = run_cli(*GOLDENS["golden_estimate.json"], text=False)
    alt = run_cli("estimate", "--design", "design.csv",
                  "--response", "response.csv",
                  "--dispersion", "dispersion.csv",
                  "--restrictions", str(with_header),
                  "--method", "rgls", "--output", "machine", text=False)
    assert alt.returncode == 0
    assert alt.stdout == base.stdout


# ---------------------------------------------------------------------------
# precondition refusals, exit 2

def test_inconsistent_restrictions_refused():
    res = run_cli("estimate", "--design", "design.csv",
                  "--response", "response.csv",
                  "--restrictions", "inconsistent_restrictions.csv",
                  "--method", "rols")
    assert res.returncode == 2
    assert "Eq. (3) restriction consistency failed" in res.stderr


def test_restriction_that_cannot_identify_refused():
    res = run_cli("estimate", "--design", "design_collinear.csv",
                  "--response", "response_collinear.csv",
                  "--restrictions", "useless_restrictions.csv",
                  "--method", "rols")
    assert res.returncode == 2
    assert "Eq. (4) identification failed" in res.stderr


def test_rank_refusal_carries_witness_certificate():
    res = run_cli("estimate", "--sur", "sur.csv", "--sigma", "sigma.csv",
                  "--method", "mls")
    assert res.returncode == 2
    assert "Eq. (14) whitened-design rank failed" in res.stderr
    assert "within-equation-collinearity" in res.stderr
    assert "certificate d" in res.stderr


def test_explicit_row_conflicting_with_implicit_refused():
    res = run_cli("estimate", "--sur", "sur_ok.csv", "--sigma", "sigma.csv",
                  "--restrictions", "conflicting_sur_restrictions.csv",
                  "--method", "constrained")
    assert res.returncode == 2
    assert "Eq. (20) combined-restriction consistency failed" in res.stderr


def test_indefinite_panel_sigma_refused():
    res = run_cli("panel", "--panel", "panel.csv",
                  "--sigma", "panel_sigma_bad.csv")
    assert res.returncode == 2
    assert "eigenvalue" in res.stderr


def test_panel_above_two_thousand_rows_is_checked_block_by_block(tmp_path):
    """A 60 x 40 panel, 2400 rows: gmls panel passes its Theorem 5 check,
    which compares m x m blocks and peaks far below one nm x nm array."""
    import tracemalloc

    from gmls import build_fe_model, verify_theorem5
    from conftest import random_spd

    rng = np.random.default_rng(2400)
    n, m = 60, 40
    designs = rng.normal(size=(n, m, 2))
    sigma = random_spd(rng, m)
    responses = designs @ np.array([[1.0], [-0.5]]) + rng.uniform(-1.0, 1.0, size=(n, 1, 1)) \
        + np.linalg.cholesky(sigma) @ rng.normal(size=(n, m, 1))
    panel, sigma_csv = tmp_path / "panel.csv", tmp_path / "sigma.csv"
    panel.write_text("equation,period,response,x1,x2\n" + "".join(
        f"{i + 1},{t + 1},{responses[i, t, 0]:.17g},{designs[i, t, 0]:.17g},"
        f"{designs[i, t, 1]:.17g}\n" for i in range(n) for t in range(m)))
    np.savetxt(sigma_csv, sigma, delimiter=",", fmt="%.17g")
    code, out, err = _main("panel", "--panel", str(panel), "--sigma", str(sigma_csv),
                           "--output", "machine")
    assert code == 0, err
    assert json.loads(out)["results"]["equivalence"]["passed"] is True
    model = build_fe_model(list(designs), list(responses), sigma=sigma)
    tracemalloc.start()
    try:
        report = verify_theorem5(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < (n * m) ** 2 * 8 / 4


# ---------------------------------------------------------------------------
# diagnose never refuses on parseable inputs

def test_diagnose_reports_failures_with_exit_zero():
    res = run_cli("diagnose", "--sur", "sur.csv", "--sigma", "sigma.csv",
                  "--output", "machine")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    checks = doc["checks"]
    assert checks["identification"]["holds"] is False
    assert checks["whitened_rank"]["holds"] is False
    assert checks["combined_consistency"]["holds"] is True
    witness = doc["witness"]
    assert witness["kind"] == "within-equation-collinearity"
    assert witness["violating_equation"] == 1
    assert len(witness["certificate_d"]) == 6


def test_diagnose_on_clean_system_all_pass():
    res = run_cli("diagnose", "--sur", "sur_ok.csv", "--sigma", "sigma.csv",
                  "--output", "machine")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert all(entry["holds"] for entry in doc["checks"].values())
    assert doc["witness"]["kind"] == "none"
    assert not any(doc["witness"]["certificate_d"])


def test_estimate_clean_sur_with_mls_succeeds():
    res = run_cli("estimate", "--sur", "sur_ok.csv", "--sigma", "sigma.csv",
                  "--method", "mls", "--output", "machine")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["results"]["coefficients"]) == 6


# ---------------------------------------------------------------------------
# statistical gate, exit 4

def test_bias_injection_trips_the_gate():
    res = run_cli("simulate", "--scenario", "regular-gls", "--reps", "400",
                  "--seed", "3", "--inject-bias", "0.5", "--output", "machine")
    assert res.returncode == 4
    doc = json.loads(res.stdout)
    assert doc["results"]["passed"] is False
    assert doc["results"]["unbiased"] is False
    assert doc["exit_status"] == 4


# ---------------------------------------------------------------------------
# tolerance override

def test_tol_flag_sets_the_reported_tolerance():
    via_flag = run_cli("diagnose", "--design", "design.csv",
                       "--response", "response.csv",
                       "--dispersion", "dispersion.csv",
                       "--tol", "1e-9", "--output", "machine", text=False)
    assert via_flag.returncode == 0
    doc = json.loads(via_flag.stdout)
    assert doc["inputs"]["tolerance"] == 1e-9


def test_only_the_model_commands_take_a_tolerance():
    # panel and simulate decide no rank at a user tolerance: they have no
    # --tol option
    assert run_cli(*GOLDENS["golden_panel.json"], "--tol", "0.5").returncode == 1
    assert run_cli(*GOLDENS["golden_simulate.json"], "--tol", "1e-3").returncode == 1


# ---------------------------------------------------------------------------
# import footprint

def test_import_leaves_scipy_unloaded():
    # SciPy is a test-only dependency; the library and the CLI run on NumPy
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = ("import sys, gmls, gmls.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_imports_only_numpy_and_the_standard_library():
    # the rule behind the probe above, read off the source, so an import in
    # a function that no test reaches counts too
    allowed = set(sys.stdlib_module_names) | {"numpy", "gmls"}
    outside = []
    for path in sorted(glob.glob(os.path.join(SRC, "gmls", "**", "*.py"), recursive=True)):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [(os.path.basename(path), root) for root in roots
                        if root not in allowed]
    assert outside == []


def _gmls_modules(probe, *argv):
    """Run ``probe`` in a fresh interpreter inside fixtures/; returns the
    process and the ``gmls.*`` modules loaded by the end of it, which the
    probe's last line of stdout lists."""
    probe += "\nprint(sorted(m for m in sys.modules if m.startswith('gmls.')))"
    out = run_python("-c", probe, *argv)
    assert out.returncode == 0, out.stderr
    return out, ast.literal_eval(out.stdout.splitlines()[-1])


def test_import_gmls_loads_a_submodule_only_when_a_name_is_used():
    probe = "\n".join([
        "import sys, gmls",
        "print(hasattr(gmls, 'no_such_name'), set(gmls.__all__) <= set(dir(gmls)))",
        "print(sorted(m for m in sys.modules if m.startswith('gmls.')))",
        "print(gmls.stack_sur is gmls.model.stack_sur, 'stack_sur' in vars(gmls))",
    ])
    out, loaded = _gmls_modules(probe)
    lines = out.stdout.splitlines()
    assert lines[0] == "False True"
    assert lines[1] == "[]"
    assert lines[2] == "True True"
    assert loaded == ["gmls.errors", "gmls.model", "gmls.spectral"]


# cli.main on the probe's arguments, its exit code on the line before the modules
_COMMAND_PROBE = "\n".join([
    "import contextlib, io, sys",
    "from gmls import cli",
    "with contextlib.redirect_stdout(io.StringIO()):",
    "    code = cli.main(sys.argv[1:])",
    "print(code)",
])


@pytest.mark.parametrize("argv, unused", [
    (GOLDENS["golden_estimate.json"], {"gmls.montecarlo", "gmls.panel"}),
    (("estimate", "--sur", "sur_ok.csv", "--sigma", "sigma.csv", "--method", "constrained"),
     {"gmls.montecarlo", "gmls.panel"}),
    (GOLDENS["golden_diagnose.json"], {"gmls.montecarlo", "gmls.panel"}),
    (GOLDENS["golden_panel.json"], {"gmls.montecarlo"}),
], ids=["estimate", "estimate constrained", "diagnose", "panel"])
def test_a_command_loads_only_the_modules_it_runs(argv, unused):
    out, loaded = _gmls_modules(_COMMAND_PROBE, *argv)
    assert out.stdout.splitlines()[-2] == "0", out.stderr
    assert unused.isdisjoint(loaded), loaded


def test_unknown_scenario_is_refused_naming_every_scenario_without_montecarlo():
    from gmls import methods, montecarlo

    assert montecarlo.SCENARIOS is methods.SCENARIOS and len(methods.SCENARIOS) == 5
    out, loaded = _gmls_modules(_COMMAND_PROBE, "simulate", "--scenario", "nope")
    assert out.stdout.splitlines()[-2] == "1"
    assert all(name in out.stderr for name in methods.SCENARIOS), out.stderr
    assert "gmls.montecarlo" not in loaded


def _import_time_imports(tree):
    """The import statements a module runs when it is imported: those
    outside every function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _package_modules(node):
    """The gmls submodules an import statement names, by their short names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:
        names = [f"gmls.{node.module}"] if node.module else \
            [f"gmls.{alias.name}" for alias in node.names]
    elif node.module == "gmls":
        names = [f"gmls.{alias.name}" for alias in node.names]
    else:
        names = [node.module]
    return {name.split(".")[1] for name in names if name.startswith("gmls.")}


def test_no_module_imports_a_command_module_it_may_not_need():
    # the rule behind the probes above, read off the source, so an eager
    # import on a path no probe runs counts too
    found = {}
    for name in ("__init__", "cli", "methods"):
        path = os.path.join(SRC, "gmls", f"{name}.py")
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        found[name] = set()
        for node in _import_time_imports(tree):
            found[name] |= _package_modules(node)
    assert found["__init__"] == set()
    assert found["cli"] & {"montecarlo", "panel"} == set()
    assert found["methods"] & {"montecarlo", "panel"} == set()


def test_every_public_name_imports():
    import gmls

    assert len(set(gmls.__all__)) == len(gmls.__all__)
    for name in gmls.__all__:
        exec(f"from gmls import {name}", {})
    namespace = {}
    exec("from gmls import *", namespace)
    assert set(gmls.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# refusal parity: every method on every refusal fixture, in process

def _fixture(name):
    return os.path.join(FIXTURES, name)


def _main(*argv):
    """Run cli.main in this process; returns (exit code, stdout, stderr)."""
    from gmls import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


_GOLDEN_MODEL = ("--design", "design.csv", "--response", "response.csv",
                 "--dispersion", "dispersion.csv")
_COLLINEAR = ("--design", "design_collinear.csv",
              "--response", "response_collinear.csv")
_SUR = ("--sur", "sur.csv", "--sigma", "sigma.csv")
_SUR_OK = ("--sur", "sur_ok.csv", "--sigma", "sigma.csv")
_INCONSISTENT = ("--restrictions", "inconsistent_restrictions.csv")

REFUSAL_INPUTS = {
    "design+dispersion+inconsistent": _GOLDEN_MODEL + _INCONSISTENT,
    "design+dispersion+nan-tol": _GOLDEN_MODEL + ("--tol", "nan"),
    "identity+inconsistent": _GOLDEN_MODEL[:4] + _INCONSISTENT,
    "collinear+useless": _COLLINEAR + ("--restrictions", "useless_restrictions.csv"),
    "collinear": _COLLINEAR,
    "sur": _SUR,
    "sur+restrictions": _SUR + ("--restrictions", "restrictions.csv"),
    "sur+nan-tol": _SUR + ("--tol", "nan"),
    "sur_ok+conflicting": _SUR_OK + ("--restrictions",
                                     "conflicting_sur_restrictions.csv"),
    "sur_ok": _SUR_OK,
}

_OK = (0, "")
_CONSISTENCY = (2, "Eq. (3) restriction consistency failed")
_IDENTIFICATION = (2, "Eq. (4) identification failed")
_WHITENED = (2, "Eq. (14) whitened-design rank failed")
_SINGULAR = (2, "dispersion has rank 10 < T=15; use the pseudo-inverse estimators")
_COLLINEAR_DESIGN = (2, "design has numeric rank 2 < K=3")
_WIDTH = (1, "restrictions have 3 coefficient columns, design has 6")
# a NaN cutoff would decide every rank as 0; the model is refused before
# any method runs
_NAN_TOL = (1, "tolerance must be nonnegative")
_METHODS = ("ols", "gls", "rols", "rgls", "ridge", "mixed", "mls", "tkn", "constrained")


def _requires(method, flag):
    return (1, f"method {method} requires --{flag}")


# (exit code, first stderr line without "error: ") per input and method
REFUSALS = {
    "design+dispersion+inconsistent": {
        "ols": _OK, "gls": _OK, "rols": _CONSISTENCY, "rgls": _CONSISTENCY,
        "ridge": _requires("ridge", "ridge-psi"), "mixed": _requires("mixed", "theta"),
        "mls": _OK, "tkn": _CONSISTENCY, "constrained": _CONSISTENCY},
    "identity+inconsistent": {
        "ols": _OK, "gls": _OK, "rols": _CONSISTENCY, "rgls": _CONSISTENCY,
        "ridge": _requires("ridge", "ridge-psi"), "mixed": _requires("mixed", "theta"),
        "mls": _OK, "tkn": _CONSISTENCY, "constrained": _CONSISTENCY},
    "collinear+useless": {
        "ols": _COLLINEAR_DESIGN, "gls": _COLLINEAR_DESIGN,
        "rols": _IDENTIFICATION, "rgls": _IDENTIFICATION,
        "ridge": _requires("ridge", "ridge-psi"), "mixed": _requires("mixed", "theta"),
        "mls": _WHITENED, "tkn": _WHITENED, "constrained": _IDENTIFICATION},
    "collinear": {
        "ols": _COLLINEAR_DESIGN, "gls": _COLLINEAR_DESIGN,
        "rols": _requires("rols", "restrictions"),
        "rgls": _requires("rgls", "restrictions"),
        "ridge": _requires("ridge", "ridge-psi"),
        "mixed": _requires("mixed", "restrictions"),
        "mls": _WHITENED, "tkn": _requires("tkn", "restrictions"),
        "constrained": _IDENTIFICATION},
    "sur": {
        "ols": (2, "design has numeric rank 5 < K=6"), "gls": _SINGULAR,
        "rols": _requires("rols", "restrictions"),
        "rgls": _requires("rgls", "restrictions"),
        "ridge": _requires("ridge", "ridge-psi"),
        "mixed": _requires("mixed", "restrictions"),
        "mls": (2, "Eq. (14) whitened-design rank failed; witness kind "
                   "within-equation-collinearity, certificate d = "),
        "tkn": _requires("tkn", "restrictions"), "constrained": _IDENTIFICATION},
    "sur+restrictions": {method: _WIDTH for method in _METHODS},
    "design+dispersion+nan-tol": {method: _NAN_TOL for method in _METHODS},
    "sur+nan-tol": {method: _NAN_TOL for method in _METHODS},
    "sur_ok+conflicting": {
        "ols": _OK, "gls": _SINGULAR, "rols": _OK, "rgls": _SINGULAR,
        "ridge": _requires("ridge", "ridge-psi"), "mixed": _requires("mixed", "theta"),
        "mls": _OK, "tkn": _OK,
        "constrained": (2, "Eq. (20) combined-restriction consistency failed")},
    "sur_ok": {
        "ols": _OK, "gls": _SINGULAR,
        "rols": _requires("rols", "restrictions"),
        "rgls": _requires("rgls", "restrictions"),
        "ridge": _requires("ridge", "ridge-psi"),
        "mixed": _requires("mixed", "restrictions"),
        "mls": _OK, "tkn": _requires("tkn", "restrictions"), "constrained": _OK},
}


@pytest.mark.parametrize("inputs", sorted(REFUSAL_INPUTS))
def test_refusals_keep_their_order_codes_and_labels(inputs):
    """When several conditions fail at once, the one reported first, its
    exit code and its catalogue label stay as pinned, for every method."""
    argv = [_fixture(arg) if arg.endswith(".csv") else arg
            for arg in REFUSAL_INPUTS[inputs]]
    for method, (code, line) in REFUSALS[inputs].items():
        got, _, err = _main("estimate", *argv, "--method", method, "--output", "machine")
        # the certificate's digits are rounding-sensitive; its presence is not
        head, certificate, _ = (err.splitlines() or [""])[0].partition("certificate d = ")
        assert (got, head + certificate) == (code, f"error: {line}" if line else ""), method


@pytest.mark.parametrize("argv, line", [
    (("estimate", *_GOLDEN_MODEL, "--method", "ridge", "--ridge-psi", "nan"),
     "psi contains non-finite entries"),
    (("estimate", *_GOLDEN_MODEL, "--method", "ridge", "--ridge-psi", "inf"),
     "psi contains non-finite entries"),
    (("diagnose", *_GOLDEN_MODEL, "--tol", "nan"), "tolerance must be nonnegative"),
    (("diagnose", *_SUR, "--tol", "nan"), "tolerance must be nonnegative"),
], ids=["ridge-psi-nan", "ridge-psi-inf", "diagnose-tol-nan", "diagnose-sur-tol-nan"])
def test_a_non_finite_shift_or_tolerance_is_an_input_error(argv, line):
    got, out, err = _main(*(_fixture(arg) if arg.endswith(".csv") else arg for arg in argv))
    assert (got, out, err) == (1, "", f"error: {line}\n")


# ---------------------------------------------------------------------------
# kernel counts: each decision made once per command

_KERNELS = ("svd", "qr", "eigh", "eigvalsh", "cholesky", "solve")

# Per command: numpy.linalg calls (svd, qr, eigh, eigvalsh, cholesky,
# solve) and (fe_gls, fe_mls) fits, counted where the panel fits happen.
# On the golden model (8 x 3 design, positive definite 8 x 8 dispersion,
# one restriction row) build_model makes one eigh and no admissibility
# SVD.  A restriction consistency decision takes two SVDs: the rank of R
# (of full row rank, so no per-column SVD) and the reported rank of
# (R, r).  The whitened least-squares core takes one SVD of H when there
# are rows and one SVD of W X N, which both ranks and solves; no fit
# path makes a QR or a solve, so those columns pin their absence.  A
# singular dispersion's admission takes the scale of its membership
# cutoff, sigma_1(X), from 1 eigvalsh of the K x K Gram X'X.
KERNEL_COUNTS = {
    # the core's SVD of W X = X decides the design rank, which the CLI
    # reads off the fit: 1
    "estimate ols": ((*_GOLDEN_MODEL, "--method", "ols"), (1, 0, 1, 0, 0, 0), (0, 0)),
    # the core's SVD of [X; Psi^(1/2)] decides the shifted rank 1 + the
    # CLI's design rank 1; a scalar shift is diagonal, so no eigh
    "estimate ridge": ((*_GOLDEN_MODEL, "--method", "ridge", "--ridge-psi", "0.5"),
                       (2, 0, 1, 0, 0, 0), (0, 0)),
    # consistency 2 + identification (R; X) 1 + design rank 1, which the
    # CLI reads off the fit, + core: SVD of H = R 1 and of W X N 1
    "estimate rgls": ((*_GOLDEN_MODEL, "--restrictions", "restrictions.csv",
                       "--method", "rgls"), (6, 0, 1, 0, 0, 0), (0, 0)),
    # consistency 2 + whitened rank F'X 1 + core: SVD of H = R 1, which
    # also decides R's row rank, and of W X N 1 + the CLI's design rank 1
    "estimate tkn": ((*_GOLDEN_MODEL, "--restrictions", "restrictions.csv",
                      "--method", "tkn"), (6, 0, 1, 0, 0, 0), (0, 0)),
    # whitened rank F'X 1 + the CLI's design rank 1 + core: no rows, SVD
    # of W X 1
    "estimate mls": ((*_GOLDEN_MODEL, "--method", "mls"), (3, 0, 1, 0, 0, 0), (0, 0)),
    # consistency 2 + identification 1 + whitened rank 1 + the rank of
    # H = R in combine_restrictions 1; nothing is fitted
    "diagnose": ((*_GOLDEN_MODEL, "--restrictions", "restrictions.csv"),
                 (5, 0, 1, 0, 0, 0), (0, 0)),
    # SUR, n = 3, m = 5, K = 6, one common sigma block.  stack_sur's one
    # batched eigh of the 5 period blocks: 1 eigh.  SVDs: admissibility
    # 1 + identification on (no explicit rows; X) 1 + whitened rank F'X 1
    # + the rank of H = A'X (5 x 6, full row rank) in
    # combine_restrictions 1 + the Theil check's rank of F_0'X_t 1.
    # eigvalsh: admissibility's sigma_1(X) 1 + the Theil check's rank of
    # the one broadcast block 1; the check takes block 0's eigenvectors
    # from 1 eigh.
    "diagnose sur": ((*_SUR_OK,), (4 + 1, 0, 1 + 1, 1 + 1, 0, 0), (0, 0)),
    # stack_sur's one batched eigh of the period blocks, whose
    # decomposition the model keeps: 1 eigh; admissibility 1 + rank of
    # H = A'X (5 x 6, full row rank) 1 + identification on (no explicit
    # rows; X) 1, which the CLI reads as the design rank, + core: SVD of
    # H 1 and of W X N 1; admissibility's sigma_1(X): 1 eigvalsh
    "estimate constrained": ((*_SUR_OK, "--method", "constrained"),
                             (5, 0, 1, 1, 0, 0), (0, 0)),
    # regular-gls, 12 x 3: the design draw's random SPD dispersion takes a
    # QR, build_model an eigh; gls takes the design rank 1 and the core
    # (no rows) the SVD of W X 1, once for all 120 replications
    "simulate": (("--scenario", "regular-gls", "--reps", "120", "--seed", "7"),
                 (2, 1, 1, 0, 0, 0), (0, 0)),
    # Kronecker panel, n = 3, m = 4, K = 2.  build_fe_model decomposes the
    # one sigma block: 1 eigh, the only one.  verify_theorem5 fits fe_gls
    # (swept whitener read off the carried eigenpairs, no kernel) and
    # fe_mls (within whitener from 1 SVD of the within factor
    # M F Lambda^{1/2}) once each, _fit's core taking 1 SVD of the stacked
    # rows each, and compares the blocks S'S of the swept whitener (read
    # off the eigenpairs again) and W'W of the within whitener fe_mls
    # fitted with; no projector is built.  Each of the 4 dropped periods: 1 SVD of
    # the reduced factor D M F Lambda^{1/2} and _fit's 1 core SVD.  SVDs:
    # _fit cores 6 + within factor 1 + reduced factors 4.
    "panel": (("--panel", "panel.csv", "--sigma", "panel_sigma.csv"),
              (6 + 1 + 4, 0, 1, 0, 0, 0), (1, 1)),
    # n = 3, m = 4, K = 3.  The design draw's 3 random SPD blocks take a
    # QR each; the template panel's build_fe_model decomposes them in
    # 1 batched eigh; fe_gls whitens off those eigenpairs and runs _fit
    # once for all 100 replications: 1 core SVD
    "simulate fe-blockdiag": (("--scenario", "fe-blockdiag", "--reps", "100",
                               "--seed", "7"), (1, 3, 1, 0, 0, 0), (1, 0)),
    # as fe-blockdiag with the one common block: 1 QR for its draw
    "simulate fe-kronecker": (("--scenario", "fe-kronecker", "--reps", "100",
                               "--seed", "7"), (1, 1, 1, 0, 0, 0), (1, 0)),
}

# the whitened-rank diagnostic key names the estimator each panel._fit serves
_PANEL_FITS = {"swept_rank": "fe_gls", "whitened_within_rank": "fe_mls"}


def _kernel_calls(monkeypatch, subcommand, args):
    """Run one command in process; its numpy.linalg calls (_KERNELS) and
    its (fe_gls, fe_mls) fits."""
    from gmls import panel

    calls = dict.fromkeys(_KERNELS + ("fe_gls", "fe_mls"), 0)

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for name in _KERNELS:
        count(np.linalg, name)
    real_fit = panel._fit

    def counted_fit(model, whiteners, refuse, tag, rank_key, **diagnostics):
        if rank_key in _PANEL_FITS:
            calls[_PANEL_FITS[rank_key]] += 1
        return real_fit(model, whiteners, refuse, tag, rank_key, **diagnostics)
    monkeypatch.setattr(panel, "_fit", counted_fit)
    code, _, err = _main(subcommand, *args, "--output", "machine")
    assert code == 0, err
    return tuple(calls[name] for name in _KERNELS), (calls["fe_gls"], calls["fe_mls"])


@pytest.mark.parametrize("command", sorted(KERNEL_COUNTS))
def test_commands_make_each_factorization_once(monkeypatch, command):
    argv, kernels, fits = KERNEL_COUNTS[command]
    args = [_fixture(arg) if arg.endswith(".csv") else arg for arg in argv]
    assert _kernel_calls(monkeypatch, command.split()[0], args) == (kernels, fits)


def test_mixed_estimation_makes_each_factorization_once(monkeypatch, tmp_path):
    """estimate mixed on the golden model with its one restriction row and
    Theta = 0.5.  eigh: build_model's dispersion 1 + Theta's decomposition
    1.  SVDs: the core's SVD of the whitened augmented design, which both
    decides its rank and solves, 1 + the CLI's design rank, which the fit
    does not record, 1."""
    theta = tmp_path / "theta.csv"
    theta.write_text("0.5\n")
    args = [_fixture(arg) if arg.endswith(".csv") else arg for arg in _GOLDEN_MODEL]
    args += ["--restrictions", _fixture("restrictions.csv"), "--method", "mixed",
             "--theta", str(theta)]
    assert _kernel_calls(monkeypatch, "estimate", args) == ((2, 0, 2, 0, 0, 0), (0, 0))
