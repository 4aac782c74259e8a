"""End-to-end exercises of the command line front end.

Every test shells out to ``python3 -m gmls`` so argument parsing, file
loading, refusal paths, and report formatting are covered exactly as a
user would hit them.  The golden files under fixtures/ pin the machine
output format; byte-for-byte comparison is intentional.
"""

import json
import os
import subprocess
import sys

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


def run_cli(*argv, env_extra=None, text=True):
    env = os.environ.copy()
    env.pop("GMLS_TOL", None)
    if env_extra:
        env.update(env_extra)
    # the child runs inside fixtures/, where a relative PYTHONPATH=src
    # would no longer resolve
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gmls", *argv],
                         cwd=FIXTURES, env=env, capture_output=True, text=text)


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

def test_env_var_and_flag_produce_identical_reports():
    via_flag = run_cli("diagnose", "--design", "design.csv",
                       "--response", "response.csv",
                       "--dispersion", "dispersion.csv",
                       "--tol", "1e-9", "--output", "machine", text=False)
    via_env = run_cli("diagnose", "--design", "design.csv",
                      "--response", "response.csv",
                      "--dispersion", "dispersion.csv",
                      "--output", "machine", text=False,
                      env_extra={"GMLS_TOL": "1e-9"})
    assert via_flag.returncode == via_env.returncode == 0
    assert via_flag.stdout == via_env.stdout
    doc = json.loads(via_flag.stdout)
    assert doc["inputs"]["tolerance"] == 1e-9


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
