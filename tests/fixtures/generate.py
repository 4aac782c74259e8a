"""Regenerate the committed CLI fixtures.

Writes deterministic CSV inputs (values rounded to 6 decimals so the
files round-trip exactly) and the golden machine-format outputs the CLI
tests compare against byte for byte.  Run from the repository root:

    python3 tests/fixtures/generate.py

Regenerating the goldens is only legitimate after an intentional,
reviewed change to the report format or to the bits of an estimate.

    python3 tests/fixtures/generate.py --compare

regenerates everything into a temporary directory, writes nothing here,
and prints for each golden either "byte-identical" or its largest
relative numeric change, |new - old| / |old|, with the JSON path where
it occurs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir, "src"))


def save(out, name, arr):
    np.savetxt(os.path.join(out, name), np.round(arr, 6), delimiter=",",
               fmt="%.6f")


def write_fixtures(out):
    """Write every input fixture and golden into the directory ``out``."""
    rng = np.random.default_rng(20240817)

    # regular 8 x 3 instance
    x = np.round(rng.normal(size=(8, 3)), 6)
    beta = np.array([[1.0], [-0.5], [2.0]])
    root = np.round(rng.normal(size=(8, 8)), 6)
    omega = np.round(root @ root.T / 8.0 + 0.5 * np.eye(8), 6)
    chol = np.linalg.cholesky(omega)
    y = np.round(x @ beta + chol @ rng.normal(size=(8, 1)), 6)
    save(out, "design.csv", x)
    save(out, "response.csv", y)
    save(out, "dispersion.csv", omega)
    with open(os.path.join(out, "restrictions.csv"), "w") as f:
        f.write("1,1,0,3\n")
    with open(os.path.join(out, "inconsistent_restrictions.csv"), "w") as f:
        f.write("1,0,0,1\n2,0,0,3\n")

    # deficient design repaired by nothing: column 3 duplicates column 1,
    # and the committed restriction row lies inside the deficient span
    x_bad = x.copy()
    x_bad[:, 2] = x_bad[:, 0]
    y_bad = np.round(x_bad @ np.array([[1.0], [2.0], [1.0]]), 6)
    save(out, "design_collinear.csv", x_bad)
    save(out, "response_collinear.csv", y_bad)
    with open(os.path.join(out, "useless_restrictions.csv"), "w") as f:
        f.write("1,0,1,0\n")

    # malformed matrix: ragged third row
    with open(os.path.join(out, "bad_rows.csv"), "w") as f:
        f.write("1.0,2.0\n3.0,4.0\n5.0\n")

    # SUR systems, 3 equations x 5 periods, 2 covariates each.  The
    # period dispersion is built from generators orthogonal to (1,1,1)
    # with entries that are exact binary fractions, so its null
    # direction survives both the 6-decimal file format and float
    # parsing exactly.  Responses carry full precision: they must sit
    # in the admissible range of the parsed design to the ulp.
    n, m = 3, 5
    b1 = np.array([[1.0], [-1.0], [0.0]])
    b2 = np.array([[1.0], [1.0], [-2.0]])
    sigma = b1 @ b1.T + 0.5 * (b2 @ b2.T)
    save(out, "sigma.csv", sigma)

    def write_sur(name, designs, coeffs):
        rows = ["equation,period,response,x1,x2"]
        for i in range(len(designs)):
            bi = coeffs[2 * i:2 * i + 2]
            for t in range(designs[i].shape[0]):
                yv = float(designs[i][t] @ bi)
                rows.append(f"{i + 1},{t + 1},{yv!r},"
                            f"{designs[i][t, 0]:.6f},{designs[i][t, 1]:.6f}")
        with open(os.path.join(out, name), "w") as f:
            f.write("\n".join(rows) + "\n")
        return rows

    sur_beta = np.array([1.0, 0.5, -1.0, 2.0, 0.25, 1.5])

    # equation 2 collinear within itself: rank test has a witness
    designs = [np.round(rng.normal(size=(m, 2)), 6) for _ in range(n)]
    col = np.round(rng.normal(size=(m, 1)), 6)
    designs[1] = np.hstack([col, 2.0 * col])
    write_sur("sur.csv", designs, sur_beta)

    # well-posed variant plus an explicit restriction that copies the
    # period-1 implicit row but bumps its right side by one
    designs_ok = [np.round(rng.normal(size=(m, 2)), 6) for _ in range(n)]
    write_sur("sur_ok.csv", designs_ok, sur_beta)
    g_row = np.concatenate([d[0] for d in designs_ok])
    g_rhs = sum(float(d[0] @ sur_beta[2 * i:2 * i + 2])
                for i, d in enumerate(designs_ok))
    with open(os.path.join(out, "conflicting_sur_restrictions.csv"), "w") as f:
        f.write(",".join(repr(float(v)) for v in g_row) + f",{g_rhs + 1.0!r}\n")

    # fixed-effects panel, 3 equations x 4 periods, 2 covariates
    n, m = 3, 4
    fe_beta = np.array([1.5, -0.7])
    effects = [0.3, -0.2, 0.8]
    rows = ["equation,period,response,x1,x2"]
    for i in range(n):
        xi = np.round(rng.normal(size=(m, 2)), 6)
        for t in range(m):
            yv = float(xi[t] @ fe_beta) + effects[i] \
                + round(0.1 * float(rng.normal()), 6)
            rows.append(f"{i + 1},{t + 1},{yv:.6f},{xi[t, 0]:.6f},{xi[t, 1]:.6f}")
    with open(os.path.join(out, "panel.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    root = np.round(rng.normal(size=(m, m)), 6)
    save(out, "panel_sigma.csv", np.round(root @ root.T / m + 0.5 * np.eye(m), 6))
    save(out, "panel_sigma_bad.csv", np.diag([1.0, 1.0, 1.0, -0.5]))

    # golden machine outputs
    goldens = {
        "golden_estimate.json": [
            "estimate", "--design", "design.csv", "--response", "response.csv",
            "--dispersion", "dispersion.csv", "--restrictions",
            "restrictions.csv", "--method", "rgls", "--output", "machine"],
        "golden_diagnose.json": [
            "diagnose", "--design", "design.csv", "--response", "response.csv",
            "--dispersion", "dispersion.csv", "--restrictions",
            "restrictions.csv", "--output", "machine"],
        "golden_panel.json": [
            "panel", "--panel", "panel.csv", "--sigma", "panel_sigma.csv",
            "--output", "machine"],
        "golden_simulate.json": [
            "simulate", "--scenario", "regular-gls", "--reps", "120",
            "--seed", "7", "--output", "machine"],
    }
    # the children run inside ``out``, where a relative PYTHONPATH=src
    # would no longer resolve
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    for name, argv in goldens.items():
        run = subprocess.run([sys.executable, "-m", "gmls"] + argv,
                             cwd=out, env=env, capture_output=True)
        if run.returncode != 0:
            raise SystemExit(f"{name}: exit {run.returncode}: {run.stderr.decode()}")
        with open(os.path.join(out, name), "wb") as f:
            f.write(run.stdout)
    return list(goldens)


def largest_change(old, new, path=""):
    """(relative change, path) of the numeric leaf of ``new`` that moved
    most from ``old``; a change of structure or of a non-numeric leaf
    raises ValueError naming its path."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise ValueError(f"keys differ at {path or '/'}")
        pairs = [(old[k], new[k], f"{path}.{k}" if path else k) for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise ValueError(f"lengths differ at {path}")
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        if old == new:
            return 0.0, path
        return (abs(new - old) / abs(old) if old else float("inf")), path
    elif old == new:
        return 0.0, path
    else:
        raise ValueError(f"value differs at {path}")
    return max((largest_change(a, b, p) for a, b, p in pairs),
               key=lambda change: change[0], default=(0.0, path))


def compare():
    """Print, for each golden, how a regeneration would change it."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in write_fixtures(tmp):
            with open(os.path.join(HERE, name), "rb") as f:
                old = f.read()
            with open(os.path.join(tmp, name), "rb") as f:
                new = f.read()
            if old == new:
                print(f"{name}: byte-identical")
                continue
            try:
                change, path = largest_change(json.loads(old), json.loads(new))
                print(f"{name}: largest relative change {change:.3g} at {path}")
            except ValueError as exc:
                print(f"{name}: {exc}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="regenerate into a temporary directory and report "
                             "how each golden would change; write nothing here")
    if parser.parse_args(argv).compare:
        compare()
    else:
        write_fixtures(HERE)
        print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
