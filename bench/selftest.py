"""Self-tests of the benchmark.  Run: python3 bench/selftest.py

Smoke runs of every workload, the traced split against its own wall
time, repeatable kernel counts, negative controls for every correctness
check, the refusal outside a checkout, and agreement of BENCHMARK.json
with the code.  Takes about three minutes on two cores.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    """Run bench/run.py; returns (exit code, parsed last line or None, stdout)."""
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual(SPEC["command"], ["python3", "bench/run.py"])
        self.assertEqual(SPEC["paths"], ["bench"])


class Smoke(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                code, result, out = bench("--workload", name, "--seed", "5",
                                          "--seconds", "0.1", "--trace", "0")
                self.assertEqual(code, 0, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_refuses_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            code, result, _ = bench("--workload", "fit-dense", "--seed", "1",
                                    "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class Traced(unittest.TestCase):
    def traced(self, name, seed):
        code, result, out = bench("--workload", name, "--seed", str(seed),
                                  "--seconds", "0.1", "--trace", "1")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"], out)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_self_times_fit_in_the_traced_wall(self):
        for name in ("mc-adding-up", "cli-fixtures"):
            wl = workloads.make(name, 3)
            self.addCleanup(wl.close)
            records, summary = run.run_loop(wl, 0, traced=True, calls=wl.cycle)
            self_total = sum(v[2] for v in summary["layers"].values())
            wall = sum(r[1] for r in records)
            with self.subTest(workload=name):
                self.assertGreater(self_total, 0.0)
                self.assertLessEqual(self_total, wall)

    def test_kernel_counts_repeat_exactly(self):
        runs = {}
        for name in workloads.WORKLOADS:
            first, second = self.traced(name, 1), self.traced(name, 2)
            counted = [k for k in first if k.startswith("kernel.")
                       or k.endswith(".calls") or k.endswith(".max_dim")]
            with self.subTest(workload=name):
                self.assertEqual({k: first[k] for k in counted},
                                 {k: second[k] for k in counted})
            runs[name] = first
        self.assertEqual(runs["mc-adding-up"]["kernel.svd.calls"], 6)
        self.assertEqual(runs["mc-fe-blockdiag"]["kernel.cholesky.calls"], 4)
        # one dense T x T eigh each in build_model, the implicit restrictions,
        # the constrained estimator and mls
        self.assertEqual(runs["fit-sur"]["kernel.eigh.calls_large"], 4)
        self.assertEqual(runs["fit-sur"]["spectral.decompose.max_dim"], 2000)
        self.assertEqual(runs["fit-dense"]["kernel.eigh.calls_large"], 4)


class NegativeControls(unittest.TestCase):
    def test_injected_bias_fails_the_study(self):
        for name, scenario, k in (("mc-adding-up", "singular-adding-up", 2),
                                  ("mc-fe-blockdiag", "fe-blockdiag", 3)):
            wl = workloads.MonteCarlo(name, scenario, k, seed=1, bias_shift=0.1)
            records, _ = run.run_loop(wl, 0, traced=False, calls=1)
            with self.subTest(workload=name):
                self.assertEqual(run.count_failures(wl, records), (2000, 2000))

    def test_corrupted_cli_reference_fails(self):
        wl = workloads.make("cli-fixtures", 1)
        self.addCleanup(wl.close)
        records, _ = run.run_loop(wl, 0, traced=False, calls=wl.cycle)
        self.assertEqual(run.count_failures(wl, records), (5, 0))
        refs = copy.deepcopy(wl.references)
        refs[0]["results"]["coefficients"][0] *= 1 + 1e-6
        refs[4]["coefficients"][0] += 1e-6
        bad = workloads.CliFixtures(1, references=refs)
        failed = {wl.inputs(i) for i, _, _, out, _ in records
                  if not bad.check(wl.inputs(i), out)}
        self.assertEqual(failed, {0, 4})

    def test_nonzero_exit_fails(self):
        wl = workloads.make("cli-fixtures", 1)
        self.assertFalse(wl.check(0, (1, "")))

    def test_wrong_fits_fail(self):
        sur = workloads.make("fit-sur", 1)
        inst = sur.inputs(0)
        (beta_c, beta_m, kind), _ = sur.call(inst, False)
        self.assertTrue(sur.check(inst, (beta_c, beta_m, kind)))
        self.assertFalse(sur.check(inst, (beta_c * (1 + 1e-4), beta_m, kind)))
        self.assertFalse(sur.check(inst, (beta_c, beta_m + 1e-3, kind)))
        dense = workloads.make("fit-dense", 1)
        inst = dense.inputs(0)
        (beta_c, beta_m), _ = dense.call(inst, False)
        self.assertTrue(dense.check(inst, (beta_c, beta_m)))
        shift = 0.2 * np.max(np.abs(inst["beta"]))
        self.assertFalse(dense.check(inst, (beta_c + shift, beta_m)))


if __name__ == "__main__":
    unittest.main(verbosity=2)
