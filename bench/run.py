"""gmls benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-fixtures, mc-adding-up, mc-fe-blockdiag, fit-sur,
fit-dense (see bench/README.md for what each measures and why).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: setup_s (median fresh-interpreter ``import gmls``),
op_s.p50 (median wall time of one operation: a CLI invocation, a Monte
Carlo replication or a fit) and peak_rss_mb; setup_s, and op_s.p50 of
the interpreter-bound workloads, are rescaled to the reference machine
speed (see ``Calibration``).  With --trace 1 it
holds the per-layer split of bench/tracing.py, per operation, from a
traced loop that repeats the calls of an untraced one.  Every output is
checked; operations that raise, exit nonzero or fail their check count as
failed.  Lines before the last are the environment and a human-readable
summary with the raw seconds.
"""

from __future__ import annotations

import os

# BLAS threads must not exceed the processors this process may run on;
# set before numpy is first imported, here and in every child.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
NEEDED = (os.path.join(SRC, "gmls", "__init__.py"),
          os.path.join(ROOT, "tests", "oracles.py"),
          os.path.join(ROOT, "tests", "fixtures", "golden_estimate.json"))

# Fresh interpreters timed for setup_s.
SETUP_PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gmls; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="gmls benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Spread:
    """Samples of ``measure()`` taken between calls across the timed loop.

    Taken where the loop has got to, so they see the same machine speed as
    the calls; the first sample only warms caches and is dropped.
    """

    def __init__(self, measure, count: int, seconds: float):
        self.measure, self.count, self.seconds, self.samples = measure, count, seconds, []

    def catch_up(self, elapsed: float) -> None:
        due = 1 + int(self.count * elapsed / self.seconds) if self.seconds > 0 else 1
        while len(self.samples) < min(due, self.count + 1):
            self.samples.append(self.measure())

    def result(self) -> list:
        self.catch_up(self.seconds)
        return self.samples[1:]


def import_probe(env: dict) -> float:
    """Time of ``import gmls`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


class Calibration:
    """A fixed kernel that tracks the speed of the machine during a run.

    On a shared host the speed of the same code drifts by up to 2x over
    seconds to minutes.  The kernel, a pure-Python loop, small NumPy
    factorizations and a dense 300 x 300 ``eigh``, is timed before every
    call and after the last; in a workload marked ``rescaled`` each call
    time is divided by the mean of the two kernel times around it, and
    each import probe by the kernel time taken right after it.  Over four
    minutes of Monte Carlo calls this cut the spread (interquartile range
    over median) of 15-second medians from 0.20 to 0.03.  A time is
    reported as
    raw * REFERENCE_S / kernel time: the seconds it would take at the
    speed where the kernel runs in REFERENCE_S, about its median on the
    2-vCPU host the benchmark was defined on.  The kernel runs no gmls
    code, so a change to the package moves only the raw time.
    """

    REFERENCE_S = 0.06

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        root = rng.normal(size=(300, 300))
        self._spd = root @ root.T
        self._small = rng.normal(size=(6, 6))

    def sample(self) -> float:
        import numpy as np

        a = self._small
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(250):
            np.linalg.svd(a)
            np.linalg.svd(np.vstack([a, a]), compute_uv=False)
            np.linalg.lstsq(a, a[:, :1], rcond=None)
        for _ in range(2):
            np.linalg.eigh(self._spd)
        return time.perf_counter() - start


def run_loop(wl, seconds: float, traced: bool, calls: int | None = None, between=None):
    """Closed loop of calls: for ``seconds`` in whole cycles, or ``calls`` calls.

    ``between(elapsed)``, if given, runs before each call, outside its
    timing.  Returns the records (index, wall, ops, output or None, peak
    resident kB of this process so far) and, when traced, the merged span
    summary of this process and any children.  Inputs are not kept; checks
    rebuild them from the index.
    """
    from tracing import Tracer, merge

    records, summary = [], None
    start = time.perf_counter()
    i = 0
    while (i < calls) if calls is not None else \
            (time.perf_counter() - start < seconds or i % wl.cycle):
        if between is not None:
            between(time.perf_counter() - start)
        inputs = wl.inputs(i)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out, child = wl.call(inputs, traced)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            out, child = None, None
        wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
            summary = merge(summary, tracer.summary())
        if child is not None:
            summary = merge(summary, child)
        records.append((i, wall, wl.ops_per_call, out,
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        i += 1
    return records, summary


def count_failures(wl, records) -> tuple:
    attempted = failed = 0
    for i, _, ops, out, _ in records:
        attempted += ops
        ok = False
        if out is not None:
            try:
                ok = wl.check(wl.inputs(i), out)
            except Exception:  # a check that cannot run is a failed check
                traceback.print_exc()
        if not ok:
            failed += ops
    return attempted, failed


def percentile_with_tail(values: list):
    """Highest of p99/p90/p75 that has at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None, None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas_name = "unknown"
    return {
        "workload": workload, "seed": seed, "nproc": NPROC,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(), "src_lines": src_lines(),
    }


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", *ref[5:].split("/"))) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "gmls")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in NEEDED if not os.path.isfile(p)]
    if missing:
        sys.stderr.write(f"error: not a gmls checkout, missing {', '.join(missing)}\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.make(args.workload, args.seed)
    print("environment: " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    try:
        result = measure(wl, args)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


def measure(wl, args) -> dict:
    """Run the loop(s) of one workload; returns the result line."""
    import workloads

    if args.trace:
        from tracing import per_layer

        plain, _ = run_loop(wl, args.seconds / 2, traced=False)
        traced, summary = run_loop(wl, 0, traced=True, calls=len(plain))
        attempted, failed = (a + b for a, b in zip(count_failures(wl, plain),
                                                   count_failures(wl, traced)))
        ops = sum(r[2] for r in traced)
        traced_wall = sum(r[1] for r in traced)
        extra = {"trace.wall_s": traced_wall / ops,
                 "trace.overhead_s": (traced_wall - sum(r[1] for r in plain)) / ops,
                 **wl.extra_metrics(ops)}
        metrics = per_layer(summary, ops, extra)
    else:
        env = workloads.child_env()
        calibration = Calibration()
        # each import probe is paired with a kernel time taken right after it
        probes = Spread(lambda: (import_probe(env), calibration.sample()),
                        SETUP_PROBES, args.seconds)
        speed = []  # kernel times before each call, and after the last

        def between(elapsed):
            probes.catch_up(elapsed)
            speed.append(calibration.sample())

        records, _ = run_loop(wl, args.seconds, traced=False, between=between)
        speed.append(calibration.sample())
        # CLI children run in their own processes, the rest in this one,
        # where the peak is read after the first call: later calls add
        # allocator history, not memory one operation needs
        peak_rss_kb = wl.peak_rss_kb if wl.name == "cli-fixtures" else records[0][4]
        peak_rss_mb = peak_rss_kb / 1024.0
        setup_samples = probes.result()
        attempted, failed = count_failures(wl, records)
        ref = Calibration.REFERENCE_S
        setup = statistics.median(p for p, _ in setup_samples)
        setup_scaled = statistics.median(p * ref / k for p, k in setup_samples)
        scales = [2 * ref / (speed[j] + speed[j + 1]) for j in range(len(records))]
        per_op = [wall / ops for _, wall, ops, _, _ in records]
        p50 = statistics.median(per_op)
        p50_scaled = statistics.median(t * c for t, c in zip(per_op, scales)) \
            if wl.rescaled else p50
        tail_p, tail = percentile_with_tail(per_op)
        print(f"{wl.name}: {len(records)} calls, {sum(r[2] for r in records)} "
              f"{wl.op_name}s in {sum(r[1] for r in records):.3f} s timed; raw seconds, "
              f"kernel median {statistics.median(speed):.4f} s for {ref} s reference")
        print(f"  op_s.p50      {p50:.6g} s per {wl.op_name} (n={len(per_op)}), "
              f"{p50_scaled:.6g} s {'rescaled' if wl.rescaled else 'reported'}")
        if tail_p is not None:
            print(f"  op_s.p{tail_p:<10} {tail:.6g} s per {wl.op_name}")
        print(f"  ops_per_s     {sum(r[2] for r in records) / sum(r[1] for r in records):.6g} 1/s")
        print(f"  setup_s       {setup:.6g} s, {setup_scaled:.6g} s rescaled "
              f"(probes {', '.join(f'{p:.4f}' for p, _ in setup_samples)})")
        print(f"  peak_rss_mb   {peak_rss_mb:.6g} MB")
        for name, value in wl.extra_metrics(sum(r[2] for r in records)).items():
            if name.startswith("accuracy."):
                print(f"  {name:<13} {value:.6g}")
        metrics = {"setup_s": metric(setup_scaled, "s"),
                   "op_s.p50": metric(p50_scaled, "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
    print(f"  failed_ratio  {failed / attempted:.6g} ({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
