"""Call spans and LAPACK call counts for the traced benchmark run.

The tracer wraps, from outside the package, every public function of the
gmls layer modules and the LAPACK entry points the package calls
(numpy.linalg eigh, svd, lstsq and qr, scipy.linalg.cho_factor).  A
wrapped gmls function is patched under every name any gmls module bound
it to, so calls between modules are seen too.  Spans (name, start, end,
parent) stay in memory; ``summary`` turns them into additive totals that
``per_layer`` divides by the operation count.  Nothing is installed
unless ``install`` is called, so untraced runs execute the package as is.

Floating-point operation counts are the textbook counts (Golub and Van
Loan, Matrix Computations, section 8.6) evaluated at the operand shapes,
and ``kernel.bytes`` is the size of the operands and results: both are
computed from shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("spectral", "model", "identify", "estimators", "panel", "montecarlo", "cli")

# Spans of these functions are reported under a shorter layer name; any
# other public function is reported as "<module>.<function>".
LAYER_NAMES = {
    "spectral.spectral_decompose": "spectral.decompose",
    "spectral.numeric_rank": "spectral.rank",
    "spectral.null_space_basis": "spectral.null_basis",
    "model.build_model": "model.build",
    "identify.extract_implicit_restrictions": "identify.implicit",
    "identify.combine_restrictions": "identify.combine",
    "identify.check_restriction_consistency": "identify.checks",
    "identify.check_joint_identification": "identify.checks",
    "identify.check_mls_invertibility": "identify.checks",
    "identify.check_theil_condition": "identify.theil",
    "panel.build_fe_model": "panel.build_fe",
    "panel.fe_drop_period": "panel.drop_period",
    "panel.verify_theorem5": "panel.theorem5",
}

# A kernel call whose operand has both dimensions at least this large is
# a dense O(T^3) call on the whole model rather than a per-block or
# restriction-sized one.
LARGE_DIM = 256

ESTIMATORS = ("gls", "rgls", "mls", "constrained_singular_gls")
KERNELS = ("eigh", "svd", "lstsq", "qr", "cholesky")

# (name, unit) of every per-layer metric, in report order.  Counts, flops,
# bytes and times are per operation: per CLI invocation, per Monte Carlo
# replication, or per fit.
PER_LAYER = (
    [("cli.startup_s", "s"), ("cli.self_s", "s"),
     ("spectral.decompose.calls", "count"), ("spectral.decompose.s", "s"),
     ("spectral.decompose.max_dim", "count"),
     ("spectral.rank.calls", "count"), ("spectral.rank.s", "s"),
     ("spectral.null_basis.calls", "count"), ("spectral.null_basis.s", "s"),
     ("model.build.calls", "count"), ("model.build.self_s", "s"),
     ("model.stack_sur.self_s", "s"),
     ("identify.implicit.s", "s"), ("identify.combine.s", "s"),
     ("identify.checks.s", "s"), ("identify.theil.s", "s")]
    + [(f"estimators.{fn}.{field}", unit) for fn in ESTIMATORS
       for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"panel.{fn}.self_s", "s")
       for fn in ("build_fe", "fe_gls", "fe_mls", "drop_period", "theorem5")]
    + [("montecarlo.self_s", "s"),
       ("kernel.eigh.calls", "count"), ("kernel.eigh.calls_large", "count"),
       ("kernel.eigh.flops", "flop"),
       ("kernel.svd.calls", "count"), ("kernel.svd.calls_large", "count"),
       ("kernel.svd.flops", "flop"),
       ("kernel.cholesky.calls", "count"), ("kernel.lstsq.calls", "count"),
       ("kernel.qr.calls", "count"), ("kernel.bytes", "B-computed"),
       ("accuracy.beta_err", "1"), ("accuracy.beta_err_mls", "1"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


# Per-layer metrics measured around the spans rather than from them.
FROM_OUTSIDE = ("cli.startup_s", "accuracy.beta_err", "accuracy.beta_err_mls",
                "trace.wall_s", "trace.overhead_s")


def _svd_flops(m: int, n: int, compute_uv: bool, full: bool) -> int:
    if m < n:
        m, n = n, m
    if not compute_uv:
        return 4 * m * n * n - 4 * n ** 3 // 3
    if full:
        return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    return 14 * m * n * n + 8 * n ** 3


def _kernel_cost(kind: str, args, kwargs):
    """(smaller dimension, flops, bytes) of one kernel call, from shapes."""
    a = args[0]
    shape = getattr(a, "shape", ())
    rows, cols = (shape[-2], shape[-1]) if len(shape) >= 2 else (len(a), 1)
    size = rows * cols
    if kind == "eigh":
        return rows, 9 * rows ** 3, 8 * (2 * size + rows)
    if kind == "svd":
        compute_uv = kwargs.get("compute_uv", True)
        full = kwargs.get("full_matrices", True)
        k = min(rows, cols)
        out = k
        if compute_uv:
            out += (rows * rows + cols * cols) if full else (rows * k + k * cols)
        return k, _svd_flops(rows, cols, compute_uv, full), 8 * (size + out)
    if kind == "lstsq":
        b = args[1]
        rhs = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
        return min(rows, cols), 0, 8 * (size + rows * rhs + cols * rhs)
    if kind == "qr":
        k = min(rows, cols)
        return k, 0, 8 * (size + rows * k + k * cols)
    return rows, 0, 8 * 2 * size  # cholesky


class Tracer:
    """Records spans of wrapped gmls functions and counts of kernel calls."""

    def __init__(self):
        self.spans = []      # [name, module, start, end, parent index]
        self.kernels = []    # (kind, smaller dimension, flops, bytes)
        self._stack = []
        self._patches = []   # (namespace object, attribute, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, module, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
        return traced

    def _wrap_kernel(self, fn, kind: str):
        kernels = self.kernels

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            kernels.append((kind, *_kernel_cost(kind, args, kwargs)))
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the gmls layer functions and the kernels; undo with uninstall."""
        import gmls
        import numpy
        import scipy.linalg

        modules = [importlib.import_module(f"gmls.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                key = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(obj, LAYER_NAMES.get(key, key), short))
        for ns in [gmls, *modules]:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        for kind, owner, attr in (("eigh", numpy.linalg, "eigh"),
                                  ("svd", numpy.linalg, "svd"),
                                  ("lstsq", numpy.linalg, "lstsq"),
                                  ("qr", numpy.linalg, "qr"),
                                  ("cholesky", scipy.linalg, "cho_factor")):
            self._patch(owner, attr, self._wrap_kernel(getattr(owner, attr), kind))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals over all recorded spans and kernel calls.

        A span's self time is its duration minus the durations of the
        spans it called directly.
        """
        child = [0.0] * len(self.spans)
        for name, module, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers, modules = {}, {}
        for (name, module, start, end, _), inner in zip(self.spans, child):
            calls, total, self_s = layers.get(name, (0, 0.0, 0.0))
            layers[name] = (calls + 1, total + end - start, self_s + end - start - inner)
            modules[module] = modules.get(module, 0.0) + end - start - inner
        kernels = {k: [0, 0, 0, 0] for k in KERNELS}
        max_dim = 0
        for kind, dim, flops, nbytes in self.kernels:
            entry = kernels[kind]
            entry[0] += 1
            entry[1] += dim >= LARGE_DIM
            entry[2] += flops
            entry[3] += nbytes
            if kind == "eigh":
                max_dim = max(max_dim, dim)
        return {"layers": {k: list(v) for k, v in layers.items()},
                "modules": modules, "kernels": kernels, "eigh_max_dim": max_dim}


def merge(total: dict | None, part: dict) -> dict:
    """Add one summary into another (kernel dimension maxima take the max)."""
    if total is None:
        return {"layers": {k: list(v) for k, v in part["layers"].items()},
                "modules": dict(part["modules"]),
                "kernels": {k: list(v) for k, v in part["kernels"].items()},
                "eigh_max_dim": part["eigh_max_dim"]}
    for key, vals in part["layers"].items():
        acc = total["layers"].setdefault(key, [0, 0.0, 0.0])
        for i, v in enumerate(vals):
            acc[i] += v
    for key, v in part["modules"].items():
        total["modules"][key] = total["modules"].get(key, 0.0) + v
    for key, vals in part["kernels"].items():
        acc = total["kernels"][key]
        for i, v in enumerate(vals):
            acc[i] += v
    total["eigh_max_dim"] = max(total["eigh_max_dim"], part["eigh_max_dim"])
    return total


def per_layer(summary: dict, ops: int, extra: dict) -> dict:
    """Per-operation values of every PER_LAYER metric.

    ``extra`` supplies the metrics that do not come from spans: the CLI
    start-up, the accuracy figures and the traced and untraced walls,
    already per operation; those a workload lacks read 0.
    """
    layers, kernels = summary["layers"], summary["kernels"]
    extra = {**dict.fromkeys(FROM_OUTSIDE, 0.0), **extra}

    def layer(name, field):
        calls, total, self_s = layers.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": self_s}[field] / ops

    values = {}
    for name, unit in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif name == "spectral.decompose.max_dim":
            value = summary["eigh_max_dim"]
        elif name in ("cli.self_s", "montecarlo.self_s"):
            value = summary["modules"].get(head, 0.0) / ops
        elif head.startswith("kernel."):
            kind = head.split(".", 1)[1]
            field_idx = {"calls": 0, "calls_large": 1, "flops": 2}[field]
            value = kernels[kind][field_idx] / ops
        elif name == "kernel.bytes":
            value = sum(k[3] for k in kernels.values()) / ops
        else:
            value = layer(head, field)
        values[name] = {"value": value, "unit": unit}
    return values
