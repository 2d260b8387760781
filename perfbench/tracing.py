"""Outside-in tracing of lsqmatch's public functions, and the per-layer metrics.

``Tracer.install`` wraps each function in ``TRACED`` without editing the
source: it rebinds every attribute of every loaded ``lsqmatch`` module that
refers to the function object, so calls through names bound by
``from .linalg import gram`` are caught too.  Each call records one span
(name, start, end, parent, op, count, work) in memory; self time is computed
from the nested spans at the end.  Counts and work are read from arguments
and return values.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _text_bytes(args, result):
    return 0, len(args[0])


def _formatted_bytes(args, result):
    return 0, len(result)


def _gram_flops(args, result):
    m, n = np.shape(args[0])
    return 0, 2.0 * m * n * n


def _sweeps(args, result):
    return result[0], 0.0


def _newton_iterations(args, result):
    n = args[0].shape[0]
    return result[2], 4.0 * n**3 * result[2]


def _invert_iterations(args, result):
    return result.iterations, 0.0


#: (module, function, reader of (exact count, work in flops or bytes) or None).
TRACED = [
    ("cli", "main", None),
    ("matio", "load_matrix", None),
    ("matio", "parse_matrix", _text_bytes),
    ("matio", "format_matrix", _formatted_bytes),
    ("matio", "save_matrix", None),
    ("matching", "solve_transform", None),
    ("linalg", "as_matrix", None),
    ("linalg", "symmetrize", None),
    ("linalg", "gram", _gram_flops),
    ("linalg", "transpose_multiply", None),
    ("linalg", "multiply", None),
    ("linalg", "frobenius_distance", None),
    ("linalg", "symmetric_eigen", None),
    ("kernels", "jacobi_sweeps", _sweeps),
    ("kernels", "newton_schulz", _newton_iterations),
    ("inverter", "invert", _invert_iterations),
    ("scaling", "alpha_trace_value", None),
    ("scaling", "alpha_gershgorin_value", None),
    ("scaling", "alpha_optimal_bounds", None),
    ("scaling", "rescale", None),
    ("generate", "uniform_pattern", None),
    ("generate", "more_toraldo", None),
    ("bench", "run_table1_suite", None),
    ("bench", "run_mt_suite", None),
]

#: Input validation, reported as one layer.
VALIDATION = ("linalg.as_matrix", "linalg.symmetrize")

#: Op index given to spans recorded during a traced set-up.
SETUP_OP = -1

#: Per-layer metrics whose values must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "linalg.validation.calls_per_op",
    "inverter.invert.iterations_per_op",
    "kernels.jacobi_sweeps.sweeps_per_call",
)


class Tracer:
    """Records a span per call of each traced function while ``op`` is set."""

    def __init__(self):
        #: Index of the op being run, SETUP_OP during set-up, None when off.
        self.op: int | None = None
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "lsqmatch" or name.startswith("lsqmatch.")
        ]
        for module, func, reader in TRACED:
            fn = getattr(sys.modules.get(f"lsqmatch.{module}"), func, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{module}.{func}", fn, reader)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn, reader):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op, 0, 0.0)
            if reader is not None:
                spans[idx] = (name, start, end, parent, op, *reader(args, result))
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [span[2] - span[1] - child[k] for k, span in enumerate(self.spans)]


class _Layer:
    """Sums over one traced function's spans."""

    def __init__(self):
        self.setup_s = 0.0  # self time during the traced set-up
        self.self_s = 0.0  # self time during ops
        self.all_s = 0.0  # self time during set-up and ops
        self.work = 0.0  # flops or bytes during set-up and ops
        self.count = 0  # exact count during ops
        self.calls_window = 0  # calls during the count window
        self.count_window = 0  # exact count during the count window


def layer_metrics(tracer: Tracer, op_seconds: float, ops: int, count_ops: int):
    """Per-layer metrics of a traced run, and each function's op self time.

    Times are per op unless named ``setup_ms``.  Exact counts are taken over
    the first ``count_ops`` ops, so they do not depend on how many ops fit in
    the run; rates are taken over every traced call.
    """
    layers: dict[str, _Layer] = {}
    for (name, _, _, _, op, count, work), self_s in zip(tracer.spans, tracer.self_times()):
        layer = layers.setdefault(name, _Layer())
        layer.all_s += self_s
        layer.work += work
        if op == SETUP_OP:
            layer.setup_s += self_s
            continue
        layer.self_s += self_s
        layer.count += count
        if op < count_ops:
            layer.calls_window += 1
            layer.count_window += count

    def get(name):
        return layers.get(name, _Layer())

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def per_op_ms(*names):
        return 1e3 * sum(get(name).self_s for name in names) / ops

    out = {}
    for module, func, _ in TRACED:
        name = f"{module}.{func}"
        if name not in VALIDATION:
            out[f"{name}.self_ms"] = per_op_ms(name)
    for name in ("matio.parse_matrix", "matio.format_matrix"):
        out[f"{name}.mb_per_s"] = ratio(get(name).work / 1e6, get(name).all_s)
    for name in ("matio.format_matrix", "matio.save_matrix"):
        out[f"{name}.setup_ms"] = 1e3 * get(name).setup_s
    for name in ("linalg.gram", "kernels.newton_schulz"):
        out[f"{name}.gflop_per_s"] = ratio(get(name).work / 1e9, get(name).all_s)
    out["linalg.validation.self_ms"] = per_op_ms(*VALIDATION)
    out["linalg.validation.calls_per_op"] = (
        sum(get(name).calls_window for name in VALIDATION) / count_ops
    )
    jacobi = get("kernels.jacobi_sweeps")
    out["kernels.jacobi_sweeps.sweeps_per_call"] = ratio(jacobi.count_window, jacobi.calls_window)
    out["kernels.jacobi_sweeps.ms_per_sweep"] = ratio(1e3 * jacobi.self_s, jacobi.count)
    newton = get("kernels.newton_schulz")
    out["kernels.newton_schulz.ms_per_iteration"] = ratio(1e3 * newton.self_s, newton.count)
    out["inverter.invert.iterations_per_op"] = get("inverter.invert").count_window / count_ops
    accounted = sum(layer.self_s for layer in layers.values())
    out["trace.unaccounted_ms_per_op"] = 1e3 * (op_seconds - accounted) / ops
    return out, {name: layer.self_s for name, layer in layers.items()}
