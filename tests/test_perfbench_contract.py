"""The benchmark's traced run, one cycle per workload, against the program as it is.

``perfbench/tracing.py`` reads counts off production calls: the length of
``matio.format_matrix``'s string, the shape of ``linalg.gram``'s positional
argument and the ``.iterations`` of ``inverter.invert``'s report.  A change
to any of those makes the traced run's ops fail; these tests see it first.
"""

import importlib.util
from pathlib import Path

import pytest

import lsqmatch
import lsqmatch.bench
import lsqmatch.cli
import lsqmatch.generate
import lsqmatch.matching
import lsqmatch.matio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_cycle_passes_its_checks(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = tracing.SETUP_OP
        workload = cls(lsqmatch, 1, str(tmp_path))
        workload.run(workload.inputs(0))
        for i in range(cls.CYCLE):
            inp = workload.inputs(i)
            tracer.op = i
            out = workload.run(inp)
            tracer.op = None
            assert workload.check(inp, out) is None
    finally:
        tracer.op = None
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer, 1.0, cls.CYCLE, cls.CYCLE)
    assert metrics["inverter.invert.iterations_per_op"] > 0
