"""The lsqmatch benchmark: four workloads, end-to-end metrics, a traced run per layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0 [--out runs.jsonl]

``--trace 0`` times the ops with tracing off and reports the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` traces every second cycle
of ops and reports the per-layer metrics.  Every op is a call into a public
lsqmatch function, timed from outside, on inputs made from the seed before
the timed region, and checked after it (see ``workloads.py``).  The last
stdout line is the result; the line before it is the full record with the
environment, which ``--out`` also appends to a JSON lines file.  Compare two
such files with::

    python3 perfbench/run.py --compare base.jsonl new.jsonl

The package is imported from this checkout's ``src`` directory; without it
the benchmark fails before printing a result.  BLAS runs on a fixed thread
count and lsqmatch on its numpy path, both set before numpy is imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: BLAS threads, fixed and no higher than the 2 cores the benchmark was sized on.
BLAS_THREADS = 1
#: Set-ups per timed run; setup_s is their median.
SETUP_REPEATS = 5
#: Fewest ops in a timed run, so that ten samples lie beyond p90.
MIN_OPS = 100
#: Wall time after which a run stops at the next whole cycle, however few ops it has.
MAX_LOOP_S = 120.0


def pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["LSQMATCH_DISABLE_NUMBA"] = "1"


def import_lsqmatch():
    """Import lsqmatch afresh from this checkout, as a first import would."""
    for name in [n for n in sys.modules if n == "lsqmatch" or n.startswith("lsqmatch.")]:
        del sys.modules[name]
    lsq = importlib.import_module("lsqmatch")
    if Path(lsq.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"lsqmatch was imported from {lsq.__file__}, not from {SRC}")
    for sub in ("cli", "bench", "matio", "matching", "generate"):
        importlib.import_module(f"lsqmatch.{sub}")
    return lsq


def environment(lsq) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "using_numba": bool(getattr(getattr(lsq, "kernels", None), "USING_NUMBA", False)),
    }


def build(cls, lsq, seed: int, workdir: Path):
    """Make the workload's inputs and run one warm-up op."""
    workload = cls(lsq, seed, str(workdir))
    workload.run(workload.inputs(0))
    return workload


class Phase:
    """Op times and failures of one measuring loop."""

    def __init__(self):
        self.times: list[float] = []
        self.problems: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return (len(self.times) - len(self.problems)) / sum(self.times)

    @property
    def mean_s(self) -> float:
        return sum(self.times) / len(self.times)


def _checked(workload, inp, out) -> str | None:
    try:
        return workload.check(inp, out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def measure(workload, seconds: float, min_ops: int, tracer=None) -> list[Phase]:
    """Run ops 0, 1, ... in whole cycles until ``seconds`` of op time and ``min_ops``.

    With a tracer, every second cycle runs traced and the others untraced, so
    that both see the same op mix and the same drift in machine speed.
    Returns the untraced phase, then the traced one if there is a tracer.
    """
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    period = workload.CYCLE * len(phases)
    clock = time.perf_counter
    started = clock()
    i = 0
    while True:
        traced = i % period >= workload.CYCLE
        if tracer is not None and i % workload.CYCLE == 0:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        phase = phases[traced]
        inp = workload.inputs(i)
        if traced:
            tracer.op = len(phase.times)
        t0 = clock()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a failed op is counted, and the run goes on
            phase.times.append(clock() - t0)
            problem = f"{type(exc).__name__}: {exc}"
        else:
            phase.times.append(clock() - t0)
            problem = None
        if traced:
            tracer.op = None
        if problem is None:
            problem = _checked(workload, inp, out)
        if problem is not None:
            phase.problems.append(f"op {i}: {problem}")
        i += 1
        if i % period == 0:
            done = sum(sum(p.times) for p in phases) >= seconds
            done = done and min(len(p.times) for p in phases) >= min_ops
            if done or clock() - started >= MAX_LOOP_S:
                if tracer is not None:
                    tracer.uninstall()
                return phases


def timed_run(cls, seed: int, seconds: float, workdir: Path):
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        t0 = time.perf_counter()
        lsq = import_lsqmatch()
        workload = build(cls, lsq, seed, workdir)
        setups.append(time.perf_counter() - t0)
    phases = measure(workload, seconds, MIN_OPS)
    times, failed = phases[0].times, len(phases[0].problems)
    metrics = {
        "op_ms_p90": 1e3 * statistics.quantiles(times, n=10)[8],
        "correct_frac": 1.0 - failed / len(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Recorded but not bounded: on hosts whose CPU speed swings by about 1.5x
    # for seconds to minutes at a time, the share of ops run at each speed
    # moves the mean and the median by more than any usable bound, while p90
    # stays with the slower speed.
    unbounded = {
        "samples": len(times),
        "ops_per_s": phases[0].ops_per_s,
        "op_ms_p50": 1e3 * statistics.median(times),
    }
    return lsq, phases, metrics, {"unbounded": unbounded}


def traced_run(cls, seed: int, seconds: float, workdir: Path):
    import tracing

    lsq = import_lsqmatch()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = tracing.SETUP_OP
        workload = build(cls, lsq, seed, workdir)
        tracer.op = None
    finally:
        tracer.uninstall()
    plain, traced = measure(workload, seconds, cls.COUNT_OPS, tracer)
    op_seconds = sum(traced.times)
    metrics, self_s = tracing.layer_metrics(tracer, op_seconds, len(traced.times), cls.COUNT_OPS)
    metrics["trace.overhead_frac"] = traced.mean_s / plain.mean_s - 1.0
    sys.stderr.write(f"self-time share of {len(traced.times)} traced ops:\n")
    for name, seconds_self in sorted(self_s.items(), key=lambda kv: -kv[1])[:8]:
        sys.stderr.write(f"  {name:32s} {seconds_self / op_seconds:6.1%}\n")
    counts = {name: metrics[name] for name in tracing.EXACT_COUNTS}
    return lsq, [plain, traced], metrics, {"exact_counts": counts}


def run_benchmark(args, spec: dict) -> int:
    pin_environment()
    sys.path.insert(0, str(SRC))
    import workloads

    declared = spec["per_layer" if args.trace else "end_to_end"]
    cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        lsq, phases, values, extra = run(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from those in {SPEC_PATH.name}")

    problems = [p for phase in phases for p in phase.problems]
    for problem in problems[:5]:
        sys.stderr.write(f"failed {problem}\n")
    attempted = sum(len(phase.times) for phase in phases)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(lsq),
        **extra,
        **result,
    }
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["cli-solve", "solve", "table1", "mt"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="op time to measure (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full record to this JSON lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --out files")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        import compare

        return compare.main(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run_benchmark(args, spec)


if __name__ == "__main__":
    sys.exit(main())
