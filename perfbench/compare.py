"""Compare two JSON-lines result files written by ``run.py --out``.

For each workload and metric it prints the base median, the ratio of the new
median to it, and the spread of each side (quartile distance over median).
A metric with a bound is ``unresolved`` when either spread is wider than the
bound, unless every new run reads better than every base run.  Exact counts
must repeat across all runs of one seed; a mismatch means the runs did not do
the same work.  Files from different environments (numba against numpy, other
BLAS settings) are refused.
"""

from __future__ import annotations

import json
import statistics

#: Environment fields that make two results different programs.
SAME_PROGRAM = ("using_numba", "blas", "blas_threads")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list[float]) -> float:
    """Quartile distance over the median, or infinity with fewer than two runs."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    gain = sign * (n - b) / abs(b) if b else 0.0
    if bound is None:
        return ""
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "WORSE"
    if gain > spread(base) and all_better:
        return "better"
    return "within bound"


def exact_count_problems(records: list[dict]) -> list[str]:
    seen: dict[tuple, dict] = {}
    problems = []
    for rec in records:
        if not rec.get("exact_counts"):
            continue
        key = (rec["workload"], rec["seed"])
        first = seen.setdefault(key, rec["exact_counts"])
        if rec["exact_counts"] != first:
            problems.append(
                f"{rec['workload']} seed {rec['seed']}: exact counts {rec['exact_counts']} "
                f"differ from {first}: the runs did not do the same work"
            )
    return problems


def main(base_path: str, new_path: str, spec: dict) -> int:
    base, new = load(base_path), load(new_path)
    envs = {tuple(r["environment"][k] for k in SAME_PROGRAM) for r in base + new}
    if len(envs) > 1:
        print(f"refusing to compare different programs: {SAME_PROGRAM} = {sorted(envs)}")
        return 2
    metrics = spec["end_to_end"] + spec["per_layer"]
    regressions = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in groups:
        print(f"{workload} (trace {trace})")
        print(f"  {'metric':40s} {'base':>12s} {'ratio':>8s} {'spread':>15s}  verdict")
        for meta in metrics:
            name = meta["name"]
            values = [
                [r["metrics"][name]["value"] for r in side
                 if (r["workload"], r["trace"]) == (workload, trace) and name in r["metrics"]]
                for side in (base, new)
            ]
            if not any(values[0]) or not any(values[1]):
                continue  # the metric's layer does not run on this workload
            b, n = (statistics.median(v) for v in values)
            ratio = f"{n / b:8.3f}" if b else f"{'-':>8s}"
            spreads = f"{spread(values[0]):6.1%}/{spread(values[1]):6.1%}"
            result = verdict(*values, meta["better"], meta.get("bound"))
            regressions += result == "WORSE"
            print(f"  {name:40s} {b:12.6g} {ratio} {spreads:>15s}  {result}")
    problems = exact_count_problems(base + new)
    for problem in problems:
        print(f"exact counts: {problem}")
    return 1 if regressions or problems else 0
