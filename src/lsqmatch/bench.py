"""Benchmark suites for the inverter's iteration-count laws, plus CSV plumbing.

Two matrix families are exercised: conditioned SPD matrices with a known
spectrum (family token ``mt``) and Gram matrices of uniform random patterns
(family token ``uniform``).  Iteration counts per scale factor follow simple
empirical laws in log2(kappa) and log2(n); ``fit_laws`` measures deviations
against those reference lines.

All randomness is derived from one run seed, so identical invocations emit
byte-identical CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .generate import MoreToraldoSpec, derive_seed, more_toraldo, uniform_pattern
from .inverter import InversionConfig, invert
from .linalg import extreme_eigenvalues, gram
from .scaling import (
    ScaleFactorKind,
    alpha_gershgorin_value,
    alpha_optimal_bounds,
    alpha_trace_value,
    rescale,
)

#: Conditioned-family default grid: three sizes crossed with four condition numbers.
DEFAULT_MT_GRID = tuple((n, float(2**k)) for n in (16, 64, 256) for k in (6, 10, 14, 20))

DEFAULT_TABLE1_SIZES = (4, 8, 16, 32, 64)
DEFAULT_TABLE1_RATIOS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_TRIALS = 10

RECORD_HEADER = "family,n,m,kappa,alpha,iterations,converged,seed"
FIT_HEADER = "law,mean_dev,max_abs_dev,trials"

#: Law token per scale kind, and its predicted iteration count.
_LAW_TOKENS = {
    ScaleFactorKind.OPTIMAL: "N0",
    ScaleFactorKind.TRACE: "N1",
    ScaleFactorKind.GERSHGORIN: "N2",
}

#: Empirical additive constant of the N2 law.
N2_CONSTANT = 2.433


@dataclass(frozen=True)
class TrialRecord:
    """One (matrix, scale factor) inversion trial."""

    family: str
    n: int
    m: int
    kappa: float
    scale_kind: ScaleFactorKind
    iterations: int
    converged: bool
    seed: int

    def __post_init__(self):
        if self.family not in ("mt", "uniform"):
            raise ValueError(f"unknown family token {self.family!r}")
        if self.kappa < 1.0:
            raise ValueError(f"kappa must be at least 1, got {self.kappa}")


@dataclass(frozen=True)
class LawFit:
    """Deviation summary of observed iteration counts against one law."""

    law: str
    mean_deviation: float
    max_abs_deviation: float
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"a fit needs at least one trial, got {self.trials}")


@dataclass(frozen=True)
class CellSummary:
    """Per-cell aggregate of iteration counts (converged trials only)."""

    n: int
    m: int
    scale_kind: ScaleFactorKind
    mean_iterations: float
    sd_iterations: float
    trials: int


def predicted_iterations(kind: ScaleFactorKind, n: int, kappa: float) -> float:
    """Reference iteration-count law for one scale kind at size n, condition kappa."""
    lk = math.log2(kappa)
    if kind is ScaleFactorKind.OPTIMAL:
        return lk + 3.0
    if kind is ScaleFactorKind.TRACE:
        return lk + math.log2(n) + 1.0
    return lk + math.log2(n) / 3.0 + N2_CONSTANT


def _ordered_kinds(scale_kinds) -> list[ScaleFactorKind]:
    chosen = set(scale_kinds)
    return [k for k in ScaleFactorKind if k in chosen]


def run_mt_suite(
    grid=DEFAULT_MT_GRID,
    trials_per_cell: int = DEFAULT_TRIALS,
    scale_kinds=tuple(ScaleFactorKind),
    cfg: InversionConfig | None = None,
    seed: int = 42,
) -> list[TrialRecord]:
    """Invert conditioned test matrices over a (n, kappa) grid.

    The optimal scale factor is computed from the construction's known
    spectrum (smallest eigenvalue 1, largest kappa) — no eigensolve; the
    trace and row-sum factors read the generated matrix alone.  Every trial
    is recorded, converged or not.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must not be empty")
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be at least 1, got {trials_per_cell}")
    if cfg is None:
        cfg = InversionConfig()
    kinds = _ordered_kinds(scale_kinds)
    if not kinds:
        raise ValueError("scale_kinds must not be empty")

    records = []
    for cell_idx, (n, kappa) in enumerate(grid):
        spec = MoreToraldoSpec(int(n), float(kappa))
        for trial in range(trials_per_cell):
            child = derive_seed(seed, cell_idx * trials_per_cell + trial)
            _, z = more_toraldo(spec, child)
            for kind in kinds:
                if kind is ScaleFactorKind.OPTIMAL:
                    alpha = alpha_optimal_bounds(1.0, spec.kappa).alpha
                elif kind is ScaleFactorKind.TRACE:
                    alpha = alpha_trace_value(z)
                else:
                    alpha = alpha_gershgorin_value(z)
                report = invert(rescale(z, alpha), cfg)
                records.append(
                    TrialRecord(
                        family="mt",
                        n=spec.n,
                        m=spec.n,
                        kappa=spec.kappa,
                        scale_kind=kind,
                        iterations=report.iterations,
                        converged=report.converged,
                        seed=child,
                    )
                )
    return records


def run_table1_suite(
    n_values=DEFAULT_TABLE1_SIZES,
    m_over_n=DEFAULT_TABLE1_RATIOS,
    trials_per_cell: int = DEFAULT_TRIALS,
    cfg: InversionConfig | None = None,
    seed: int = 42,
) -> list[TrialRecord]:
    """Invert Gram matrices of uniform patterns over a (n, m/n) size grid.

    Scale kinds are the two that need no spectral oracle (trace and row-sum);
    the condition number recorded is measured from the generated matrix.  A
    numerically singular Gram matrix is recorded as a non-converged trial.
    """
    n_values = [int(v) for v in n_values]
    ratios = [int(r) for r in m_over_n]
    if not n_values or not ratios:
        raise ValueError("size grid must not be empty")
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be at least 1, got {trials_per_cell}")
    if cfg is None:
        cfg = InversionConfig()
    kinds = [ScaleFactorKind.TRACE, ScaleFactorKind.GERSHGORIN]

    records = []
    cell_idx = 0
    for n in n_values:
        for ratio in ratios:
            m = ratio * n
            for trial in range(trials_per_cell):
                child = derive_seed(seed, cell_idx * trials_per_cell + trial)
                x = uniform_pattern(m, n, child)
                z = gram(x)
                low, high = extreme_eigenvalues(z)
                kappa = math.inf if low <= 0.0 else max(1.0, high / low)
                for kind in kinds:
                    try:
                        if kind is ScaleFactorKind.TRACE:
                            alpha = alpha_trace_value(z)
                        else:
                            alpha = alpha_gershgorin_value(z)
                    except ValueError:
                        records.append(
                            TrialRecord("uniform", n, m, kappa, kind, 0, False, child)
                        )
                        continue
                    report = invert(rescale(z, alpha), cfg)
                    records.append(
                        TrialRecord(
                            family="uniform",
                            n=n,
                            m=m,
                            kappa=kappa,
                            scale_kind=kind,
                            iterations=report.iterations,
                            converged=report.converged,
                            seed=child,
                        )
                    )
            cell_idx += 1
    return records


def summarize_cells(records: list[TrialRecord]) -> list[CellSummary]:
    """Per-cell mean and population standard deviation of converged counts."""
    order: list[tuple] = []
    buckets: dict[tuple, list[int]] = {}
    for rec in records:
        key = (rec.n, rec.m, rec.scale_kind)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        if rec.converged:
            buckets[key].append(rec.iterations)
    out = []
    for key in order:
        counts = np.asarray(buckets[key], dtype=np.float64)
        if counts.size == 0:
            continue
        out.append(
            CellSummary(
                n=key[0],
                m=key[1],
                scale_kind=key[2],
                mean_iterations=float(counts.mean()),
                sd_iterations=float(counts.std()),
                trials=int(counts.size),
            )
        )
    return out


def fit_laws(records: list[TrialRecord]) -> list[LawFit]:
    """Deviation of observed counts from each scale kind's reference law.

    Expects conditioned-family records (exact kappa).  Non-converged trials
    are excluded from the statistics; an empty record set is an error.
    """
    if not records:
        raise ValueError("cannot fit laws to an empty record set")
    bad = [r.family for r in records if r.family != "mt"]
    if bad:
        raise ValueError(
            "law fitting needs conditioned-family records with exact kappa; "
            f"got family {bad[0]!r}"
        )
    fits = []
    for kind in ScaleFactorKind:
        devs = [
            r.iterations - predicted_iterations(kind, r.n, r.kappa)
            for r in records
            if r.scale_kind is kind and r.converged
        ]
        if not devs:
            continue
        arr = np.asarray(devs)
        fits.append(
            LawFit(
                law=_LAW_TOKENS[kind],
                mean_deviation=float(arr.mean()),
                max_abs_deviation=float(np.abs(arr).max()),
                trials=int(arr.size),
            )
        )
    if not fits:
        raise ValueError("no converged trials to fit")
    return fits


# ---------------------------------------------------------------------------
# Serialization.  All floats are written with repr() (shortest round-trip
# form), so parse(emit(items)) == items exactly and reruns are byte-identical.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def records_to_csv(records: list[TrialRecord]) -> str:
    lines = [RECORD_HEADER]
    for r in records:
        lines.append(
            f"{r.family},{r.n},{r.m},{_fmt(r.kappa)},{r.scale_kind.token},"
            f"{r.iterations},{'true' if r.converged else 'false'},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def fits_to_csv(fits: list[LawFit]) -> str:
    lines = [FIT_HEADER]
    for f in fits:
        lines.append(
            f"{f.law},{_fmt(f.mean_deviation)},{_fmt(f.max_abs_deviation)},{f.trials}"
        )
    return "\n".join(lines) + "\n"


def parse_records_csv(text: str) -> list[TrialRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != RECORD_HEADER:
        raise ValueError(f"expected header {RECORD_HEADER!r}")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise ValueError(f"expected 8 fields, got {len(parts)}: {ln!r}")
        records.append(
            TrialRecord(
                family=parts[0],
                n=int(parts[1]),
                m=int(parts[2]),
                kappa=float(parts[3]),
                scale_kind=ScaleFactorKind.from_token(parts[4]),
                iterations=int(parts[5]),
                converged={"true": True, "false": False}[parts[6]],
                seed=int(parts[7]),
            )
        )
    return records


def parse_fits_csv(text: str) -> list[LawFit]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FIT_HEADER:
        raise ValueError(f"expected header {FIT_HEADER!r}")
    fits = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 4 fields, got {len(parts)}: {ln!r}")
        fits.append(
            LawFit(
                law=parts[0],
                mean_deviation=float(parts[1]),
                max_abs_deviation=float(parts[2]),
                trials=int(parts[3]),
            )
        )
    return fits


def emit_csv(items, destination) -> None:
    """Write records or fits to ``destination`` (a path) as CSV.

    An empty list writes the record header alone.
    """
    if items and isinstance(items[0], LawFit):
        text = fits_to_csv(items)
    else:
        text = records_to_csv(items)
    try:
        with open(destination, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc


def records_to_json(records: list[TrialRecord]) -> str:
    rows = []
    for r in records:
        d = asdict(r)
        d["alpha"] = d.pop("scale_kind").token
        rows.append(d)
    return json.dumps(rows, indent=2) + "\n"


def fits_to_json(fits: list[LawFit]) -> str:
    rows = [
        {
            "law": f.law,
            "mean_dev": f.mean_deviation,
            "max_abs_dev": f.max_abs_deviation,
            "trials": f.trials,
        }
        for f in fits
    ]
    return json.dumps(rows, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Acceptance checks behind the CLI's --check flag.
# ---------------------------------------------------------------------------

#: (max |mean deviation|, max absolute deviation) tolerated per law.
LAW_TOLERANCES = {"N0": (math.inf, 1.0), "N1": (math.inf, 1.0), "N2": (0.7, math.inf)}


def check_records(records: list[TrialRecord]) -> list[str]:
    """Problems that fail a suite run: any non-converged trial."""
    problems = []
    for r in records:
        if not r.converged:
            problems.append(
                f"non-converged trial: family={r.family} n={r.n} m={r.m} "
                f"alpha={r.scale_kind.token} seed={r.seed}"
            )
    return problems


def check_fits(fits: list[LawFit]) -> list[str]:
    """Problems that fail a law fit: deviations beyond the declared slack."""
    problems = []
    for f in fits:
        mean_tol, max_tol = LAW_TOLERANCES.get(f.law, (math.inf, math.inf))
        if abs(f.mean_deviation) > mean_tol:
            problems.append(
                f"{f.law}: |mean deviation| {abs(f.mean_deviation):.3f} exceeds {mean_tol}"
            )
        if f.max_abs_deviation > max_tol:
            problems.append(
                f"{f.law}: max absolute deviation {f.max_abs_deviation:.3f} exceeds {max_tol}"
            )
    return problems
