"""Benchmark suites for the inverter's iteration-count laws, plus CSV plumbing.

Two matrix families are exercised: Gram matrices of conditioned square
patterns, with a known spectrum (family token ``mt``), and of uniform random
patterns (family token ``uniform``).  Both suites only build their cells;
one trial loop scales and inverts each cell's matrix for each scale kind and
records the result.  ``mt`` always runs all three kinds, ``table1`` the two
that need no spectrum.  Iteration counts per scale factor follow simple
empirical laws in log2(kappa) and log2(n), one ``LAWS`` entry each, keyed by
the law's token; ``fit_laws`` measures deviations against those reference lines.

All randomness is derived from one run seed, so identical invocations emit
byte-identical CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import product
from operator import attrgetter
from typing import get_type_hints

import numpy as np

from .generate import derive_seed, more_toraldo, uniform_pattern
from .inverter import ScaleFactorKind, scale_and_invert
from .linalg import extreme_eigenvalues, gram

#: Conditioned-family default grid: three sizes crossed with four condition numbers.
DEFAULT_MT_GRID = tuple((n, float(2**k)) for n in (16, 64, 256) for k in (6, 10, 14, 20))

DEFAULT_TABLE1_SIZES = (4, 8, 16, 32, 64)
DEFAULT_TABLE1_RATIOS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_TRIALS = 10

#: Empirical additive constant of the N2 law.
N2_CONSTANT = 2.433

#: The iteration-count laws by token: the family and scale kind each law
#: predicts, its count as a function of (log2 kappa, log2 n), and the (max
#: |mean deviation|, max absolute deviation) that ``check_fits`` tolerates.
LAWS = {
    "N0": ("mt", ScaleFactorKind.OPTIMAL, lambda lk, ln: lk + 3.0, (math.inf, 1.0)),
    "N1": ("mt", ScaleFactorKind.TRACE, lambda lk, ln: lk + ln + 1.0, (math.inf, 1.0)),
    "N2": ("mt", ScaleFactorKind.GERSHGORIN,
           lambda lk, ln: lk + ln / 3.0 + N2_CONSTANT, (0.7, math.inf)),
}


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
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got n={self.n}, m={self.m}")
        if self.family == "mt" and self.m != self.n:
            raise ValueError(f"an mt matrix is square, got n={self.n}, m={self.m}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        # Written so that NaN fails; inf stays valid (a singular Gram matrix).
        if not self.kappa >= 1.0:
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


def predicted_iterations(law: str, n: int, kappa: float) -> float:
    """The count ``LAWS[law]`` predicts at size n, condition kappa.

    The N1 (trace) line log2(kappa) + log2(n) + 1 is the paper's approximate law:
    it drops the kappa-dependent term log2(trace / (kappa n)) of the exact
    contraction threshold, so at large kappa whole cells stop one iteration
    below it.  It is held only to +-1 per trial, which is why N1's tolerance
    has no mean bound.
    """
    _, _, line, _ = LAWS[law]
    return line(math.log2(kappa), math.log2(n))


def _run_trials(grid, build, kinds, trials_per_cell, seed) -> list[TrialRecord]:
    """The one trial loop: for each cell, trial and kind, one ``scale_and_invert`` step.

    Trial t of cell i has seed ``derive_seed(seed, i * trials_per_cell + t)``,
    and ``build(cell, seed)`` gives its ``(family, n, m, kappa, extremes, z)``,
    ``extremes`` being z's known ``(low, high)`` spectrum or None.  A matrix
    with no scale factor (a zero trace, say) gives a 0-iteration, non-converged
    record.  Every trial runs the plain recurrence at the default epsilon, as fit_laws assumes.
    """
    if not grid:
        raise ValueError("grid must not be empty")
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be at least 1, got {trials_per_cell}")
    records = []
    for cell_idx, cell in enumerate(grid):
        for trial in range(trials_per_cell):
            child = derive_seed(seed, cell_idx * trials_per_cell + trial)
            *head, extremes, z = build(cell, child)
            for kind in kinds:
                try:
                    _, report = scale_and_invert(z, kind, extremes)
                except ValueError:
                    iterations, converged = 0, False
                else:
                    iterations, converged = report.iterations, report.converged
                    # A held report would keep its n x n inverse alive through
                    # the next kind's inversion.
                    del report
                records.append(TrialRecord(*head, kind, iterations, converged, child))
    return records


def run_mt_suite(
    grid=DEFAULT_MT_GRID,
    trials_per_cell: int = DEFAULT_TRIALS,
    seed: int = 42,
) -> list[TrialRecord]:
    """Invert conditioned test matrices over a (n, kappa) grid, all three kinds.

    The optimal scale factor is computed from the construction's known
    spectrum (smallest eigenvalue 1, largest kappa) — no eigensolve; the
    trace and row-sum factors read the generated matrix alone.  Every trial
    is recorded, converged or not.
    """
    def build(cell, child):
        n, kappa = cell
        return "mt", n, n, kappa, (1.0, kappa), gram(more_toraldo(n, kappa, child))

    cells = [(int(n), float(kappa)) for n, kappa in grid]
    return _run_trials(cells, build, tuple(ScaleFactorKind), trials_per_cell, seed)


def run_table1_suite(
    n_values=DEFAULT_TABLE1_SIZES,
    m_over_n=DEFAULT_TABLE1_RATIOS,
    trials_per_cell: int = DEFAULT_TRIALS,
    seed: int = 42,
) -> list[TrialRecord]:
    """Invert Gram matrices of uniform patterns over a (n, m/n) size grid.

    Scale kinds are the two that need no spectral oracle (trace and row-sum);
    kappa is measured from the generated matrix (``inf`` if singular).  A
    singular Gram matrix is recorded as a non-converged trial.
    """
    def build(size, child):
        n, m = size
        z = gram(uniform_pattern(m, n, child))
        low, high = extreme_eigenvalues(z)
        return "uniform", n, m, (math.inf if low <= 0.0 else max(1.0, high / low)), None, z

    sizes = [(int(n), int(ratio) * int(n)) for n, ratio in product(n_values, m_over_n)]
    kinds = (ScaleFactorKind.TRACE, ScaleFactorKind.GERSHGORIN)
    return _run_trials(sizes, build, kinds, trials_per_cell, seed)


def summarize_cells(records: list[TrialRecord]) -> list[CellSummary]:
    """Per-cell mean and population standard deviation of converged counts."""
    buckets: dict[tuple, list[int]] = {}
    for rec in records:
        counts = buckets.setdefault((rec.n, rec.m, rec.scale_kind), [])
        if rec.converged:
            counts.append(rec.iterations)
    out = []
    for (n, m, kind), counts in buckets.items():
        if counts:
            arr = np.asarray(counts, dtype=np.float64)
            out.append(CellSummary(n, m, kind, float(arr.mean()), float(arr.std()), arr.size))
    return out


def fit_laws(records: list[TrialRecord]) -> list[LawFit]:
    """Deviation of observed counts from each law that matches their family and kind.

    Expects records of a family that a ``LAWS`` entry names, with finite
    kappa.  Non-converged trials are excluded from the statistics; an empty
    record set is an error.
    """
    if not records:
        raise ValueError("cannot fit laws to an empty record set")
    families = sorted({family for family, _, _, _ in LAWS.values()})
    for index, r in enumerate(records, 1):
        if r.family not in families or not math.isfinite(r.kappa):
            raise ValueError(
                f"law fitting needs records of family {' or '.join(map(repr, families))} "
                f"with exact, finite kappa; record {index} has family {r.family!r}, "
                f"kappa {r.kappa!r}"
            )
    fits = []
    for law, (family, kind, _, _) in LAWS.items():
        devs = [
            r.iterations - predicted_iterations(law, r.n, r.kappa)
            for r in records
            if r.family == family and r.scale_kind is kind and r.converged
        ]
        if not devs:
            continue
        arr = np.asarray(devs)
        fits.append(LawFit(law, float(arr.mean()), float(np.abs(arr).max()), int(arr.size)))
    if not fits:
        raise ValueError("no converged trials to fit")
    return fits


# ---------------------------------------------------------------------------
# Serialization.  An artifact's CSV and JSON columns are its dataclass
# fields, in order, each written and read by the codec of its type.  Floats
# are written with repr() (shortest round-trip form), so
# parse(emit(items)) == items exactly and reruns are byte-identical.
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


#: CSV writer and reader per field type.
_CODECS = {
    str: (str, str),
    int: (str, int),
    float: (lambda value: repr(float(value)), float),
    bool: (lambda value: "true" if value else "false", _parse_bool),
    ScaleFactorKind: (attrgetter("value"), ScaleFactorKind),
}


def _json_value(value, fmt):
    """``value`` where JSON holds it (str, int, bool, finite float), else ``fmt(value)``."""
    if isinstance(value, (str, int)) or (isinstance(value, float) and math.isfinite(value)):
        return value
    return fmt(value)


class ColumnTable:
    """The CSV and JSON columns of one artifact type: the fields of ``cls``, in order.

    ``renames`` maps a field to its column name where the two differ.
    """

    def __init__(self, cls: type, renames: dict[str, str]):
        types = get_type_hints(cls)
        self.cls = cls
        #: (attribute, column name, CSV writer, CSV reader) per column.
        self.columns = [
            (f.name, renames.get(f.name, f.name), *_CODECS[types[f.name]]) for f in fields(cls)
        ]
        self.header = ",".join(name for _, name, _, _ in self.columns)

    def to_csv(self, items) -> str:
        lines = [self.header]
        for item in items:
            lines.append(",".join(fmt(getattr(item, attr)) for attr, _, fmt, _ in self.columns))
        return "\n".join(lines) + "\n"

    def parse_csv(self, text: str) -> list:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != self.header:
            raise ValueError(f"expected header {self.header!r}")
        items = []
        for row, ln in enumerate(lines[1:], 1):
            parts = ln.split(",")
            if len(parts) != len(self.columns):
                raise ValueError(f"expected {len(self.columns)} fields, got {len(parts)}: {ln!r}")
            values = {}
            for (attr, name, _, parse), p in zip(self.columns, parts):
                try:
                    values[attr] = parse(p)
                except ValueError as exc:
                    raise ValueError(f"data row {row}, column {name!r}: {exc}") from None
            try:
                items.append(self.cls(**values))
            except ValueError as exc:
                raise ValueError(f"data row {row}: {exc}") from None
        return items

    def to_json(self, items) -> str:
        rows = [
            {name: _json_value(getattr(item, attr), fmt) for attr, name, fmt, _ in self.columns}
            for item in items
        ]
        return json.dumps(rows, indent=2, allow_nan=False) + "\n"

    def write(self, items, destination, fmt: str = "csv") -> None:
        """Write ``items`` to the path ``destination`` as ``fmt`` (csv or json)."""
        text = self.to_json(items) if fmt == "json" else self.to_csv(items)
        try:
            with open(destination, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {destination}: {exc}") from exc


RECORDS = ColumnTable(TrialRecord, {"scale_kind": "alpha"})
FITS = ColumnTable(LawFit, {"mean_deviation": "mean_dev", "max_abs_deviation": "max_abs_dev"})


# ---------------------------------------------------------------------------
# Acceptance checks behind the CLI's --check flag.
# ---------------------------------------------------------------------------


def check_records(records: list[TrialRecord]) -> list[str]:
    """Problems that fail a suite run: any non-converged trial."""
    problems = []
    for r in records:
        if not r.converged:
            problems.append(
                f"non-converged trial: family={r.family} n={r.n} m={r.m} "
                f"alpha={r.scale_kind.value} seed={r.seed}"
            )
    return problems


def check_fits(fits: list[LawFit]) -> list[str]:
    """Problems that fail a law fit: deviations beyond its law's tolerance in ``LAWS``."""
    problems = []
    for f in fits:
        mean_tol, max_tol = LAWS[f.law][3]
        if abs(f.mean_deviation) > mean_tol:
            problems.append(
                f"{f.law}: |mean deviation| {abs(f.mean_deviation):.3f} exceeds {mean_tol}"
            )
        if f.max_abs_deviation > max_tol:
            problems.append(
                f"{f.law}: max absolute deviation {f.max_abs_deviation:.3f} exceeds {max_tol}"
            )
    return problems
