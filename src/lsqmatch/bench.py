"""Benchmark suites for the inverter's iteration-count laws, plus CSV plumbing.

Two matrix families are exercised: conditioned SPD matrices with a known
spectrum (family token ``mt``) and Gram matrices of uniform random patterns
(family token ``uniform``).  Both suites only build their cells; one trial
loop scales, rescales and inverts each cell's matrix for each scale kind and
records the result.  ``mt`` always runs all three kinds, ``table1`` the two
that need no spectrum.  Iteration counts per scale factor follow simple
empirical laws in log2(kappa) and log2(n); ``fit_laws`` measures deviations
against those reference lines.

All randomness is derived from one run seed, so identical invocations emit
byte-identical CSV.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import Any

import numpy as np

from .generate import MoreToraldoSpec, derive_seed, more_toraldo, uniform_pattern
from .inverter import InversionConfig, invert
from .linalg import extreme_eigenvalues, gram
from .scaling import ScaleFactorKind, rescale, scale_factor

#: Conditioned-family default grid: three sizes crossed with four condition numbers.
DEFAULT_MT_GRID = tuple((n, float(2**k)) for n in (16, 64, 256) for k in (6, 10, 14, 20))

DEFAULT_TABLE1_SIZES = (4, 8, 16, 32, 64)
DEFAULT_TABLE1_RATIOS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_TRIALS = 10

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


def predicted_iterations(kind: ScaleFactorKind, n: int, kappa: float) -> float:
    """Reference iteration-count law for one scale kind at size n, condition kappa.

    The TRACE line log2(kappa) + log2(n) + 1 is the paper's approximate law:
    it drops the kappa-dependent term log2(trace / (kappa n)) of the exact
    contraction threshold, so at large kappa whole cells stop one iteration
    below it.  It is held only to +-1 per trial, which is why
    ``LAW_TOLERANCES["N1"]`` has no mean bound.
    """
    lk = math.log2(kappa)
    if kind is ScaleFactorKind.OPTIMAL:
        return lk + 3.0
    if kind is ScaleFactorKind.TRACE:
        return lk + math.log2(n) + 1.0
    return lk + math.log2(n) / 3.0 + N2_CONSTANT


def _run_trials(cells, kinds, cfg: InversionConfig | None) -> list[TrialRecord]:
    """The one trial loop: for each cell and each kind, scale, rescale, invert.

    A cell is ``(family, n, m, kappa, extremes, z, seed)``, where ``extremes``
    is z's known ``(low, high)`` spectrum or None.  A matrix that admits no
    scale factor (a zero trace, say) gives a 0-iteration, non-converged record.
    """
    records = []
    for family, n, m, kappa, extremes, z, seed in cells:
        for kind in kinds:
            try:
                alpha = scale_factor(z, kind, extremes)
            except ValueError:
                iterations, converged = 0, False
            else:
                report = invert(rescale(z, alpha), cfg)
                iterations, converged = report.iterations, report.converged
            records.append(TrialRecord(family, n, m, kappa, kind, iterations, converged, seed))
    return records


def run_mt_suite(
    grid=DEFAULT_MT_GRID,
    trials_per_cell: int = DEFAULT_TRIALS,
    cfg: InversionConfig | None = None,
    seed: int = 42,
) -> list[TrialRecord]:
    """Invert conditioned test matrices over a (n, kappa) grid, all three kinds.

    The optimal scale factor is computed from the construction's known
    spectrum (smallest eigenvalue 1, largest kappa) — no eigensolve; the
    trace and row-sum factors read the generated matrix alone.  Every trial
    is recorded, converged or not.
    """
    specs = [MoreToraldoSpec(int(n), float(kappa)) for n, kappa in grid]
    if not specs:
        raise ValueError("grid must not be empty")
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be at least 1, got {trials_per_cell}")

    def cells():
        for cell_idx, spec in enumerate(specs):
            for trial in range(trials_per_cell):
                child = derive_seed(seed, cell_idx * trials_per_cell + trial)
                _, z = more_toraldo(spec, child)
                yield "mt", spec.n, spec.n, spec.kappa, (1.0, spec.kappa), z, child

    return _run_trials(cells(), tuple(ScaleFactorKind), cfg)


def run_table1_suite(
    n_values=DEFAULT_TABLE1_SIZES,
    m_over_n=DEFAULT_TABLE1_RATIOS,
    trials_per_cell: int = DEFAULT_TRIALS,
    cfg: InversionConfig | None = None,
    seed: int = 42,
) -> list[TrialRecord]:
    """Invert Gram matrices of uniform patterns over a (n, m/n) size grid.

    Scale kinds are the two that need no spectral oracle (trace and row-sum);
    kappa is measured from the generated matrix (``inf`` if singular).  A
    singular Gram matrix is recorded as a non-converged trial.
    """
    sizes = [(int(n), int(ratio) * int(n)) for n, ratio in product(n_values, m_over_n)]
    if not sizes:
        raise ValueError("size grid must not be empty")
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be at least 1, got {trials_per_cell}")

    def cells():
        for cell_idx, (n, m) in enumerate(sizes):
            for trial in range(trials_per_cell):
                child = derive_seed(seed, cell_idx * trials_per_cell + trial)
                z = gram(uniform_pattern(m, n, child))
                low, high = extreme_eigenvalues(z)
                kappa = math.inf if low <= 0.0 else max(1.0, high / low)
                yield "uniform", n, m, kappa, None, z, child

    return _run_trials(cells(), (ScaleFactorKind.TRACE, ScaleFactorKind.GERSHGORIN), cfg)


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
    """Deviation of observed counts from each scale kind's reference law.

    Expects conditioned-family records (exact, finite kappa).  Non-converged
    trials are excluded from the statistics; an empty record set is an error.
    """
    if not records:
        raise ValueError("cannot fit laws to an empty record set")
    for index, r in enumerate(records, 1):
        if r.family != "mt" or not math.isfinite(r.kappa):
            raise ValueError(
                "law fitting needs conditioned-family records with exact, finite kappa; "
                f"record {index} has family {r.family!r}, kappa {r.kappa!r}"
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
# Serialization.  One column table per artifact type drives its CSV writer,
# CSV parser and JSON writer, so the JSON keys follow the CSV columns.  All
# floats are written with repr() (shortest round-trip form), so
# parse(emit(items)) == items exactly and reruns are byte-identical.
# ---------------------------------------------------------------------------


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


_token = attrgetter("token")


@dataclass(frozen=True)
class Column:
    """One artifact column: its CSV/JSON name and the attribute it holds.

    ``fmt`` writes the attribute as CSV text, ``parse`` reads it back, and
    ``to_json`` gives its JSON value.
    """

    name: str
    attr: str
    fmt: Callable[[Any], str] = str
    parse: Callable[[str], Any] = str
    to_json: Callable[[Any], Any] = lambda value: value


@dataclass(frozen=True)
class ColumnTable:
    """The columns of one artifact type, in CSV and JSON order."""

    cls: type
    columns: tuple[Column, ...]

    @property
    def header(self) -> str:
        return ",".join(c.name for c in self.columns)

    def to_csv(self, items) -> str:
        lines = [self.header]
        for item in items:
            lines.append(",".join(c.fmt(getattr(item, c.attr)) for c in self.columns))
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
            for c, p in zip(self.columns, parts):
                try:
                    values[c.attr] = c.parse(p)
                except ValueError as exc:
                    raise ValueError(f"data row {row}, column {c.name!r}: {exc}") from None
            try:
                items.append(self.cls(**values))
            except ValueError as exc:
                raise ValueError(f"data row {row}: {exc}") from None
        return items

    def to_json(self, items) -> str:
        rows = [{c.name: c.to_json(getattr(item, c.attr)) for c in self.columns} for item in items]
        return json.dumps(rows, indent=2) + "\n"

    def write(self, items, destination, fmt: str = "csv") -> None:
        """Write ``items`` to the path ``destination`` as ``fmt`` (csv or json)."""
        text = self.to_json(items) if fmt == "json" else self.to_csv(items)
        try:
            with open(destination, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {destination}: {exc}") from exc


RECORDS = ColumnTable(
    TrialRecord,
    (
        Column("family", "family"),
        Column("n", "n", parse=int),
        Column("m", "m", parse=int),
        Column("kappa", "kappa", _fmt_float, float),
        Column("alpha", "scale_kind", _token, ScaleFactorKind.from_token, _token),
        Column("iterations", "iterations", parse=int),
        Column("converged", "converged", _fmt_bool, _parse_bool),
        Column("seed", "seed", parse=int),
    ),
)
FITS = ColumnTable(
    LawFit,
    (
        Column("law", "law"),
        Column("mean_dev", "mean_deviation", _fmt_float, float),
        Column("max_abs_dev", "max_abs_deviation", _fmt_float, float),
        Column("trials", "trials", parse=int),
    ),
)


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
