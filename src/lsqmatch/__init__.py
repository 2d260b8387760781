"""Least-squares pattern matching via an iterative recurrent matrix inverter.

The pipeline solves min_T ||X T - M|| through the normal equations: the Gram
matrix X'X is rescaled so its spectrum fits in (0, 2), inverted by a
quadratically convergent multiplicative recurrence, and the transform read
off as T = (alpha V)(X'M).  Supporting modules generate seeded benchmark
matrices, predict iteration counts from the condition number, and run the
reproducible benchmark suites behind the ``lsqmatch`` CLI.
"""

from .generate import (
    MoreToraldoSpec,
    SplitMix64,
    derive_seed,
    householder,
    mix64,
    more_toraldo,
    uniform_open,
    uniform_pattern,
)
from .inverter import (
    DivergenceError,
    InversionConfig,
    InversionReport,
    convergence_threshold,
    invert,
    neumann_partial_sum,
    predicted_iterations_optimal,
    predicted_iterations_trace_bound,
)
from .linalg import (
    EigenDecomposition,
    JacobiConvergenceError,
    entrywise_max_abs,
    frobenius_distance,
    gram,
    infinity_norm,
    multiply,
    spectral_norm,
    symmetric_eigen,
    symmetrize,
    transpose_multiply,
)
from .matching import (
    InversionStalledError,
    MatchResult,
    PipelineConfig,
    SingularSystemError,
    estimate_time_ms,
    op_count,
    solve_transform,
)
from .matio import format_matrix, load_matrix, parse_matrix, save_matrix
from .scaling import (
    ScaleDiagnostics,
    ScaleFactorKind,
    alpha_gershgorin,
    alpha_gershgorin_value,
    alpha_optimal,
    alpha_optimal_bounds,
    alpha_trace,
    alpha_trace_value,
    rescale,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "EigenDecomposition",
    "InversionConfig",
    "InversionReport",
    "JacobiConvergenceError",
    "MatchResult",
    "MoreToraldoSpec",
    "PipelineConfig",
    "ScaleDiagnostics",
    "ScaleFactorKind",
    "SingularSystemError",
    "InversionStalledError",
    "SplitMix64",
    "alpha_gershgorin",
    "alpha_gershgorin_value",
    "alpha_optimal",
    "alpha_optimal_bounds",
    "alpha_trace",
    "alpha_trace_value",
    "convergence_threshold",
    "derive_seed",
    "entrywise_max_abs",
    "estimate_time_ms",
    "format_matrix",
    "frobenius_distance",
    "gram",
    "householder",
    "infinity_norm",
    "invert",
    "load_matrix",
    "mix64",
    "more_toraldo",
    "multiply",
    "neumann_partial_sum",
    "op_count",
    "parse_matrix",
    "predicted_iterations_optimal",
    "predicted_iterations_trace_bound",
    "rescale",
    "save_matrix",
    "solve_transform",
    "spectral_norm",
    "symmetric_eigen",
    "symmetrize",
    "transpose_multiply",
    "uniform_open",
    "uniform_pattern",
    "__version__",
]
