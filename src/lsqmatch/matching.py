"""Least-squares pattern matching driven by the recurrent inverter.

Solves min_T ||X T - M|| (Frobenius) through the normal equations: the Gram
matrix X'X is rescaled, inverted by the recurrence, and the transform
recovered as T = (alpha V) (X'M).  Also exposes the operation-count model
used to estimate wall time on fixed-cost matrix hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .inverter import InversionConfig, InversionReport, invert
from .linalg import as_matrix, extreme_eigenvalues, frobenius_distance, gram, multiply, transpose_multiply
from .scaling import (
    ScaleFactorKind,
    alpha_optimal_bounds,
    alpha_gershgorin_value,
    alpha_trace_value,
    rescale,
)


class SingularSystemError(RuntimeError):
    """The normal equations cannot be inverted (rank-deficient or non-PD input)."""


class InversionStalledError(RuntimeError):
    """The scale factor put the largest eigenvalue of alpha * X'X at 2 or above.

    The residual then stays at or above 1, so the recurrence cannot converge,
    although another scale factor may solve the same system.
    """


@dataclass(frozen=True)
class PipelineConfig:
    """How to scale, invert, and cost a matching run."""

    scale_kind: ScaleFactorKind = ScaleFactorKind.GERSHGORIN
    inversion: InversionConfig = field(default_factory=InversionConfig)
    ms_per_op: float = 5.0

    def __post_init__(self):
        if self.ms_per_op <= 0.0:
            raise ValueError(f"ms_per_op must be positive, got {self.ms_per_op}")


@dataclass
class MatchResult:
    """Transform, its fit quality, and the cost model's view of the run."""

    transform: np.ndarray
    distance: float
    inversion: InversionReport
    op_count: int
    est_time_ms: float


def op_count(iterations: int) -> int:
    """Matrix-operation count of a full matching run: 2 per update pair plus 7."""
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    return 2 * iterations + 7


def estimate_time_ms(ops: int, ms_per_op: float = 5.0) -> float:
    """Wall-time estimate when every matrix operation costs ``ms_per_op``."""
    if ops < 0:
        raise ValueError(f"ops must be nonnegative, got {ops}")
    if ms_per_op <= 0.0:
        raise ValueError(f"ms_per_op must be positive, got {ms_per_op}")
    return ops * ms_per_op


def _scale_factor(z, kind: ScaleFactorKind) -> float:
    if kind is ScaleFactorKind.TRACE:
        return alpha_trace_value(z)
    if kind is ScaleFactorKind.GERSHGORIN:
        return alpha_gershgorin_value(z)
    return alpha_optimal_bounds(*extreme_eigenvalues(z)).alpha


def solve_transform(x, m, config: PipelineConfig | None = None) -> MatchResult:
    """Best least-squares T with X T ~ M, via the rescaled inversion recurrence.

    ``x`` is the source pattern (rows are observations), ``m`` the target with
    the same row count; ``x`` must have at least as many rows as columns.
    Raises :class:`InversionStalledError` when the inversion stalls because
    the chosen scale factor puts an eigenvalue of alpha * X'X at 2 or above,
    and :class:`SingularSystemError` when the Gram matrix is not positive
    definite or the inversion fails to converge otherwise.
    """
    if config is None:
        config = PipelineConfig()
    x = as_matrix(x)
    m = as_matrix(m)
    if x.shape[0] != m.shape[0]:
        raise ValueError(
            f"row counts differ: source has {x.shape[0]} rows, target has {m.shape[0]}"
        )
    if x.shape[0] < x.shape[1]:
        raise ValueError(
            f"underdetermined system: {x.shape[0]} rows for {x.shape[1]} columns"
        )

    z = gram(x)
    try:
        alpha = _scale_factor(z, config.scale_kind)
    except ValueError as exc:
        raise SingularSystemError(f"singular system: {exc}") from exc

    report = invert(rescale(z, alpha), config.inversion)
    if report.stalled:
        # The residual stays >= 1 only when alpha * Z has an eigenvalue at or
        # beyond 0 (a singular system) or 2 (a scale factor too large).
        low, high = extreme_eigenvalues(z)
        if alpha * high - 1.0 >= 1.0 - alpha * low:
            raise InversionStalledError(
                f"inversion stalled under scale factor {config.scale_kind.token}: "
                f"residual {report.final_residual:.3e} did not drop below 1 in "
                f"{report.iterations} iterations; the largest eigenvalue of "
                f"alpha * X'X is {alpha * high:.6g}, not below 2"
            )
    if not report.converged:
        raise SingularSystemError(
            "singular system: inversion did not converge after "
            f"{report.iterations} iterations (residual {report.final_residual:.3e})"
        )

    xtm = transpose_multiply(x, m)
    transform = multiply(alpha * report.inverse, xtm)
    distance = frobenius_distance(multiply(x, transform), m)
    ops = op_count(report.iterations)
    return MatchResult(
        transform=transform,
        distance=distance,
        inversion=report,
        op_count=ops,
        est_time_ms=estimate_time_ms(ops, config.ms_per_op),
    )
