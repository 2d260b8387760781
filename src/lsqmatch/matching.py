"""Least-squares pattern matching driven by the recurrent inverter.

Solves min_T ||X T - M|| (Frobenius) through the normal equations: the Gram
matrix X'X is rescaled, inverted by the self-scaled recurrence, and the
transform recovered as T = (alpha V) (X'M).  Also exposes the
operation-count model used to estimate wall time on fixed-cost matrix
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inverter import (
    EPSILON, InversionReport, InversionStatus, ScaleFactorKind, check_epsilon, scale_and_invert
)
from .linalg import as_matrix, binary_exponent, gram


class SingularSystemError(RuntimeError):
    """The normal equations cannot be inverted (rank-deficient or non-PD input)."""


class InversionStalledError(RuntimeError):
    """The trace scale factor put the one eigenvalue of a single-column X'X at 2.

    The residual then stays at 1, so the recurrence cannot converge, although
    the other scale factors solve the same system.
    """


class IterationCapError(RuntimeError):
    """The inversion reached its iteration cap before its residual fell below epsilon."""


#: The cost model's fixed time per matrix operation, in milliseconds.
MS_PER_OP = 5.0

#: Default scale factor of a matching run.
SCALE_KIND = ScaleFactorKind.GERSHGORIN


@dataclass
class MatchResult:
    """Transform, its fit quality, and the cost model's view of the run."""

    transform: np.ndarray
    distance: float
    inversion: InversionReport

    @property
    def op_count(self) -> int:
        return op_count(self.inversion.iterations)

    @property
    def est_time_ms(self) -> float:
        return estimate_time_ms(self.op_count)


def op_count(iterations: int) -> int:
    """Matrix-operation count of a full matching run: 2 per update pair plus 7.

    It counts matrix-matrix operations only.  The self-scaled gain (one
    scalar times U) and its power steps (matrix-vector products on the
    residual) are O(n^2) per update and count as none.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    return 2 * iterations + 7


def estimate_time_ms(ops: int) -> float:
    """Wall-time estimate when every matrix operation costs ``MS_PER_OP``."""
    if ops < 0:
        raise ValueError(f"ops must be nonnegative, got {ops}")
    return ops * MS_PER_OP


def solve_transform(x, m, *, scale_kind=SCALE_KIND, epsilon=EPSILON) -> MatchResult:
    """Best least-squares T with X T ~ M, via the rescaled, self-scaled recurrence.

    ``x`` is the source pattern (rows are observations), ``m`` the target with
    the same row count; ``x`` must have at least as many rows as columns.
    ``scale_kind`` picks alpha and ``epsilon`` is :func:`scale_and_invert`'s threshold.
    Raises :class:`InversionStalledError` when alpha1 puts a one-column X'X at 2,
    :class:`IterationCapError` when the inversion reaches its cap of
    ``inverter.MAX_ITERATIONS`` updates, :class:`SingularSystemError` when X'X
    is not positive definite or the inversion of a wider X stalls or diverges
    (alpha X'X has its spectrum in (0, 2], so no residual is non-finite),
    ``TypeError`` when ``scale_kind`` is not a :class:`ScaleFactorKind`, and
    ``ValueError`` when T overflows or ``epsilon`` is outside (0, 1).
    """
    check_epsilon(epsilon)  # here, since a ValueError from the step means "singular"
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

    # Prescale by exact powers of two to largest entries in [0.5, 1), so the
    # scale of X'X no longer follows the input's; where the unscaled solve
    # neither over- nor underflows, T and the distance come out bit-identical.
    kx, km = binary_exponent(x), binary_exponent(m)
    if kx:
        x = np.ldexp(x, -kx)
    if km:
        m = np.ldexp(m, -km)
    z = gram(x)
    try:
        alpha, report = scale_and_invert(z, scale_kind, epsilon=epsilon, self_scaled=True)
    except ValueError as exc:
        raise SingularSystemError(f"singular system: {exc}") from exc
    if report.status is InversionStatus.HIT_CAP:
        raise IterationCapError(
            f"inversion hit the iteration cap of {report.iterations} iterations "
            f"(residual {report.final_residual:.3e})"
        )
    # A stall is singular unless alpha1 put a one-column Z at 2 (see scale_factor).
    if report.status is InversionStatus.STALLED and x.shape[1] == 1:
        raise InversionStalledError(
            f"inversion stalled under scale factor {scale_kind.value}: "
            f"residual {report.final_residual:.3e} did not drop below 1 in "
            f"{report.iterations} iterations; the largest eigenvalue of "
            f"alpha * X'X is {alpha * z[0, 0]:.6g}, not below 2"
        )
    if not report.converged:
        raise SingularSystemError(
            f"singular system: inversion {report.status.value} after "
            f"{report.iterations} iterations (residual {report.final_residual:.3e})"
        )

    transform = (alpha * report.inverse) @ (x.T @ m)
    # Undoing the prescale may overflow: the distance then reads inf, T is an error.
    with np.errstate(over="ignore"):
        r = (x @ transform - m).ravel()
        distance = float(np.ldexp(np.sqrt(r @ r), km))
        transform = np.ldexp(transform, km - kx)
    if not np.isfinite(transform).all():
        raise ValueError("transform overflows: an entry of T is beyond the float64 range")
    return MatchResult(transform, distance, report)
