"""Scale factors that place the spectrum of alpha * Z inside (0, 2).

Three choices are provided: the optimal factor (needs the extreme
eigenvalues), a trace-based factor, and a Gershgorin/diagonal factor that
reads only one column-sum pass off the matrix; ``scale_factor`` maps a kind
to its value.  The factor functions and ``rescale`` take a trusted symmetric
float64 matrix, such as the output of ``linalg.gram``.
"""

from __future__ import annotations

import enum

import numpy as np

from .linalg import extreme_eigenvalues


class ScaleFactorKind(enum.Enum):
    """The three scale-factor families, in their CLI/CSV token spelling."""

    OPTIMAL = "alpha0"
    TRACE = "alpha1"
    GERSHGORIN = "alpha2"


def alpha_optimal_bounds(lam_min: float, lam_max: float) -> float:
    """Optimal factor 2/(lam_max + lam_min) from known extreme eigenvalues."""
    if not lam_min > 0.0:
        raise ValueError(f"matrix is not positive definite: smallest eigenvalue {lam_min}")
    if lam_max < lam_min:
        raise ValueError("lam_max must be at least lam_min")
    return 2.0 / (lam_max + lam_min)


def alpha_trace_value(z: np.ndarray) -> float:
    """Trace-based factor 2/trace(Z) of a trusted matrix; touches only the diagonal."""
    tr = float(np.trace(z))
    if not tr > 0.0:
        raise ValueError(f"matrix is not positive definite: trace = {tr}")
    return 2.0 / tr


def alpha_gershgorin_value(z: np.ndarray) -> float:
    """Diagonal/row-sum factor 2/(min z_ii + max_i sum_j |z_ij|) of a trusted matrix."""
    denom = float(np.diag(z).min()) + float(np.abs(z).sum(axis=1).max())
    if not denom > 0.0:
        raise ValueError(f"matrix is not positive definite: scale denominator = {denom}")
    return 2.0 / denom


def scale_factor(
    z: np.ndarray, kind: ScaleFactorKind, extremes: tuple[float, float] | None = None
) -> float:
    """The value of scale factor ``kind`` for the trusted symmetric matrix ``z``.

    ``extremes`` is a known ``(low, high)`` spectrum of ``z``; the optimal
    factor computes it with :func:`extreme_eigenvalues` when it is not given.
    Raises ``ValueError`` when ``z`` is not positive definite.
    """
    if kind is ScaleFactorKind.TRACE:
        return alpha_trace_value(z)
    if kind is ScaleFactorKind.GERSHGORIN:
        return alpha_gershgorin_value(z)
    if extremes is None:
        extremes = extreme_eigenvalues(z)
    return alpha_optimal_bounds(*extremes)


def rescale(z: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * Z of a trusted symmetric matrix, for alpha > 0; keeps symmetry exactly."""
    if not alpha > 0.0:
        raise ValueError(f"scale factor must be positive, got {alpha}")
    return z * float(alpha)
