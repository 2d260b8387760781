"""The recurrent inversion process, its stopping rule, and iteration predictors.

The process is V0 = I; U_{t+1} = 2I - V_t A; V_{t+1} = U_{t+1} V_t, which
converges quadratically to A^-1 whenever the spectrum of A lies in (0, 2).
``neumann_partial_sum`` provides the closed-form oracle for its iterates:
V_t equals the first 2^t terms of the Neumann series of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .linalg import symmetrize

#: Largest exponent accepted by :func:`neumann_partial_sum` (2^t - 1 products).
NEUMANN_MAX_T = 20


class DivergenceError(RuntimeError):
    """Iterates left the floating-point range — the input was badly scaled."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite values in inversion iterate at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class InversionConfig:
    """Stopping threshold (entrywise, on I - V A) and iteration cap."""

    epsilon: float = 1e-6
    max_iterations: int = 200

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass
class InversionReport:
    """Outcome of one inversion run.

    ``iterations`` counts (U, V) update pairs actually applied;
    ``residual_history[t]`` is max|I - V_t A| for t = 0 .. iterations;
    ``stalled`` marks a run stopped because the residual stopped falling at
    or above 1.
    """

    inverse: np.ndarray
    iterations: int
    residual_history: np.ndarray = field(repr=False)
    converged: bool
    final_residual: float
    stalled: bool


def invert(a, cfg: InversionConfig | None = None) -> InversionReport:
    """Run the inversion recurrence on symmetric ``a`` until the residual drops.

    The caller is responsible for rescaling so the spectrum of ``a`` lies in
    (0, 2).  Stops at the smallest t >= 0 with max|I - V_t A| < epsilon (the
    t = 0 test checks I - A itself).  A residual at or above 1 that has not
    dropped for three iterations in a row aborts early with
    ``converged=False``: with ``stalled=True`` unless it grew above 1 in each
    of them (divergence).  A residual at or above 1 means A has an eigenvalue
    outside (0, 2), where the recurrence cannot converge, for example a
    single-column Gram matrix under the trace scale factor, whose rescaled
    eigenvalue is exactly 2.  Non-finite iterates raise
    :class:`DivergenceError`.
    """
    if cfg is None:
        cfg = InversionConfig()
    a = symmetrize(a)
    v, history, iterations, status = kernels.newton_schulz(
        a, float(cfg.epsilon), int(cfg.max_iterations)
    )
    if status == kernels.NONFINITE:
        raise DivergenceError(iterations)
    return InversionReport(
        inverse=v,
        iterations=iterations,
        residual_history=history,
        converged=status == kernels.CONVERGED,
        final_residual=float(history[-1]),
        stalled=status == kernels.STALLED,
    )


def neumann_partial_sum(a, t: int) -> np.ndarray:
    """Sum of (I - A)^i for i = 0 .. 2^t - 1, accumulated term by term.

    Independent oracle for the process iterate V_t; capped at t <= 20 since
    the term count doubles with t.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t > NEUMANN_MAX_T:
        raise ValueError(f"t = {t} exceeds the cap {NEUMANN_MAX_T} (2^t - 1 terms)")
    a = symmetrize(a)
    n = a.shape[0]
    b = np.eye(n) - a
    total = np.eye(n)
    term = np.eye(n)
    for _ in range(2**t - 1):
        term = term @ b
        total += term
    return total


def convergence_threshold(contraction: float, epsilon: float) -> float:
    """Real-valued iteration threshold log2(ln eps / ln contraction).

    Past the ceiling of this value the spectral residual is guaranteed below
    ``epsilon``.  Clamped at 0: a tiny contraction converges during the very
    first update.
    """
    if not 0.0 <= contraction < 1.0:
        raise ValueError(f"contraction must lie in [0, 1), got {contraction}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if contraction == 0.0:
        return 0.0
    return max(0.0, math.log2(math.log(epsilon) / math.log(contraction)))


def predicted_iterations_optimal(kappa: float, epsilon: float) -> float:
    """Large-kappa iteration estimate under the optimal scale factor."""
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.log2(abs(math.log(epsilon))) + math.log2(kappa + 1.0) - 1.0


def predicted_iterations_trace_bound(kappa: float, n: int, epsilon: float) -> float:
    """Upper bound on iterations under the trace scale factor (n >= 2)."""
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return math.log2(abs(math.log(epsilon))) + math.log2(kappa) + math.log2(n) - 1.0
