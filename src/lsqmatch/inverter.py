"""The recurrent inversion process, its stopping rule, and its iteration bound.

The process is V0 = I; U_{t+1} = 2I - V_t A; V_{t+1} = U_{t+1} V_t, which
converges quadratically to A^-1 whenever the spectrum of A lies in (0, 2):
V_t is the sum of the first 2^t terms of the Neumann series of A, so the
spectral residual I - V_t A is (I - A)^(2^t).  ``iteration_bound`` turns
that into a count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .linalg import symmetrize

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


def iteration_bound(low: float, high: float, epsilon: float) -> int:
    """Updates after which the spectral residual is below ``epsilon``.

    ``low`` and ``high`` are the ends of the rescaled spectrum (of alpha * Z).
    With the contraction c = max(|1 - low|, |1 - high|) the residual after t
    updates is c^(2^t), so the count is ceil(log2(ln eps / ln c)), clamped at
    0 (and 0 when c = 0).  The entrywise stopping rule of :func:`invert` can
    stop earlier, never later.  Raises ``ValueError`` unless c < 1 and
    0 < eps < 1.

    No production path calls it yet.  It is the library's one exact count,
    kept for the predicted counts the benchmark records are to carry and
    for a self-scaled recurrence to extend; the tests check it against
    observed counts.
    """
    contraction = max(abs(1.0 - low), abs(1.0 - high))
    if not contraction < 1.0:
        raise ValueError(f"rescaled spectrum [{low}, {high}] must lie inside (0, 2)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if contraction == 0.0:
        return 0
    return max(0, math.ceil(math.log2(math.log(epsilon) / math.log(contraction))))
