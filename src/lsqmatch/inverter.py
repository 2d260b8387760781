"""The recurrent inversion process, its stopping rule, and its iteration bound.

The process is V0 = I; U_{t+1} = 2I - V_t A; V_{t+1} = U_{t+1} V_t, which
converges quadratically to A^-1 whenever the spectrum of A lies in (0, 2):
V_t is the sum of the first 2^t terms of the Neumann series of A, so the
spectral residual I - V_t A is (I - A)^(2^t).  ``iteration_bound`` turns
that into a count for the plain process.  ``invert`` validates A once and
runs the process without allocating per step, plainly or self-scaled:
V_{t+1} = beta_t U_{t+1} V_t, with one scalar gain per update that
recentres the spectrum of V_{t+1} A on 1.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import symmetrize


#: Matrix-vector power steps per self-scaled update that refresh the estimate of ||I - V A||_2.
POWER_STEPS = 10


class InversionStatus(enum.Enum):
    """Why the recurrence stopped."""

    CONVERGED = "converged"
    HIT_CAP = "hit_cap"
    DIVERGED = "diverged"
    STALLED = "stalled"


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
        cap = self.max_iterations
        try:
            operator.index(cap)
        except TypeError:
            raise ValueError(f"max_iterations must be an integer, got {cap!r}") from None
        if cap < 1:
            raise ValueError(f"max_iterations must be at least 1, got {cap}")


@dataclass
class InversionReport:
    """Outcome of one inversion run.

    ``iterations`` counts (U, V) update pairs actually applied;
    ``residual_history[t]`` is max|I - V_t A| for t = 0 .. iterations;
    ``status`` says why the run stopped.
    """

    inverse: np.ndarray
    iterations: int
    residual_history: np.ndarray = field(repr=False)
    status: InversionStatus

    @property
    def converged(self) -> bool:
        return self.status is InversionStatus.CONVERGED

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1])


def invert(a, cfg: InversionConfig | None = None, self_scaled=False) -> InversionReport:
    """Run the recurrence V0 = I; U = 2I - V A; V <- U V on symmetric ``a``.

    The caller rescales ``a`` so its spectrum lies in (0, 2).  ``a`` is
    validated by :func:`symmetrize` and then only read; an exactly symmetric
    input is not copied.  Each call allocates V and two n x n work buffers,
    P and W, once; an iteration allocates no n x n array.  P receives V A.
    The diagonal of U, ``2.0 - P`` on the strided view
    ``P.reshape(-1)[::n + 1]``, is kept in an n-vector; ``0.0 - P`` in place
    gives U off the diagonal (it keeps +0.0 exactly as ``2I - P`` does).  The
    diagonal of P then holds U - I, so P holds the residual R = I - V A; W
    takes |R|, whose max is the residual max|I - V_t A|, and the diagonal is
    set back to U's.  W then receives U V and trades places with V.  The
    first update makes no product: V0 A is A, copied into P, and U0 V0 is
    U0, which P hands over as V1.  Every entry goes through the same
    floating-point operations as ``2.0 * eye - v @ a``, so the plain run's
    iterates and residuals are bit-identical to that formulation.

    With ``self_scaled`` each update also scales U in place by one gain
    beta = 2 / (2 - rho^2) before the U V product, which centres the
    spectrum of V_{t+1} A on 1 again: the spectral residual then falls as
    rho <- rho^2 / (2 - rho^2) instead of rho <- rho^2.  rho is a lower
    estimate of ||R||_2, the larger of the residual and ||R x||_2 for a unit
    vector x that ``POWER_STEPS`` matrix-vector power steps on P refresh
    each update and that carries over to the next.  Any estimate in [0, 1)
    keeps the spectrum in (0, 2), and one at or below ||R||_2 never
    contracts worse than the plain update.  A residual at or above 1 gets
    no gain, so the stall and divergence rules read as in the plain run.

    The report's ``status`` is CONVERGED when the residual drops below
    ``cfg.epsilon`` (the t = 0 test checks I - A itself), HIT_CAP after
    ``cfg.max_iterations`` updates, and, once the residual is at least 1 and
    has not dropped for three updates in a row, DIVERGED if it rose strictly
    above 1 in each of them, else STALLED.  A residual at or above 1 means A
    has an eigenvalue outside (0, 2), for example a single-column Gram matrix
    under the trace scale factor, whose rescaled eigenvalue is exactly 2.
    A non-finite residual raises :class:`DivergenceError`.
    """
    if cfg is None:
        cfg = InversionConfig()
    a = symmetrize(a)
    eps, max_iter = float(cfg.epsilon), cfg.max_iterations
    n = a.shape[0]
    v = np.eye(n)
    p = a.copy()
    w = np.empty((n, n))
    p_diag = p.reshape(-1)[:: n + 1]
    u_diag = np.empty(n)
    x = np.full(n, 1.0 / math.sqrt(n))
    y = np.empty(n)
    history = []
    flat = grow = 0
    prev = np.inf
    for t in range(max_iter + 1):
        if t:
            np.dot(v, a, out=p)
        np.subtract(2.0, p_diag, out=u_diag)
        np.subtract(0.0, p, out=p)
        np.subtract(u_diag, 1.0, out=p_diag)
        r = np.abs(p, out=w).max()
        history.append(r)
        if not np.isfinite(r):
            raise DivergenceError(t)
        if r < eps:
            return InversionReport(v, t, np.array(history), InversionStatus.CONVERGED)
        if t == max_iter:
            return InversionReport(v, t, np.array(history), InversionStatus.HIT_CAP)
        if r >= 1.0 and r >= prev:
            flat += 1
            grow = grow + 1 if r > 1.0 and r > prev else 0
            if flat >= 3:
                status = InversionStatus.DIVERGED if grow >= 3 else InversionStatus.STALLED
                return InversionReport(v, t, np.array(history), status)
        else:
            flat = grow = 0
        prev = r
        gain = _gain(p, r, x, y) if self_scaled and r < 1.0 else 1.0
        p_diag[:] = u_diag
        if gain != 1.0:
            p *= gain
        if t:
            np.dot(p, v, out=w)
            v, w = w, v
        else:
            v, p = p, v
            p_diag = p.reshape(-1)[:: n + 1]


def _gain(r_buf, r, x, y):
    """The self-scaled gain 2 / (2 - rho^2) for the residual in ``r_buf``, or 1.

    rho = max(r, ||R x||_2) after ``POWER_STEPS`` power steps that overwrite
    the unit vector ``x``; ``y`` is n-vector scratch.
    """
    norm = 0.0
    for _ in range(POWER_STEPS):
        np.dot(r_buf, x, out=y)
        norm = math.sqrt(np.dot(y, y))
        if norm == 0.0:
            break
        np.divide(y, norm, out=x)
    rho = max(r, norm)
    return 2.0 / (2.0 - rho * rho) if rho < 1.0 else 1.0


def iteration_bound(low: float, high: float, epsilon: float) -> int:
    """Updates after which the spectral residual is below ``epsilon``.

    ``low`` and ``high`` are the ends of the rescaled spectrum (of alpha * Z).
    With the contraction c = max(|1 - low|, |1 - high|) the residual after t
    updates is c^(2^t), so the count is ceil(log2(ln eps / ln c)), clamped at
    0 (and 0 when c = 0).  The entrywise stopping rule of :func:`invert` can
    stop earlier, never later, and so can a self-scaled run.  Raises
    ``ValueError`` unless c < 1 and 0 < eps < 1.

    No production path calls it yet.  It is the library's one exact count
    of the plain recurrence, which the benchmark suites run, kept for the
    predicted counts in their records; the tests check it against observed
    counts.  A self-scaled run contracts as rho <- rho^2 / (2 - rho^2) and
    is not counted by it.
    """
    contraction = max(abs(1.0 - low), abs(1.0 - high))
    if not contraction < 1.0:
        raise ValueError(f"rescaled spectrum [{low}, {high}] must lie inside (0, 2)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if contraction == 0.0:
        return 0
    return max(0, math.ceil(math.log2(math.log(epsilon) / math.log(contraction))))
