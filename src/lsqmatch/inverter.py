"""Scale factors and the recurrent inversion process, its stopping rule and its bound.

The process is V0 = I; U_{t+1} = 2I - V_t A; V_{t+1} = U_{t+1} V_t, which
converges quadratically to A^-1 whenever the spectrum of A lies in (0, 2):
V_t is the sum of the first 2^t terms of the Neumann series of A, so the
spectral residual I - V_t A is (I - A)^(2^t).  ``scale_factor`` gives the
alpha = 2/d that places the spectrum of A = alpha Z there, by one of three
kinds that differ only in the denominator d: the optimal factor (the sum of
the extreme eigenvalues), a trace-based factor, and a Gershgorin/diagonal
factor that reads only one row-sum pass off the matrix; one positivity
check on d serves all three.  ``iteration_bound`` turns the contraction into a
count for the plain process.  ``invert`` validates A once and runs the
process without allocating per step, plainly or self-scaled:
V_{t+1} = beta_t U_{t+1} V_t, with one scalar gain per update that
recentres the spectrum of V_{t+1} A on 1.  ``scale_and_invert`` is the one
step that callers run: it scales Z by its alpha and inverts alpha Z.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import extreme_eigenvalues, symmetrize


class ScaleFactorKind(enum.Enum):
    """The three scale-factor families, in their CLI/CSV token spelling."""

    OPTIMAL = "alpha0"
    TRACE = "alpha1"
    GERSHGORIN = "alpha2"


def scale_factor(
    z: np.ndarray, kind: ScaleFactorKind, extremes: tuple[float, float] | None = None
) -> float:
    """The value 2/d of scale factor ``kind`` for the trusted symmetric matrix ``z``.

    The kinds differ only in the denominator d: alpha0 takes lambda_min +
    lambda_max, from ``extremes``, a known ``(low, high)`` spectrum of ``z``,
    or else from :func:`extreme_eigenvalues`; alpha1 takes trace(Z); alpha2
    takes min z_ii + max_i sum_j |z_ij|.  Raises ``TypeError`` when ``kind``
    is not a :class:`ScaleFactorKind`, and ``ValueError`` when ``z`` is not
    positive definite (d is not positive or the extremes are not
    0 < low <= high) and when 2/d leaves (0, inf), as at d = inf or d < 1.1e-308.

    For a positive definite n x n ``z`` with n >= 2, no kind puts an
    eigenvalue of alpha * Z at 2: alpha0 centres the spectrum on 1; alpha2
    adds min z_ii > 0 to Gershgorin's row-sum bound on the top eigenvalue;
    alpha1's trace exceeds the top eigenvalue by the others, which are
    positive.  Rounding lands the top one on 2 only if the others are below
    u times it, that is, only if ``z`` is singular to working precision.
    For n = 1, alpha1 puts the one eigenvalue z[0, 0] at 2 exactly.
    """
    with np.errstate(over="ignore"):  # an overflowed d is inf, and rejected
        if kind is ScaleFactorKind.TRACE:
            d = float(np.trace(z))
        elif kind is ScaleFactorKind.GERSHGORIN:
            d = float(np.diag(z).min()) + float(np.abs(z).sum(axis=1).max())
        elif kind is ScaleFactorKind.OPTIMAL:
            low, high = extreme_eigenvalues(z) if extremes is None else extremes
            if not 0.0 < low <= high:
                raise ValueError(f"matrix is not positive definite: extremes ({low}, {high})")
            d = high + low
        else:
            raise TypeError(f"kind must be a ScaleFactorKind, got {kind!r}")
    if not d > 0.0:
        raise ValueError(f"matrix is not positive definite: scale denominator = {d}")
    alpha = 2.0 / float(d)  # a float quotient overflows to inf without a numpy warning
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"scale factor 2/d overflows the float64 range at d = {d}")
    return alpha


#: Matrix-vector power steps per self-scaled update that refresh the estimate of ||I - V A||_2.
POWER_STEPS = 10

#: Default stopping threshold on max|I - V A|.
EPSILON = 1e-6

#: Updates after which a run that has not converged stops with HIT_CAP.
MAX_ITERATIONS = 200


class InversionStatus(enum.Enum):
    """Why the recurrence stopped; a non-finite residual is DIVERGED."""

    CONVERGED = "converged"
    HIT_CAP = "hit_cap"
    DIVERGED = "diverged"
    STALLED = "stalled"


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


def check_epsilon(epsilon) -> None:
    """Raise ``ValueError`` unless the stopping threshold ``epsilon`` lies in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def invert(a, epsilon=EPSILON, self_scaled=False) -> InversionReport:
    """Run the recurrence V0 = I; U = 2I - V A; V <- U V on symmetric ``a``.

    The caller rescales ``a`` so its spectrum lies in (0, 2); the run stops
    once max|I - V A| is below ``epsilon``, which must lie in (0, 1), or
    after the fixed cap of ``MAX_ITERATIONS`` updates.  ``a`` is validated
    by :func:`symmetrize`, which makes no copy, and then only read.  V and
    two n x n work buffers are allocated once per call, so an update
    allocates no n x n array, and the first update makes no product, since
    V0 A is A and U0 V0 is U0.  Every entry goes through the same
    floating-point operations as ``2.0 * eye - v @ a``, so the plain run's
    iterates and residuals are bit-identical to that formulation.

    With ``self_scaled`` each update also scales U in place by one gain
    beta = 2 / (2 - rho^2) before the U V product, which centres the
    spectrum of V_{t+1} A on 1 again: the spectral residual then falls as
    rho <- rho^2 / (2 - rho^2) instead of rho <- rho^2.  rho is a lower
    estimate of ||R||_2, the larger of the residual and ||R x||_2 for a unit
    vector x that ``POWER_STEPS`` matrix-vector power steps on R = I - V A
    refresh each update and that carries over to the next.  Any estimate in
    [0, 1) keeps the spectrum in (0, 2), and one at or below ||R||_2 never
    contracts worse than the plain update.  A residual at or above 1 gets no
    gain, so the stall and divergence rules read as in the plain run.

    :func:`_stop_status` decides from the residual history when the run
    stops and why.  Every input that passes validation gets a report: an
    iterate that leaves the float64 range gives a non-finite residual, a
    DIVERGED stop, and no floating-point warning.
    """
    check_epsilon(epsilon)
    a = symmetrize(a)
    n = a.shape[0]
    v = np.eye(n)
    p = a.copy()
    w = np.empty((n, n))
    p_diag = p.reshape(-1)[:: n + 1]
    u_diag = np.empty(n)
    x = np.full(n, 1.0 / math.sqrt(n))
    y = np.empty(n)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in itertools.count():
            if t:
                np.dot(v, a, out=p)
            # P becomes the residual R = I - V A, with U's diagonal kept aside;
            # 0.0 - P keeps +0.0 off the diagonal exactly as 2I - P does.
            np.subtract(2.0, p_diag, out=u_diag)
            np.subtract(0.0, p, out=p)
            np.subtract(u_diag, 1.0, out=p_diag)
            r = np.abs(p, out=w).max()
            history.append(r)
            status = _stop_status(history, epsilon, MAX_ITERATIONS)
            if status is not None:
                return InversionReport(v, t, np.array(history), status)
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


def scale_and_invert(
    z, kind, extremes=None, epsilon=EPSILON, self_scaled=False
) -> tuple[float, InversionReport]:
    """Scale ``z`` by ``alpha = scale_factor(z, kind, extremes)`` and invert alpha Z.

    Returns ``(alpha, invert(z * alpha, epsilon, self_scaled))`` and raises
    what those two raise; alpha times the report's inverse approximates Z^-1.
    """
    alpha = scale_factor(z, kind, extremes)
    return alpha, invert(z * alpha, epsilon, self_scaled)


def _stop_status(history, eps, max_iter) -> InversionStatus | None:
    """Why the run stops after the residuals ``history``, or None to go on.

    ``history[t]`` is max|I - V_t A|.  The status is DIVERGED when the last
    residual is not finite, CONVERGED when it is below ``eps`` (at t = 0
    that tests I - A itself), HIT_CAP after ``max_iter`` updates (``invert``
    passes ``MAX_ITERATIONS``), and, once the residual is at least 1 and has
    not dropped for three updates in a row, DIVERGED if it rose strictly
    above 1 in each of them, else STALLED.
    A residual at or above 1 means A has an eigenvalue outside (0, 2), for
    example a single-column Gram matrix under the trace scale factor (see
    :func:`scale_factor`).
    """
    h = history[-4:]
    if not math.isfinite(h[-1]):
        return InversionStatus.DIVERGED
    if h[-1] < eps:
        return InversionStatus.CONVERGED
    if len(history) > max_iter:
        return InversionStatus.HIT_CAP
    if len(h) == 4 and 1.0 <= h[1] and h[0] <= h[1] <= h[2] <= h[3]:
        if 1.0 < h[1] and h[0] < h[1] < h[2] < h[3]:
            return InversionStatus.DIVERGED
        return InversionStatus.STALLED
    return None


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
    ``ValueError`` unless c < 1, with neither end NaN, and 0 < eps < 1.

    No production path calls it yet.  It is the library's one exact count
    of the plain recurrence, which the benchmark suites run, kept for the
    predicted counts in their records; the tests check it against observed
    counts.  A self-scaled run contracts as rho <- rho^2 / (2 - rho^2) and
    is not counted by it.
    """
    contraction = max(abs(1.0 - low), abs(1.0 - high))  # max drops a NaN in second place
    if not contraction < 1.0 or math.isnan(low + high):
        raise ValueError(f"rescaled spectrum [{low}, {high}] must lie inside (0, 2)")
    check_epsilon(epsilon)
    if contraction == 0.0:
        return 0
    return max(0, math.ceil(math.log2(math.log(epsilon) / math.log(contraction))))
