"""Oracles that the tests compare the package against, a capped input and the cap seam."""

import math

import numpy as np
import pytest

from lsqmatch.generate import derive_seed, more_toraldo, uniform_pattern
from lsqmatch.inverter import InversionStatus, invert
from lsqmatch.linalg import MULTISECTION_SHIFTS, _tridiagonalize, binary_exponent, symmetrize

#: Largest exponent accepted by :func:`neumann_partial_sum` (2^t - 1 products).
NEUMANN_MAX_T = 20


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


def spectral_norm(resid) -> float:
    """Spectral norm of the symmetric part of a residual, from numpy's eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh((resid + resid.T) * 0.5)).max())


def self_scaled_count(rho: float, eps: float) -> int:
    """Updates until rho <- rho^2 / (2 - rho^2), from ``rho``, drops below ``eps``.

    The spectral residual of the self-scaled recurrence when each gain uses
    the exact ||I - V A||_2; needs 0 <= rho < 1.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    count = 0
    while not rho < eps:
        rho = rho * rho / (2.0 - rho * rho)
        count += 1
    return count


def _counter_stop(history, eps, max_iter):
    """The stop rule in the counter form the loop once carried, run over ``history``.

    ``flat`` counts the updates in a row whose residual is at least 1 and no
    lower than the one before, ``grow`` those of them that also rose strictly
    above 1.  Returns the stop index and status, or None when the run goes on;
    a non-finite residual is DIVERGED.
    """
    flat = grow = 0
    prev = math.inf
    for t, r in enumerate(history):
        if not math.isfinite(r):
            return t, InversionStatus.DIVERGED
        if r < eps:
            return t, InversionStatus.CONVERGED
        if t == max_iter:
            return t, InversionStatus.HIT_CAP
        if r >= 1.0 and r >= prev:
            flat += 1
            grow = grow + 1 if r > 1.0 and r > prev else 0
            if flat >= 3:
                return t, InversionStatus.DIVERGED if grow >= 3 else InversionStatus.STALLED
        else:
            flat = grow = 0
        prev = r
    return None


def _reference_newton_schulz(a, eps, max_iter):
    """The recurrence written plainly, with a fresh array for every operation.

    It stops by :func:`_counter_stop`, the counter form of the stop rule.
    """
    n = a.shape[0]
    eye = np.eye(n)
    v = np.eye(n)
    history = []
    while True:
        u = 2.0 * eye - v @ a
        history.append(np.abs(u - eye).max())
        stop = _counter_stop(history, eps, max_iter)
        if stop is not None:
            return v, np.array(history), *stop
        v = u @ v


def near_dependent_pattern(n: int, seed: int) -> np.ndarray:
    """A 3n x n uniform pattern whose column 0 is column 1 plus 1e-6 times a fresh column.

    X has full rank, but kappa(X'X) is about 1e12, so rounding keeps
    max|I - V A| near 1e-4: under every scale factor the self-scaled
    inversion stops at the 200-update cap.
    """
    x = uniform_pattern(3 * n, n, seed)
    x[:, 0] = x[:, 1] + 1e-6 * uniform_pattern(3 * n, 1, derive_seed(seed, 1))[:, 0]
    return x


def mix64(value: int) -> int:
    """Scalar splitmix64 finalizer, with the published constants: the reference for ``generate``."""
    mask = (1 << 64) - 1
    z = value & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return z


def rescaled_test_matrix(index: int) -> tuple[np.ndarray, float]:
    """Small conditioned SPD matrix mapped into spectrum (0, 2), with its kappa.

    n in 2..8 and kappa in (2, 20) are drawn from ``index``; the ladder
    1 .. kappa becomes 2 / (1 + kappa) .. 2 kappa / (1 + kappa).
    """
    n = 2 + (mix64(index) % 7)
    u = ((mix64(index + 100) >> 11) + 0.5) * 2.0**-53
    kappa = 2.0 + 18.0 * u
    _, z = more_toraldo(int(n), kappa, derive_seed(9, index))
    return z * (2.0 / (1.0 + kappa)), kappa


def gaussian_solve(a, b) -> np.ndarray:
    """Independent normal-equations oracle: dense solve of a x = b by partial-pivot elimination."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix in elimination oracle")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def iterate_to(a, t: int) -> np.ndarray:
    """The iterate V_t after exactly t updates (identity at t = 0).

    Read off ``invert`` with the update cap patched to t and a threshold too
    small to hit.
    """
    if t == 0:
        return np.eye(a.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lsqmatch.inverter.MAX_ITERATIONS", t)
        return invert(a, epsilon=1e-300).inverse


def vectorized_sturm_counts(d, e2, shifts) -> np.ndarray:
    """Eigenvalues of the tridiagonal (d, e**2) below each shift, for all shifts at once.

    The clear sign bits of p_i = (shift - d_i) - e2_{i-1} / p_{i-1} in one
    n x S array, with numpy's IEEE quotients: a zero pivot gives +-inf, and a
    row under a zero e2 takes no quotient.
    """
    p = shifts - d[:, None]
    rows, quotient = list(p), np.empty_like(shifts)
    with np.errstate(divide="ignore", over="ignore"):
        for e2_above, above, row in zip(e2.tolist(), rows, rows[1:]):
            if e2_above:
                np.divide(e2_above, above, out=quotient)
                np.subtract(row, quotient, out=row)
    return (~np.signbit(p)).sum(axis=0)


def vectorized_multisection(z):
    """``extreme_eigenvalues`` with every shift of every step counted: the reference for its bits.

    Returns ``(low, high)``, the tridiagonal (d, e**2) the steps count on,
    and each step's 2 x ``MULTISECTION_SHIFTS`` shifts, the row of the
    smallest eigenvalue's bracket first.  A step moves each bracket to the
    shifts on either side of the first one with at least ``target``
    eigenvalues below it, counting how many fall short; both brackets are
    refined until both are within tolerance.
    """
    s = symmetrize(z)
    exponent = binary_exponent(s)
    a = np.ldexp(s, -exponent)
    n = a.shape[0]
    d, e = _tridiagonalize(a)
    e2 = e * e
    eps = np.finfo(np.float64).eps
    abs_e = np.abs(e)
    radius = np.r_[0.0, abs_e] + np.r_[abs_e, 0.0]
    lo, hi = float((d - radius).min()), float((d + radius).max())
    tnorm = max(abs(lo), abs(hi))
    pad = 2.0 * n * eps * tnorm
    floor = 0.5 * eps * tnorm
    brackets = np.array([[lo - pad, hi + pad], [lo - pad, hi + pad]])
    target = np.array([[1], [n]])
    steps = np.arange(1, MULTISECTION_SHIFTS + 1) / (MULTISECTION_SHIFTS + 1)
    searched = []
    while True:
        lows, highs = brackets[:, 0], brackets[:, 1]
        width = highs - lows
        tol = np.maximum(2.0 * eps * np.maximum(np.abs(lows), np.abs(highs)), floor)
        if np.all(width <= tol):
            break
        shifts = lows[:, None] + width[:, None] * steps
        searched.append(shifts)
        below = vectorized_sturm_counts(d, e2, shifts.ravel()).reshape(shifts.shape) < target
        k = below.sum(axis=1)
        for row in range(2):
            if k[row]:
                brackets[row, 0] = shifts[row, k[row] - 1]
            if k[row] < MULTISECTION_SHIFTS:
                brackets[row, 1] = shifts[row, k[row]]
    with np.errstate(over="ignore"):
        mid = np.ldexp(brackets.mean(axis=1), exponent)
    return (float(mid[0]), float(mid[1])), (d, e2), searched
