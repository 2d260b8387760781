"""Closed-form oracles that the tests compare the package against."""

import numpy as np

from lsqmatch.linalg import symmetrize

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
