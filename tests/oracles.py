"""Closed-form oracles that the tests compare the package against, and a capped input."""

import numpy as np

from lsqmatch.generate import derive_seed, uniform_pattern
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


def near_dependent_pattern(n: int, seed: int) -> np.ndarray:
    """A 3n x n uniform pattern whose column 0 is column 1 plus 1e-6 times a fresh column.

    X has full rank, but kappa(X'X) is about 1e12, so rounding keeps
    max|I - V A| near 1e-4: under every scale factor the self-scaled
    inversion stops at the 200-update cap.
    """
    x = uniform_pattern(3 * n, n, seed)
    x[:, 0] = x[:, 1] + 1e-6 * uniform_pattern(3 * n, 1, derive_seed(seed, 1))[:, 0]
    return x
