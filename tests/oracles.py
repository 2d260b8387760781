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
