"""Dense matrix primitives: validation, the Gram matrix, and the extreme eigenvalues.

``extreme_eigenvalues`` gives the smallest and largest eigenvalue by
Householder tridiagonalization and Sturm-sequence multisection; it is what
the optimal scale factor and the benchmark's kappa use.

Matrices are plain 2-D float64 numpy arrays.  ``as_matrix`` / ``symmetrize``
are the validating constructors.  Input is validated once, where it enters
the package (``solve_transform``, ``invert``, ``extreme_eigenvalues``, the
matrix text format); ``gram``, the scale factors and ``rescale`` take trusted
finite float64 arrays and check nothing.
"""

from __future__ import annotations

import math

import numpy as np

#: Shifts placed inside each bracket per Sturm multisection step.
MULTISECTION_SHIFTS = 63

#: Absolute tolerance under which an almost-symmetric matrix is symmetrized
#: rather than rejected.
SYMMETRY_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a 2-D float64 array with finite real entries."""
    out = np.asarray(a)
    if np.iscomplexobj(out):
        raise ValueError("matrix entries must be real, got a complex matrix")
    out = np.asarray(out, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return np.ascontiguousarray(out)


def symmetrize(a) -> np.ndarray:
    """Return ``a`` validated and exactly symmetric: (i,j) == (j,i) bit for bit.

    A matrix already symmetric bit for bit comes back as :func:`as_matrix`
    gives it, with no copy, so it may be the caller's array; callers must not
    write to the result.  Otherwise the result is a new array, the average of
    ``a`` and its transpose, which also sets a zero whose sign differs from
    its mirror's to +0.0.  Each half is taken before the sum, so no entry
    overflows; an entry below 2^-1021 in magnitude may then be one unit of
    2^-1074 away from the correctly rounded average.  Accepts square matrices
    whose asymmetry ``max|a_ij - a_ji|`` is at most ``SYMMETRY_TOL``; anything
    worse is rejected, not silently averaged away.
    """
    out = as_matrix(a)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    bits = out.view(np.int64)
    if np.array_equal(bits, bits.T):
        return out
    gap = float(np.abs(out - out.T).max())
    if gap > SYMMETRY_TOL:
        raise ValueError(
            f"matrix is not symmetric: max|a_ij - a_ji| = {gap:.3e} > {SYMMETRY_TOL:.1e}"
        )
    return out * 0.5 + out.T * 0.5


def binary_exponent(a: np.ndarray) -> int:
    """The k with max|a| in [2^(k-1), 2^k), or 0 for a zero matrix."""
    return math.frexp(max(float(a.max()), -float(a.min())))[1]


def gram(x: np.ndarray) -> np.ndarray:
    """X'X of a trusted float64 matrix, exactly symmetric: (i,j) == (j,i) bit-for-bit.

    numpy's ``x.T @ x`` is that already: its BLAS path (syrk) computes one
    triangle and copies it to the other, and its fallback loop sums the same
    commutative products in the same order for (i,j) and (j,i).
    """
    return x.T @ x


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a tridiagonal matrix similar to symmetric ``a``.

    Householder reduction (Golub & Van Loan, Algorithm 8.3.1), overwriting
    ``a``.  Expects max|a| below 1, so no inner product can overflow.
    """
    n = a.shape[0]
    e = np.zeros(n - 1)
    # A column whose part below the subdiagonal has norm under the unit
    # roundoff (of a matrix scaled to max|a| < 1) is left as it is: dropping
    # it moves no eigenvalue by more than rounding already does, and it keeps
    # 2 / v'v finite.
    negligible = np.finfo(np.float64).epsneg ** 2
    for k in range(n - 2):
        x = a[k + 1 :, k]
        sigma = float(x[1:] @ x[1:])
        if sigma <= negligible:
            e[k] = x[0]
            continue
        x0 = float(x[0])
        norm = math.sqrt(x0 * x0 + sigma)
        alpha = -norm if x0 >= 0.0 else norm
        v0 = x0 - alpha
        v = x.copy()
        v[0] = v0
        beta = 2.0 / (v0 * v0 + sigma)
        sub = a[k + 1 :, k + 1 :]
        p = beta * (sub @ v)
        w = p - (0.5 * beta * float(p @ v)) * v
        sub -= v[:, None] * w + w[:, None] * v
        e[k] = alpha
    if n > 1:
        e[n - 2] = a[n - 1, n - 2]
    return np.diag(a).copy(), e


def _sturm_counts(d: np.ndarray, e2: np.ndarray, pivmin: float, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal (d, e**2) below each shift.

    Counts the negative pivots q_i = (d_i - shift) - e2_{i-1} / q_{i-1} of the
    LDL' factorization of T - shift I, for all shifts at once in one n x S
    array.  LAPACK's dstebz floors a pivot in (-pivmin, pivmin) to -pivmin, so
    the next quotient cannot overflow.  That changes no other pivot, so the
    pass runs unfloored; if it made such a pivot, the first row holding one is
    floored and the rows below are recomputed from d - shift, now flooring
    each row as it comes.  A zero e (a split tridiagonal) needs no special case.
    """
    q = d[:, None] - shifts
    rows, e2, quotient, start = list(q), e2.tolist(), np.empty_like(shifts), 1
    floor_each_row = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            for e2_above, above, row in zip(e2[start - 1 :], rows[start - 1 :], rows[start:]):
                np.divide(e2_above, above, out=quotient)
                np.subtract(row, quotient, out=row)
                if floor_each_row:
                    np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
            tiny = np.abs(q) < pivmin
            if not tiny.any():
                return (q < 0.0).sum(axis=0)
            start = int(tiny.any(axis=1).argmax()) + 1
            q[start - 1, tiny[start - 1]] = -pivmin
            q[start:] = d[start:, None] - shifts
            floor_each_row = True


def extreme_eigenvalues(z) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix, ``(low, high)``.

    Reduces ``z`` to tridiagonal form by Householder reflections, then
    narrows a bracket around each end of the spectrum by Sturm-sequence
    multisection, starting from the tridiagonal's Gershgorin interval, until
    it is 2 eps wide relative to its ends or unit-roundoff wide relative to
    the norm, the accuracy the reduction itself has (the tolerances of
    LAPACK's dstebz).  Indefinite matrices are fine.  The symmetry check of
    :func:`symmetrize` is made after scaling ``z`` to max|z| in [0.5, 1), so
    it is relative to that largest entry and does not depend on the scale.
    """
    # A power-of-two scale keeps max|a| in [0.5, 1) and is undone exactly; it
    # comes first, so that neither symmetrizing nor the reduction can overflow.
    # It also gives the fresh array that the reduction overwrites.
    a = as_matrix(z)
    exponent = binary_exponent(a)
    s = symmetrize(np.ldexp(a, -exponent))
    if not s.any():
        return 0.0, 0.0
    n = s.shape[0]
    d, e = _tridiagonalize(s)
    e2 = e * e
    eps = np.finfo(np.float64).eps
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(e2.max(initial=0.0)))
    abs_e = np.abs(e)
    radius = np.r_[0.0, abs_e] + np.r_[abs_e, 0.0]
    lo, hi = float((d - radius).min()), float((d + radius).max())
    tnorm = max(abs(lo), abs(hi))
    pad = 2.0 * n * eps * tnorm + 4.0 * pivmin
    floor = max(0.5 * eps * tnorm, pivmin)
    # Rows: the bracket holding the smallest eigenvalue, then the largest.
    # The low end of a bracket has fewer than ``target`` eigenvalues below it,
    # the high end at least ``target``.
    brackets = np.array([[lo - pad, hi + pad], [lo - pad, hi + pad]])
    target = np.array([[1], [n]])
    steps = np.arange(1, MULTISECTION_SHIFTS + 1) / (MULTISECTION_SHIFTS + 1)
    while True:
        lows, highs = brackets[:, 0], brackets[:, 1]
        width = highs - lows
        tol = np.maximum(2.0 * eps * np.maximum(np.abs(lows), np.abs(highs)), floor)
        if np.all(width <= tol):
            break
        shifts = lows[:, None] + width[:, None] * steps
        below = _sturm_counts(d, e2, pivmin, shifts.ravel()).reshape(shifts.shape) < target
        k = below.sum(axis=1)
        for row in range(2):
            if k[row]:
                brackets[row, 0] = shifts[row, k[row] - 1]
            if k[row] < MULTISECTION_SHIFTS:
                brackets[row, 1] = shifts[row, k[row]]
    mid = np.ldexp(brackets.mean(axis=1), exponent)
    return float(mid[0]), float(mid[1])

