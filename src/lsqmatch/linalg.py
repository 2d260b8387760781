"""Dense matrix primitives: validation, the Gram matrix, and the extreme eigenvalues.

``extreme_eigenvalues`` gives the smallest and largest eigenvalue by
Householder tridiagonalization and Sturm-sequence multisection, whose steps
binary-search their shifts with a scalar Sturm count; it is what the optimal
scale factor and the benchmark's kappa use.

Matrices are plain 2-D float64 numpy arrays.  ``as_matrix`` is the validating
constructor, and ``symmetrize`` adds the check that the matrix equals its
transpose.  Input is validated once, where it enters the package
(``solve_transform``, ``invert``, ``extreme_eigenvalues``, the matrix text
format); ``gram`` and the scale factors take trusted finite float64 arrays
and check nothing.
"""

from __future__ import annotations

import math

import numpy as np

#: Shifts placed inside each bracket per Sturm multisection step.
MULTISECTION_SHIFTS = 63


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
    """Return ``a`` as :func:`as_matrix` gives it, if it equals its transpose.

    Values are compared, with no arithmetic, so nothing can overflow, and a
    zero whose sign differs from its mirror's passes.  No copy is made, so
    the result may be the caller's array; callers must not write to it.
    Other matrices raise ``ValueError`` naming the first a[i, j] != a[j, i].
    """
    out = as_matrix(a)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if np.array_equal(out, out.T):
        return out
    i, j = np.argwhere(out != out.T)[0]
    values = f"a[{i}, {j}] = {out[i, j]} but a[{j}, {i}] = {out[j, i]}"
    raise ValueError(f"matrix is not symmetric: {values}")


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


def _sturm_count(rows: list, shift: float) -> int:
    """Number of eigenvalues below ``shift`` of the tridiagonal given by ``rows``.

    Row i is the pair (d_i, e2_{i-1}) of Python floats: its diagonal entry
    and the square of the off-diagonal entry above it, 0.0 for the first row.
    Counts the clear sign bits of p_i = (shift - d_i) - e2_{i-1} / p_{i-1},
    the negated LDL' pivots of T - shift I (bit for bit, as IEEE arithmetic
    is exact under a sign flip), one row at a time.
    No pivot is floored as in LAPACK's dstebz: under IEEE infinities a zero
    pivot is +0.0 (no shift is -0.0) and counts as dstebz's floored one, and
    the -inf after it has the sign of dstebz's huge pivot (Demmel, Dhillon &
    Ren, ETNA 3, 1995).  Python's ``/`` raises on a zero pivot, so its
    quotient is written as the IEEE one, copysign(inf, p).  A row under a
    zero e2 takes no quotient: no 0/0.
    """
    count = 0
    for d_i, e2_above in rows:
        if e2_above:
            p = (shift - d_i) - (e2_above / p if p else math.copysign(math.inf, p))
        else:
            p = shift - d_i
        if p > 0.0 or not p and math.copysign(1.0, p) > 0.0:
            count += 1
    return count


def extreme_eigenvalues(z) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix, ``(low, high)``.

    Reduces ``z`` to tridiagonal form by Householder reflections, then
    narrows a bracket around each end of the spectrum by Sturm-sequence
    multisection, starting from the tridiagonal's Gershgorin interval, until
    both are 2 eps wide relative to their ends or unit-roundoff wide relative
    to the norm, the accuracy the reduction itself has (the tolerances of
    LAPACK's dstebz); one that gets there first keeps narrowing until then.
    A step moves a bracket to the two of its ``MULTISECTION_SHIFTS`` evenly
    spaced shifts around the first with enough eigenvalues below it.  The
    count never falls as the shift grows, so a binary search finds that
    shift in 6 counts, one shift at a time.  Indefinite matrices are fine,
    and so are entries up to the float64 maximum; an end beyond that range
    reads -inf or inf.
    The reduction runs on ``z`` scaled to max|z| in [0.5, 1), where the
    Gershgorin bound is near 0.5 or above (it bounds the 2-norm), so
    dstebz's pivot-floor terms would change no bit of the bracket.
    """
    # An exact power-of-two scale keeps the reduction from overflowing; its
    # fresh array is what the reduction overwrites, never the caller's s.
    s = symmetrize(z)
    exponent = binary_exponent(s)
    a = np.ldexp(s, -exponent)
    n = a.shape[0]
    d, e = _tridiagonalize(a)
    # Python floats from here on: the multisection is scalar arithmetic.
    eps = float(np.finfo(np.float64).eps)
    abs_e = np.abs(e)
    radius = np.r_[0.0, abs_e] + np.r_[abs_e, 0.0]
    lo, hi = float((d - radius).min()), float((d + radius).max())
    tnorm = max(abs(lo), abs(hi))
    pad = 2.0 * n * eps * tnorm
    floor = 0.5 * eps * tnorm
    # The bracket holding the smallest eigenvalue, then the largest.  The low
    # end of a bracket has fewer than ``target`` eigenvalues below it, the
    # high end at least ``target``.
    brackets, targets = [[lo - pad, hi + pad], [lo - pad, hi + pad]], (1, n)
    steps = (np.arange(1, MULTISECTION_SHIFTS + 1) / (MULTISECTION_SHIFTS + 1)).tolist()
    rows = list(zip(d.tolist(), [0.0, *(e * e).tolist()]))
    while any(
        high - low > max(2.0 * eps * max(abs(low), abs(high)), floor)
        for low, high in brackets
    ):
        for bracket, target in zip(brackets, targets):
            low, high = bracket
            width = high - low
            # Binary search for k, the first shift low + width * steps[k]
            # with at least ``target`` eigenvalues below it.
            k, last = 0, MULTISECTION_SHIFTS
            while k < last:
                mid = (k + last) // 2
                if _sturm_count(rows, low + width * steps[mid]) < target:
                    k = mid + 1
                else:
                    last = mid
            if k:
                bracket[0] = low + width * steps[k - 1]
            if k < MULTISECTION_SHIFTS:
                bracket[1] = low + width * steps[k]
    with np.errstate(over="ignore"):
        mid = np.ldexp(np.mean(brackets, axis=1), exponent)
    return float(mid[0]), float(mid[1])

