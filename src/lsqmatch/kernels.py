"""The two hot loops: cyclic-Jacobi sweeps and the recurrent inversion.

``jacobi_sweeps`` backs the full eigendecomposition ``linalg.symmetric_eigen``,
which tests use as the reference spectrum; ``newton_schulz`` is the inversion
recurrence behind ``inverter.invert``.  Both are plain numpy.  The recurrence
allocates its iterate and two n x n work buffers once per call and reuses
them in place, so an iteration costs its two matrix products and a few
elementwise passes, with no n x n allocation.
"""

from __future__ import annotations

import math

import numpy as np

# Inversion kernel status codes.
CONVERGED = 0
HIT_CAP = 1
DIVERGED = 2
NONFINITE = 3
STALLED = 4


def jacobi_sweeps(a, q, tol, max_sweeps):
    """Cyclic Jacobi rotations on symmetric ``a``, accumulating rotations in ``q``.

    Mutates both arguments.  Returns ``(sweeps_done, max_offdiag)``; the caller
    decides whether a leftover off-diagonal above ``tol`` is an error.
    """
    n = a.shape[0]
    iu = np.triu_indices(n, 1)
    sweeps = 0
    while True:
        off = np.abs(a[iu]).max() if n > 1 else 0.0
        if off < tol or sweeps == max_sweeps:
            return sweeps, float(off)
        for p in range(n - 1):
            for r in range(p + 1, n):
                apq = a[p, r]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[r, r]
                theta = (aqq - app) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, r].copy()
                new_p = c * col_p - s * col_q
                new_q = s * col_p + c * col_q
                a[:, p] = new_p
                a[p, :] = new_p
                a[:, r] = new_q
                a[r, :] = new_q
                a[p, p] = app - t * apq
                a[r, r] = aqq + t * apq
                a[p, r] = 0.0
                a[r, p] = 0.0
                vp = q[:, p].copy()
                vq = q[:, r].copy()
                q[:, p] = c * vp - s * vq
                q[:, r] = s * vp + c * vq
        sweeps += 1


def newton_schulz(a, eps, max_iter):
    """Recurrent inversion: V0 = I; U = 2I - V A; V <- U V.

    Each call allocates V and two n x n work buffers, P and W, once; an
    iteration allocates no n x n array.  P receives V A.  The diagonal of U,
    ``2.0 - P`` on the strided view ``P.reshape(-1)[::n + 1]``, is kept in an
    n-vector; ``0.0 - P`` in place gives U off the diagonal (it keeps +0.0
    exactly as ``2I - P`` does).  The diagonal of P then holds U - I, W takes
    |U - I|, whose max is the residual max|I - V_t A|, and the diagonal is
    set back to U's.  W then receives U V and trades places with V.  Every
    entry goes through the same floating-point operations as
    ``2.0 * eye - v @ a``, so the iterates and residuals are bit-identical
    to that formulation.

    Stops as CONVERGED when the residual drops below ``eps``, HIT_CAP after
    ``max_iter`` updates, NONFINITE on a non-finite residual, and, once the
    residual is at least 1 and has not dropped for three updates in a row,
    DIVERGED if it rose strictly above 1 in each of them, else STALLED.
    Returns ``(v, residual_history, iterations, status)``.
    """
    n = a.shape[0]
    v = np.eye(n)
    p = np.empty((n, n))
    w = np.empty((n, n))
    p_diag = p.reshape(-1)[:: n + 1]
    u_diag = np.empty(n)
    history = np.empty(max_iter + 1)
    flat = grow = 0
    prev = np.inf
    for t in range(max_iter + 1):
        np.dot(v, a, out=p)
        np.subtract(2.0, p_diag, out=u_diag)
        np.subtract(0.0, p, out=p)
        np.subtract(u_diag, 1.0, out=p_diag)
        r = np.abs(p, out=w).max()
        history[t] = r
        if not np.isfinite(r):
            return v, history[: t + 1], t, NONFINITE
        if r < eps:
            return v, history[: t + 1], t, CONVERGED
        if t == max_iter:
            return v, history[: t + 1], t, HIT_CAP
        if r >= 1.0 and r >= prev:
            flat += 1
            grow = grow + 1 if r > 1.0 and r > prev else 0
            if flat >= 3:
                return v, history[: t + 1], t, DIVERGED if grow >= 3 else STALLED
        else:
            flat = grow = 0
        prev = r
        p_diag[:] = u_diag
        np.dot(p, v, out=w)
        v, w = w, v
