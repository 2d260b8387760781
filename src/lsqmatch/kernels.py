"""The two hot loops: cyclic-Jacobi sweeps and the recurrent inversion.

``jacobi_sweeps`` backs the full eigendecomposition ``linalg.symmetric_eigen``,
which tests use as the reference spectrum; ``newton_schulz`` is the inversion
recurrence behind ``inverter.invert``.  Both are plain numpy.
"""

from __future__ import annotations

import math

import numpy as np

# Inversion kernel status codes.
CONVERGED = 0
HIT_CAP = 1
DIVERGED = 2
NONFINITE = 3


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

    The residual max|I - V_t A| is read off each computed U as max|U - I|.
    Returns ``(v, residual_history, iterations, status)`` where status is one
    of CONVERGED / HIT_CAP / DIVERGED / NONFINITE.
    """
    n = a.shape[0]
    eye = np.eye(n)
    v = np.eye(n)
    history = np.empty(max_iter + 1)
    grow = 0
    prev = np.inf
    for t in range(max_iter + 1):
        u = 2.0 * eye - np.dot(v, a)
        r = np.abs(u - eye).max()
        history[t] = r
        if not np.isfinite(r):
            return v, history[: t + 1], t, NONFINITE
        if r < eps:
            return v, history[: t + 1], t, CONVERGED
        if t == max_iter:
            return v, history[: t + 1], t, HIT_CAP
        if r > 1.0 and r > prev:
            grow += 1
            if grow >= 3:
                return v, history[: t + 1], t, DIVERGED
        else:
            grow = 0
        prev = r
        v = np.dot(u, v)
