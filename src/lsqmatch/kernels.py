"""The hot loop: the recurrent inversion behind ``inverter.invert``.

``newton_schulz`` is plain numpy.  It allocates its iterate and two n x n
work buffers once per call and reuses them in place, so an iteration costs
its two matrix products and a few elementwise passes, with no n x n
allocation.
"""

from __future__ import annotations

import numpy as np

# Inversion kernel status codes.
CONVERGED = 0
HIT_CAP = 1
DIVERGED = 2
NONFINITE = 3
STALLED = 4


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
