"""The loop in ``inverter.invert`` against :func:`oracles._reference_newton_schulz`, bit for bit.

The loop's other tests are in ``test_inverter.py``.
"""

import numpy as np
import pytest

from oracles import _reference_newton_schulz

from lsqmatch.generate import more_toraldo, uniform_pattern
from lsqmatch.inverter import ScaleFactorKind, invert, scale_factor


def _oracle_cases():
    for n in (1, 2, 3, 32, 128, 256):
        x = uniform_pattern(4 * n, n, 1000 + n)
        z = x.T @ x
        yield pytest.param(
            z * scale_factor(z, ScaleFactorKind.GERSHGORIN), 1e-6, 200, id=f"gram-n{n}"
        )
        if n == 1:
            continue
        for kappa in (2.0**10, 2.0**20):
            _, z = more_toraldo(n, kappa, 2000 + n)
            for kind in ScaleFactorKind:
                alpha = scale_factor(z, kind, (1.0, kappa))
                yield pytest.param(z * alpha, 1e-6, 200, id=f"mt-n{n}-k{kappa:g}-{kind.value}")
    _, z = more_toraldo(32, 2.0**10, 7)
    yield pytest.param(z * scale_factor(z, ScaleFactorKind.TRACE), 1e-300, 4, id="hit-cap")
    yield pytest.param(3.0 * np.eye(4), 1e-6, 200, id="diverged")
    yield pytest.param(np.array([[2.0]]), 1e-6, 200, id="stalled")
    # A rank-deficient Gram matrix: the residual climbs back to 1 and stops
    # there (STALLED) or climbs strictly above it (DIVERGED) after 50-odd updates.
    x = uniform_pattern(12, 2, 7)
    z = np.c_[x, x[:, :1]].T @ np.c_[x, x[:, :1]]
    for kind in ScaleFactorKind:
        yield pytest.param(
            z * scale_factor(z, kind), 1e-6, 200, id=f"singular-{kind.value}"
        )
    yield pytest.param(1e200 * np.eye(2), 1e-6, 200, id="nonfinite-inf")
    # V_2 overflows to -inf, and -inf * 0 gives NaN in U_2.
    yield pytest.param(np.diag([1e120, 0.5]), 1e-6, 200, id="nonfinite-nan")
    yield pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-6, 200, id="nan-input")
    # The first update copies A where the reference forms I A, which can turn
    # -0.0 into +0.0; U0 = 0.0 - P is +0.0 either way.
    signed = np.array([[0.5, -0.0, 0.25], [-0.0, 0.75, -0.0], [0.25, -0.0, 1.0]])
    yield pytest.param(signed, 1e-6, 200, id="negative-zeros")
    x = uniform_pattern(128, 32, 1032)
    z = x.T @ x
    signed = z * scale_factor(z, ScaleFactorKind.GERSHGORIN)
    signed[::3, 1::3] = -0.0
    signed[1::3, ::3] = -0.0
    yield pytest.param(signed, 1e-6, 200, id="negative-zeros-n32")


@pytest.mark.parametrize("a, eps, max_iter", _oracle_cases())
def test_newton_schulz_bit_identical_to_reference(a, eps, max_iter):
    if not np.isfinite(a).all():
        # Validation refuses it before the loop starts.
        with pytest.raises(ValueError, match="finite"):
            invert(a, eps)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        v_ref, hist_ref, iters_ref, status_ref = _reference_newton_schulz(a, eps, max_iter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lsqmatch.inverter.MAX_ITERATIONS", max_iter)
        rep = invert(a, eps)
    assert (rep.iterations, rep.status) == (iters_ref, status_ref)
    assert rep.residual_history.tobytes() == hist_ref.tobytes()
    assert rep.inverse.tobytes() == v_ref.tobytes()
