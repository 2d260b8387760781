"""Tests of the recurrence loop ``inverter.newton_schulz`` and its stop statuses."""

import tracemalloc

import numpy as np
import pytest

from oracles import self_scaled_count

from lsqmatch.generate import MoreToraldoSpec, more_toraldo, uniform_pattern
from lsqmatch.inverter import InversionStatus, iteration_bound, newton_schulz
from lsqmatch.scaling import (
    alpha_gershgorin_value,
    alpha_optimal_bounds,
    alpha_trace_value,
    rescale,
)


def test_numpy_newton_schulz_basic():
    a = 0.5 * np.eye(3)
    v, hist, iters, status = newton_schulz(a, 1e-6, 200)
    assert status is InversionStatus.CONVERGED
    assert iters == 5
    assert hist.shape == (6,)
    assert np.abs(v - 2.0 * np.eye(3)).max() < 1e-8


def test_divergence_status():
    a = 3.0 * np.eye(4)
    _, hist, iters, status = newton_schulz(a, 1e-6, 200)
    assert status is InversionStatus.DIVERGED
    assert iters == 3
    assert list(hist) == [2.0, 4.0, 16.0, 256.0]


def test_nonfinite_status():
    a = 1e200 * np.eye(2)
    with pytest.warns(RuntimeWarning):
        _, _, iters, status = newton_schulz(a, 1e-6, 200)
    assert status is InversionStatus.NONFINITE
    assert iters == 1


def test_cap_status():
    a = 0.5 * np.eye(2)
    _, hist, iters, status = newton_schulz(a, 1e-300, 3)
    assert status is InversionStatus.HIT_CAP
    assert iters == 3
    assert hist.shape == (4,)


def test_stalled_status():
    # A rescaled eigenvalue of exactly 2 keeps |1 - 2| = 1 at every step.
    _, hist, iters, status = newton_schulz(np.array([[2.0]]), 1e-6, 200)
    assert status is InversionStatus.STALLED
    assert iters == 3
    assert list(hist) == [1.0, 1.0, 1.0, 1.0]


def _reference_newton_schulz(a, eps, max_iter):
    """The recurrence written plainly, with a fresh array for every operation.

    It keeps every stop rule but the stall rule; no oracle case stalls.
    """
    n = a.shape[0]
    eye = np.eye(n)
    v = np.eye(n)
    history = []
    grow = 0
    prev = np.inf
    for t in range(max_iter + 1):
        u = 2.0 * eye - v @ a
        r = np.abs(u - eye).max()
        history.append(r)
        if not np.isfinite(r):
            return v, np.array(history), t, InversionStatus.NONFINITE
        if r < eps:
            return v, np.array(history), t, InversionStatus.CONVERGED
        if t == max_iter:
            return v, np.array(history), t, InversionStatus.HIT_CAP
        if r > 1.0 and r > prev:
            grow += 1
            if grow >= 3:
                return v, np.array(history), t, InversionStatus.DIVERGED
        else:
            grow = 0
        prev = r
        v = u @ v


def _oracle_cases():
    for n in (1, 2, 3, 32, 128, 256):
        x = uniform_pattern(4 * n, n, 1000 + n)
        z = x.T @ x
        yield pytest.param(rescale(z, alpha_gershgorin_value(z)), 1e-6, 200, id=f"gram-n{n}")
        if n == 1:
            continue
        for kappa in (2.0**10, 2.0**20):
            _, z = more_toraldo(MoreToraldoSpec(n, kappa), 2000 + n)
            alphas = {
                "alpha0": alpha_optimal_bounds(1.0, kappa),
                "alpha1": alpha_trace_value(z),
                "alpha2": alpha_gershgorin_value(z),
            }
            for token, alpha in alphas.items():
                yield pytest.param(rescale(z, alpha), 1e-6, 200, id=f"mt-n{n}-k{kappa:g}-{token}")
    _, z = more_toraldo(MoreToraldoSpec(32, 2.0**10), 7)
    yield pytest.param(rescale(z, alpha_trace_value(z)), 1e-300, 4, id="hit-cap")
    yield pytest.param(3.0 * np.eye(4), 1e-6, 200, id="diverged")
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
    signed = rescale(z, alpha_gershgorin_value(z))
    signed[::3, 1::3] = -0.0
    signed[1::3, ::3] = -0.0
    yield pytest.param(signed, 1e-6, 200, id="negative-zeros-n32")


@pytest.mark.parametrize("a, eps, max_iter", _oracle_cases())
def test_newton_schulz_bit_identical_to_reference(a, eps, max_iter):
    with np.errstate(over="ignore", invalid="ignore"):
        v, hist, iters, status = newton_schulz(a, eps, max_iter)
        v_ref, hist_ref, iters_ref, status_ref = _reference_newton_schulz(a, eps, max_iter)
    assert (iters, status) == (iters_ref, status_ref)
    assert hist.tobytes() == hist_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("delta", [1e-1, 1e-3, 2.0**-20])
def test_self_scaled_count_follows_recursion(delta):
    # On a diagonal A the entrywise residual is the spectral one, so every gain
    # is exact; a spectrum symmetric about 1 starts from rho = 1 - delta.
    a = np.diag(np.linspace(delta, 2.0 - delta, 16))
    _, _, iters, status = newton_schulz(a, 1e-6, 200, self_scaled=True)
    assert status is InversionStatus.CONVERGED
    assert iters == self_scaled_count(1.0 - delta, 1e-6)
    assert newton_schulz(a, 1e-6, 200)[2] == iteration_bound(delta, 2.0 - delta, 1e-6)


def test_self_scaled_never_slower_than_plain():
    for kappa in (2.0**10, 2.0**20):
        _, z = more_toraldo(MoreToraldoSpec(32, kappa), 2032)
        for alpha in (
            alpha_optimal_bounds(1.0, kappa),
            alpha_trace_value(z),
            alpha_gershgorin_value(z),
        ):
            a = rescale(z, alpha)
            v, hist, iters, status = newton_schulz(a, 1e-6, 200, self_scaled=True)
            assert status is InversionStatus.CONVERGED
            assert iters <= newton_schulz(a, 1e-6, 200)[2]
            eye = np.eye(32)
            assert np.abs(2.0 * eye - v @ a - eye).max() == hist[-1] < 1e-6


@pytest.mark.parametrize("a", [3.0 * np.eye(4), np.array([[2.0]])], ids=["diverged", "stalled"])
def test_self_scaled_applies_no_gain_at_or_above_one(a):
    plain = newton_schulz(a, 1e-6, 200)
    scaled = newton_schulz(a, 1e-6, 200, self_scaled=True)
    assert scaled[1].tobytes() == plain[1].tobytes()
    assert scaled[2:] == plain[2:]


def test_newton_schulz_peak_memory():
    # V and two n x n work buffers, allocated once per call, in either mode.
    n = 128
    _, z = more_toraldo(MoreToraldoSpec(n, 2.0**10), 11)
    a = rescale(z, alpha_trace_value(z))
    for self_scaled in (False, True):
        tracemalloc.start()
        try:
            _, _, iters, status = newton_schulz(a, 1e-6, 200, self_scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status is InversionStatus.CONVERGED
        assert iters >= 10
        assert peak <= 3.25 * n * n * 8
