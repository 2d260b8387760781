"""Tests of the recurrence loop in ``inverter.invert``: its iterates, stop statuses and memory.

``test_newton_schulz_bit_identical_to_reference`` pins the in-place loop to
the recurrence written plainly, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import self_scaled_count

from lsqmatch.generate import MoreToraldoSpec, more_toraldo, uniform_pattern
from lsqmatch.inverter import (
    DivergenceError,
    InversionConfig,
    InversionStatus,
    invert,
    iteration_bound,
)
from lsqmatch.scaling import (
    alpha_gershgorin_value,
    alpha_optimal_bounds,
    alpha_trace_value,
    rescale,
)


def test_numpy_newton_schulz_basic():
    rep = invert(0.5 * np.eye(3))
    assert rep.status is InversionStatus.CONVERGED
    assert rep.iterations == 5
    assert rep.residual_history.shape == (6,)
    assert np.abs(rep.inverse - 2.0 * np.eye(3)).max() < 1e-8


def test_divergence_status():
    rep = invert(3.0 * np.eye(4))
    assert rep.status is InversionStatus.DIVERGED
    assert rep.iterations == 3
    assert list(rep.residual_history) == [2.0, 4.0, 16.0, 256.0]


def test_nonfinite_status():
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as caught:
        invert(1e200 * np.eye(2))
    assert caught.value.iteration == 1


def test_cap_status():
    rep = invert(0.5 * np.eye(2), InversionConfig(1e-300, 3))
    assert rep.status is InversionStatus.HIT_CAP
    assert rep.iterations == 3
    assert rep.residual_history.shape == (4,)


def test_stalled_status():
    # A rescaled eigenvalue of exactly 2 keeps |1 - 2| = 1 at every step.
    rep = invert(np.array([[2.0]]))
    assert rep.status is InversionStatus.STALLED
    assert rep.iterations == 3
    assert list(rep.residual_history) == [1.0, 1.0, 1.0, 1.0]


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
            raise DivergenceError(t)
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
    cfg = InversionConfig(eps, max_iter)
    if not np.isfinite(a).all():
        # Validation refuses it before the loop starts.
        with pytest.raises(ValueError, match="finite"):
            invert(a, cfg)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v_ref, hist_ref, iters_ref, status_ref = _reference_newton_schulz(a, eps, max_iter)
        except DivergenceError as ref:
            with pytest.raises(DivergenceError) as caught:
                invert(a, cfg)
            assert caught.value.iteration == ref.iteration
            return
        rep = invert(a, cfg)
    assert (rep.iterations, rep.status) == (iters_ref, status_ref)
    assert rep.residual_history.tobytes() == hist_ref.tobytes()
    assert rep.inverse.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("delta", [1e-1, 1e-3, 2.0**-20])
def test_self_scaled_count_follows_recursion(delta):
    # On a diagonal A the entrywise residual is the spectral one, so every gain
    # is exact; a spectrum symmetric about 1 starts from rho = 1 - delta.
    a = np.diag(np.linspace(delta, 2.0 - delta, 16))
    rep = invert(a, self_scaled=True)
    assert rep.status is InversionStatus.CONVERGED
    assert rep.iterations == self_scaled_count(1.0 - delta, 1e-6)
    assert invert(a).iterations == iteration_bound(delta, 2.0 - delta, 1e-6)


def test_self_scaled_never_slower_than_plain():
    for kappa in (2.0**10, 2.0**20):
        _, z = more_toraldo(MoreToraldoSpec(32, kappa), 2032)
        for alpha in (
            alpha_optimal_bounds(1.0, kappa),
            alpha_trace_value(z),
            alpha_gershgorin_value(z),
        ):
            a = rescale(z, alpha)
            rep = invert(a, self_scaled=True)
            assert rep.status is InversionStatus.CONVERGED
            assert rep.iterations <= invert(a).iterations
            eye = np.eye(32)
            assert np.abs(2.0 * eye - rep.inverse @ a - eye).max() == rep.final_residual < 1e-6


@pytest.mark.parametrize("a", [3.0 * np.eye(4), np.array([[2.0]])], ids=["diverged", "stalled"])
def test_self_scaled_applies_no_gain_at_or_above_one(a):
    plain = invert(a)
    scaled = invert(a, self_scaled=True)
    assert scaled.residual_history.tobytes() == plain.residual_history.tobytes()
    assert (scaled.iterations, scaled.status) == (plain.iterations, plain.status)


def test_invert_reads_a_read_only_input():
    _, z = more_toraldo(MoreToraldoSpec(16, 2.0**10), 12)
    a = rescale(z, alpha_gershgorin_value(z))
    assert a.tobytes() == a.T.copy().tobytes()  # so validation does not copy it
    kept = a.copy()
    a.setflags(write=False)
    for self_scaled in (False, True):
        rep = invert(a, self_scaled=self_scaled)
        ref = invert(kept, self_scaled=self_scaled)
        assert (rep.iterations, rep.status) == (ref.iterations, ref.status)
        assert rep.residual_history.tobytes() == ref.residual_history.tobytes()
        assert rep.inverse.tobytes() == ref.inverse.tobytes()
        assert a.tobytes() == kept.tobytes()


def test_newton_schulz_peak_memory():
    # V and two n x n work buffers, allocated once per call, in either mode;
    # validation neither copies the symmetric input nor keeps a temporary.
    n = 128
    _, z = more_toraldo(MoreToraldoSpec(n, 2.0**10), 11)
    a = rescale(z, alpha_trace_value(z))
    for self_scaled in (False, True):
        tracemalloc.start()
        try:
            rep = invert(a, self_scaled=self_scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.status is InversionStatus.CONVERGED
        assert rep.iterations >= 10
        assert peak <= 3.25 * n * n * 8
