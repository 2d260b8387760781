import math

import numpy as np
import pytest

from lsqmatch.generate import MoreToraldoSpec, derive_seed, mix64, more_toraldo
from lsqmatch.inverter import (
    DivergenceError,
    InversionConfig,
    convergence_threshold,
    invert,
    neumann_partial_sum,
    predicted_iterations_optimal,
    predicted_iterations_trace_bound,
)
from lsqmatch.linalg import entrywise_max_abs, multiply, spectral_norm
from lsqmatch.scaling import alpha_optimal_bounds, rescale


def _rescaled_test_matrix(index):
    """Random conditioned matrix mapped into spectrum (0, 2), with its contraction."""
    n = 2 + (mix64(index) % 7)
    u = ((mix64(index + 100) >> 11) + 0.5) * 2.0**-53
    kappa = 2.0 + 18.0 * u
    _, z = more_toraldo(MoreToraldoSpec(int(n), kappa), derive_seed(9, index))
    a = rescale(z, 2.0 / (1.0 + kappa))
    return a, (kappa - 1.0) / (kappa + 1.0)


def _iterate_to(a, t):
    """V_t extracted by capping the iteration count (threshold too small to hit)."""
    return invert(a, InversionConfig(epsilon=1e-300, max_iterations=t)).inverse


def test_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        InversionConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        InversionConfig(epsilon=-0.5)
    with pytest.raises(ValueError):
        InversionConfig(max_iterations=0)


def test_identity_is_a_fixed_point_at_start():
    rep = invert(np.eye(3))
    assert rep.iterations == 0
    assert rep.converged
    assert rep.final_residual == 0.0
    assert np.array_equal(rep.inverse, np.eye(3))
    assert rep.residual_history.shape == (1,)


def test_scaled_identity_iterates():
    a = 0.5 * np.eye(2)
    # hand iteration: V1 = 1.5 I, V2 = 1.875 I
    assert np.abs(_iterate_to(a, 1) - 1.5 * np.eye(2)).max() < 1e-15
    assert np.abs(_iterate_to(a, 2) - 1.875 * np.eye(2)).max() < 1e-15
    rep = invert(a)
    assert rep.converged
    assert rep.iterations == 5
    expect = [0.5, 0.25, 0.0625, 0.00390625, 1.52587890625e-05, 2.3283064365386963e-10]
    assert rep.residual_history.tolist() == expect
    assert np.abs(rep.inverse - 2.0 * np.eye(2)).max() < 1e-9


def test_conditioned_two_by_two_stops_at_four():
    """Contraction 1/3 needs (1/3)^16 < 1e-6 <= (1/3)^8, so the stop lands on t=4."""
    _, z = more_toraldo(MoreToraldoSpec(2, 2.0), 4242)
    rep = invert(rescale(z, alpha_optimal_bounds(1.0, 2.0).alpha))
    assert rep.converged
    assert rep.iterations == 4


def test_report_invariants():
    for index in range(6):
        a, _ = _rescaled_test_matrix(index)
        cfg = InversionConfig()
        rep = invert(a, cfg)
        assert rep.converged
        assert rep.residual_history.shape == (rep.iterations + 1,)
        assert rep.final_residual == rep.residual_history[-1]
        assert rep.final_residual < cfg.epsilon
        assert rep.iterations <= cfg.max_iterations


def test_converged_fixed_point():
    a, _ = _rescaled_test_matrix(3)
    n = a.shape[0]
    v = invert(a, InversionConfig(epsilon=1e-12)).inverse
    again = multiply(2.0 * np.eye(n) - multiply(v, a), v)
    assert np.abs(again - v).max() < 1e-10


def test_matches_power_sum_oracle():
    for index in range(8):
        a, _ = _rescaled_test_matrix(index)
        for t in (1, 2, 3):
            dev = np.abs(_iterate_to(a, t) - neumann_partial_sum(a, t)).max()
            assert dev < 1e-10


def test_residual_follows_contraction_law():
    for index in range(6):
        a, contraction = _rescaled_test_matrix(index)
        n = a.shape[0]
        stop = invert(a).iterations
        for t in range(1, stop + 1):
            resid = np.eye(n) - _iterate_to(a, t) @ a
            if entrywise_max_abs(resid) < 1e-6:
                break
            ref = contraction ** (2.0**t)
            measured = spectral_norm((resid + resid.T) * 0.5)
            assert abs(measured - ref) < 1e-8 * ref


def test_quadratic_convergence():
    a, _ = _rescaled_test_matrix(2)
    n = a.shape[0]
    rep = invert(a)
    hist = rep.residual_history
    for t in range(1, rep.iterations):
        assert hist[t + 1] < hist[t]
    prev = None
    for t in range(1, rep.iterations + 1):
        resid = np.eye(n) - _iterate_to(a, t) @ a
        if entrywise_max_abs(resid) < 1e-6:
            break  # at the stop point rounding noise dominates the law
        sn = spectral_norm((resid + resid.T) * 0.5)
        if prev is not None:
            assert abs(sn - prev * prev) < 1e-8 * prev * prev
        prev = sn


def test_stop_never_beyond_threshold_ceiling():
    for index in range(10):
        a, contraction = _rescaled_test_matrix(index)
        rep = invert(a)
        assert rep.converged
        assert rep.iterations <= math.ceil(convergence_threshold(contraction, 1e-6))


def test_inverse_quality():
    for index in (0, 5):
        n = 4 + (index % 3)
        kappa = 30.0
        _, z = more_toraldo(MoreToraldoSpec(n, kappa), derive_seed(33, index))
        alpha = alpha_optimal_bounds(1.0, kappa).alpha
        rep = invert(rescale(z, alpha))
        assert rep.converged
        approx_inverse_times_z = multiply(alpha * rep.inverse, z)
        assert entrywise_max_abs(approx_inverse_times_z - np.eye(n)) < 1e-6


def test_divergence_aborts_early():
    rep = invert(3.0 * np.eye(4))
    assert not rep.converged
    assert not rep.stalled
    assert rep.iterations == 3
    assert rep.residual_history.tolist() == [2.0, 4.0, 16.0, 256.0]


def test_stall_aborts_early():
    # Rescaled eigenvalue exactly 2: the residual |1 - 2| = 1 never drops.
    rep = invert(np.array([[2.0]]))
    assert not rep.converged
    assert rep.stalled
    assert rep.iterations == 3
    assert rep.residual_history.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_cap_hit_reports_nonconvergence():
    a, _ = _rescaled_test_matrix(1)
    rep = invert(a, InversionConfig(epsilon=1e-300, max_iterations=4))
    assert not rep.converged
    assert rep.iterations == 4
    assert rep.residual_history.shape == (5,)


def test_nonfinite_raises_named_iteration():
    with pytest.raises(DivergenceError, match="iteration 1"):
        invert(1e200 * np.eye(2))


def test_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="not symmetric"):
        invert(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_power_sum_examples():
    assert np.array_equal(neumann_partial_sum(np.eye(3), 0), np.eye(3))
    out = neumann_partial_sum(0.5 * np.eye(2), 2)
    assert np.abs(out - 1.875 * np.eye(2)).max() < 1e-15
    with pytest.raises(ValueError):
        neumann_partial_sum(np.eye(2), -1)
    with pytest.raises(ValueError):
        neumann_partial_sum(np.eye(2), 21)


def test_threshold_examples():
    val = convergence_threshold(1.0 / 3.0, 1e-6)
    assert abs(val - 3.652534638911886) < 1e-12
    assert math.ceil(val) == 4
    val = convergence_threshold(63.0 / 65.0, 1e-6)
    assert abs(val - 8.7881) < 5e-4
    assert math.ceil(val) == 9  # log2(64) + 3
    assert convergence_threshold(0.5, 0.5) == 0.0
    assert convergence_threshold(0.0, 1e-6) == 0.0
    assert convergence_threshold(1e-10, 1e-6) == 0.0  # clamped
    with pytest.raises(ValueError):
        convergence_threshold(1.0, 1e-6)
    with pytest.raises(ValueError):
        convergence_threshold(0.5, 1.5)


def test_predictor_for_optimal_factor():
    assert abs(predicted_iterations_optimal(1.0, 1e-6) - 3.788216973420878) < 1e-12
    assert abs(predicted_iterations_optimal(7.0, 1.0 / math.e) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        predicted_iterations_optimal(0.5, 1e-6)


def test_predictor_for_trace_factor():
    assert abs(predicted_iterations_trace_bound(64.0, 16, 1e-6) - 12.788216973420878) < 1e-12
    # never below the optimal-factor prediction (equality exactly at kappa=1, n=2)
    for kappa in (1.0, 3.0, 100.0, 2.0**20):
        for n in (2, 5, 64):
            assert predicted_iterations_trace_bound(
                kappa, n, 1e-6
            ) >= predicted_iterations_optimal(kappa, 1e-6)
    with pytest.raises(ValueError):
        predicted_iterations_trace_bound(2.0, 1, 1e-6)
