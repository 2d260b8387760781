import math

import numpy as np
import pytest

from oracles import iterate_to, neumann_partial_sum, rescaled_test_matrix

from lsqmatch.generate import derive_seed, more_toraldo, uniform_pattern
from lsqmatch.inverter import (
    EPSILON,
    MAX_ITERATIONS,
    InversionStatus,
    ScaleFactorKind,
    invert,
    iteration_bound,
    scale_and_invert,
    scale_factor,
)
from lsqmatch.linalg import extreme_eigenvalues, gram


def _spectral_norm(resid):
    """Spectral norm of the symmetric part of a residual, from numpy's eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh((resid + resid.T) * 0.5)).max())


def test_config_validation():
    for epsilon in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match=f"epsilon must lie in \\(0, 1\\), got {epsilon}"):
            invert(0.5 * np.eye(2), epsilon=epsilon)


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
    assert np.abs(iterate_to(a, 1) - 1.5 * np.eye(2)).max() < 1e-15
    assert np.abs(iterate_to(a, 2) - 1.875 * np.eye(2)).max() < 1e-15
    rep = invert(a)
    assert rep.converged
    assert rep.iterations == 5
    expect = [0.5, 0.25, 0.0625, 0.00390625, 1.52587890625e-05, 2.3283064365386963e-10]
    assert rep.residual_history.tolist() == expect
    assert np.abs(rep.inverse - 2.0 * np.eye(2)).max() < 1e-9


def test_conditioned_two_by_two_stops_at_four():
    """Contraction 1/3 needs (1/3)^16 < 1e-6 <= (1/3)^8, so the stop lands on t=4."""
    _, z = more_toraldo(2, 2.0, 4242)
    rep = invert(z * scale_factor(z, ScaleFactorKind.OPTIMAL, (1.0, 2.0)))
    assert rep.converged
    assert rep.iterations == 4


def test_report_invariants():
    for index in range(6):
        a, _ = rescaled_test_matrix(index)
        rep = invert(a)
        assert rep.converged
        assert rep.residual_history.shape == (rep.iterations + 1,)
        assert rep.final_residual == rep.residual_history[-1]
        assert rep.final_residual < EPSILON
        assert rep.iterations <= MAX_ITERATIONS


def test_converged_fixed_point():
    a, _ = rescaled_test_matrix(3)
    n = a.shape[0]
    v = invert(a, epsilon=1e-12).inverse
    again = (2.0 * np.eye(n) - v @ a) @ v
    assert np.abs(again - v).max() < 1e-10


def test_matches_power_sum_oracle():
    for index in range(8):
        a, _ = rescaled_test_matrix(index)
        for t in (1, 2, 3):
            dev = np.abs(iterate_to(a, t) - neumann_partial_sum(a, t)).max()
            assert dev < 1e-10


def test_residual_follows_contraction_law():
    for index in range(6):
        a, kappa = rescaled_test_matrix(index)
        contraction = (kappa - 1.0) / (kappa + 1.0)
        n = a.shape[0]
        stop = invert(a).iterations
        for t in range(1, stop + 1):
            resid = np.eye(n) - iterate_to(a, t) @ a
            if np.abs(resid).max() < 1e-6:
                break
            ref = contraction ** (2.0**t)
            measured = _spectral_norm(resid)
            assert abs(measured - ref) < 1e-8 * ref


def test_quadratic_convergence():
    a, _ = rescaled_test_matrix(2)
    n = a.shape[0]
    rep = invert(a)
    hist = rep.residual_history
    for t in range(1, rep.iterations):
        assert hist[t + 1] < hist[t]
    prev = None
    for t in range(1, rep.iterations + 1):
        resid = np.eye(n) - iterate_to(a, t) @ a
        if np.abs(resid).max() < 1e-6:
            break  # at the stop point rounding noise dominates the law
        sn = _spectral_norm(resid)
        if prev is not None:
            assert abs(sn - prev * prev) < 1e-8 * prev * prev
        prev = sn


def test_stop_never_beyond_threshold_ceiling():
    for index in range(10):
        a, kappa = rescaled_test_matrix(index)
        contraction = (kappa - 1.0) / (kappa + 1.0)
        rep = invert(a)
        assert rep.converged
        low = 1.0 - contraction
        assert rep.iterations <= iteration_bound(low, 2.0 - low, 1e-6)


def test_inverse_quality():
    for index in (0, 5):
        n = 4 + (index % 3)
        kappa = 30.0
        _, z = more_toraldo(n, kappa, derive_seed(33, index))
        alpha = scale_factor(z, ScaleFactorKind.OPTIMAL, (1.0, kappa))
        rep = invert(z * alpha)
        assert rep.converged
        approx_inverse_times_z = (alpha * rep.inverse) @ z
        assert np.abs(approx_inverse_times_z - np.eye(n)).max() < 1e-6


def test_divergence_aborts_early():
    rep = invert(3.0 * np.eye(4))
    assert not rep.converged
    assert rep.status is InversionStatus.DIVERGED
    assert rep.iterations == 3
    assert rep.residual_history.tolist() == [2.0, 4.0, 16.0, 256.0]


def test_stall_aborts_early():
    # Rescaled eigenvalue exactly 2: the residual |1 - 2| = 1 never drops.
    rep = invert(np.array([[2.0]]))
    assert not rep.converged
    assert rep.status is InversionStatus.STALLED
    assert rep.iterations == 3
    assert rep.residual_history.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_cap_hit_reports_nonconvergence():
    a, _ = rescaled_test_matrix(1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lsqmatch.inverter.MAX_ITERATIONS", 4)
        rep = invert(a, epsilon=1e-300)
    assert not rep.converged
    assert rep.status is InversionStatus.HIT_CAP
    assert rep.iterations == 4
    assert rep.residual_history.shape == (5,)


def test_cap_sizes_no_allocation():
    # A cap far beyond the address space costs nothing until updates run.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lsqmatch.inverter.MAX_ITERATIONS", 10**15)
        rep = invert(0.5 * np.eye(2))
    assert rep.status is InversionStatus.CONVERGED
    assert rep.iterations == 5


def test_nonfinite_raises_named_iteration():
    # V_1 A overflows: the run stops DIVERGED at update 1, with no warning.
    rep = invert(1e200 * np.eye(2))
    assert (rep.status, rep.iterations) == (InversionStatus.DIVERGED, 1)
    assert rep.final_residual == math.inf


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
    """Contraction 1/3 stops at t = 4; 63/65 (kappa = 64, optimal) at log2(64) + 3."""
    assert iteration_bound(2.0 / 3.0, 4.0 / 3.0, 1e-6) == 4
    assert iteration_bound(4.0 / 3.0, 2.0 / 3.0, 1e-6) == 4
    assert iteration_bound(2.0 / 65.0, 128.0 / 65.0, 1e-6) == 9
    assert iteration_bound(0.5, 1.5, 0.5) == 0
    assert iteration_bound(1.0, 1.0, 1e-6) == 0
    assert iteration_bound(1.0 - 1e-10, 1.0 + 1e-10, 1e-6) == 0  # clamped
    assert iteration_bound(0.9, 1.0, 1e-6) == 3  # only the end farther from 1 counts
    for low, high, eps in ((0.0, 1.0, 1e-6), (1.0, 2.0, 1e-6), (-0.5, 1.0, 1e-6),
                           (math.nan, 1.0, 1e-6), (0.5, math.nan, 1e-6), (0.5, 1.5, 1.5),
                           (0.5, 1.5, 0.0)):
        with pytest.raises(ValueError):
            iteration_bound(low, high, eps)


def test_predictor_for_optimal_factor():
    """The optimal factor maps the ladder 1 .. kappa onto 1 -+ (kappa-1)/(kappa+1).

    For kappa = 2^k the exact count is the paper's line log2(kappa) + 3.
    """
    assert iteration_bound(1.0, 1.0, 1e-6) == 0  # kappa = 1: c = 0
    for k in range(4, 31):
        kappa = 2.0**k
        alpha = 2.0 / (kappa + 1.0)
        assert iteration_bound(alpha, alpha * kappa, 1e-6) == k + 3


def test_predictor_for_trace_factor():
    """Under 2/trace the count never exceeds the paper's "at most" bound.

    That bound is log2|ln eps| + log2(kappa) + log2(n) - 1; it is also never
    below the optimal factor's count (equality exactly at kappa = 1, n = 2).
    """
    for kappa in (1.0, 3.0, 100.0, 2.0**20):
        for n in (2, 5, 64):
            _, z = more_toraldo(n, kappa, 91)
            alpha = scale_factor(z, ScaleFactorKind.TRACE)
            count = iteration_bound(alpha, alpha * kappa, 1e-6)
            paper = math.log2(abs(math.log(1e-6))) + math.log2(kappa) + math.log2(n) - 1.0
            assert count <= math.ceil(paper)
            optimal = scale_factor(z, ScaleFactorKind.OPTIMAL, (1.0, kappa))
            assert count >= iteration_bound(optimal, optimal * kappa, 1e-6)


@pytest.mark.parametrize("self_scaled", [False, True], ids=["plain", "self-scaled"])
@pytest.mark.parametrize("kind", list(ScaleFactorKind), ids=lambda k: k.value)
def test_scale_and_invert_is_scale_factor_then_invert(kind, self_scaled):
    """The step gives the bits of scale_factor, then invert(z * alpha), on both families."""
    _, mt = more_toraldo(16, 1024.0, 5)
    uniform = gram(uniform_pattern(48, 12, 6))
    for z, (low, high) in ((mt, (1.0, 1024.0)), (uniform, extreme_eigenvalues(uniform))):
        for extremes in (None, (low, high), (low / 2.0, 2.0 * high)):
            alpha, report = scale_and_invert(z, kind, extremes, 1e-8, self_scaled)
            expect_alpha = scale_factor(z, kind, extremes)
            expect = invert(z * expect_alpha, 1e-8, self_scaled)
            assert alpha == expect_alpha
            assert np.array_equal(report.inverse, expect.inverse)
            assert np.array_equal(report.residual_history, expect.residual_history)
            assert report.status is expect.status is InversionStatus.CONVERGED
    with pytest.raises(ValueError, match="not positive definite"):
        scale_and_invert(np.zeros((3, 3)), kind)
