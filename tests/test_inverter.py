"""Tests of ``inverter``: the scale factors, the recurrence's iterates and its stop statuses.

The stop law, a function of the residual history, is also driven directly with
synthetic histories.  The in-place loop's bit-level comparison with the
recurrence written plainly is in ``test_kernels.py``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    _counter_stop,
    iterate_to,
    neumann_partial_sum,
    rescaled_test_matrix,
    self_scaled_count,
    spectral_norm,
)

from lsqmatch.generate import derive_seed, more_toraldo, uniform_pattern
from lsqmatch.inverter import (
    EPSILON,
    MAX_ITERATIONS,
    InversionStatus,
    ScaleFactorKind,
    _stop_status,
    invert,
    iteration_bound,
    scale_and_invert,
    scale_factor,
)
from lsqmatch.linalg import extreme_eigenvalues, gram

OPTIMAL = ScaleFactorKind.OPTIMAL
TRACE = ScaleFactorKind.TRACE
GERSHGORIN = ScaleFactorKind.GERSHGORIN


def test_kind_tokens():
    assert ScaleFactorKind.OPTIMAL.value == "alpha0"
    assert ScaleFactorKind.TRACE.value == "alpha1"
    assert ScaleFactorKind.GERSHGORIN.value == "alpha2"
    for kind in ScaleFactorKind:
        assert ScaleFactorKind(kind.value) is kind
    with pytest.raises(ValueError, match="'alpha9' is not a valid ScaleFactorKind"):
        ScaleFactorKind("alpha9")


def test_optimal_simple_pair():
    alpha = scale_factor(np.diag([1.0, 2.0]), OPTIMAL, (1.0, 2.0))
    assert abs(alpha - 2.0 / 3.0) < 1e-15
    assert abs((1.0 - alpha) - 1.0 / 3.0) < 1e-15


def test_optimal_equal_eigenvalues():
    alpha = scale_factor(4.0 * np.eye(2), OPTIMAL, (4.0, 4.0))
    assert alpha == 0.25
    assert alpha * 4.0 == 1.0


def test_optimal_wide_spread():
    """The rescaled ends sit symmetrically about 1, each 62/64 away."""
    alpha = scale_factor(np.diag([1.0, 63.0]), OPTIMAL, (1.0, 63.0))
    assert abs((1.0 - alpha) - 62.0 / 64.0) < 1e-15
    assert abs((alpha * 63.0 - 1.0) - 62.0 / 64.0) < 1e-15


def test_optimal_rejects_nonpositive():
    """A given pair must be a positive spectrum in order, 0 < low <= high."""
    for extremes in ((0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (2.0, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="not positive definite"):
            scale_factor(np.eye(2), OPTIMAL, extremes)


def test_optimal_from_decomposition():
    """With no known extremes, the optimal factor computes them from the matrix."""
    alpha = scale_factor(np.array([[5.0, 2.0], [2.0, 5.0]]), OPTIMAL)
    assert abs(alpha - 0.2) < 1e-14


def test_trace_examples():
    assert abs(scale_factor(np.diag([1.0, 2.0]), TRACE) - 2.0 / 3.0) < 1e-15
    assert scale_factor(np.eye(4), TRACE) == 0.5
    # n=2: trace equals eigenvalue sum
    assert abs(scale_factor(np.array([[5.0, 2.0], [2.0, 5.0]]), TRACE) - 0.2) < 1e-15
    for z in (np.zeros((3, 3)), np.diag([1.0, -2.0]), np.diag([1.0, math.nan])):
        with pytest.raises(ValueError, match="not positive definite"):
            scale_factor(z, TRACE)


def test_gershgorin_examples():
    assert scale_factor(np.eye(3), GERSHGORIN) == 1.0
    assert abs(scale_factor(np.array([[5.0, 2.0], [2.0, 5.0]]), GERSHGORIN) - 1.0 / 6.0) < 1e-15
    assert abs(scale_factor(np.diag([1.0, 4.0]), GERSHGORIN) - 0.4) < 1e-15
    # On a diagonal matrix min z_ii + max z_ii is the optimal denominator.
    assert scale_factor(np.diag([1.0, 4.0]), GERSHGORIN) == 2.0 / (4.0 + 1.0)
    # A negative diagonal cancels its own row sum: the denominator is -1 + 1 = 0.
    for z in (-np.eye(2), np.diag([1.0, math.nan])):
        with pytest.raises(ValueError, match="not positive definite"):
            scale_factor(z, GERSHGORIN)


def test_scale_factor_dispatch():
    """Every kind is 2/d for its closed-form denominator d, bit for bit."""
    uniform = [gram(uniform_pattern(24, 6, seed)) for seed in (21, 22)]
    _, mt = more_toraldo(8, 64.0, 5)
    for z in (*uniform, mt):
        diag_min = min(np.diag(z))
        row_sum_max = max(np.abs(z).sum(axis=1))
        w = np.linalg.eigvalsh(z)
        for extremes in (None, (float(w[0]), float(w[-1]))):
            # A given spectrum is read only by the optimal kind.
            assert scale_factor(z, TRACE, extremes) == 2.0 / float(np.trace(z))
            assert scale_factor(z, GERSHGORIN, extremes) == 2.0 / (diag_min + row_sum_max)
        got = scale_factor(z, OPTIMAL, (float(w[0]), float(w[-1])))
        assert got == 2.0 / (w[-1] + w[0])
        # With none given it comes from extreme_eigenvalues, checked here against eigvalsh.
        assert abs(scale_factor(z, OPTIMAL) - got) <= 1e-12 * got
    assert scale_factor(mt, OPTIMAL, (1.0, 64.0)) == 2.0 / 65.0
    with pytest.raises(ValueError, match="not positive definite"):
        scale_factor(np.zeros((3, 3)), OPTIMAL)


def test_scale_denominator_overflow_is_rejected():
    """An alpha = 2/d beyond the float64 range is an error, not 0 or inf, and no warning."""
    big = np.diag([1e308, 1e308])
    for kind in (OPTIMAL, TRACE, GERSHGORIN):
        with pytest.raises(ValueError, match="overflows the float64 range"):
            scale_factor(big, kind)
    # The top eigenvalue 1.9e308 is beyond the range: it reads inf, unwarned.
    near = np.array([[1e308, 9e307], [9e307, 1e308]])
    low, high = extreme_eigenvalues(near)
    assert abs(low - 1e307) <= 1e-14 * 1e307 and high == math.inf
    low, high = extreme_eigenvalues(-near)
    assert low == -math.inf and abs(high + 1e307) <= 1e-14 * 1e307
    with pytest.raises(ValueError, match="overflows the float64 range"):
        scale_factor(near, OPTIMAL)
    with pytest.raises(ValueError, match="overflows the float64 range"):
        scale_factor(np.eye(2), OPTIMAL, (1.0, math.inf))
    # A subnormal denominator makes alpha = 2/d overflow to inf, for every kind.
    for tiny in (1e-320, np.float64(1e-320)):
        with pytest.raises(ValueError, match="overflows the float64 range"):
            scale_factor(np.eye(2), OPTIMAL, (tiny, tiny))
    for kind in (OPTIMAL, TRACE, GERSHGORIN):
        with pytest.raises(ValueError, match="overflows the float64 range"):
            scale_factor(1e-320 * np.eye(2), kind)


def _spd_samples():
    samples = []
    for i, n in enumerate((2, 3, 8, 16)):
        _, z = more_toraldo(n, 5.0 + 11.0 * i, 1000 + i)
        samples.append(z)
        samples.append(gram(uniform_pattern(4 * n, n, 2000 + i)))
    return samples


def test_ordering_against_optimal():
    """Both practical factors stay at or below the optimal one."""
    for z in _spd_samples():
        w = np.linalg.eigvalsh(z)
        a0 = scale_factor(z, OPTIMAL, (w[0], w[-1]))
        assert scale_factor(z, TRACE) <= a0 * (1 + 1e-12)
        assert scale_factor(z, GERSHGORIN) <= a0 * (1 + 1e-12)


def test_trace_equals_optimal_for_two_dims():
    for seed in (31, 32, 33):
        z = gram(uniform_pattern(10, 2, seed))
        w = np.linalg.eigvalsh(z)
        a0 = scale_factor(z, OPTIMAL, (w[0], w[-1]))
        assert abs(scale_factor(z, TRACE) - a0) < 1e-12 * a0


def test_rescaled_spectrum_in_region():
    """Every scale kind maps a positive definite matrix into spectrum (0, 2)."""
    for z in _spd_samples():
        w = np.linalg.eigvalsh(z)
        alphas = [
            scale_factor(z, OPTIMAL, (w[0], w[-1])),
            scale_factor(z, TRACE),
            scale_factor(z, GERSHGORIN),
        ]
        for alpha in alphas:
            a = z * alpha
            wa = np.linalg.eigvalsh(a)
            assert wa[0] > 0.0
            assert wa[-1] < 2.0


def test_scale_invariance_of_diagnostics():
    """Scaling Z by c scales alpha0 by 1/c and leaves the rescaled spectrum fixed."""
    _, z = more_toraldo(6, 40.0, 555)
    w = np.linalg.eigvalsh(z)
    base = scale_factor(z, OPTIMAL, (w[0], w[-1]))
    for c in (0.25, 3.0, 1e4):
        wc = np.linalg.eigvalsh(z * c)
        alpha = scale_factor(z * c, OPTIMAL, (wc[0], wc[-1]))
        assert abs(alpha - base / c) < 1e-10 * base / c
        assert abs(alpha * wc[0] - base * w[0]) < 1e-10
        assert abs(alpha * wc[-1] - base * w[-1]) < 1e-10


@pytest.mark.parametrize("kind", ["alpha1", None, 3])
def test_scale_factor_rejects_a_kind_that_is_not_a_member(kind):
    """A token, None or a number is no kind, and falls into no kind's branch."""
    z = gram(uniform_pattern(12, 3, 5))
    with pytest.raises(TypeError, match=f"kind must be a ScaleFactorKind, got {kind!r}"):
        scale_factor(z, kind)


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
    for n in (2, 3):
        a = 0.5 * np.eye(n)
        # hand iteration: V1 = 1.5 I, V2 = 1.875 I
        assert np.abs(iterate_to(a, 1) - 1.5 * np.eye(n)).max() < 1e-15
        assert np.abs(iterate_to(a, 2) - 1.875 * np.eye(n)).max() < 1e-15
        rep = invert(a)
        assert rep.converged
        assert rep.iterations == 5
        expect = [0.5, 0.25, 0.0625, 0.00390625, 1.52587890625e-05, 2.3283064365386963e-10]
        assert rep.residual_history.tolist() == expect
        assert np.abs(rep.inverse - 2.0 * np.eye(n)).max() < 1e-9


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
        sn = spectral_norm(resid)
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


def test_nonfinite_status():
    # V_1 A overflows: the run stops DIVERGED at update 1, with no warning.
    rep = invert(1e200 * np.eye(2))
    assert rep.status is InversionStatus.DIVERGED
    assert rep.iterations == 1
    assert list(rep.residual_history) == [1e200, math.inf]


def test_cap_hit_reports_nonconvergence():
    for a, cap in ((0.5 * np.eye(2), 3), (rescaled_test_matrix(1)[0], 4)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("lsqmatch.inverter.MAX_ITERATIONS", cap)
            rep = invert(a, epsilon=1e-300)
        assert not rep.converged
        assert rep.status is InversionStatus.HIT_CAP
        assert rep.iterations == cap
        assert rep.residual_history.shape == (cap + 1,)


def test_cap_sizes_no_allocation():
    # A cap far beyond the address space costs nothing until updates run.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lsqmatch.inverter.MAX_ITERATIONS", 10**15)
        rep = invert(0.5 * np.eye(2))
    assert rep.status is InversionStatus.CONVERGED
    assert rep.iterations == 5


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
        _, z = more_toraldo(32, kappa, 2032)
        for kind in ScaleFactorKind:
            a = z * scale_factor(z, kind, (1.0, kappa))
            rep = invert(a, self_scaled=True)
            assert rep.status is InversionStatus.CONVERGED
            assert rep.iterations <= invert(a).iterations
            eye = np.eye(32)
            assert np.abs(2.0 * eye - rep.inverse @ a - eye).max() == rep.final_residual < 1e-6


def test_self_scaled_power_steps_stop_on_a_null_vector():
    # The start vector (1, 1)/sqrt(2) is an eigenvector of A for eigenvalue 1,
    # so R x = 0 at every update; the gain then rests on the residual alone.
    a = np.array([[0.75, 0.25], [0.25, 0.75]])
    rep = invert(a, self_scaled=True)
    assert rep.status is InversionStatus.CONVERGED
    assert rep.iterations == invert(a).iterations == 5


@pytest.mark.parametrize("a", [3.0 * np.eye(4), np.array([[2.0]])], ids=["diverged", "stalled"])
def test_self_scaled_applies_no_gain_at_or_above_one(a):
    plain = invert(a)
    scaled = invert(a, self_scaled=True)
    assert scaled.residual_history.tobytes() == plain.residual_history.tobytes()
    assert (scaled.iterations, scaled.status) == (plain.iterations, plain.status)


def test_invert_reads_a_read_only_input():
    _, z = more_toraldo(16, 2.0**10, 12)
    a = z * scale_factor(z, ScaleFactorKind.GERSHGORIN)
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
    _, z = more_toraldo(n, 2.0**10, 11)
    a = z * scale_factor(z, ScaleFactorKind.TRACE)
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


# (name, history, max_iter, status) at eps = 1e-6; the run stops at the last entry.
_STOP_TABLE = [
    ("converged-at-start", [1e-7], 200, InversionStatus.CONVERGED),
    ("converged", [0.5, 0.25, 0.0625, 0.0039, 1.5e-05, 2.3e-10], 200, InversionStatus.CONVERGED),
    ("cap", [0.5, 0.25, 0.0625], 2, InversionStatus.HIT_CAP),
    ("cap-over-stall", [1.0, 1.0, 1.0, 1.0], 3, InversionStatus.HIT_CAP),
    ("flat-at-one", [1.0, 1.0, 1.0, 1.0], 200, InversionStatus.STALLED),
    ("up-to-one-then-flat", [0.5, 1.0, 1.0, 1.0], 200, InversionStatus.STALLED),
    ("strict-rise", [2.0, 4.0, 16.0, 256.0], 200, InversionStatus.DIVERGED),
    ("rise-rise-tie", [1.5, 2.0, 3.0, 3.0], 200, InversionStatus.STALLED),
    ("tie-rise-rise", [2.0, 1.0, 1.0, 1.5, 2.0], 200, InversionStatus.STALLED),
    ("rise-from-below-one", [0.5, 1.5, 2.0, 3.0], 200, InversionStatus.DIVERGED),
    # The first of the three rises ends at 1, not strictly above it.
    ("rise-through-one", [0.5, 1.0, 2.0, 3.0], 200, InversionStatus.STALLED),
    ("drop-restarts-count", [1.0, 1.0, 1.0, 0.75, 1.0, 1.0, 1.0], 200, InversionStatus.STALLED),
    # A non-finite residual stops the run at once, whatever came before.
    ("nan", [0.5, 0.75, math.nan], 200, InversionStatus.DIVERGED),
    ("inf-at-start", [math.inf], 200, InversionStatus.DIVERGED),
    ("inf-after-flat", [1.0, 1.0, math.inf], 200, InversionStatus.DIVERGED),
    # A plateau below 1 never stops before the cap, however long it lasts.
    ("plateau-below-one", [0.5] * 12, 200, None),
    ("too-short-to-stall", [1.0, 1.0, 1.0], 200, None),
]


@pytest.mark.parametrize(
    "history, max_iter, status",
    [pytest.param(*row[1:], id=row[0]) for row in _STOP_TABLE],
)
def test_stop_status_decision_table(history, max_iter, status):
    for t in range(1, len(history)):
        assert _stop_status(history[:t], 1e-6, max_iter) is None
    assert _stop_status(history, 1e-6, max_iter) is status


def _first_stop(history, eps, max_iter):
    """The first stop :func:`_stop_status` calls on the prefixes of ``history``, or None."""
    for t in range(len(history)):
        status = _stop_status(history[: t + 1], eps, max_iter)
        if status is not None:
            return t, status
    return None


def test_stop_status_matches_counter_rule():
    # Half the histories draw from values that tie with 1 and with each other:
    # the neighbours of 1, the non-finite values and ones below eps; the rest
    # are uniform, some rounded to tie.
    count, longest = 100_000, 15
    rng = np.random.default_rng(19)
    finite = [0.0, 1e-7, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, 2.0, 3.0]
    weights = np.r_[np.ones(len(finite)), 0.05, 0.05]
    drawn = rng.choice(finite + [math.inf, math.nan], (count, longest), p=weights / weights.sum())
    uniform = rng.uniform(0.0, 3.0, (count, longest))
    uniform[::2] = uniform[::2].round(1)
    rows = np.where(rng.random((count, 1)) < 0.5, drawn, uniform).tolist()
    lengths = rng.integers(1, longest + 1, count).tolist()
    epsilons = rng.choice([1e-6, 0.25], count).tolist()
    caps = rng.integers(1, 15, count).tolist()
    seen = set()
    for row, length, eps, max_iter in zip(rows, lengths, epsilons, caps):
        history = row[:length]
        want = _counter_stop(history, eps, max_iter)
        assert _first_stop(history, eps, max_iter) == want, (history, eps, max_iter)
        seen.add(want and want[1])
    assert seen == {*InversionStatus, None}
