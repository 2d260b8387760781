import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gaussian_solve, near_dependent_pattern, self_scaled_count

from lsqmatch.generate import derive_seed, uniform_pattern
from lsqmatch.inverter import EPSILON, ScaleFactorKind, scale_factor
from lsqmatch.linalg import binary_exponent, gram
from lsqmatch.matching import (
    InversionStalledError,
    IterationCapError,
    MatchResult,
    SingularSystemError,
    estimate_time_ms,
    op_count,
    solve_transform,
)


def test_op_count_examples():
    assert op_count(4) == 15
    assert op_count(0) == 7
    assert op_count(10) == 27
    with pytest.raises(ValueError):
        op_count(-1)


def test_op_count_strictly_increasing():
    for it in range(30):
        assert op_count(it + 1) == op_count(it) + 2


def test_estimate_time_examples():
    assert estimate_time_ms(15) == 75.0
    assert estimate_time_ms(7) == 35.0
    with pytest.raises(ValueError):
        estimate_time_ms(-1)


def test_identity_target():
    x = uniform_pattern(20, 4, 91)
    res = solve_transform(x, x)
    assert np.abs(res.transform - np.eye(4)).max() < 1e-5
    assert res.distance < 1e-5 * np.linalg.norm(x)


def test_recovers_known_transform():
    x = uniform_pattern(24, 4, 92)
    t0 = uniform_pattern(4, 4, 93)
    m = x @ t0
    res = solve_transform(x, m)
    assert np.abs(res.transform - t0).max() < 1e-4
    assert res.distance < 1e-4 * np.linalg.norm(m)


def test_matches_elimination_oracle():
    x = uniform_pattern(20, 4, 94)
    m = uniform_pattern(20, 3, 95)
    res = solve_transform(x, m, epsilon=1e-10)
    oracle = gaussian_solve(gram(x), x.T @ m)
    assert np.abs(res.transform - oracle).max() < 1e-6


def test_normal_equations_residual():
    for i in range(5):
        x = uniform_pattern(18, 5, derive_seed(40, 2 * i))
        m = uniform_pattern(18, 2, derive_seed(40, 2 * i + 1))
        res = solve_transform(x, m)
        grad = x.T @ (x @ res.transform - m)
        assert np.abs(grad).max() < 1e-4 * np.abs(x.T @ m).max()


def test_scale_kinds_agree_on_solution():
    x = uniform_pattern(30, 5, 96)
    m = uniform_pattern(30, 4, 97)
    results = {}
    for kind in ScaleFactorKind:
        results[kind] = solve_transform(x, m, scale_kind=kind, epsilon=1e-10)
    base = results[ScaleFactorKind.OPTIMAL].transform
    for kind in (ScaleFactorKind.TRACE, ScaleFactorKind.GERSHGORIN):
        assert np.abs(results[kind].transform - base).max() < 1e-5
    # iteration counts may differ; the optimal factor can only be fastest
    assert (
        results[ScaleFactorKind.OPTIMAL].inversion.iterations
        <= results[ScaleFactorKind.TRACE].inversion.iterations
    )


def test_result_cost_fields():
    x = uniform_pattern(16, 4, 98)
    m = uniform_pattern(16, 2, 99)
    res = solve_transform(x, m)
    assert isinstance(res, MatchResult)
    assert res.op_count == 2 * res.inversion.iterations + 7
    assert res.est_time_ms == res.op_count * 5.0
    assert res.distance >= 0.0


def test_shape_errors():
    with pytest.raises(ValueError, match="row counts differ"):
        solve_transform(np.ones((4, 2)), np.ones((5, 2)))
    with pytest.raises(ValueError, match="underdetermined"):
        solve_transform(np.ones((2, 4)), np.ones((2, 4)))


def test_nonfinite_input_rejected():
    # solve_transform is the boundary: the steps after it check nothing.
    x = uniform_pattern(6, 2, 103)
    m = uniform_pattern(6, 2, 104)
    bad_x, bad_m = x.copy(), m.copy()
    bad_x[1, 1] = np.nan
    bad_m[0, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        solve_transform(bad_x, m)
    with pytest.raises(ValueError, match="finite"):
        solve_transform(x, bad_m)


def test_complex_input_rejected():
    # Casting to float64 would keep the real part and only warn.
    with pytest.raises(ValueError, match="real"):
        solve_transform([[1 + 1j], [2]], [[1], [2]])
    with pytest.raises(ValueError, match="real"):
        solve_transform([[1], [2]], np.array([[1], [2]], dtype=np.complex64))


def test_singular_system_rejected():
    # duplicated column makes the Gram matrix exactly rank deficient
    base = uniform_pattern(12, 2, 101)
    x = np.column_stack([base, base[:, 0]])
    m = uniform_pattern(12, 2, 102)
    with pytest.raises(SingularSystemError, match="singular system"):
        solve_transform(x, m)
    # A rank-1 X with two or more columns puts alpha1 * X'X's eigenvalues at 2
    # and 0 up to rounding: the zero eigenvalue, not the scale factor, is the fault.
    for rank1 in (
        np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
        np.outer(uniform_pattern(8, 1, 5), [1.0, 2.0, 3.0]),
    ):
        with pytest.raises(SingularSystemError, match="singular system"):
            solve_transform(rank1, rank1[:, :1], scale_kind=ScaleFactorKind.TRACE)
    # The optimal factor sees a smallest eigenvalue of 0 up to rounding; the run diverges.
    with pytest.raises(SingularSystemError, match="singular system: inversion diverged"):
        solve_transform(x, m, scale_kind=ScaleFactorKind.OPTIMAL)


@pytest.mark.parametrize("kind", ["alpha1", "alpha9", None, 1])
def test_solve_transform_rejects_a_scale_kind_that_is_not_a_member(kind):
    # A token is not a kind: "alpha1" would otherwise run the optimal factor.
    # A TypeError is not worded as a singular system.
    x, m = uniform_pattern(12, 3, 5), uniform_pattern(12, 2, 6)
    with pytest.raises(TypeError, match=re.escape(f"kind must be a ScaleFactorKind, got {kind!r}")):
        solve_transform(x, m, scale_kind=kind)


def test_single_column_trace_scale_stalls():
    # alpha1 = 2 / trace puts the only eigenvalue of alpha * X'X at exactly 2.
    x = np.array([[1.0], [2.0], [3.0]])
    m = 2.0 * x
    with pytest.raises(InversionStalledError, match="stalled under scale factor alpha1") as info:
        solve_transform(x, m, scale_kind=ScaleFactorKind.TRACE)
    assert "singular" not in str(info.value)
    assert "in 3 iterations" in str(info.value)
    for kind in (ScaleFactorKind.OPTIMAL, ScaleFactorKind.GERSHGORIN):
        result = solve_transform(x, m, scale_kind=kind)
        assert result.inversion.iterations == 0
        assert result.transform.tolist() == [[2.0]]
    # Here alpha * z rounds to just below 2, so the recurrence converges, slowly:
    # at one column the residual is exact, so the count is the self-scaled law's.
    x = uniform_pattern(5, 1, 3)
    result = solve_transform(x, 2.0 * x, scale_kind=ScaleFactorKind.TRACE)
    z = gram(np.ldexp(x, -binary_exponent(x)))
    a = (z * scale_factor(z, ScaleFactorKind.TRACE))[0, 0]
    assert result.inversion.converged
    assert result.inversion.iterations == self_scaled_count(abs(1.0 - a), 1e-6)
    assert abs(result.transform[0, 0] - 2.0) < 1e-6


def test_iteration_cap_is_not_singular():
    # X has full rank; rounding keeps the residual of its near-dependent X'X near 1e-4.
    x, m = near_dependent_pattern(3, 0), uniform_pattern(9, 2, 2)
    assert np.linalg.matrix_rank(x) == 3
    pattern = r"inversion hit the iteration cap of 200 iterations \(residual \d\.\d{3}e-0[345]\)"
    for kind in ScaleFactorKind:
        with pytest.raises(IterationCapError) as info:
            solve_transform(x, m, scale_kind=kind)
        assert not isinstance(info.value, SingularSystemError)
        assert re.fullmatch(pattern, str(info.value))


def test_zero_pattern_rejected():
    with pytest.raises(SingularSystemError, match="singular system"):
        solve_transform(np.zeros((6, 3)), np.ones((6, 2)))


def test_bad_epsilon_rejected_before_the_gram_matrix(monkeypatch):
    # On a singular X, a bad epsilon is named as such, not read as a singular system.
    def no_gram(x):
        raise AssertionError("gram called before epsilon was checked")

    monkeypatch.setattr("lsqmatch.matching.gram", no_gram)
    for epsilon in (2.0, math.nan, 0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match=f"epsilon must lie in \\(0, 1\\), got {epsilon}"):
            solve_transform(np.zeros((4, 2)), np.ones((4, 1)), epsilon=epsilon)


EXTREME_X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
EXTREME_M = EXTREME_X @ np.array([[2.0, 1.0], [0.0, 3.0]])


@pytest.mark.parametrize("kind", list(ScaleFactorKind), ids=lambda k: k.value)
@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_extreme_input_scale_solves(scale, kind):
    """Scaling X and M alike leaves T unchanged up to the rounding of the scaling."""
    t = solve_transform(EXTREME_X, EXTREME_M, scale_kind=kind).transform
    result = solve_transform(scale * EXTREME_X, scale * EXTREME_M, scale_kind=kind)
    sv = np.linalg.svd(EXTREME_X, compute_uv=False)
    n, eps = EXTREME_X.shape[1], EPSILON
    # The stopping rule bounds ||I - V A||_2 by n eps; forming X'X adds n kappa(X)^2 u.
    bound = n * eps / (1.0 - n * eps) + n * (sv[0] / sv[-1]) ** 2 * 2.0**-53
    assert np.linalg.norm(result.transform - t) <= bound * np.linalg.norm(t)
    assert np.isfinite(result.distance)


@pytest.mark.parametrize("kind", list(ScaleFactorKind), ids=lambda k: k.value)
@pytest.mark.parametrize("log2_scale", [-700, -530, 500, 660])
def test_power_of_two_input_scale_is_exact(log2_scale, kind):
    base = solve_transform(EXTREME_X, EXTREME_M, scale_kind=kind)
    scale = 2.0**log2_scale
    result = solve_transform(scale * EXTREME_X, scale * EXTREME_M, scale_kind=kind)
    assert result.transform.tobytes() == base.transform.tobytes()
    assert result.distance == scale * base.distance
    assert result.inversion.residual_history.tobytes() == base.inversion.residual_history.tobytes()


def test_answer_beyond_float64_range():
    # T = 1e600 cannot be represented: the error names the transform, not the input.
    with pytest.raises(ValueError, match="transform overflows"):
        solve_transform([[1e-300], [1e-300]], [[1e300], [1e300]])
    # A residual norm beyond float64 reads inf; T itself is in range.
    result = solve_transform([[1.0], [1.0]], [[1.7e308], [-1.7e308]])
    assert result.transform.tolist() == [[0.0]]
    assert result.distance == math.inf


RANK_DEFECTS = ("duplicate column", "zero column", "rank 1")


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 6),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
    kind=st.sampled_from(list(ScaleFactorKind)),
    log2_scale=st.integers(-300, 300),
    defect=st.sampled_from((None,) + RANK_DEFECTS),
)
def test_stall_is_singular_unless_single_column_trace(n, k, seed, kind, log2_scale, defect):
    """A stall names a singular system, except alpha1 on one column; checked against lstsq."""
    m = n * k + 1
    x = uniform_pattern(m, n, derive_seed(seed, 0))
    target = uniform_pattern(m, 2, derive_seed(seed, 1))
    scale = 2.0**log2_scale
    if defect is not None and n >= 2:
        if defect == "duplicate column":
            x[:, -1] = x[:, 0]
        elif defect == "zero column":
            x[:, -1] = 0.0
        else:
            x = np.outer(x[:, 0], x[0])
        # Forming X'X of a rank-1 X can leave its zero eigenvalues tiny and
        # positive; the residual may then hover below 1 until the iteration cap.
        failures = (SingularSystemError, IterationCapError)
        with pytest.raises(failures if defect == "rank 1" else SingularSystemError):
            solve_transform(scale * x, scale * target, scale_kind=kind)
        return
    sv = np.linalg.svd(x, compute_uv=False)
    kappa2_u = (sv[0] / sv[-1]) ** 2 * 2.0**-53
    if not kappa2_u < 1e-8:
        return
    try:
        result = solve_transform(scale * x, scale * target, scale_kind=kind)
    except InversionStalledError:
        assert n == 1 and kind is ScaleFactorKind.TRACE
        return
    # T = V A T* exactly, and ||I - V A||_2 <= n max|I - V A| < n eps; forming
    # X'X and the products add about m kappa(X)^2 u.
    expected = np.linalg.lstsq(x, target, rcond=None)[0]
    bound = n * EPSILON / (1.0 - n * EPSILON) + m * kappa2_u
    assert np.linalg.norm(result.transform - expected) <= bound * np.linalg.norm(expected)
