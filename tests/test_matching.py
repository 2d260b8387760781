import numpy as np
import pytest

from lsqmatch.generate import derive_seed, uniform_pattern
from lsqmatch.inverter import InversionConfig
from lsqmatch.linalg import entrywise_max_abs, gram
from lsqmatch.matching import (
    InversionStalledError,
    MatchResult,
    PipelineConfig,
    SingularSystemError,
    estimate_time_ms,
    op_count,
    solve_transform,
)
from lsqmatch.scaling import ScaleFactorKind


def gaussian_solve(a, b):
    """Independent normal-equations oracle: partial-pivot elimination."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            raise ZeroDivisionError("singular")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


TIGHT = PipelineConfig(inversion=InversionConfig(epsilon=1e-10, max_iterations=200))


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
    assert estimate_time_ms(15, 5.0) == 75.0
    assert estimate_time_ms(7, 5.0) == 35.0
    assert estimate_time_ms(15, 1.0) == 15.0
    with pytest.raises(ValueError):
        estimate_time_ms(-1, 5.0)
    with pytest.raises(ValueError):
        estimate_time_ms(10, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(ms_per_op=0.0)


def test_identity_target():
    x = uniform_pattern(20, 4, 91)
    res = solve_transform(x, x)
    assert entrywise_max_abs(res.transform - np.eye(4)) < 1e-5
    assert res.distance < 1e-5 * np.linalg.norm(x)


def test_recovers_known_transform():
    x = uniform_pattern(24, 4, 92)
    t0 = uniform_pattern(4, 4, 93)
    m = x @ t0
    res = solve_transform(x, m)
    assert entrywise_max_abs(res.transform - t0) < 1e-4
    assert res.distance < 1e-4 * np.linalg.norm(m)


def test_matches_elimination_oracle():
    x = uniform_pattern(20, 4, 94)
    m = uniform_pattern(20, 3, 95)
    res = solve_transform(x, m, TIGHT)
    oracle = gaussian_solve(gram(x), x.T @ m)
    assert entrywise_max_abs(res.transform - oracle) < 1e-6


def test_normal_equations_residual():
    for i in range(5):
        x = uniform_pattern(18, 5, derive_seed(40, 2 * i))
        m = uniform_pattern(18, 2, derive_seed(40, 2 * i + 1))
        res = solve_transform(x, m)
        grad = x.T @ (x @ res.transform - m)
        assert entrywise_max_abs(grad) < 1e-4 * entrywise_max_abs(x.T @ m)


def test_scale_kinds_agree_on_solution():
    x = uniform_pattern(30, 5, 96)
    m = uniform_pattern(30, 4, 97)
    results = {}
    for kind in ScaleFactorKind:
        cfg = PipelineConfig(scale_kind=kind, inversion=InversionConfig(epsilon=1e-10))
        results[kind] = solve_transform(x, m, cfg)
    base = results[ScaleFactorKind.OPTIMAL].transform
    for kind in (ScaleFactorKind.TRACE, ScaleFactorKind.GERSHGORIN):
        assert entrywise_max_abs(results[kind].transform - base) < 1e-5
    # iteration counts may differ; the optimal factor can only be fastest
    assert (
        results[ScaleFactorKind.OPTIMAL].inversion.iterations
        <= results[ScaleFactorKind.TRACE].inversion.iterations
    )


def test_result_cost_fields():
    x = uniform_pattern(16, 4, 98)
    m = uniform_pattern(16, 2, 99)
    cfg = PipelineConfig(ms_per_op=2.5)
    res = solve_transform(x, m, cfg)
    assert isinstance(res, MatchResult)
    assert res.op_count == 2 * res.inversion.iterations + 7
    assert res.est_time_ms == res.op_count * 2.5
    assert res.distance >= 0.0


def test_shape_errors():
    with pytest.raises(ValueError, match="row counts differ"):
        solve_transform(np.ones((4, 2)), np.ones((5, 2)))
    with pytest.raises(ValueError, match="underdetermined"):
        solve_transform(np.ones((2, 4)), np.ones((2, 4)))


def test_singular_system_rejected():
    # duplicated column makes the Gram matrix exactly rank deficient
    base = uniform_pattern(12, 2, 101)
    x = np.column_stack([base, base[:, 0]])
    m = uniform_pattern(12, 2, 102)
    with pytest.raises(SingularSystemError, match="singular system"):
        solve_transform(x, m)


def test_single_column_trace_scale_stalls():
    # alpha1 = 2 / trace puts the only eigenvalue of alpha * X'X at exactly 2.
    x = np.array([[1.0], [2.0], [3.0]])
    m = 2.0 * x
    with pytest.raises(InversionStalledError, match="stalled under scale factor alpha1") as info:
        solve_transform(x, m, PipelineConfig(scale_kind=ScaleFactorKind.TRACE))
    assert "singular" not in str(info.value)
    assert "in 3 iterations" in str(info.value)
    for kind in (ScaleFactorKind.OPTIMAL, ScaleFactorKind.GERSHGORIN):
        result = solve_transform(x, m, PipelineConfig(scale_kind=kind))
        assert result.inversion.iterations == 0
        assert result.transform.tolist() == [[2.0]]


def test_zero_pattern_rejected():
    with pytest.raises(SingularSystemError, match="singular system"):
        solve_transform(np.zeros((6, 3)), np.ones((6, 2)))
