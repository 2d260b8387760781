import math

import numpy as np
import pytest

from lsqmatch.generate import derive_seed, uniform_pattern
from lsqmatch.inverter import InversionConfig
from lsqmatch.linalg import gram
from lsqmatch.matching import (
    InversionStalledError,
    IterationCapError,
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
    with pytest.raises(ValueError):
        estimate_time_ms(10, math.nan)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(ms_per_op=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            PipelineConfig(ms_per_op=bad)


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
    res = solve_transform(x, m, TIGHT)
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
        cfg = PipelineConfig(scale_kind=kind, inversion=InversionConfig(epsilon=1e-10))
        results[kind] = solve_transform(x, m, cfg)
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


def test_singular_system_rejected():
    # duplicated column makes the Gram matrix exactly rank deficient
    base = uniform_pattern(12, 2, 101)
    x = np.column_stack([base, base[:, 0]])
    m = uniform_pattern(12, 2, 102)
    with pytest.raises(SingularSystemError, match="singular system"):
        solve_transform(x, m)
    # The optimal factor sees a smallest eigenvalue of 0 up to rounding; the run diverges.
    with pytest.raises(SingularSystemError, match="singular system: inversion diverged"):
        solve_transform(x, m, PipelineConfig(scale_kind=ScaleFactorKind.OPTIMAL))


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


def test_iteration_cap_is_not_singular():
    # kappa(X) is 1.9; under the default cap the same system converges in 6 iterations.
    x, m = uniform_pattern(64, 8, 1), uniform_pattern(64, 2, 2)
    config = PipelineConfig(inversion=InversionConfig(max_iterations=2))
    with pytest.raises(IterationCapError) as info:
        solve_transform(x, m, config)
    assert not isinstance(info.value, SingularSystemError)
    assert str(info.value) == "inversion hit the iteration cap of 2 iterations (residual 8.518e-02)"
    assert solve_transform(x, m).inversion.iterations == 6


def test_zero_pattern_rejected():
    with pytest.raises(SingularSystemError, match="singular system"):
        solve_transform(np.zeros((6, 3)), np.ones((6, 2)))


EXTREME_X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
EXTREME_M = EXTREME_X @ np.array([[2.0, 1.0], [0.0, 3.0]])


@pytest.mark.parametrize("kind", list(ScaleFactorKind), ids=lambda k: k.token)
@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_extreme_input_scale_solves(scale, kind):
    """Scaling X and M alike leaves T unchanged up to the rounding of the scaling."""
    config = PipelineConfig(scale_kind=kind)
    t = solve_transform(EXTREME_X, EXTREME_M, config).transform
    result = solve_transform(scale * EXTREME_X, scale * EXTREME_M, config)
    sv = np.linalg.svd(EXTREME_X, compute_uv=False)
    n, eps = EXTREME_X.shape[1], config.inversion.epsilon
    # The stopping rule bounds ||I - V A||_2 by n eps; forming X'X adds n kappa(X)^2 u.
    bound = n * eps / (1.0 - n * eps) + n * (sv[0] / sv[-1]) ** 2 * 2.0**-53
    assert np.linalg.norm(result.transform - t) <= bound * np.linalg.norm(t)
    assert np.isfinite(result.distance)


@pytest.mark.parametrize("kind", list(ScaleFactorKind), ids=lambda k: k.token)
@pytest.mark.parametrize("log2_scale", [-700, -530, 500, 660])
def test_power_of_two_input_scale_is_exact(log2_scale, kind):
    config = PipelineConfig(scale_kind=kind)
    base = solve_transform(EXTREME_X, EXTREME_M, config)
    scale = 2.0**log2_scale
    result = solve_transform(scale * EXTREME_X, scale * EXTREME_M, config)
    assert result.transform.tobytes() == base.transform.tobytes()
    assert result.distance == scale * base.distance
    assert result.inversion.residual_history.tobytes() == base.inversion.residual_history.tobytes()
