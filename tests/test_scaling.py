import math

import numpy as np
import pytest

import lsqmatch.inverter as sc
from lsqmatch.generate import more_toraldo, uniform_pattern
from lsqmatch.linalg import extreme_eigenvalues, gram

OPTIMAL = sc.ScaleFactorKind.OPTIMAL
TRACE = sc.ScaleFactorKind.TRACE
GERSHGORIN = sc.ScaleFactorKind.GERSHGORIN


def test_kind_tokens():
    assert sc.ScaleFactorKind.OPTIMAL.value == "alpha0"
    assert sc.ScaleFactorKind.TRACE.value == "alpha1"
    assert sc.ScaleFactorKind.GERSHGORIN.value == "alpha2"
    for kind in sc.ScaleFactorKind:
        assert sc.ScaleFactorKind(kind.value) is kind
    with pytest.raises(ValueError, match="'alpha9' is not a valid ScaleFactorKind"):
        sc.ScaleFactorKind("alpha9")


def test_optimal_simple_pair():
    alpha = sc.scale_factor(np.diag([1.0, 2.0]), OPTIMAL, (1.0, 2.0))
    assert abs(alpha - 2.0 / 3.0) < 1e-15
    assert abs((1.0 - alpha) - 1.0 / 3.0) < 1e-15


def test_optimal_equal_eigenvalues():
    alpha = sc.scale_factor(4.0 * np.eye(2), OPTIMAL, (4.0, 4.0))
    assert alpha == 0.25
    assert alpha * 4.0 == 1.0


def test_optimal_wide_spread():
    """The rescaled ends sit symmetrically about 1, each 62/64 away."""
    alpha = sc.scale_factor(np.diag([1.0, 63.0]), OPTIMAL, (1.0, 63.0))
    assert abs((1.0 - alpha) - 62.0 / 64.0) < 1e-15
    assert abs((alpha * 63.0 - 1.0) - 62.0 / 64.0) < 1e-15


def test_optimal_rejects_nonpositive():
    """A given pair must be a positive spectrum in order, 0 < low <= high."""
    for extremes in ((0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (2.0, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="not positive definite"):
            sc.scale_factor(np.eye(2), OPTIMAL, extremes)


def test_optimal_from_decomposition():
    """With no known extremes, the optimal factor computes them from the matrix."""
    alpha = sc.scale_factor(np.array([[5.0, 2.0], [2.0, 5.0]]), OPTIMAL)
    assert abs(alpha - 0.2) < 1e-14


def test_trace_examples():
    assert abs(sc.scale_factor(np.diag([1.0, 2.0]), TRACE) - 2.0 / 3.0) < 1e-15
    assert sc.scale_factor(np.eye(4), TRACE) == 0.5
    # n=2: trace equals eigenvalue sum
    assert abs(sc.scale_factor(np.array([[5.0, 2.0], [2.0, 5.0]]), TRACE) - 0.2) < 1e-15
    for z in (np.zeros((3, 3)), np.diag([1.0, -2.0]), np.diag([1.0, math.nan])):
        with pytest.raises(ValueError, match="not positive definite"):
            sc.scale_factor(z, TRACE)


def test_gershgorin_examples():
    assert sc.scale_factor(np.eye(3), GERSHGORIN) == 1.0
    assert abs(sc.scale_factor(np.array([[5.0, 2.0], [2.0, 5.0]]), GERSHGORIN) - 1.0 / 6.0) < 1e-15
    assert abs(sc.scale_factor(np.diag([1.0, 4.0]), GERSHGORIN) - 0.4) < 1e-15
    # On a diagonal matrix min z_ii + max z_ii is the optimal denominator.
    assert sc.scale_factor(np.diag([1.0, 4.0]), GERSHGORIN) == 2.0 / (4.0 + 1.0)
    # A negative diagonal cancels its own row sum: the denominator is -1 + 1 = 0.
    for z in (-np.eye(2), np.diag([1.0, math.nan])):
        with pytest.raises(ValueError, match="not positive definite"):
            sc.scale_factor(z, GERSHGORIN)


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
            assert sc.scale_factor(z, TRACE, extremes) == 2.0 / float(np.trace(z))
            assert sc.scale_factor(z, GERSHGORIN, extremes) == 2.0 / (diag_min + row_sum_max)
        got = sc.scale_factor(z, OPTIMAL, (float(w[0]), float(w[-1])))
        assert got == 2.0 / (w[-1] + w[0])
        # With none given it comes from extreme_eigenvalues, checked here against eigvalsh.
        assert abs(sc.scale_factor(z, OPTIMAL) - got) <= 1e-12 * got
    assert sc.scale_factor(mt, OPTIMAL, (1.0, 64.0)) == 2.0 / 65.0
    with pytest.raises(ValueError, match="not positive definite"):
        sc.scale_factor(np.zeros((3, 3)), OPTIMAL)


def test_scale_denominator_overflow_is_rejected():
    """An alpha = 2/d beyond the float64 range is an error, not 0 or inf, and no warning."""
    big = np.diag([1e308, 1e308])
    for kind in (OPTIMAL, TRACE, GERSHGORIN):
        with pytest.raises(ValueError, match="overflows the float64 range"):
            sc.scale_factor(big, kind)
    # The top eigenvalue 1.9e308 is beyond the range: it reads inf, unwarned.
    near = np.array([[1e308, 9e307], [9e307, 1e308]])
    low, high = extreme_eigenvalues(near)
    assert abs(low - 1e307) <= 1e-14 * 1e307 and high == math.inf
    low, high = extreme_eigenvalues(-near)
    assert low == -math.inf and abs(high + 1e307) <= 1e-14 * 1e307
    with pytest.raises(ValueError, match="overflows the float64 range"):
        sc.scale_factor(near, OPTIMAL)
    with pytest.raises(ValueError, match="overflows the float64 range"):
        sc.scale_factor(np.eye(2), OPTIMAL, (1.0, math.inf))
    # A subnormal denominator makes alpha = 2/d overflow to inf, for every kind.
    for tiny in (1e-320, np.float64(1e-320)):
        with pytest.raises(ValueError, match="overflows the float64 range"):
            sc.scale_factor(np.eye(2), OPTIMAL, (tiny, tiny))
    for kind in (OPTIMAL, TRACE, GERSHGORIN):
        with pytest.raises(ValueError, match="overflows the float64 range"):
            sc.scale_factor(1e-320 * np.eye(2), kind)


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
        a0 = sc.scale_factor(z, OPTIMAL, (w[0], w[-1]))
        assert sc.scale_factor(z, TRACE) <= a0 * (1 + 1e-12)
        assert sc.scale_factor(z, GERSHGORIN) <= a0 * (1 + 1e-12)


def test_trace_equals_optimal_for_two_dims():
    for seed in (31, 32, 33):
        z = gram(uniform_pattern(10, 2, seed))
        w = np.linalg.eigvalsh(z)
        a0 = sc.scale_factor(z, OPTIMAL, (w[0], w[-1]))
        assert abs(sc.scale_factor(z, TRACE) - a0) < 1e-12 * a0


def test_rescaled_spectrum_in_region():
    """Every scale kind maps a positive definite matrix into spectrum (0, 2)."""
    for z in _spd_samples():
        w = np.linalg.eigvalsh(z)
        alphas = [
            sc.scale_factor(z, OPTIMAL, (w[0], w[-1])),
            sc.scale_factor(z, TRACE),
            sc.scale_factor(z, GERSHGORIN),
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
    base = sc.scale_factor(z, OPTIMAL, (w[0], w[-1]))
    for c in (0.25, 3.0, 1e4):
        wc = np.linalg.eigvalsh(z * c)
        alpha = sc.scale_factor(z * c, OPTIMAL, (wc[0], wc[-1]))
        assert abs(alpha - base / c) < 1e-10 * base / c
        assert abs(alpha * wc[0] - base * w[0]) < 1e-10
        assert abs(alpha * wc[-1] - base * w[-1]) < 1e-10


@pytest.mark.parametrize("kind", ["alpha1", None, 3])
def test_scale_factor_rejects_a_kind_that_is_not_a_member(kind):
    """A token, None or a number is no kind, and falls into no kind's branch."""
    z = gram(uniform_pattern(12, 3, 5))
    with pytest.raises(TypeError, match=f"kind must be a ScaleFactorKind, got {kind!r}"):
        sc.scale_factor(z, kind)
