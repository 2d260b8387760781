import numpy as np
import pytest

import lsqmatch.scaling as sc
from lsqmatch.generate import MoreToraldoSpec, more_toraldo, uniform_pattern
from lsqmatch.linalg import extreme_eigenvalues, gram


def test_kind_tokens():
    assert sc.ScaleFactorKind.OPTIMAL.token == "alpha0"
    assert sc.ScaleFactorKind.TRACE.token == "alpha1"
    assert sc.ScaleFactorKind.GERSHGORIN.token == "alpha2"
    for kind in sc.ScaleFactorKind:
        assert sc.ScaleFactorKind.from_token(kind.token) is kind
    with pytest.raises(ValueError, match="unknown scale factor token"):
        sc.ScaleFactorKind.from_token("alpha9")


def test_optimal_simple_pair():
    alpha = sc.alpha_optimal_bounds(1.0, 2.0)
    assert abs(alpha - 2.0 / 3.0) < 1e-15
    assert abs((1.0 - alpha) - 1.0 / 3.0) < 1e-15


def test_optimal_equal_eigenvalues():
    alpha = sc.alpha_optimal_bounds(4.0, 4.0)
    assert alpha == 0.25
    assert alpha * 4.0 == 1.0


def test_optimal_wide_spread():
    """The rescaled ends sit symmetrically about 1, each 62/64 away."""
    alpha = sc.alpha_optimal_bounds(1.0, 63.0)
    assert abs((1.0 - alpha) - 62.0 / 64.0) < 1e-15
    assert abs((alpha * 63.0 - 1.0) - 62.0 / 64.0) < 1e-15


def test_optimal_rejects_nonpositive():
    with pytest.raises(ValueError, match="not positive definite"):
        sc.alpha_optimal_bounds(0.0, 2.0)
    with pytest.raises(ValueError, match="not positive definite"):
        sc.alpha_optimal_bounds(-1.0, 2.0)


def test_optimal_from_decomposition():
    """With no known extremes, the optimal factor computes them from the matrix."""
    alpha = sc.scale_factor(np.array([[5.0, 2.0], [2.0, 5.0]]), sc.ScaleFactorKind.OPTIMAL)
    assert abs(alpha - 0.2) < 1e-14


def test_trace_examples():
    assert abs(sc.alpha_trace_value(np.diag([1.0, 2.0])) - 2.0 / 3.0) < 1e-15
    assert sc.alpha_trace_value(np.eye(4)) == 0.5
    # n=2: trace equals eigenvalue sum
    assert abs(sc.alpha_trace_value(np.array([[5.0, 2.0], [2.0, 5.0]])) - 0.2) < 1e-15
    with pytest.raises(ValueError, match="not positive definite"):
        sc.alpha_trace_value(np.zeros((3, 3)))


def test_gershgorin_examples():
    assert sc.alpha_gershgorin_value(np.eye(3)) == 1.0
    assert abs(sc.alpha_gershgorin_value(np.array([[5.0, 2.0], [2.0, 5.0]])) - 1.0 / 6.0) < 1e-15
    assert abs(sc.alpha_gershgorin_value(np.diag([1.0, 4.0])) - 0.4) < 1e-15
    optimal = sc.alpha_optimal_bounds(1.0, 4.0)
    assert abs(sc.alpha_gershgorin_value(np.diag([1.0, 4.0])) - optimal) < 1e-15
    with pytest.raises(ValueError, match="not positive definite"):
        sc.alpha_gershgorin_value(-np.eye(2))


def test_scale_factor_dispatch():
    for seed in (21, 22):
        z = gram(uniform_pattern(24, 6, seed))
        assert sc.scale_factor(z, sc.ScaleFactorKind.TRACE) == sc.alpha_trace_value(z)
        assert sc.scale_factor(z, sc.ScaleFactorKind.GERSHGORIN) == sc.alpha_gershgorin_value(z)
        optimal = sc.scale_factor(z, sc.ScaleFactorKind.OPTIMAL)
        assert optimal == sc.alpha_optimal_bounds(*extreme_eigenvalues(z))
    _, z = more_toraldo(MoreToraldoSpec(8, 64.0), 5)
    for kind in sc.ScaleFactorKind:
        got = sc.scale_factor(z, kind, extremes=(1.0, 64.0))
        if kind is sc.ScaleFactorKind.OPTIMAL:
            assert got == sc.alpha_optimal_bounds(1.0, 64.0)
        else:
            assert got == sc.scale_factor(z, kind)
    with pytest.raises(ValueError, match="not positive definite"):
        sc.scale_factor(np.zeros((3, 3)), sc.ScaleFactorKind.OPTIMAL)


def test_rescale():
    assert np.array_equal(sc.rescale(np.eye(2), 2.0), 2.0 * np.eye(2))
    out = sc.rescale(np.array([[1.0, 1.0], [1.0, 2.0]]), 0.5)
    assert np.array_equal(out, np.array([[0.5, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="positive"):
        sc.rescale(np.eye(2), 0.0)
    with pytest.raises(ValueError, match="positive"):
        sc.rescale(np.eye(2), -1.0)


def _spd_samples():
    samples = []
    for i, n in enumerate((2, 3, 8, 16)):
        _, z = more_toraldo(MoreToraldoSpec(n, 5.0 + 11.0 * i), 1000 + i)
        samples.append(z)
        samples.append(gram(uniform_pattern(4 * n, n, 2000 + i)))
    return samples


def test_ordering_against_optimal():
    """Both practical factors stay at or below the optimal one."""
    for z in _spd_samples():
        w = np.linalg.eigvalsh(z)
        a0 = sc.alpha_optimal_bounds(w[0], w[-1])
        assert sc.alpha_trace_value(z) <= a0 * (1 + 1e-12)
        assert sc.alpha_gershgorin_value(z) <= a0 * (1 + 1e-12)


def test_trace_equals_optimal_for_two_dims():
    for seed in (31, 32, 33):
        z = gram(uniform_pattern(10, 2, seed))
        w = np.linalg.eigvalsh(z)
        a0 = sc.alpha_optimal_bounds(w[0], w[-1])
        assert abs(sc.alpha_trace_value(z) - a0) < 1e-12 * a0


def test_rescaled_spectrum_in_region():
    """Every scale kind maps a positive definite matrix into spectrum (0, 2)."""
    for z in _spd_samples():
        w = np.linalg.eigvalsh(z)
        alphas = [
            sc.alpha_optimal_bounds(w[0], w[-1]),
            sc.alpha_trace_value(z),
            sc.alpha_gershgorin_value(z),
        ]
        for alpha in alphas:
            a = sc.rescale(z, alpha)
            wa = np.linalg.eigvalsh(a)
            assert wa[0] > 0.0
            assert wa[-1] < 2.0


def test_scale_invariance_of_diagnostics():
    """Scaling Z by c scales alpha0 by 1/c and leaves the rescaled spectrum fixed."""
    _, z = more_toraldo(MoreToraldoSpec(6, 40.0), 555)
    w = np.linalg.eigvalsh(z)
    base = sc.alpha_optimal_bounds(w[0], w[-1])
    for c in (0.25, 3.0, 1e4):
        wc = np.linalg.eigvalsh(z * c)
        alpha = sc.alpha_optimal_bounds(wc[0], wc[-1])
        assert abs(alpha - base / c) < 1e-10 * base / c
        assert abs(alpha * wc[0] - base * w[0]) < 1e-10
        assert abs(alpha * wc[-1] - base * w[-1]) < 1e-10
