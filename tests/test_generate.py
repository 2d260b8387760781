import numpy as np
import pytest

from lsqmatch.generate import (
    GOLDEN,
    MoreToraldoSpec,
    SplitMix64,
    derive_seed,
    householder,
    mix64,
    more_toraldo,
    uniform_pattern,
)
from lsqmatch.linalg import extreme_eigenvalues


def test_mix64_reference_vector():
    # first two outputs of the reference splitmix64 stream from seed 0
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64((2 * GOLDEN) & ((1 << 64) - 1)) == 0x6E789E6AA1B965F4
    assert mix64(0) == 0


def test_stream_is_deterministic_and_resumable():
    a = SplitMix64(12345).take(16)
    b = SplitMix64(12345).take(16)
    assert np.array_equal(a, b)
    stream = SplitMix64(12345)
    first = stream.take(7)
    rest = stream.take(9)
    assert np.array_equal(np.concatenate([first, rest]), a)


def test_stream_values_strictly_inside_interval():
    v = SplitMix64(999).take(4096)
    assert v.min() > -1.0
    assert v.max() < 1.0
    with pytest.raises(ValueError):
        SplitMix64(1).take(0)


def test_stream_moments():
    v = SplitMix64(987654321).take(100000)
    assert abs(v.mean()) < 0.02
    assert abs(v.var() - 1.0 / 3.0) < 0.02


def test_derive_seed():
    assert derive_seed(42, 0) == mix64((42 + GOLDEN) & ((1 << 64) - 1))
    children = {derive_seed(42, i) for i in range(100)}
    assert len(children) == 100
    with pytest.raises(ValueError):
        derive_seed(42, -1)


def test_householder_axis_vector():
    h = householder(np.array([1.0, 0.0]))
    assert np.array_equal(h, np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_householder_involution_and_reflection():
    for n in (2, 16, 64):
        vec = SplitMix64(500 + n).take(n)
        refl = householder(vec)
        assert np.abs(refl @ refl - np.eye(n)).max() < 1e-12
        assert np.abs(refl @ vec + vec).max() < 1e-12
        assert np.abs(refl.T @ refl - np.eye(n)).max() < 1e-12


def test_householder_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        householder(np.zeros(4))


def test_spec_validation():
    with pytest.raises(ValueError):
        MoreToraldoSpec(1, 2.0)
    for kappa in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            MoreToraldoSpec(4, kappa)


def test_unit_condition_number_gives_identity():
    _, z = more_toraldo(MoreToraldoSpec(2, 1.0), 71)
    assert np.abs(z - np.eye(2)).max() < 1e-12
    _, z = more_toraldo(MoreToraldoSpec(8, 1.0), 72)
    assert np.abs(z - np.eye(8)).max() < 1e-12


def test_conditioned_spectrum_is_geometric_ladder():
    n, kappa = 12, 300.0
    _, z = more_toraldo(MoreToraldoSpec(n, kappa), 73)
    expected = kappa ** (np.arange(n) / (n - 1.0))
    # independent eigensolver route
    w = np.linalg.eigvalsh(z)
    assert (np.abs(w - expected) / expected).max() < 1e-8
    assert abs(np.trace(z) - expected.sum()) < 1e-8 * expected.sum()


def test_condition_number_measured_by_own_eigensolver():
    for kappa in (64.0, 1024.0):
        _, z = more_toraldo(MoreToraldoSpec(10, kappa), 74)
        low, high = extreme_eigenvalues(z)
        measured = high / low
        assert abs(measured - kappa) < 1e-6 * kappa


def test_generator_determinism_and_shape():
    x1, z1 = more_toraldo(MoreToraldoSpec(5, 9.0), 75)
    x2, z2 = more_toraldo(MoreToraldoSpec(5, 9.0), 75)
    assert np.array_equal(x1, x2)
    assert np.array_equal(z1, z2)
    x3, _ = more_toraldo(MoreToraldoSpec(5, 9.0), 76)
    assert not np.array_equal(x1, x3)
    assert x1.shape == (5, 5)


def test_uniform_pattern_basic():
    x = uniform_pattern(9, 4, 81)
    assert x.shape == (9, 4)
    assert np.abs(x).max() < 1.0
    assert np.array_equal(x, uniform_pattern(9, 4, 81))
    # fills row-major from one stream
    flat = SplitMix64(81).take(36)
    assert np.array_equal(x, flat.reshape(9, 4))
    with pytest.raises(ValueError):
        uniform_pattern(3, 4, 81)
    with pytest.raises(ValueError):
        uniform_pattern(3, 0, 81)


def test_tall_pattern_second_moments():
    n = 4
    m = 64 * n
    x = uniform_pattern(m, n, 82)
    g = (x.T @ x) / m
    assert np.abs(np.diag(g) - 1.0 / 3.0).max() < 0.05
    off = g - np.diag(np.diag(g))
    assert np.abs(off).max() < 0.05


def test_taller_patterns_are_better_conditioned():
    """More rows shrink the spread of the Gram spectrum, statistically."""
    square, tall = [], []
    for s in range(20):
        for ratio, dest in ((1, square), (8, tall)):
            x = uniform_pattern(8 * ratio, 8, derive_seed(7, s * 2 + ratio))
            w = np.linalg.eigvalsh((x.T @ x + (x.T @ x).T) / 2)
            dest.append(w[-1] / w[0])
    assert np.median(tall) < np.median(square)
