import hashlib
import tracemalloc

import numpy as np
import pytest

from oracles import mix64

from lsqmatch.bench import run_mt_suite
from lsqmatch.generate import BLOCK, GOLDEN, derive_seed, more_toraldo, uniform_pattern
from lsqmatch.linalg import extreme_eigenvalues, gram


def test_mix64_reference_vector():
    # first two outputs of the reference splitmix64 stream from seed 0
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64(0) == 0


def _scalar_stream(seed, count):
    """The first ``count`` values of the stream from ``seed``, one Python float at a time."""
    return [((mix64(seed + k * GOLDEN) >> 11) + 0.5) * 2.0**-52 - 1.0 for k in range(1, count + 1)]


@pytest.mark.parametrize(
    "seed",
    # GOLDEN > 2^63, so every state wraps past 2^64 within two steps; the
    # fifth seed wraps at the first step, the sixth starts beyond 64 bits.
    # The first value of the last two seeds rounds to exactly 1.0 and 0.0.
    [
        0,
        12345,
        2**63 - 1,
        (1 << 64) - 1,
        (1 << 64) - GOLDEN + 3,
        (1 << 64) + 7,
        17685126244420568887,
        3453682501520545093,
    ],
)
def test_stream_matches_scalar_formula(seed):
    expected = np.array(_scalar_stream(seed, BLOCK + 9))
    assert uniform_pattern(1000, 1, seed).tobytes() == expected[:1000].tobytes()
    # Across a block edge: one value past it, and the whole tail.
    assert uniform_pattern(BLOCK + 1, 1, seed).tobytes() == expected[: BLOCK + 1].tobytes()
    assert uniform_pattern(BLOCK + 9, 1, seed).tobytes() == expected.tobytes()


def test_uniform_pattern_holds_one_output_buffer():
    # The stream is mixed a block at a time, in the output's own bytes.
    tracemalloc.start()
    try:
        x = uniform_pattern(4096, 256, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x.nbytes


def test_stream_values_strictly_inside_interval():
    # -1 is never reached; 1.0 can be (see the test below), but not on this seed.
    v = uniform_pattern(4096, 1, 999)
    assert v.min() > -1.0
    assert v.max() < 1.0


def test_stream_rounds_to_zero_and_one():
    # For j = mix64(state) >> 11 >= 2^52, j + 1/2 rounds to even.
    assert uniform_pattern(1, 1, 17685126244420568887).tolist() == [[1.0]]
    assert uniform_pattern(1, 1, 3453682501520545093).tolist() == [[0.0]]


def test_stream_moments():
    v = uniform_pattern(100000, 1, 987654321)
    assert abs(v.mean()) < 0.02
    assert abs(v.var() - 1.0 / 3.0) < 0.02


def test_derive_seed():
    assert derive_seed(42, 0) == mix64(42 + GOLDEN)
    assert derive_seed(42, 99) == mix64(42 + 100 * GOLDEN)
    children = {derive_seed(42, i) for i in range(100)}
    assert len(children) == 100
    with pytest.raises(ValueError):
        derive_seed(42, -1)


def test_householder_axis_vector():
    # At kappa = 1 the ladder is all ones, so X is the reflection H itself,
    # built from h = uniform_pattern(n, 1, seed).  Column i of H is the image
    # of the axis vector e_i: its part orthogonal to h is kept and its part
    # along h is negated.
    for n in (2, 16):
        refl = more_toraldo(n, 1.0, 500 + n)
        h = uniform_pattern(n, 1, 500 + n).ravel()
        along = np.outer(h, h) / float(h @ h)  # column i: projection of e_i onto h
        across = np.eye(n) - along
        assert np.abs(refl @ across - across).max() < 1e-12
        assert np.abs(refl @ along + along).max() < 1e-12
        # A reflection has eigenvalues -1 once and 1 n - 1 times.
        assert abs(np.trace(refl) - (n - 2)) < 1e-12


def test_householder_involution_and_reflection():
    # H read back from more_toraldo at kappa = 1, as above.
    for n in (2, 16, 64):
        refl = more_toraldo(n, 1.0, 500 + n)
        h = uniform_pattern(n, 1, 500 + n).ravel()
        assert np.array_equal(refl, refl.T)
        assert np.abs(refl @ refl - np.eye(n)).max() < 1e-12
        assert np.abs(refl @ h + h).max() < 1e-12
        assert np.abs(refl.T @ refl - np.eye(n)).max() < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError, match="n must be at least 2, got 1"):
        more_toraldo(1, 2.0, 0)
    for kappa in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"kappa must be finite and at least 1, got {kappa}"):
            more_toraldo(4, kappa, 0)
    # A suite raises the same error when it reaches the bad cell.
    with pytest.raises(ValueError, match="n must be at least 2, got 1"):
        run_mt_suite(grid=[(16, 64.0), (1, 2.0)], trials_per_cell=1)


def test_unit_condition_number_gives_identity():
    z = gram(more_toraldo(2, 1.0, 71))
    assert np.abs(z - np.eye(2)).max() < 1e-12
    z = gram(more_toraldo(8, 1.0, 72))
    assert np.abs(z - np.eye(8)).max() < 1e-12


def test_conditioned_spectrum_is_geometric_ladder():
    for n, kappa, seed in ((12, 300.0, 73), (16, 64.0, 20240101)):
        z = gram(more_toraldo(n, kappa, seed))
        expected = kappa ** (np.arange(n) / (n - 1.0))
        # independent eigensolver route
        w = np.linalg.eigvalsh(z)
        assert (np.abs(w - expected) / expected).max() < 1e-8
        assert abs(np.trace(z) - expected.sum()) < 1e-8 * expected.sum()


def test_condition_number_measured_by_own_eigensolver():
    for kappa in (64.0, 1024.0):
        z = gram(more_toraldo(10, kappa, 74))
        low, high = extreme_eigenvalues(z)
        measured = high / low
        assert abs(measured - kappa) < 1e-6 * kappa


def test_generator_determinism_and_shape():
    x1 = more_toraldo(5, 9.0, 75)
    x2 = more_toraldo(5, 9.0, 75)
    assert np.array_equal(x1, x2)
    x3 = more_toraldo(5, 9.0, 76)
    assert not np.array_equal(x1, x3)
    assert x1.shape == (5, 5)


def test_more_toraldo_matches_recorded_digest():
    # SHA-256 of the patterns X over a grid of sizes, condition numbers and
    # seeds, recorded with numpy 2.4.6 on x86-64: a rewrite of the generator
    # must reproduce its bits.
    digest = hashlib.sha256()
    for n in (2, 3, 5, 16, 64, 256):
        for kappa in (1.0, 64.0, 2.0**10, 2.0**20, 2.0**40):
            for seed in range(20):
                x = more_toraldo(n, kappa, seed)
                assert x.dtype == np.float64 and x.shape == (n, n)
                digest.update(np.ascontiguousarray(x).tobytes())
    assert digest.hexdigest() == "e24ce091ab5c75fb63226b0f8e51f316ccc4e9dfeccc90ccb7d284f67b23f09a"


def test_uniform_pattern_basic():
    x = uniform_pattern(9, 4, 81)
    assert x.shape == (9, 4)
    assert np.abs(x).max() < 1.0
    assert np.array_equal(x, uniform_pattern(9, 4, 81))
    # fills row-major from one stream
    assert x.tobytes() == np.array(_scalar_stream(81, 36)).tobytes()
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
