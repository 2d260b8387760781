import numpy as np

import lsqmatch.kernels as kernels


def test_status_codes_distinct():
    codes = {kernels.CONVERGED, kernels.HIT_CAP, kernels.DIVERGED, kernels.NONFINITE}
    assert len(codes) == 4


def test_numpy_newton_schulz_basic():
    a = 0.5 * np.eye(3)
    v, hist, iters, status = kernels.newton_schulz(a, 1e-6, 200)
    assert status == kernels.CONVERGED
    assert iters == 5
    assert hist.shape == (6,)
    assert np.abs(v - 2.0 * np.eye(3)).max() < 1e-8


def test_numpy_jacobi_basic():
    a = np.array([[5.0, 2.0], [2.0, 5.0]])
    q = np.eye(2)
    sweeps, off = kernels.jacobi_sweeps(a, q, 1e-12, 100)
    assert off < 1e-12
    assert sweeps >= 1
    vals = np.sort(np.diag(a))
    assert np.abs(vals - np.array([3.0, 7.0])).max() < 1e-12


def test_divergence_status():
    a = 3.0 * np.eye(4)
    _, hist, iters, status = kernels.newton_schulz(a, 1e-6, 200)
    assert status == kernels.DIVERGED
    assert iters == 3
    assert list(hist) == [2.0, 4.0, 16.0, 256.0]


def test_nonfinite_status():
    a = 1e200 * np.eye(2)
    _, _, iters, status = kernels.newton_schulz(a, 1e-6, 200)
    assert status == kernels.NONFINITE
    assert iters == 1


def test_cap_status():
    a = 0.5 * np.eye(2)
    _, hist, iters, status = kernels.newton_schulz(a, 1e-300, 3)
    assert status == kernels.HIT_CAP
    assert iters == 3
    assert hist.shape == (4,)
