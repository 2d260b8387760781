import numpy as np
import pytest

import lsqmatch.linalg as la
from lsqmatch.generate import MoreToraldoSpec, more_toraldo, uniform_pattern
from lsqmatch.scaling import alpha_optimal_bounds, rescale


def _random_spd(n, seed):
    x = uniform_pattern(3 * n, n, seed)
    return la.gram(x)


def test_as_matrix_validation():
    a = la.as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert a.flags["C_CONTIGUOUS"]
    with pytest.raises(ValueError):
        la.as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        la.as_matrix([[1.0, np.inf]])
    with pytest.raises(ValueError):
        la.as_matrix(np.empty((0, 3)))
    with pytest.raises(ValueError):
        la.as_matrix([1.0, 2.0, 3.0])


def test_symmetrize_accepts_roundoff_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 5e-13, 3.0]])
    s = la.symmetrize(a)
    assert abs(s[0, 1] - s[1, 0]) == 0.0


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        la.symmetrize(np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(ValueError):
        la.symmetrize(np.ones((2, 3)))


def test_gram_example():
    g = la.gram(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.array_equal(g, np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_gram_matches_transpose_multiply():
    for seed in (1, 2, 3):
        x = uniform_pattern(7, 3, seed)
        direct = x.T @ x
        sym = (direct + direct.T) * 0.5
        assert np.abs(la.gram(x) - sym).max() < 1e-12


def test_entrywise_and_infinity_norms():
    a = np.array([[1.0, -3.0], [2.0, 0.5]])
    assert la.entrywise_max_abs(a) == 3.0
    assert la.infinity_norm(a) == 4.0  # row 0: 1+3


def test_eigen_diagonal_example():
    eig = la.symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.abs(eig.values - np.array([1.0, 2.0, 3.0])).max() < 1e-14


def test_eigen_2x2_example():
    eig = la.symmetric_eigen(np.array([[5.0, 2.0], [2.0, 5.0]]))
    assert abs(eig.values[0] - 3.0) < 1e-12
    assert abs(eig.values[1] - 7.0) < 1e-12


def test_eigen_orthonormal_and_reconstructs():
    for seed in (4, 5):
        z = _random_spd(6, seed)
        eig = la.symmetric_eigen(z, tol=la.scaled_eig_tol(z))
        q = eig.vectors
        assert np.abs(q.T @ q - np.eye(6)).max() < 1e-10
        recon = q @ np.diag(eig.values) @ q.T
        assert np.abs(recon - z).max() < 1e-8


def test_eigen_conditioned_family_spectrum():
    """The conditioned generator guarantees a geometric eigenvalue ladder."""
    _, z = more_toraldo(MoreToraldoSpec(16, 64.0), 20240101)
    eig = la.symmetric_eigen(z, tol=la.scaled_eig_tol(z))
    expected = 64.0 ** (np.arange(16) / 15.0)
    rel = np.abs(eig.values - expected) / expected
    assert rel.max() < 1e-8


def test_eigen_tol_validation():
    with pytest.raises(ValueError):
        la.symmetric_eigen(np.eye(2), tol=0.0)
    with pytest.raises(ValueError):
        la.symmetric_eigen(np.eye(2), tol=-1e-9)


def test_eigen_sweep_cap_error(monkeypatch):
    monkeypatch.setattr(la, "MAX_JACOBI_SWEEPS", 0)
    with pytest.raises(la.JacobiConvergenceError) as info:
        la.symmetric_eigen(np.array([[5.0, 2.0], [2.0, 5.0]]))
    assert info.value.sweeps == 0
    assert info.value.offdiag >= 2.0


def test_trace_equals_eigenvalue_sum():
    for seed in (6, 7, 8):
        z = _random_spd(5, seed)
        eig = la.symmetric_eigen(z, tol=la.scaled_eig_tol(z))
        tr = float(np.trace(z))
        assert abs(eig.values.sum() - tr) < 1e-8 * abs(tr)


def test_gershgorin_and_diagonal_bounds():
    for seed in (9, 10, 11):
        z = _random_spd(6, seed)
        eig = la.symmetric_eigen(z, tol=la.scaled_eig_tol(z))
        assert eig.values[-1] <= la.infinity_norm(z) * (1 + 1e-12)
        assert eig.values[0] <= float(np.diag(z).min()) * (1 + 1e-12)


UNIT_ROUNDOFF = 2.0**-53


def _assert_extremes(z, low, high):
    """Within 4 n u ||Z|| of the given extremes: the backward error of the reduction."""
    n = z.shape[0]
    got_low, got_high = la.extreme_eigenvalues(z)
    bound = 4.0 * n * UNIT_ROUNDOFF * max(abs(low), abs(high))
    assert abs(got_low - low) <= bound
    assert abs(got_high - high) <= bound


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 4, 16, 32, 64])
@pytest.mark.parametrize("ratio", [1, 2, 8])
def test_extreme_eigenvalues_uniform_gram(n, ratio):
    for seed in range(3):
        z = la.gram(uniform_pattern(ratio * n, n, 1000 * n + 10 * ratio + seed))
        w = np.linalg.eigvalsh(z)
        _assert_extremes(z, w[0], w[-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("log2_kappa", [0, 1, 5, 10, 20])
@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_extreme_eigenvalues_conditioned_ladder(n, log2_kappa):
    """The mt ladder runs from 1 to kappa in closed form."""
    kappa = 2.0**log2_kappa
    _, z = more_toraldo(MoreToraldoSpec(n, kappa), 4242 + n)
    _assert_extremes(z, 1.0, kappa)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_eigenvalues_structured():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 40))
    q = la.gram(rng.standard_normal((30, 30)))
    basis = np.linalg.eigh(q)[1]
    cases = [
        np.array([[3.5]]),
        np.array([[-2.0]]),
        np.zeros((4, 4)),
        np.eye(5),
        np.diag([3.0, -1.0, 2.0, 0.0]),
        np.diag([2.0, 2.0, 2.0, 5.0, 5.0]),
        # Zero off-diagonals split the tridiagonal into blocks.
        np.block([[np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros((2, 2))],
                  [np.zeros((2, 2)), np.array([[7.0, 0.5], [0.5, -3.0]])]]),
        la.symmetrize((basis * np.repeat([1.0, 4.0, 9.0], 10)) @ basis.T),
        a + a.T,
        -la.gram(rng.standard_normal((20, 10))),
        1e-200 * np.array([[2.0, 1.0], [1.0, 2.0]]),
        1e200 * np.array([[2.0, 1.0], [1.0, 2.0]]),
    ]
    for z in cases:
        w = np.linalg.eigvalsh(z)
        _assert_extremes(z, w[0], w[-1])


def test_extreme_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        la.extreme_eigenvalues(np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(ValueError, match="square"):
        la.extreme_eigenvalues(np.ones((2, 3)))


def test_entrywise_below_spectral():
    for seed in (12, 13):
        z = _random_spd(5, seed)
        e = np.eye(5) - z / la.infinity_norm(z)
        e = la.symmetrize(e)
        assert la.entrywise_max_abs(e) <= la.spectral_norm(e) * (1 + 1e-12)


def test_spectral_norm_examples():
    assert abs(la.spectral_norm(np.eye(3)) - 1.0) < 1e-14
    assert abs(la.spectral_norm(np.diag([0.5, -0.25])) - 0.5) < 1e-14
    with pytest.raises(ValueError):
        la.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_norm_of_rescaled_residual():
    """I - alpha0*Z has spectral norm (kappa-1)/(kappa+1) by construction."""
    kappa = 24.0
    _, z = more_toraldo(MoreToraldoSpec(8, kappa), 777)
    a = rescale(z, alpha_optimal_bounds(1.0, kappa).alpha)
    resid = la.symmetrize(np.eye(8) - a)
    expected = (kappa - 1.0) / (kappa + 1.0)
    assert abs(la.spectral_norm(resid) - expected) < 1e-8
