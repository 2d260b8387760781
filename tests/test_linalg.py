import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    # A complex entry is refused, not cut to its real part.
    with pytest.raises(ValueError, match="real"):
        la.as_matrix([[1 + 1j], [2]])
    with pytest.raises(ValueError, match="real"):
        la.as_matrix(np.eye(2, dtype=np.complex128))


def test_symmetrize_accepts_roundoff_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 5e-13, 3.0]])
    s = la.symmetrize(a)
    assert abs(s[0, 1] - s[1, 0]) == 0.0


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        la.symmetrize(np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(ValueError):
        la.symmetrize(np.ones((2, 3)))


def test_symmetrize_returns_a_symmetric_input_uncopied():
    a = _random_spd(6, 21)
    a.setflags(write=False)
    assert la.symmetrize(a) is a


def test_symmetrize_averages_a_zero_of_the_other_sign():
    # Equal as numbers but not bit for bit: the average sets both to +0.0.
    a = np.array([[1.0, -0.0], [0.0, 1.0]])
    s = la.symmetrize(a)
    assert s is not a
    assert s.tobytes() == np.eye(2).tobytes()
    assert np.signbit(a[0, 1]) and not np.signbit(a[1, 0])
    # An entry above half the float64 maximum is averaged without overflow.
    big = la.symmetrize([[1e308, -0.0], [0.0, 1.0]])
    assert big.tobytes() == np.array([[1e308, 0.0], [0.0, 1.0]]).tobytes()


def test_symmetrize_average_of_subnormals():
    # Halving before the sum rounds each odd subnormal on its own, so the
    # result may be one unit of 2^-1074 off the correctly rounded average.
    unit = 5e-324
    steps = np.arange(-9, 10)
    for p in steps:
        for q in steps[steps != p]:
            s = la.symmetrize(np.array([[0.0, p * unit], [q * unit, 0.0]]))
            assert s[0, 1].tobytes() == s[1, 0].tobytes()
            assert abs(s[0, 1] / unit - (p + q) / 2) <= 1.0


def test_extreme_eigenvalues_of_a_read_only_input():
    # The reduction overwrites its argument, so it must get a fresh array, also
    # when max|z| is already in [0.5, 1) and the power-of-two scale is 1.
    z = _random_spd(7, 22)
    z = np.ldexp(z, -la.binary_exponent(z))
    kept = z.copy()
    z.setflags(write=False)
    assert la.extreme_eigenvalues(z) == la.extreme_eigenvalues(kept)
    assert z.tobytes() == kept.tobytes()


def test_gram_example():
    g = la.gram(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.array_equal(g, np.array([[1.0, 1.0], [1.0, 2.0]]))


def _gram_inputs():
    rng = np.random.default_rng(17)
    for shape in ((1, 1), (9, 1), (64, 64), (2048, 256), (4096, 64)):
        x = rng.standard_normal(shape)
        yield x
        yield np.asfortranarray(x)
    wide = uniform_pattern(512, 128, 5)
    yield wide[:, ::2]
    yield wide[::3]
    for scale in (1e-100, 1e-50, 1e50, 1e100):
        yield uniform_pattern(200, 40, 3) * scale
    for n in (16, 64, 256):
        for log2_kappa in (10, 20):
            yield more_toraldo(MoreToraldoSpec(n, 2.0**log2_kappa), 1)[0]


def test_gram_matches_transpose_multiply():
    # gram returns numpy's X.T @ X unaveraged: that product is bit-symmetric,
    # so it equals the average with its transpose bit for bit.  Only the
    # installed numpy and BLAS are checked.
    for x in _gram_inputs():
        g = la.gram(x)
        direct = x.T @ x
        assert g.tobytes() == direct.tobytes()
        assert g.tobytes() == g.T.copy().tobytes()
        assert g.tobytes() == ((direct + direct.T) * 0.5).tobytes()


def test_eigen_diagonal_example():
    low, high = la.extreme_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert abs(low - 1.0) < 1e-14
    assert abs(high - 3.0) < 1e-14


def test_eigen_2x2_example():
    low, high = la.extreme_eigenvalues(np.array([[5.0, 2.0], [2.0, 5.0]]))
    assert abs(low - 3.0) < 1e-12
    assert abs(high - 7.0) < 1e-12


def test_eigen_conditioned_family_spectrum():
    """The conditioned generator guarantees a geometric eigenvalue ladder."""
    _, z = more_toraldo(MoreToraldoSpec(16, 64.0), 20240101)
    expected = 64.0 ** (np.arange(16) / 15.0)
    rel = np.abs(np.linalg.eigvalsh(z) - expected) / expected
    assert rel.max() < 1e-8


def test_gershgorin_and_diagonal_bounds():
    for seed in (9, 10, 11):
        z = _random_spd(6, seed)
        low, high = la.extreme_eigenvalues(z)
        assert high <= float(np.abs(z).sum(axis=1).max()) * (1 + 1e-12)
        assert low <= float(np.diag(z).min()) * (1 + 1e-12)


UNIT_ROUNDOFF = 2.0**-53


def _assert_extremes(z, low, high):
    """Within 4 n u ||Z|| of the given extremes: the backward error of the reduction."""
    n = z.shape[0]
    got_low, got_high = la.extreme_eigenvalues(z)
    bound = 4.0 * n * UNIT_ROUNDOFF * max(abs(low), abs(high))
    assert abs(got_low - low) <= bound
    assert abs(got_high - high) <= bound


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda n: hnp.arrays(
            np.float64, (n, n), elements=st.floats(-1.0, 1.0, allow_subnormal=True)
        )
    ),
    st.integers(-600, 600),
)
def test_extreme_eigenvalues_match_numpy(a, k):
    """Random symmetric matrices at scales 2^-600 .. 2^600 against numpy.linalg.

    Both ends must lie within 4 n u max|lambda| of one of numpy's two
    independent eigensolvers.  The symmetric one (``eigvalsh``) can be wrong
    in the fifth digit on graded matrices that mix O(1) entries with entries
    near 1e-160, whose squares are subnormal; the general one (``eigvals``)
    is right there, but for small n its own error can exceed 4 n u.
    """
    z = np.ldexp(np.triu(a) + np.triu(a, 1).T, k)
    low, high = la.extreme_eigenvalues(z)
    bound = 4.0 * z.shape[0] * UNIT_ROUNDOFF
    misses = []
    for w in (np.linalg.eigvalsh(z), np.sort(np.linalg.eigvals(z).real)):
        tol = bound * max(abs(w[0]), abs(w[-1]))
        if abs(low - w[0]) <= tol and abs(high - w[-1]) <= tol:
            return
        misses.append((low - w[0], high - w[-1], tol))
    raise AssertionError(f"extremes ({low}, {high}) off both numpy solvers: {misses}")


@pytest.mark.parametrize("n", [1, 2, 4, 16, 32, 64])
@pytest.mark.parametrize("ratio", [1, 2, 8])
def test_extreme_eigenvalues_uniform_gram(n, ratio):
    for seed in range(3):
        z = la.gram(uniform_pattern(ratio * n, n, 1000 * n + 10 * ratio + seed))
        w = np.linalg.eigvalsh(z)
        _assert_extremes(z, w[0], w[-1])


@pytest.mark.parametrize("log2_kappa", [0, 1, 5, 10, 20])
@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_extreme_eigenvalues_conditioned_ladder(n, log2_kappa):
    """The mt ladder runs from 1 to kappa in closed form."""
    kappa = 2.0**log2_kappa
    _, z = more_toraldo(MoreToraldoSpec(n, kappa), 4242 + n)
    _assert_extremes(z, 1.0, kappa)


def test_extreme_eigenvalues_structured():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 40))
    q = la.gram(rng.standard_normal((30, 30)))
    basis = np.linalg.eigh(q)[1]
    # b'cb carries rounding-level asymmetry (1.1e-15); scaled by 1e6 it is
    # 1.2e-9, which passes only because the check is relative to max|z|.
    rng0 = np.random.default_rng(0)
    b, c = rng0.standard_normal((5, 5)), rng0.standard_normal((5, 5))
    bcb = b.T @ (c + c.T) @ b
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
        # Entries at or above 2^1023: a sum of two of them overflows.
        np.array([[1e308]]),
        np.diag([1e308, 1.0]),
        1e6 * bcb,
    ]
    for z in cases:
        w = np.linalg.eigvalsh(z)
        _assert_extremes(z, w[0], w[-1])


def _scalar_sturm_count(d, e2, pivmin, shift):
    """Negative LDL' pivots of T - shift I, one row at a time, as dstebz counts them.

    A pivot of magnitude below ``pivmin`` becomes ``-pivmin`` before the next
    quotient.  Returns the count and, for each floored pivot, its row and
    whether it was nonzero.
    """
    count, q, floored = 0, 1.0, []
    for i, di in enumerate(d):
        q = di - shift if i == 0 else (di - shift) - e2[i - 1] / q
        if abs(q) < pivmin:
            floored.append((i, q != 0.0))
            q = -pivmin
        count += q < 0.0
    return count, floored


def test_sturm_counts_floor_and_restart():
    """The batched pass equals the scalar recurrence where pivots hit the floor.

    Shifts equal to diagonal entries give pivots of exactly 0, shifts of
    +-pivmin/2 beside a zero diagonal entry give pivots strictly inside
    (-pivmin, pivmin), and zero off-diagonals (a split tridiagonal) put such
    pivots below the first row, so the pass floors a row and resumes below it.
    """
    tiny = np.finfo(np.float64).tiny
    rng = np.random.default_rng(11)
    cases = [
        (np.array([0.0, 0.5, 0.0, -0.25, 0.0, 1.0]), np.array([0.75, 0.0, 0.5, 0.0, 0.25])),
        (np.array([0.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        (np.array([2.0, 2.0, 2.0, 5.0, 5.0]), np.zeros(4)),
        (np.array([0.5, 0.0, 0.0]), np.array([1e-160, 0.0])),
        (rng.uniform(-1.0, 1.0, 12), np.where(rng.random(11) < 0.3, 0.0, rng.uniform(-1, 1, 11))),
    ]
    floored = set()
    for d, e in cases:
        e2 = e * e
        pivmin = tiny * max(1.0, float(e2.max()))
        near_zero = pivmin * np.array([0.5, -0.5, 1.0, -1.0])
        shifts = np.r_[d, -d, 0.0, -0.0, near_zero, rng.uniform(-3.0, 3.0, 8)]
        reference = [
            _scalar_sturm_count(d.tolist(), e2.tolist(), pivmin, s) for s in shifts.tolist()
        ]
        counts = la._sturm_counts(d, e2, pivmin, shifts)
        assert counts.tolist() == [count for count, _ in reference], (d, e)
        floored.update(pivot for _, pivots in reference for pivot in pivots)
    # Zero and nonzero pivots were floored, in the first row and below it.
    assert {(0, False), (0, True), (2, False), (2, True)} <= floored


def test_sturm_restart_recomputes_each_row_at_most_twice(monkeypatch):
    """A pass that restarts floors the rows below as it goes, so it ends there.

    The identity puts an exact zero pivot in every row at a shift equal to
    its diagonal; restarting once per such row would make a call quadratic in
    n.  Each row below the first costs one ``np.divide`` call per pass.
    """
    n, divisions, calls = 64, [], []
    divide, sturm_counts = np.divide, la._sturm_counts

    def counting_divide(*args, **kwargs):
        divisions.append(None)
        return divide(*args, **kwargs)

    def counting_sturm_counts(*args):
        calls.append(None)
        return sturm_counts(*args)

    monkeypatch.setattr(np, "divide", counting_divide)
    monkeypatch.setattr(la, "_sturm_counts", counting_sturm_counts)
    assert la.extreme_eigenvalues(np.eye(n)) == (1.0, 1.0)
    assert (n - 1) * len(calls) < len(divisions) <= 2 * (n - 1) * len(calls)


def test_extreme_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        la.extreme_eigenvalues(np.array([[1.0, 2.0], [2.1, 3.0]]))
    # The tolerance is relative to max|z|, so the same matrix scaled down is
    # still rejected.
    with pytest.raises(ValueError, match="not symmetric"):
        la.extreme_eigenvalues(1e-20 * np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(ValueError, match="square"):
        la.extreme_eigenvalues(np.ones((2, 3)))


def _spectral_norm(a):
    low, high = la.extreme_eigenvalues(a)
    return max(-low, high)


def test_entrywise_below_spectral():
    for seed in (12, 13):
        z = _random_spd(5, seed)
        e = np.eye(5) - z / float(np.abs(z).sum(axis=1).max())
        e = la.symmetrize(e)
        assert float(np.abs(e).max()) <= _spectral_norm(e) * (1 + 1e-12)


def test_spectral_norm_examples():
    assert abs(_spectral_norm(np.eye(3)) - 1.0) < 1e-14
    assert abs(_spectral_norm(np.diag([0.5, -0.25])) - 0.5) < 1e-14
    with pytest.raises(ValueError):
        _spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_norm_of_rescaled_residual():
    """I - alpha0*Z has spectrum -+(kappa-1)/(kappa+1) at its ends by construction."""
    kappa = 24.0
    _, z = more_toraldo(MoreToraldoSpec(8, kappa), 777)
    a = rescale(z, alpha_optimal_bounds(1.0, kappa))
    resid = la.symmetrize(np.eye(8) - a)
    expected = (kappa - 1.0) / (kappa + 1.0)
    low, high = la.extreme_eigenvalues(resid)
    assert abs(low + expected) < 1e-8
    assert abs(high - expected) < 1e-8
