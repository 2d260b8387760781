import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import vectorized_multisection, vectorized_sturm_counts

import lsqmatch.linalg as la
from lsqmatch.generate import more_toraldo, uniform_pattern
from lsqmatch.inverter import ScaleFactorKind, invert, scale_factor


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


def test_symmetrize_rejects_roundoff_asymmetry():
    # Symmetric means equal to the transpose: a rounding-level gap is an
    # error wherever input is validated, not averaged away.
    a = np.array([[1.0, 2.0], [2.0 + 5e-13, 3.0]])
    message = r"not symmetric: a\[0, 1\] = 2\.0 but a\[1, 0\] = 2\.0000000000005"
    for validate in (la.symmetrize, invert, la.extreme_eigenvalues):
        with pytest.raises(ValueError, match=message):
            validate(a)


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        la.symmetrize(np.array([[1.0, 2.0], [2.1, 3.0]]))
    # No gap is computed, so mirrored entries of opposite sign near the
    # float64 maximum are rejected with no overflow warning.
    with pytest.raises(ValueError, match=r"a\[0, 1\] = 1e\+308 but a\[1, 0\] = -1e\+308"):
        la.symmetrize([[0.0, 1e308], [-1e308, 0.0]])
    # The pair named is the first in row-major order.
    a = np.zeros((4, 4))
    a[3, 1], a[2, 0] = 1.0, 2.0
    with pytest.raises(ValueError, match=r"a\[0, 2\] = 0\.0 but a\[2, 0\] = 2\.0"):
        la.symmetrize(a)
    with pytest.raises(ValueError):
        la.symmetrize(np.ones((2, 3)))


def test_symmetrize_returns_a_symmetric_input_uncopied():
    a = _random_spd(6, 21)
    a.setflags(write=False)
    assert la.symmetrize(a) is a


def test_symmetrize_returns_a_zero_of_the_other_sign_uncopied():
    # Equal as numbers but not bit for bit: the matrix comes back as it is.
    for big in (1.0, 1e308):
        a = np.array([[big, -0.0], [0.0, 1.0]])
        a.setflags(write=False)
        assert la.symmetrize(a) is a
        assert np.signbit(a[0, 1]) and not np.signbit(a[1, 0])


def test_symmetrize_rejects_asymmetric_subnormals():
    # Any two different subnormals are a rejection (and any warning an error).
    unit = 5e-324
    steps = np.arange(-9, 10)
    for p in steps:
        for q in steps[steps != p]:
            with pytest.raises(ValueError, match="not symmetric"):
                la.symmetrize(np.array([[0.0, p * unit], [q * unit, 0.0]]))


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
            yield more_toraldo(n, 2.0**log2_kappa, 1)[0]


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


def _assert_near_numpy(z, low, high):
    """``(low, high)`` lie within 4 n u max|lambda| of the ends of z's spectrum.

    Three numpy oracles are tried in turn, each only after the one before
    missed; a ``LinAlgError`` counts as a miss.  The symmetric solver
    (``eigvalsh``) can be wrong in the fifth digit on graded matrices that
    mix O(1) entries with entries near 1e-160, whose squares are subnormal;
    the general one (``eigvals``) is right there, but for small n its own
    error can exceed 4 n u, and either may fail to converge.  The last is
    ``eigvalsh`` of z with its entries below u max|z| set to zero.  That
    moves each eigenvalue by at most n u max|lambda|, so it is held to
    3 n u, which keeps the bound against z's own spectrum at 4 n u.
    """
    n = z.shape[0]
    graded = np.where(np.abs(z) < UNIT_ROUNDOFF * np.abs(z).max(), 0.0, z)
    oracles = [
        (4.0, lambda: np.linalg.eigvalsh(z)),
        (4.0, lambda: np.sort(np.linalg.eigvals(z).real)),
        (3.0, lambda: np.linalg.eigvalsh(graded)),
    ]
    misses = []
    for factor, spectrum in oracles:
        try:
            w = spectrum()
        except np.linalg.LinAlgError as exc:
            misses.append(str(exc))
            continue
        tol = factor * n * UNIT_ROUNDOFF * max(abs(w[0]), abs(w[-1]))
        if abs(low - w[0]) <= tol and abs(high - w[-1]) <= tol:
            return
        misses.append((low - w[0], high - w[-1], tol))
    raise AssertionError(f"extremes ({low}, {high}) off every numpy oracle: {misses}")


def _upper_entries(n, entries):
    """An n x n matrix holding ``entries``, a map from (i, j) to the value there."""
    a = np.zeros((n, n))
    for (i, j), value in entries.items():
        a[i, j] = value
    return a


#: (a, k) inputs on which numpy's general solver does not converge.  On the
#: first two ``eigvalsh`` agrees; on the last it misses too, and only the graded
#: oracle holds the closed form +-0.75 * 2^411.  Entries below the diagonal are
#: dropped.
_NUMPY_FAILURES = [
    (
        _upper_entries(
            12, {(2, 8): -1.0, (2, 9): 3e-320, (3, 10): 5e-324, (7, 11): 1e-200, (8, 11): -0.75}
        ),
        547,
    ),
    (
        _upper_entries(
            22, {(1, 14): 1e-310, (3, 16): 5e-324, (6, 9): -0.75, (6, 16): -0.75, (18, 7): -1.0}
        ),
        205,
    ),
    (
        _upper_entries(
            23, {(0, 8): 1e-160, (0, 14): 5e-324, (1, 8): -0.75, (10, 7): 0.25, (19, 13): 1e-160}
        ),
        411,
    ),
]


def _symmetric_from_upper(a, k):
    return np.ldexp(np.triu(a) + np.triu(a, 1).T, k)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda n: hnp.arrays(
            np.float64, (n, n), elements=st.floats(-1.0, 1.0, allow_subnormal=True)
        )
    ),
    st.integers(-600, 600),
)
@example(*_NUMPY_FAILURES[0])
@example(*_NUMPY_FAILURES[1])
@example(*_NUMPY_FAILURES[2])
def test_extreme_eigenvalues_match_numpy(a, k):
    """Random symmetric matrices at scales 2^-600 .. 2^600 against numpy.linalg."""
    z = _symmetric_from_upper(a, k)
    _assert_near_numpy(z, *la.extreme_eigenvalues(z))


@pytest.mark.parametrize("a, k", _NUMPY_FAILURES, ids=["n12", "n22", "n23"])
def test_numpy_oracles_reject_a_moved_extreme(a, k):
    # An end moved by 5 n u max|lambda| is off every oracle, the graded one too.
    z = _symmetric_from_upper(a, k)
    low, high = la.extreme_eigenvalues(z)
    shift = 5.0 * z.shape[0] * UNIT_ROUNDOFF * max(abs(low), abs(high))
    for moved in ((low - shift, high), (low, high + shift)):
        with pytest.raises(AssertionError, match="off every numpy oracle"):
            _assert_near_numpy(z, *moved)


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
    _, z = more_toraldo(n, kappa, 4242 + n)
    _assert_extremes(z, 1.0, kappa)


def test_extreme_eigenvalues_structured():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 40))
    q = la.gram(rng.standard_normal((30, 30)))
    basis = np.linalg.eigh(q)[1]
    # Products carry rounding-level asymmetry, so those two cases are averaged
    # with their transposes here: the average is symmetric bit for bit.
    rng0 = np.random.default_rng(0)
    b, c = rng0.standard_normal((5, 5)), rng0.standard_normal((5, 5))
    bcb = b.T @ (c + c.T) @ b
    spread = (basis * np.repeat([1.0, 4.0, 9.0], 10)) @ basis.T
    cases = [
        np.array([[3.5]]),
        np.array([[-2.0]]),
        np.zeros((1, 1)),
        np.zeros((4, 4)),
        np.full((3, 3), -0.0),
        np.eye(3),
        np.eye(5),
        np.diag([0.5, -0.25]),
        np.diag([3.0, -1.0, 2.0, 0.0]),
        np.diag([2.0, 2.0, 2.0, 5.0, 5.0]),
        # Zero off-diagonals split the tridiagonal into blocks.
        np.block([[np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros((2, 2))],
                  [np.zeros((2, 2)), np.array([[7.0, 0.5], [0.5, -3.0]])]]),
        0.5 * (spread + spread.T),
        a + a.T,
        -la.gram(rng.standard_normal((20, 10))),
        1e-200 * np.array([[2.0, 1.0], [1.0, 2.0]]),
        1e200 * np.array([[2.0, 1.0], [1.0, 2.0]]),
        # Entries at or above 2^1023: a sum of two of them overflows.
        np.array([[1e308]]),
        np.diag([1e308, 1.0]),
        1e6 * (0.5 * (bcb + bcb.T)),
        # Shifts that equal diagonal entries exactly, at n = 256.
        np.eye(256),
        np.diag(np.repeat([2.0, 5.0], 128)),
        np.kron(np.eye(128), np.array([[2.0, 1.0], [1.0, 2.0]])),
    ]
    for z in cases:
        w = np.linalg.eigvalsh(z)
        _assert_extremes(z, w[0], w[-1])
        if not z.any():
            ends = la.extreme_eigenvalues(z)
            assert ends == (0.0, 0.0) and not np.signbit(ends).any()


def _rows(d, e2):
    """The rows ``_sturm_count`` takes: (d_i, e2_{i-1}) as Python floats, 0.0 above row 0."""
    return list(zip(np.asarray(d).tolist(), [0.0, *np.asarray(e2).tolist()]))


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


def test_sturm_counts_where_dstebz_floors():
    """The unfloored count is correct where dstebz's scalar recurrence floors.

    Shifts equal to diagonal entries give pivots of exactly 0, shifts of
    +-pivmin/2 beside a zero diagonal entry give pivots strictly inside
    (-pivmin, pivmin), and zero off-diagonals (a split tridiagonal) put such
    pivots below the first row.  Where the reference floors no pivot the
    counts are equal; everywhere they are within rounding of the spectrum,
    never fall as the shift grows, and equal the vectorized pass's, a -0.0
    shift included.  A floored count can be off: in the fourth case the
    reference counts 3 eigenvalues below 0.5, where there are 2.
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
        rows = _rows(d, e2)
        counts = np.array([la._sturm_count(rows, s) for s in shifts.tolist()])
        assert np.array_equal(counts, vectorized_sturm_counts(d, e2, shifts)), (d, e)
        for count, (expected, pivots) in zip(counts.tolist(), reference):
            assert pivots or count == expected, (d, e)
        lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        delta = d.size * UNIT_ROUNDOFF * np.abs(lam).max() + 4.0 * pivmin
        assert np.all((lam < shifts[:, None] - delta).sum(axis=1) <= counts), (d, e)
        assert np.all(counts <= (lam <= shifts[:, None] + delta).sum(axis=1)), (d, e)
        signed = ~((shifts == 0.0) & np.signbit(shifts))
        order = np.argsort(shifts[signed], kind="stable")
        assert np.all(np.diff(counts[signed][order]) >= 0), (d, e)
        floored.update(pivot for _, pivots in reference for pivot in pivots)
    # Zero and nonzero pivots were floored, in the first row and below it.
    assert {(0, False), (0, True), (2, False), (2, True)} <= floored


def test_sturm_count_takes_no_quotient_under_a_zero_e2():
    """A +-0.0 pivot directly above a zero off-diagonal leaves the next row alone.

    The count of a split tridiagonal is then the sum of its blocks' counts;
    a quotient there would be +-inf and flip the next row's sign.  The
    pivot is +0.0 at shift 0 both as shift - d_0 and as (0 - 0.5) - 0.25 /
    (-0.5) below a coupled row, and -0.0 as -0.0 - 0.0.
    """
    cases = [
        (_rows([0.0], []), _rows([-0.5], []), 0.0),
        (_rows([0.0], []), _rows([0.5], []), -0.0),
        (_rows([0.5, 0.5], [0.25]), _rows([-0.5, 0.25], [0.0]), 0.0),
        (_rows([0.5, 0.5], [0.25]), _rows([-0.5, 0.75], [0.0]), 0.0),
    ]
    for top, bottom, shift in cases:
        blocks = la._sturm_count(top, shift) + la._sturm_count(bottom, shift)
        assert la._sturm_count(top + bottom, shift) == blocks, (top, bottom, shift)
    assert la.extreme_eigenvalues(np.eye(64)) == (1.0, 1.0)


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _tridiagonal_cases():
    """Random tridiagonals, and split ones with zero off-diagonals and repeated diagonals."""
    rng = np.random.default_rng(32)
    for n in (1, 2, 3, 5, 8, 12, 32):
        for _ in range(4):
            d, e = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)
            yield d, e
            yield np.where(rng.random(n) < 0.3, 0.0, d), np.where(rng.random(n - 1) < 0.4, 0.0, e)
            yield rng.choice([-0.5, 0.0, 0.5], n), np.where(rng.random(n - 1) < 0.5, 0.0, e)


def test_sturm_count_never_falls_across_a_searched_step():
    """Over the shifts of every multisection step, the count never falls.

    The binary search of ``extreme_eigenvalues`` finds the first shift of a
    step that reaches its target; it finds the vectorized pass's bracket only
    because the count is monotone in the shift, which is checked here on every
    step of the reference, shift by shift.
    """
    steps = 0
    for d, e in _tridiagonal_cases():
        ends, (dt, e2), searched = vectorized_multisection(_tridiagonal(d, e))
        rows = _rows(dt, e2)
        for shifts in searched:
            reference = vectorized_sturm_counts(dt, e2, shifts.ravel()).reshape(shifts.shape)
            for row, expected in zip(shifts.tolist(), reference.tolist()):
                counts = [la._sturm_count(rows, s) for s in row]
                assert counts == sorted(counts) == expected, (d, e)
            steps += 1
        assert la.extreme_eigenvalues(_tridiagonal(d, e)) == ends
    assert steps == 640


def _bit_identity_cases():
    """Seeded matrices of many kinds and sizes, n = 1 to 256."""
    for n in [*range(1, 13), 16, 17, 32, 33, 64, 100, 128, 256]:
        for seed in range(6 if n <= 17 else 2 if n < 256 else 1):
            base = 1000 * n + seed
            x = uniform_pattern(2 * n, n, base)
            g = la.gram(x)
            yield g
            yield g * 1e300
            yield g * 1e-300
            u = uniform_pattern(n, n, base + 1)
            yield u + u.T - 1.0
            yield np.diag(uniform_pattern(n, 1, base + 2)[:, 0] - 0.5)
            if n > 1:
                x[:, 1] = x[:, 0]
                yield la.gram(x)
            if not seed:
                yield np.ones((n, n))
                yield np.zeros((n, n))
                # Both ends of one sign, with ratio 0.885: the end farther
                # from 0 has the larger tolerance and meets it a step before
                # the other, and its bracket keeps narrowing until both do.
                ladder = np.diag(np.linspace(0.885, 1.0, n))
                yield ladder
                yield -ladder


def test_extreme_eigenvalues_bit_identical_to_vectorized_multisection():
    """``(low, high)`` is byte-equal to the reference that counts every shift of a step."""
    count = 0
    for z in _bit_identity_cases():
        expected, _, _ = vectorized_multisection(z)
        got = la.extreme_eigenvalues(z)
        assert np.array(got).tobytes() == np.array(expected).tobytes(), (z.shape, got, expected)
        count += 1
    assert count == 644


def test_extreme_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        la.extreme_eigenvalues(np.array([[1.0, 2.0], [2.1, 3.0]]))
    # The check is exact, so the same matrix scaled down is still rejected.
    with pytest.raises(ValueError, match="not symmetric"):
        la.extreme_eigenvalues(1e-20 * np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(ValueError, match="square"):
        la.extreme_eigenvalues(np.ones((2, 3)))


def test_extreme_eigenvalues_validates_once(monkeypatch):
    # One as_matrix call, the one inside symmetrize, before the scale.
    calls = []
    as_matrix = la.as_matrix

    def counting_as_matrix(a):
        calls.append(None)
        return as_matrix(a)

    monkeypatch.setattr(la, "as_matrix", counting_as_matrix)
    assert la.extreme_eigenvalues(np.diag([3.0, 1.0])) == (1.0, 3.0)
    assert len(calls) == 1


def test_entrywise_below_spectral():
    for seed in (12, 13):
        z = _random_spd(5, seed)
        e = np.eye(5) - z / float(np.abs(z).sum(axis=1).max())
        e = la.symmetrize(e)
        low, high = la.extreme_eigenvalues(e)
        assert float(np.abs(e).max()) <= max(-low, high) * (1 + 1e-12)


def test_spectral_norm_of_rescaled_residual():
    """I - alpha0*Z has spectrum -+(kappa-1)/(kappa+1) at its ends by construction."""
    kappa = 24.0
    _, z = more_toraldo(8, kappa, 777)
    a = z * scale_factor(z, ScaleFactorKind.OPTIMAL, (1.0, kappa))
    resid = la.symmetrize(np.eye(8) - a)
    expected = (kappa - 1.0) / (kappa + 1.0)
    low, high = la.extreme_eigenvalues(resid)
    assert abs(low + expected) < 1e-8
    assert abs(high - expected) < 1e-8
