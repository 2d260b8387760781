"""End-to-end acceptance checks for the package.

There are ten numbered checks; each test function below is one of them, so a
verbose pytest run prints one pass/fail line per check.  Tolerances are pinned
in the assertions.  All randomness is seeded, so reruns are bit-identical.
"""

import math
import time

import numpy as np
from oracles import neumann_partial_sum

from lsqmatch.cli import main as cli_main
from lsqmatch.generate import MoreToraldoSpec, derive_seed, mix64, more_toraldo, uniform_pattern
from lsqmatch.inverter import InversionConfig, invert
from lsqmatch.linalg import gram
from lsqmatch.matching import PipelineConfig, estimate_time_ms, op_count, solve_transform
from lsqmatch.scaling import (
    ScaleFactorKind,
    alpha_gershgorin_value,
    alpha_optimal_bounds,
    alpha_trace_value,
    rescale,
)

LAW_GRID = [(n, float(2**k)) for n in (16, 64) for k in (6, 10, 20)]
TRIALS = 10
#: Stopping threshold of the law checks (the ``InversionConfig`` default).
LAW_EPSILON = 1e-6


def _conditioned_matrix(n, kappa, seed):
    _, z = more_toraldo(MoreToraldoSpec(n, kappa), seed)
    return z


def _law_counts(kind):
    """Per-cell iteration counts and reference-law value for one scale kind."""
    cells = []
    for n, kappa in LAW_GRID:
        counts = []
        for trial in range(TRIALS):
            z = _conditioned_matrix(n, kappa, derive_seed(42, trial))
            if kind is ScaleFactorKind.OPTIMAL:
                alpha = alpha_optimal_bounds(1.0, kappa)
                law = math.log2(kappa) + 3.0
            elif kind is ScaleFactorKind.TRACE:
                alpha = alpha_trace_value(z)
                law = math.log2(kappa) + math.log2(n) + 1.0
            else:
                alpha = alpha_gershgorin_value(z)
                law = math.log2(kappa) + math.log2(n) / 3.0
            report = invert(rescale(z, alpha))
            assert report.converged
            counts.append(report.iterations)
        cells.append((n, kappa, law, counts))
    return cells


def _law_deviations(kind):
    """Per-cell iteration-count deviations from the reference law for one scale kind."""
    return [(n, kappa, [c - law for c in counts]) for n, kappa, law, counts in _law_counts(kind)]


def _threshold_count(contraction, epsilon):
    """Plain-Python count ceil(log2(ln eps / ln c)), clamped at 0, for c in [0, 1)."""
    if contraction == 0.0:
        return 0
    return max(0, math.ceil(math.log2(math.log(epsilon) / math.log(contraction))))


def _ladder_trace_contraction(n, kappa):
    """Closed-form max|1 - 2 lambda_i / sum_j lambda_j| over the ladder kappa^(i/(n-1))."""
    ladder = [kappa ** (i / (n - 1)) for i in range(n)]
    total = math.fsum(ladder)
    return max(abs(1.0 - 2.0 * lam / total) for lam in ladder)


def test_criterion_01_optimal_scale_law():
    """Optimal-scale iteration counts equal log2(kappa) + 3, cell means within 0.2."""
    start = time.monotonic()
    for n, kappa, devs in _law_deviations(ScaleFactorKind.OPTIMAL):
        for dev in devs:
            assert abs(dev) <= 1.0, f"trial deviation {dev} at n={n} kappa={kappa}"
        mean = sum(devs) / len(devs)
        assert abs(mean) <= 0.2, f"mean deviation {mean} at n={n} kappa={kappa}"
    assert time.monotonic() - start < 60.0


def test_criterion_02_trace_scale_law():
    """Trace-scale iteration counts follow the logarithmic law in kappa and n.

    The conditioned matrices have the closed-form spectrum kappa^(i/(n-1)), so
    under alpha1 = 2/trace the contraction c = max|1 - 2 lambda_i / trace| is
    known exactly, and every trial must stop at ceil(log2(ln eps / ln c)).
    Each count also stays at or below the paper's "at most" bound
    log2|ln eps| + log2(kappa) + log2(n) - 1, and within +-1 of the paper's
    line log2(kappa) + log2(n) + 1.  The line drops the kappa-dependent term
    log2(trace / (kappa n)), which moves from about -2.0 to -3.7 over this
    grid, so at kappa = 2^20 the exact count sits one below the line: the line
    is held to the per-trial +-1 only, with no bound on the cell mean.
    """
    for n, kappa, law, counts in _law_counts(ScaleFactorKind.TRACE):
        contraction = _ladder_trace_contraction(n, kappa)
        predicted = _threshold_count(contraction, LAW_EPSILON)
        bound = math.log2(abs(math.log(LAW_EPSILON))) + math.log2(kappa) + math.log2(n) - 1.0
        ceiling = math.ceil(bound)
        cell = f"n={n} kappa={kappa}"
        for count in counts:
            assert count == predicted, f"count {count} != predicted {predicted} at {cell}"
            assert abs(count - law) <= 1.0, f"trial deviation {count - law} at {cell}"
            assert count <= ceiling, f"count {count} above bound {ceiling} at {cell}"


def test_criterion_03_row_sum_scale_constant():
    """Row-sum-scale counts minus log2(kappa) + log2(n)/3 average to 2.433 within 0.7."""
    all_devs = []
    for _, _, devs in _law_deviations(ScaleFactorKind.GERSHGORIN):
        all_devs.extend(devs)
    mean = sum(all_devs) / len(all_devs)
    assert abs(mean - 2.433) <= 0.7, f"additive constant came out {mean}"


def test_criterion_04_size_grid_spot_cells():
    """Mean iteration counts for four uniform-pattern spot cells sit in pinned windows."""
    spots = [
        (16, 128, ScaleFactorKind.TRACE, 8.0, 1.0),
        (16, 128, ScaleFactorKind.GERSHGORIN, 5.8, 1.0),
        (8, 512, ScaleFactorKind.GERSHGORIN, 4.0, 1.0),
        (4, 4, ScaleFactorKind.GERSHGORIN, 10.9, 3.5),
    ]
    for n, m, kind, target, tol in spots:
        counts = []
        for trial in range(TRIALS):
            z = gram(uniform_pattern(m, n, derive_seed(123, trial)))
            if kind is ScaleFactorKind.TRACE:
                alpha = alpha_trace_value(z)
            else:
                alpha = alpha_gershgorin_value(z)
            report = invert(rescale(z, alpha))
            assert report.converged
            counts.append(report.iterations)
        mean = sum(counts) / len(counts)
        assert abs(mean - target) <= tol, (
            f"cell n={n} m={m} alpha={kind.token}: mean {mean} not in {target}+-{tol}"
        )


def test_criterion_05_cost_model():
    """A 4-iteration converged pipeline reports 15 operations and 75.0 ms exactly."""
    assert op_count(4) == 15
    assert estimate_time_ms(15) == 75.0

    x, _ = more_toraldo(MoreToraldoSpec(2, 2.0), derive_seed(5, 0))
    m = uniform_pattern(2, 2, derive_seed(5, 1))
    result = solve_transform(x, m, PipelineConfig(scale_kind=ScaleFactorKind.OPTIMAL))
    assert result.inversion.converged
    assert result.inversion.iterations == 4
    assert result.op_count == 15
    assert result.est_time_ms == 75.0


def _rescaled_test_matrix(index):
    """Small SPD matrix rescaled so its spectrum sits strictly inside (0, 2)."""
    n = 2 + (mix64(index) % 7)
    u = ((mix64(index + 100) >> 11) + 0.5) * 2.0**-53
    kappa = 2.0 + 18.0 * u
    z = _conditioned_matrix(int(n), kappa, derive_seed(9, index))
    return rescale(z, 2.0 / (1.0 + kappa)), kappa


def _iterate_to(a, t):
    """The process iterate after exactly t update steps (identity at t = 0)."""
    if t == 0:
        return np.eye(a.shape[0])
    cfg = InversionConfig(epsilon=1e-300, max_iterations=t)
    return invert(a, cfg).inverse


def test_criterion_06_partial_sum_oracle():
    """Process iterates match truncated geometric-series sums within 1e-10 entrywise."""
    for index in range(20):
        a, _ = _rescaled_test_matrix(index)
        w = np.linalg.eigvalsh(a)
        assert w[0] > 0.0
        assert w[-1] < 2.0
        for t in (1, 2, 3, 4, 5):
            vt = _iterate_to(a, t)
            oracle = neumann_partial_sum(a, t)
            assert np.abs(vt - oracle).max() < 1e-10


def test_criterion_07_residual_contraction_law():
    """Spectral residuals follow contraction^(2^t) and stops respect the bound."""
    for index in range(20):
        a, kappa = _rescaled_test_matrix(index)
        contraction = (kappa - 1.0) / (kappa + 1.0)
        report = invert(a, InversionConfig(epsilon=1e-6, max_iterations=200))
        assert report.converged
        identity = np.eye(a.shape[0])
        for t in range(report.iterations + 1):
            resid = identity - _iterate_to(a, t) @ a
            if np.abs(resid).max() < 1e-6:
                break
            observed = float(np.abs(np.linalg.eigvalsh((resid + resid.T) * 0.5)).max())
            expected = contraction ** (2.0**t)
            assert abs(observed - expected) <= 1e-8 * expected
        assert report.iterations <= _threshold_count(contraction, 1e-6)


def test_criterion_08_scale_factor_ordering():
    """Computable scale factors never exceed the optimal one; trace matches it at n=2."""
    for s in range(100):
        n = (2, 8, 32)[s % 3]
        if s % 2 == 0:
            u = ((mix64(s + 500) >> 11) + 0.5) * 2.0**-53
            kappa = 1.0 + 1000.0 * u
            z = _conditioned_matrix(n, kappa, derive_seed(11, s))
        else:
            rows = n * (1 + (mix64(s + 900) % 8))
            z = gram(uniform_pattern(rows, n, derive_seed(13, s)))
        w = np.linalg.eigvalsh(z)
        alpha0 = alpha_optimal_bounds(float(w[0]), float(w[-1]))
        alpha1 = alpha_trace_value(z)
        alpha2 = alpha_gershgorin_value(z)
        assert alpha1 <= alpha0 * (1.0 + 1e-12)
        assert alpha2 <= alpha0 * (1.0 + 1e-12)
        if n == 2:
            assert abs(alpha1 - alpha0) <= 1e-12 * alpha0


def _gaussian_solve(a, b):
    """Dense solve of a x = b by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular matrix in elimination oracle")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def test_criterion_09_solver_vs_elimination_oracle():
    """solve_transform matches a pivoted elimination solve of the normal equations."""
    config = PipelineConfig(inversion=InversionConfig(epsilon=1e-10, max_iterations=200))
    for i in range(50):
        n = (4, 8)[i % 2]
        ratio = (2, 8)[(i // 2) % 2]
        rows = ratio * n
        x = uniform_pattern(rows, n, derive_seed(17, 2 * i))
        if i % 2 == 0:
            t0 = uniform_pattern(n, n, derive_seed(17, 2 * i + 1))
            m = x @ t0
        else:
            m = uniform_pattern(rows, 3, derive_seed(17, 2 * i + 1))
        result = solve_transform(x, m, config)
        oracle = _gaussian_solve(gram(x), x.T @ m)
        assert np.abs(result.transform - oracle).max() < 1e-6
        if i % 2 == 0:
            target_norm = math.sqrt(float((m * m).sum()))
            assert result.distance < 1e-4 * target_norm


def test_criterion_10_benchmark_determinism(tmp_path):
    """Two benchmark runs with the same seed emit byte-identical CSV."""
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["bench", "mt", "--seed", "42", "--out", str(first)]) == 0
    assert cli_main(["bench", "mt", "--seed", "42", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0] == "family,n,m,kappa,alpha,iterations,converged,seed"
