"""End-to-end acceptance checks for the package.

There are ten numbered checks; each test function below is one of them, so a
verbose pytest run prints one pass/fail line per check.  Tolerances are pinned
in the assertions.  All randomness is seeded, so reruns are bit-identical.
"""

import hashlib
import math
import time

import numpy as np
from oracles import (
    gaussian_solve,
    iterate_to,
    mix64,
    neumann_partial_sum,
    rescaled_test_matrix,
    spectral_norm,
)

from lsqmatch.bench import RECORDS
from lsqmatch.cli import main as cli_main
from lsqmatch.generate import derive_seed, more_toraldo, uniform_pattern
from lsqmatch.inverter import ScaleFactorKind, invert, scale_factor
from lsqmatch.linalg import gram
from lsqmatch.matching import estimate_time_ms, op_count, solve_transform

LAW_GRID = [(n, float(2**k)) for n in (16, 64) for k in (6, 10, 20)]
TRIALS = 10
#: Stopping threshold of the law checks (``inverter.EPSILON``, the default).
LAW_EPSILON = 1e-6


def _conditioned_matrix(n, kappa, seed):
    _, z = more_toraldo(n, kappa, seed)
    return z


def _law_counts(kind):
    """Per-cell iteration counts and reference-law value for one scale kind."""
    cells = []
    for n, kappa in LAW_GRID:
        counts = []
        for trial in range(TRIALS):
            z = _conditioned_matrix(n, kappa, derive_seed(42, trial))
            if kind is ScaleFactorKind.OPTIMAL:
                law = math.log2(kappa) + 3.0
            elif kind is ScaleFactorKind.TRACE:
                law = math.log2(kappa) + math.log2(n) + 1.0
            else:
                law = math.log2(kappa) + math.log2(n) / 3.0
            report = invert(z * scale_factor(z, kind, (1.0, kappa)))
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
            report = invert(z * scale_factor(z, kind))
            assert report.converged
            counts.append(report.iterations)
        mean = sum(counts) / len(counts)
        assert abs(mean - target) <= tol, (
            f"cell n={n} m={m} alpha={kind.value}: mean {mean} not in {target}+-{tol}"
        )


def test_criterion_05_cost_model():
    """A 4-iteration converged pipeline reports 15 operations and 75.0 ms exactly."""
    assert op_count(4) == 15
    assert estimate_time_ms(15) == 75.0

    x, _ = more_toraldo(2, 2.0, derive_seed(5, 0))
    m = uniform_pattern(2, 2, derive_seed(5, 1))
    result = solve_transform(x, m, scale_kind=ScaleFactorKind.OPTIMAL)
    assert result.inversion.converged
    assert result.inversion.iterations == 4
    assert result.op_count == 15
    assert result.est_time_ms == 75.0


def test_criterion_06_partial_sum_oracle():
    """Process iterates match truncated geometric-series sums within 1e-10 entrywise."""
    for index in range(20):
        a, _ = rescaled_test_matrix(index)
        w = np.linalg.eigvalsh(a)
        assert w[0] > 0.0
        assert w[-1] < 2.0
        for t in (1, 2, 3, 4, 5):
            vt = iterate_to(a, t)
            oracle = neumann_partial_sum(a, t)
            assert np.abs(vt - oracle).max() < 1e-10


def test_criterion_07_residual_contraction_law():
    """Spectral residuals follow contraction^(2^t) and stops respect the bound."""
    for index in range(20):
        a, kappa = rescaled_test_matrix(index)
        contraction = (kappa - 1.0) / (kappa + 1.0)
        report = invert(a, epsilon=1e-6)
        assert report.converged
        identity = np.eye(a.shape[0])
        for t in range(report.iterations + 1):
            resid = identity - iterate_to(a, t) @ a
            if np.abs(resid).max() < 1e-6:
                break
            observed = spectral_norm(resid)
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
        alpha0 = scale_factor(z, ScaleFactorKind.OPTIMAL, (float(w[0]), float(w[-1])))
        alpha1 = scale_factor(z, ScaleFactorKind.TRACE)
        alpha2 = scale_factor(z, ScaleFactorKind.GERSHGORIN)
        assert alpha1 <= alpha0 * (1.0 + 1e-12)
        assert alpha2 <= alpha0 * (1.0 + 1e-12)
        if n == 2:
            assert abs(alpha1 - alpha0) <= 1e-12 * alpha0


def test_criterion_09_solver_vs_elimination_oracle():
    """solve_transform matches a pivoted elimination solve of the normal equations."""
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
        result = solve_transform(x, m, epsilon=1e-10)
        oracle = gaussian_solve(gram(x), x.T @ m)
        assert np.abs(result.transform - oracle).max() < 1e-6
        if i % 2 == 0:
            target_norm = math.sqrt(float((m * m).sum()))
            assert result.distance < 1e-4 * target_norm


#: SHA-256 of the CSV that ``bench <suite> --trials 1 --seed 42`` writes, per
#: suite, recorded with numpy 2.4.6 and its bundled OpenBLAS on x86-64.
TRIALS1_SEED42_SHA256 = {
    "table1": "71583b6de3f091bc99a9415018948f8b2675073fdf2431044b7c7794ca0db739",
    "mt": "43aaf8eb00d2aac072fbfa16ad5e8418e36d89b59d9b1c9fbfee149dfd7efa65",
}

#: SHA-256 of the CSV of the default ``bench mt --seed 42`` run (the
#: ``mt_records`` fixture), recorded as above.
MT_SEED42_SHA256 = "a35223687880c17f0aaf0012374db22341afae56abd074dbf304ed417344d311"


def _assert_recorded_digest(tmp_path, suite):
    out = tmp_path / f"{suite}.csv"
    assert cli_main(["bench", suite, "--trials", "1", "--seed", "42", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRIALS1_SEED42_SHA256[suite]


def test_table1_records_match_recorded_digest(tmp_path):
    """``bench table1 --trials 1 --seed 42`` writes the same bytes as recorded.

    This pins the records across changes to the code, so that a speed-up
    cannot move an output bit unnoticed.  A change that alters output bits on
    purpose updates the digest and says why in CHANGES.md.
    """
    _assert_recorded_digest(tmp_path, "table1")


def test_mt_records_match_recorded_digest(tmp_path):
    """``bench mt --trials 1 --seed 42`` writes the same bytes as recorded (as above)."""
    _assert_recorded_digest(tmp_path, "mt")


def test_criterion_10_benchmark_determinism(mt_records):
    """The default ``bench mt --seed 42`` run emits the recorded CSV bytes.

    The run is the session's shared ``mt_records``, written as the CLI writes
    it (``test_parser_defaults`` pins the CLI's default trials and seed, and
    the digest tests above its write path).  Any rerun with the same seed
    must give these bytes, so a changed count, kappa or seed fails.
    """
    text = RECORDS.to_csv(mt_records)
    assert text.splitlines()[0] == "family,n,m,kappa,alpha,iterations,converged,seed"
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == MT_SEED42_SHA256
