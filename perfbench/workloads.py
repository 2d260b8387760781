"""The four benchmark workloads: inputs, the timed op, and an untimed check.

Each workload is built once per set-up from the run seed.  ``inputs(i)``
prepares op ``i`` outside the timed region, ``run(inp)`` is the timed call
into one public lsqmatch function, and ``check(inp, out)`` returns ``None``
or a one-line problem.  Checks use oracles other than the code under test:
``numpy.linalg`` (allowed here, never in the library) and closed-form
spectra.  Calls go through module attributes at call time, so the traced run
sees them.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

#: lsqmatch's default stopping threshold on max|I - V A|.
EPS = 1e-6
#: Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53
#: Relative off-diagonal threshold of the eigensolver behind table1's kappa.
EIG_TOL = 1e-12


def _lstsq_bound(x: np.ndarray) -> float:
    """Relative error allowed between the solver's T and a least-squares T_ref.

    The stopping rule max|I - V A| < eps gives ||I - V A||_2 < n eps, hence a
    relative error of at most n eps / (1 - n eps); forming X'X adds the
    normal-equations rounding term n kappa(X)^2 u.
    """
    n = x.shape[1]
    sv = np.linalg.svd(x, compute_uv=False)
    kappa = float(sv[0] / sv[-1])
    return n * EPS / (1.0 - n * EPS) + n * kappa**2 * UNIT_ROUNDOFF


def _relative_error(t: np.ndarray, t_ref: np.ndarray) -> float:
    return float(np.linalg.norm(t - t_ref) / np.linalg.norm(t_ref))


def _pattern_pair(rng: np.random.Generator, rows: int, cols: int, targets: int):
    """Uniform(-1,1) pattern X and target M = X T0 + 1e-3 noise."""
    x = rng.uniform(-1.0, 1.0, (rows, cols))
    t0 = rng.uniform(-1.0, 1.0, (cols, targets))
    return x, x @ t0 + 1e-3 * rng.standard_normal((rows, targets))


class _PoolWorkload:
    """Ops cycle through a pool of distinct seeded (X, M) pairs."""

    POOL = 4
    CYCLE = POOL
    COUNT_OPS = POOL
    SHAPE = (0, 0, 0)

    def __init__(self, lsq, seed: int, workdir: str):
        self.lsq = lsq
        rng = np.random.default_rng(seed)
        self.pairs = [_pattern_pair(rng, *self.SHAPE) for _ in range(self.POOL)]
        self._refs: dict[int, tuple[np.ndarray, float]] = {}

    def inputs(self, i: int) -> int:
        return i % self.POOL

    def _check_transform(self, j: int, t: np.ndarray) -> str | None:
        if j not in self._refs:
            x, m = self.pairs[j]
            self._refs[j] = (np.linalg.lstsq(x, m, rcond=None)[0], _lstsq_bound(x))
        t_ref, bound = self._refs[j]
        if t.shape != t_ref.shape:
            return f"pair {j}: T has shape {t.shape}, expected {t_ref.shape}"
        err = _relative_error(t, t_ref)
        if not err <= bound:
            return f"pair {j}: relative error {err:.3e} exceeds bound {bound:.3e}"
        return None


class CliSolve(_PoolWorkload):
    """``lsqmatch solve --x X --m M`` in-process on files, stdout to a file."""

    SHAPE = (1024, 128, 16)

    def __init__(self, lsq, seed: int, workdir: str):
        super().__init__(lsq, seed, workdir)
        self.files = []
        for j, (x, m) in enumerate(self.pairs):
            xpath = os.path.join(workdir, f"x{j}.txt")
            mpath = os.path.join(workdir, f"m{j}.txt")
            lsq.matio.save_matrix(xpath, x)
            lsq.matio.save_matrix(mpath, m)
            self.files.append((xpath, mpath))
        self.out_path = os.path.join(workdir, "t.txt")
        self.err_path = os.path.join(workdir, "stderr.txt")

    def run(self, j: int) -> int:
        xpath, mpath = self.files[j]
        with open(self.out_path, "w", encoding="ascii") as out, open(
            self.err_path, "w", encoding="ascii"
        ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return self.lsq.cli.main(["solve", "--x", xpath, "--m", mpath])

    def check(self, j: int, code: int) -> str | None:
        if code != 0:
            with open(self.err_path, encoding="ascii") as fh:
                return f"pair {j}: exit code {code}: {fh.read().strip()}"
        with open(self.out_path, encoding="ascii") as fh:
            header = fh.readline().split()
            t = np.loadtxt(fh, ndmin=2)
        if [int(v) for v in header] != list(t.shape):
            return f"pair {j}: header {header} does not match {t.shape} values"
        return self._check_transform(j, t)


class Solve(_PoolWorkload):
    """``solve_transform(X, M)`` in memory with the default scale factor."""

    SHAPE = (2048, 256, 32)

    def run(self, j: int):
        x, m = self.pairs[j]
        return self.lsq.matching.solve_transform(x, m).transform

    def check(self, j: int, t) -> str | None:
        return self._check_transform(j, np.asarray(t))


def _op_seed(seed: int, i: int) -> int:
    return (seed << 32) + i


class Table1:
    """One Table-1 trial at n=32 per op, m/n cycling through 2 .. 64."""

    N = 32
    RATIOS = (2, 4, 8, 16, 32, 64)
    CYCLE = len(RATIOS)
    COUNT_OPS = 2 * CYCLE

    def __init__(self, lsq, seed: int, workdir: str):
        self.lsq = lsq
        self.seed = seed

    def inputs(self, i: int) -> tuple[int, int]:
        return self.RATIOS[i % self.CYCLE], _op_seed(self.seed, i)

    def run(self, inp):
        ratio, seed = inp
        return self.lsq.bench.run_table1_suite(
            n_values=(self.N,), m_over_n=(ratio,), trials_per_cell=1, seed=seed
        )

    def check(self, inp, records) -> str | None:
        ratio, _ = inp
        if len(records) != 2:
            return f"expected 2 records, got {len(records)}"
        for rec in records:
            if not rec.converged:
                return f"m/n={ratio} seed={rec.seed}: {rec.scale_kind.value} did not converge"
        rec = records[0]
        x = self.lsq.generate.uniform_pattern(rec.m, rec.n, rec.seed)
        w = np.linalg.eigvalsh(x.T @ x)
        kappa = float(w[-1] / w[0])
        # Eigenvalue errors of eps * ||Z|| per eigenvalue, from rounding (u)
        # and from the eigensolver's off-diagonal threshold, become a
        # relative kappa error of about 2 n eps kappa.
        tol = 2.0 * self.N * (UNIT_ROUNDOFF + EIG_TOL) * kappa
        if not abs(rec.kappa - kappa) <= tol * kappa:
            return f"m/n={ratio} seed={rec.seed}: kappa {rec.kappa!r} vs eigvalsh {kappa!r}"
        return None


def _predicted_iterations(alpha: float, ladder: np.ndarray) -> int:
    c = max(abs(1.0 - alpha * ladder[0]), abs(1.0 - alpha * ladder[-1]))
    return math.ceil(math.log2(math.log(EPS) / math.log(c)))


class Mt:
    """One mt trial at n=256 with all three scale factors, kappa cycling."""

    N = 256
    KAPPAS = (2.0**10, 2.0**14, 2.0**20)
    CYCLE = len(KAPPAS)
    COUNT_OPS = 2 * CYCLE

    def __init__(self, lsq, seed: int, workdir: str):
        self.lsq = lsq
        self.seed = seed
        self.predicted = {}
        for kappa in self.KAPPAS:
            ladder = kappa ** (np.arange(self.N) / (self.N - 1))
            self.predicted[kappa] = {
                "alpha0": _predicted_iterations(2.0 / (1.0 + kappa), ladder),
                "alpha1": _predicted_iterations(2.0 / ladder.sum(), ladder),
            }

    def inputs(self, i: int) -> tuple[float, int]:
        return self.KAPPAS[i % self.CYCLE], _op_seed(self.seed, i)

    def run(self, inp):
        kappa, seed = inp
        return self.lsq.bench.run_mt_suite(grid=[(self.N, kappa)], trials_per_cell=1, seed=seed)

    def check(self, inp, records) -> str | None:
        kappa, seed = inp
        if len(records) != 3:
            return f"expected 3 records, got {len(records)}"
        for rec in records:
            token = rec.scale_kind.value
            if not rec.converged:
                return f"kappa={kappa:g} seed={seed}: {token} did not converge"
            want = self.predicted[kappa].get(token)
            if want is not None and abs(rec.iterations - want) > 1:
                return (
                    f"kappa={kappa:g} seed={seed}: {token} took {rec.iterations} "
                    f"iterations, closed form predicts {want}"
                )
        return None


WORKLOADS = {"cli-solve": CliSolve, "solve": Solve, "table1": Table1, "mt": Mt}
