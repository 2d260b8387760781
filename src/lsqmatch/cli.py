"""Command-line front end: matrix generation, matching, and benchmark suites.

Exit codes: 0 on success, 1 on any error, 2 when ``--check`` was passed and
an acceptance check failed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench
from .generate import more_toraldo, uniform_pattern
from .inverter import EPSILON, ScaleFactorKind
from .matching import SCALE_KIND, solve_transform
from .matio import format_matrix, load_matrix, open_ascii, save_matrix

_ALPHA_TOKENS = [k.value for k in ScaleFactorKind]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsqmatch",
        description="Least-squares pattern matching via an iterative recurrent inverter.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    # --- gen -------------------------------------------------------------
    gen = top.add_parser("gen", help="generate seeded test matrices")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    gen_mt = gen_sub.add_parser(
        "mt", help="conditioned square pattern X; X'X has condition number kappa"
    )
    gen_mt.add_argument("--n", type=int, required=True, help="matrix size (at least 2)")
    gen_mt.add_argument("--kappa", type=float, required=True, help="condition number (at least 1)")
    gen_mt.add_argument("--seed", type=int, default=42)
    gen_mt.add_argument("--out", required=True, help="output path (matrix text format)")

    gen_uni = gen_sub.add_parser("uniform", help="uniform pattern matrix, entries in [-1, 1]")
    gen_uni.add_argument("--m", type=int, required=True, help="rows (at least n)")
    gen_uni.add_argument("--n", type=int, required=True, help="columns")
    gen_uni.add_argument("--seed", type=int, default=42)
    gen_uni.add_argument("--out", required=True, help="output path (matrix text format)")

    # --- solve -----------------------------------------------------------
    solve = top.add_parser(
        "solve",
        help="solve min ||X T - M|| and print T to stdout, diagnostics to stderr",
    )
    solve.add_argument("--x", required=True, help="source pattern file")
    solve.add_argument("--m", required=True, help="target pattern file")
    solve.add_argument("--alpha", choices=_ALPHA_TOKENS, default=SCALE_KIND.value)
    solve.add_argument("--eps", type=float, default=EPSILON)

    # --- bench -----------------------------------------------------------
    bench_p = top.add_parser("bench", help="benchmark suites and law fits")
    bench_sub = bench_p.add_subparsers(dest="suite", required=True)

    for suite, help_text in (
        ("mt", "conditioned-matrix iteration counts"),
        ("table1", "uniform-pattern size-grid counts"),
    ):
        suite_p = bench_sub.add_parser(suite, help=help_text)
        suite_p.add_argument("--trials", type=int, default=bench.DEFAULT_TRIALS)
        suite_p.add_argument("--seed", type=int, default=42)
        suite_p.add_argument("--out", required=True)
        suite_p.add_argument("--format", choices=["csv", "json"], default="csv")
        suite_p.add_argument(
            "--check", action="store_true", help="exit 2 if any trial failed to converge"
        )

    bench_fit = bench_sub.add_parser("fit", help="fit iteration-count laws to a records CSV")
    bench_fit.add_argument("--in", dest="infile", required=True, help="records CSV from bench mt")
    bench_fit.add_argument("--out", required=True)
    bench_fit.add_argument("--format", choices=["csv", "json"], default="csv")
    bench_fit.add_argument(
        "--check", action="store_true", help="exit 2 if law deviations exceed tolerance"
    )

    return parser


def _cmd_gen(args) -> int:
    if args.family == "mt":
        x = more_toraldo(args.n, args.kappa, args.seed)
    else:
        x = uniform_pattern(args.m, args.n, args.seed)
    save_matrix(args.out, x)
    return 0


def _cmd_solve(args) -> int:
    x = load_matrix(args.x)
    m = load_matrix(args.m)
    result = solve_transform(x, m, scale_kind=ScaleFactorKind(args.alpha), epsilon=args.eps)
    sys.stdout.write(format_matrix(result.transform))
    sys.stderr.write(
        f"iterations={result.inversion.iterations} ops={result.op_count} "
        f"est_ms={result.est_time_ms!r} distance={result.distance!r}\n"
    )
    return 0


def _check_writable(path: str) -> None:
    """Refuse ``path`` before a suite runs if it cannot be opened for writing; create nothing."""
    parent = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else parent
    if (
        not os.path.basename(path)
        or os.path.isdir(path)
        or not os.path.isdir(parent)
        or not os.access(target, os.W_OK)
    ):
        raise OSError(f"cannot write {path}: not a writable file path")


def _cmd_bench(args) -> int:
    if args.suite == "fit":
        with open_ascii(args.infile) as fh:
            records = bench.RECORDS.parse_csv(fh.read())
        fits = bench.fit_laws(records)
        bench.FITS.write(fits, args.out, args.format)
        problems = bench.check_fits(fits) + bench.check_records(records)
    else:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        _check_writable(args.out)
        run = bench.run_mt_suite if args.suite == "mt" else bench.run_table1_suite
        records = run(trials_per_cell=args.trials, seed=args.seed)
        bench.RECORDS.write(records, args.out, args.format)
        if args.suite == "table1":
            for cell in bench.summarize_cells(records):
                sys.stderr.write(
                    f"cell n={cell.n} m={cell.m} alpha={cell.scale_kind.value}: "
                    f"mean={cell.mean_iterations:.3f} sd={cell.sd_iterations:.3f} "
                    f"trials={cell.trials}\n"
                )
        problems = bench.check_records(records)

    if args.check and problems:
        for p in problems:
            sys.stderr.write(f"check failed: {p}\n")
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_bench(args)
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
