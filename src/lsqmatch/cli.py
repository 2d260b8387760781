"""Command-line front end: matrix generation, matching, and benchmark suites.

Exit codes: 0 on success, 1 on any error, 2 when ``--check`` was passed and
an acceptance check failed.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .generate import MoreToraldoSpec, more_toraldo, uniform_pattern
from .inverter import InversionConfig
from .matching import PipelineConfig, solve_transform
from .matio import format_matrix, load_matrix, save_matrix
from .scaling import ScaleFactorKind

_ALPHA_TOKENS = [k.token for k in ScaleFactorKind]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsqmatch",
        description="Least-squares pattern matching via an iterative recurrent inverter.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    # --- gen -------------------------------------------------------------
    gen = top.add_parser("gen", help="generate seeded test matrices")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    gen_mt = gen_sub.add_parser("mt", help="conditioned SPD matrix with known spectrum")
    gen_mt.add_argument("--n", type=int, required=True, help="matrix size (at least 2)")
    gen_mt.add_argument("--kappa", type=float, required=True, help="condition number (at least 1)")
    gen_mt.add_argument("--seed", type=int, default=42)
    gen_mt.add_argument("--out", required=True, help="output path (matrix text format)")

    gen_uni = gen_sub.add_parser("uniform", help="uniform(-1,1) pattern matrix")
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
    solve.add_argument("--alpha", choices=_ALPHA_TOKENS, default=ScaleFactorKind.GERSHGORIN.token)
    solve.add_argument("--eps", type=float, default=1e-6)
    solve.add_argument("--max-iter", type=int, default=200)
    solve.add_argument("--ms-per-op", type=float, default=5.0)

    # --- bench -----------------------------------------------------------
    bench_p = top.add_parser("bench", help="benchmark suites and law fits")
    bench_sub = bench_p.add_subparsers(dest="suite", required=True)

    bench_mt = bench_sub.add_parser("mt", help="conditioned-matrix iteration counts")
    bench_mt.add_argument("--grid", choices=["default"], default="default")
    bench_mt.add_argument("--trials", type=int, default=bench.DEFAULT_TRIALS)
    bench_mt.add_argument("--eps", type=float, default=1e-6)
    bench_mt.add_argument("--max-iter", type=int, default=200)
    bench_mt.add_argument("--seed", type=int, default=42)
    bench_mt.add_argument("--out", required=True)
    bench_mt.add_argument("--format", choices=["csv", "json"], default="csv")
    bench_mt.add_argument(
        "--check", action="store_true", help="exit 2 if any trial failed to converge"
    )

    bench_t1 = bench_sub.add_parser("table1", help="uniform-pattern size-grid counts")
    bench_t1.add_argument("--trials", type=int, default=bench.DEFAULT_TRIALS)
    bench_t1.add_argument("--eps", type=float, default=1e-6)
    bench_t1.add_argument("--max-iter", type=int, default=200)
    bench_t1.add_argument("--seed", type=int, default=42)
    bench_t1.add_argument("--out", required=True)
    bench_t1.add_argument("--format", choices=["csv", "json"], default="csv")
    bench_t1.add_argument(
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
        _, z = more_toraldo(MoreToraldoSpec(args.n, args.kappa), args.seed)
        save_matrix(args.out, z)
    else:
        save_matrix(args.out, uniform_pattern(args.m, args.n, args.seed))
    return 0


def _cmd_solve(args) -> int:
    x = load_matrix(args.x)
    m = load_matrix(args.m)
    config = PipelineConfig(
        scale_kind=ScaleFactorKind.from_token(args.alpha),
        inversion=InversionConfig(epsilon=args.eps, max_iterations=args.max_iter),
        ms_per_op=args.ms_per_op,
    )
    result = solve_transform(x, m, config)
    sys.stdout.write(format_matrix(result.transform))
    sys.stderr.write(
        f"iterations={result.inversion.iterations} ops={result.op_count} "
        f"est_ms={result.est_time_ms!r} distance={result.distance!r}\n"
    )
    return 0


def _cmd_bench(args) -> int:
    if args.suite == "fit":
        with open(args.infile, "r", encoding="ascii") as fh:
            records = bench.RECORDS.parse_csv(fh.read())
        fits = bench.fit_laws(records)
        bench.FITS.write(fits, args.out, args.format)
        problems = bench.check_fits(fits) + bench.check_records(records)
    else:
        cfg = InversionConfig(epsilon=args.eps, max_iterations=args.max_iter)
        if args.suite == "mt":
            records = bench.run_mt_suite(trials_per_cell=args.trials, cfg=cfg, seed=args.seed)
        else:
            records = bench.run_table1_suite(trials_per_cell=args.trials, cfg=cfg, seed=args.seed)
        bench.RECORDS.write(records, args.out, args.format)
        if args.suite == "table1":
            for cell in bench.summarize_cells(records):
                sys.stderr.write(
                    f"cell n={cell.n} m={cell.m} alpha={cell.scale_kind.token}: "
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
