import numpy as np

import lsqmatch.bench as bench
from lsqmatch.cli import build_parser, main
from lsqmatch.generate import MoreToraldoSpec, more_toraldo, uniform_pattern
from lsqmatch.matio import format_matrix, load_matrix, parse_matrix, save_matrix


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "gen" in out and "solve" in out and "bench" in out


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_parser_defaults():
    args = build_parser().parse_args(
        ["solve", "--x", "a.txt", "--m", "b.txt"]
    )
    assert args.alpha == "alpha2"
    assert args.eps == 1e-6
    assert args.max_iter == 200
    assert args.ms_per_op == 5.0


def test_gen_mt_matches_library(tmp_path):
    out = tmp_path / "z.txt"
    rc = main(["gen", "mt", "--n", "6", "--kappa", "32", "--seed", "9", "--out", str(out)])
    assert rc == 0
    _, z = more_toraldo(MoreToraldoSpec(6, 32.0), 9)
    assert out.read_text() == format_matrix(z)
    np.testing.assert_array_equal(load_matrix(out), z)


def test_gen_uniform_matches_library(tmp_path):
    out = tmp_path / "x.txt"
    rc = main(["gen", "uniform", "--m", "8", "--n", "3", "--seed", "4", "--out", str(out)])
    assert rc == 0
    np.testing.assert_array_equal(load_matrix(out), uniform_pattern(8, 3, 4))


def test_gen_rejects_bad_kappa(tmp_path, capsys):
    out = tmp_path / "z.txt"
    for kappa in ("0.5", "inf", "nan"):
        rc = main(["gen", "mt", "--n", "4", "--kappa", kappa, "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_solve_recovers_transform(tmp_path, capsys):
    x = uniform_pattern(12, 4, 21)
    t0 = uniform_pattern(4, 4, 22)
    x_path, m_path = tmp_path / "x.txt", tmp_path / "m.txt"
    save_matrix(x_path, x)
    save_matrix(m_path, x @ t0)

    rc = main(
        ["solve", "--x", str(x_path), "--m", str(m_path), "--alpha", "alpha0", "--eps", "1e-10"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    recovered = parse_matrix(captured.out)
    assert np.max(np.abs(recovered - t0)) < 1e-6
    assert captured.err.startswith("iterations=")
    for token in ("ops=", "est_ms=", "distance="):
        assert token in captured.err


def test_solve_diagnostics_match_op_model(tmp_path, capsys):
    x = uniform_pattern(10, 3, 31)
    x_path, m_path = tmp_path / "x.txt", tmp_path / "m.txt"
    save_matrix(x_path, x)
    save_matrix(m_path, uniform_pattern(10, 2, 32))

    assert main(["solve", "--x", str(x_path), "--m", str(m_path), "--ms-per-op", "2.0"]) == 0
    err = capsys.readouterr().err
    fields = dict(part.split("=") for part in err.split())
    iterations = int(fields["iterations"])
    assert int(fields["ops"]) == 2 * iterations + 7
    assert float(fields["est_ms"]) == 2.0 * (2 * iterations + 7)
    assert float(fields["distance"]) >= 0.0

    for bad in ("nan", "inf"):
        rc = main(["solve", "--x", str(x_path), "--m", str(m_path), "--ms-per-op", bad])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ms_per_op must be finite")


def test_solve_singular_system_exits_one(tmp_path, capsys):
    x = uniform_pattern(8, 3, 41)
    x[:, 2] = x[:, 1]  # duplicated column: rank-deficient Gram matrix
    x_path, m_path = tmp_path / "x.txt", tmp_path / "m.txt"
    save_matrix(x_path, x)
    save_matrix(m_path, uniform_pattern(8, 2, 42))

    rc = main(["solve", "--x", str(x_path), "--m", str(m_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_stalled_inversion_exits_one(tmp_path, capsys):
    x = np.array([[1.0], [2.0], [3.0]])
    x_path, m_path = tmp_path / "x.txt", tmp_path / "m.txt"
    save_matrix(x_path, x)
    save_matrix(m_path, 2.0 * x)

    rc = main(["solve", "--x", str(x_path), "--m", str(m_path), "--alpha", "alpha1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inversion stalled under scale factor alpha1")


def test_solve_iteration_cap_exits_one(tmp_path, capsys):
    x_path, m_path = tmp_path / "x.txt", tmp_path / "m.txt"
    save_matrix(x_path, uniform_pattern(64, 8, 1))
    save_matrix(m_path, uniform_pattern(64, 2, 2))

    rc = main(["solve", "--x", str(x_path), "--m", str(m_path), "--max-iter", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inversion hit the iteration cap")
    assert "singular" not in err


def test_solve_missing_file_exits_one(tmp_path, capsys):
    rc = main(["solve", "--x", str(tmp_path / "nope.txt"), "--m", str(tmp_path / "m.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_malformed_matrix_file_exits_one(tmp_path, capsys):
    x_path, m_path = tmp_path / "x.txt", tmp_path / "m.txt"
    x_path.write_text("3 2\n1.0 2.0\n3.0\n5.0 6.0\n")  # short row on line 3
    save_matrix(m_path, uniform_pattern(3, 2, 5))

    rc = main(["solve", "--x", str(x_path), "--m", str(m_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {x_path}: line 3: expected 2 values, got 1\n"

    x_path.write_bytes(b"2 2\n1 2\n3 \xff\n")
    rc = main(["solve", "--x", str(x_path), "--m", str(m_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {x_path}: line 3: non-ASCII byte 0xff\n"


def test_bench_mt_writes_parsable_csv(tmp_path, capsys):
    out = tmp_path / "records.csv"
    rc = main(["bench", "mt", "--trials", "1", "--seed", "3", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    records = bench.RECORDS.parse_csv(out.read_text())
    assert len(records) == 36  # 12 cells x 1 trial x 3 scale factors
    assert all(r.family == "mt" for r in records)


def test_bench_mt_json_format(tmp_path, capsys):
    out = tmp_path / "records.json"
    rc = main(
        ["bench", "mt", "--trials", "1", "--seed", "3", "--out", str(out), "--format", "json"]
    )
    assert rc == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.lstrip().startswith("[")
    assert '"alpha"' in text and '"kappa"' in text


def test_bench_mt_reproducible_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "mt", "--trials", "2", "--seed", "42", "--out", str(a)]) == 0
    assert main(["bench", "mt", "--trials", "2", "--seed", "42", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_bench_table1_prints_cell_summaries(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    rc = main(["bench", "table1", "--trials", "1", "--seed", "2", "--out", str(out)])
    assert rc == 0
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    # 5 sizes x 7 ratios x 2 scale factors
    assert len(err_lines) == 70
    assert all(ln.startswith("cell n=") for ln in err_lines)
    assert "alpha=alpha1" in err_lines[0]
    records = bench.RECORDS.parse_csv(out.read_text())
    assert len(records) == 70


def test_bench_fit_pipeline(tmp_path, capsys):
    records_path, fits_path = tmp_path / "r.csv", tmp_path / "f.csv"
    assert main(["bench", "mt", "--trials", "2", "--seed", "6", "--out", str(records_path)]) == 0
    rc = main(
        ["bench", "fit", "--in", str(records_path), "--out", str(fits_path), "--check"]
    )
    assert rc == 0
    capsys.readouterr()
    fits = bench.FITS.parse_csv(fits_path.read_text())
    assert [f.law for f in fits] == ["N0", "N1", "N2"]
    assert all(f.trials == 24 for f in fits)


def test_bench_fit_check_failure_exits_two(tmp_path, capsys):
    records_path, fits_path = tmp_path / "r.csv", tmp_path / "f.csv"
    doctored = [
        bench.TrialRecord("mt", 16, 16, 64.0, kind, 50, True, trial)
        for trial in range(3)
        for kind in list(bench.ScaleFactorKind)
    ]
    bench.RECORDS.write(doctored, records_path)

    rc = main(["bench", "fit", "--in", str(records_path), "--out", str(fits_path), "--check"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "check failed:" in err
    # the artifact is still written before the check verdict
    assert fits_path.exists()


def test_bench_fit_without_check_ignores_deviation(tmp_path, capsys):
    records_path, fits_path = tmp_path / "r.csv", tmp_path / "f.csv"
    doctored = [bench.TrialRecord("mt", 16, 16, 64.0, bench.ScaleFactorKind.OPTIMAL, 50, True, 0)]
    bench.RECORDS.write(doctored, records_path)
    assert main(["bench", "fit", "--in", str(records_path), "--out", str(fits_path)]) == 0
    capsys.readouterr()


def test_bench_fit_missing_input_exits_one(tmp_path, capsys):
    rc = main(
        ["bench", "fit", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.csv")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bench_fit_bad_field_exits_one(tmp_path, capsys):
    records_path = tmp_path / "r.csv"
    rec = bench.TrialRecord("mt", 16, 16, 64.0, bench.ScaleFactorKind.OPTIMAL, 9, True, 0)
    records_path.write_text(bench.RECORDS.to_csv([rec]).replace(",true,", ",yes,"))
    rc = main(["bench", "fit", "--in", str(records_path), "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data row 1, column 'converged'")
    assert "'yes'" in err

    records_path.write_text(bench.RECORDS.to_csv([rec]).replace(",64.0,", ",nan,"))
    args = ["bench", "fit", "--in", str(records_path), "--out", str(tmp_path / "f.csv")]
    assert main(args + ["--check"]) == 1
    assert capsys.readouterr().err == "error: data row 1: kappa must be at least 1, got nan\n"

    header = bench.RECORDS.header
    for row, message in [
        ("mt,0,0,64.0,alpha1,9,true,7", "need 1 <= n <= m, got n=0, m=0"),
        ("mt,16,16,64.0,alpha0,-5,true,7", "iterations must be nonnegative, got -5"),
        ("mt,16,4,64.0,alpha1,11,true,7", "need 1 <= n <= m, got n=16, m=4"),
        ("mt,16,32,64.0,alpha0,9,true,7", "an mt matrix is square, got n=16, m=32"),
    ]:
        records_path.write_text(f"{header}\n{row}\n")
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: data row 1: {message}\n"
        assert not (tmp_path / "f.csv").exists()


def test_bench_fit_non_ascii_byte_names_file_and_line(tmp_path, capsys):
    records_path, fits_path = tmp_path / "r.csv", tmp_path / "f.csv"
    rec = bench.TrialRecord("mt", 16, 16, 64.0, bench.ScaleFactorKind.OPTIMAL, 9, True, 7)
    text = bench.RECORDS.to_csv([rec]).replace(",7\n", ",\xff7\n")
    records_path.write_bytes(text.encode("latin-1"))
    rc = main(["bench", "fit", "--in", str(records_path), "--out", str(fits_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {records_path}: line 2: non-ASCII byte 0xff\n"
    assert not fits_path.exists()


def test_bench_fit_infinite_kappa_exits_one(tmp_path, capsys):
    records_path, fits_path = tmp_path / "r.csv", tmp_path / "f.csv"
    rec = bench.TrialRecord("mt", 16, 16, 64.0, bench.ScaleFactorKind.OPTIMAL, 9, True, 7)
    records_path.write_text(bench.RECORDS.to_csv([rec]).replace(",64.0,", ",inf,"))
    for check in ([], ["--check"]):
        rc = main(["bench", "fit", "--in", str(records_path), "--out", str(fits_path), *check])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: law fitting needs")
        assert "record 1 has family 'mt', kappa inf" in err
        assert not fits_path.exists()


def test_bench_out_directory_missing_exits_one(tmp_path, capsys):
    rc = main(
        ["bench", "mt", "--trials", "1", "--out", str(tmp_path / "no_dir" / "r.csv")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
