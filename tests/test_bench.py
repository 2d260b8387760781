import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

import lsqmatch.bench as bench
from lsqmatch.generate import derive_seed
from lsqmatch.inverter import ScaleFactorKind


def _rec(**overrides):
    base = dict(
        family="mt",
        n=16,
        m=16,
        kappa=64.0,
        scale_kind=ScaleFactorKind.OPTIMAL,
        iterations=9,
        converged=True,
        seed=7,
    )
    base.update(overrides)
    return bench.TrialRecord(**base)


def test_record_validation():
    with pytest.raises(ValueError, match="family"):
        _rec(family="other")
    with pytest.raises(ValueError, match="kappa"):
        _rec(kappa=0.5)
    with pytest.raises(ValueError, match="kappa"):
        _rec(kappa=math.nan)
    assert _rec(kappa=math.inf).kappa == math.inf  # a singular Gram matrix
    with pytest.raises(ValueError, match="1 <= n <= m"):
        _rec(n=0, m=0)
    with pytest.raises(ValueError, match="1 <= n <= m"):
        _rec(n=16, m=4)
    with pytest.raises(ValueError, match="an mt matrix is square, got n=16, m=32"):
        _rec(n=16, m=32)
    assert _rec(family="uniform", n=16, m=32).m == 32
    with pytest.raises(ValueError, match="iterations"):
        _rec(iterations=-5)
    assert _rec(n=1, m=1, iterations=0).iterations == 0


def test_fit_validation():
    with pytest.raises(ValueError):
        bench.LawFit(law="N0", mean_deviation=0.0, max_abs_deviation=0.0, trials=0)


def test_predicted_iteration_laws():
    assert bench.predicted_iterations("N0", 16, 64.0) == 9.0
    assert bench.predicted_iterations("N1", 16, 64.0) == 11.0
    expect = 6.0 + 4.0 / 3.0 + 2.433
    assert abs(bench.predicted_iterations("N2", 16, 64.0) - expect) < 1e-12


def test_law_lookups_reject_unknown_keys():
    # A kind, None or an unknown token is not a law, and an unknown law has no
    # tolerance: none may fall back to some law's line or to no bound.
    for law in (ScaleFactorKind.OPTIMAL, None, "N9"):
        with pytest.raises(KeyError):
            bench.predicted_iterations(law, 16, 64.0)
    with pytest.raises(KeyError):
        bench.check_fits([bench.LawFit("N9", 100.0, 100.0, 1)])


def test_a_second_law_for_a_kind_is_one_more_entry(monkeypatch):
    """A LAWS entry for a kind that has a law adds one fit, checked by its own tolerance."""
    laws = dict(bench.LAWS)
    laws["N0b"] = ("mt", ScaleFactorKind.OPTIMAL, lambda lk, ln: lk + 2.0, (0.5, math.inf))
    laws["U0"] = ("uniform", ScaleFactorKind.OPTIMAL, lambda lk, ln: 0.0, (0.0, 0.0))  # no match
    monkeypatch.setattr(bench, "LAWS", laws)
    records = [_rec(seed=trial) for trial in range(3)]  # 9 iterations at kappa 64
    fits = {f.law: f for f in bench.fit_laws(records)}
    assert sorted(fits) == ["N0", "N0b"]
    assert fits["N0"] == bench.LawFit("N0", 0.0, 0.0, 3)
    assert fits["N0b"] == bench.LawFit("N0b", 1.0, 1.0, 3)
    assert bench.check_fits([fits["N0"]]) == []
    assert bench.check_fits([fits["N0b"]]) == ["N0b: |mean deviation| 1.000 exceeds 0.5"]


def test_a_law_for_the_uniform_family_fits_its_records(monkeypatch):
    """A family is fitted when a LAWS entry names it, not only the conditioned one."""
    laws = dict(bench.LAWS)
    laws["T1"] = ("uniform", ScaleFactorKind.TRACE, lambda lk, ln: lk + ln, (math.inf, 1.0))
    monkeypatch.setattr(bench, "LAWS", laws)
    record = _rec(family="uniform", n=4, m=8, kappa=16.0, scale_kind=ScaleFactorKind.TRACE,
                  iterations=7)
    assert bench.fit_laws([record]) == [bench.LawFit("T1", 1.0, 1.0, 1)]


def test_mt_suite_single_cell():
    records = bench.run_mt_suite(grid=[(16, 64.0)], trials_per_cell=10, seed=42)
    assert len(records) == 30
    kinds = [r.scale_kind for r in records[:3]]
    assert kinds == list(ScaleFactorKind)
    for r in records:
        assert (r.family, r.n, r.m, r.kappa) == ("mt", 16, 16, 64.0)
        assert r.converged
    # trial seeds come from the derivation chain in generation order
    assert records[0].seed == derive_seed(42, 0)
    assert records[29].seed == derive_seed(42, 9)
    # reference laws hit exactly on this cell
    for r in records:
        if r.scale_kind is ScaleFactorKind.OPTIMAL:
            assert r.iterations == 9
        elif r.scale_kind is ScaleFactorKind.TRACE:
            assert r.iterations == 11
    gersh = [r.iterations for r in records if r.scale_kind is ScaleFactorKind.GERSHGORIN]
    assert abs(np.mean(gersh) - (6.0 + 4.0 / 3.0 + 2.433)) <= 0.7


def test_mt_suite_validation():
    with pytest.raises(ValueError):
        bench.run_mt_suite(grid=[])
    with pytest.raises(ValueError):
        bench.run_mt_suite(grid=[(4, 2.0)], trials_per_cell=0)


def test_table1_suite_small():
    records = bench.run_table1_suite(
        n_values=[4], m_over_n=[2], trials_per_cell=3, seed=11
    )
    assert len(records) == 6
    for r in records:
        assert r.family == "uniform"
        assert (r.n, r.m) == (4, 8)
        assert r.kappa >= 1.0
        assert r.scale_kind in (ScaleFactorKind.TRACE, ScaleFactorKind.GERSHGORIN)
        assert r.converged


def test_table1_suite_records_matrix_without_scale_factor():
    # The first child seed of this run draws exactly 0.0, so the 1x1 Gram
    # matrix is [[0]]: kappa is inf and neither scale factor exists.
    records = bench.run_table1_suite(
        n_values=(1,), m_over_n=(1,), trials_per_cell=1, seed=16394053443022800329
    )
    assert bench.RECORDS.to_csv(records).splitlines()[1:] == [
        "uniform,1,1,inf,alpha1,0,false,3453682501520545093",
        "uniform,1,1,inf,alpha2,0,false,3453682501520545093",
    ]

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(bench.RECORDS.to_json(records), parse_constant=reject)
    assert [row["kappa"] for row in rows] == ["inf", "inf"]


def test_summarize_cells():
    records = [
        _rec(iterations=9),
        _rec(iterations=11),
        _rec(iterations=10, converged=False),
    ]
    cells = bench.summarize_cells(records)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.trials == 2  # non-converged trial excluded
    assert cell.mean_iterations == 10.0
    assert cell.sd_iterations == 1.0


def test_fit_laws_synthetic():
    records = []
    for trial in range(4):
        records.append(_rec(iterations=9, seed=trial))
        records.append(_rec(scale_kind=ScaleFactorKind.TRACE, iterations=12, seed=trial))
    fits = bench.fit_laws(records)
    assert [f.law for f in fits] == ["N0", "N1"]
    assert fits[0].mean_deviation == 0.0
    assert fits[0].max_abs_deviation == 0.0
    assert fits[0].trials == 4
    assert fits[1].mean_deviation == 1.0  # 12 observed vs 11 predicted


def test_fit_laws_excludes_nonconverged():
    records = [_rec(iterations=9), _rec(iterations=200, converged=False)]
    fits = bench.fit_laws(records)
    assert fits[0].trials == 1
    assert fits[0].max_abs_deviation == 0.0


def test_fit_laws_errors():
    with pytest.raises(ValueError, match="empty"):
        bench.fit_laws([])
    with pytest.raises(ValueError, match="family"):
        bench.fit_laws([_rec(family="uniform")])
    with pytest.raises(ValueError, match="needs records of family 'mt' with"):
        bench.fit_laws([_rec(family="uniform")])
    with pytest.raises(ValueError, match="no converged"):
        bench.fit_laws([_rec(converged=False)])
    with pytest.raises(ValueError, match="finite kappa; record 2 has family 'mt', kappa inf"):
        bench.fit_laws([_rec(), _rec(kappa=math.inf, converged=False), _rec()])


_ROUNDTRIP_ITEMS = {
    "records": (
        bench.RECORDS,
        [
            _rec(),
            _rec(scale_kind=ScaleFactorKind.GERSHGORIN, iterations=10, kappa=1048576.0),
            _rec(family="uniform", n=4, m=8, kappa=3.729340029, converged=False, seed=2**63 + 5),
        ],
    ),
    "fits": (
        bench.FITS,
        [
            bench.LawFit("N0", 0.0, 0.0, 120),
            bench.LawFit("N2", 0.09200000000000003, 0.7663333333333355, 120),
        ],
    ),
}


@pytest.mark.parametrize("artifact", sorted(_ROUNDTRIP_ITEMS))
def test_artifact_roundtrip(artifact):
    table, items = _ROUNDTRIP_ITEMS[artifact]
    text = table.to_csv(items)
    lines = text.splitlines()
    assert lines[0] == table.header
    assert len(lines) == len(items) + 1
    assert table.parse_csv(text) == items
    # JSON has one object per item whose keys are the CSV columns, in order,
    # and whose values spell the CSV fields.
    rows = json.loads(table.to_json(items))
    assert len(rows) == len(items)
    for row, line in zip(rows, lines[1:]):
        assert list(row) == table.header.split(",")
        assert ",".join(_csv_text(v) for v in row.values()) == line


def _csv_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class _Row:
    name: str
    count: int
    value: float
    ok: bool
    kind: ScaleFactorKind


def test_column_table_follows_dataclass_fields():
    # Every field becomes a column, in order, written by the codec of its type.
    table = bench.ColumnTable(_Row, {"kind": "alpha"})
    assert table.header == "name,count,value,ok,alpha"
    rows = [
        _Row("a", 3, 0.1, True, ScaleFactorKind.TRACE),
        _Row("b", -1, math.inf, False, ScaleFactorKind.OPTIMAL),
    ]
    text = table.to_csv(rows)
    assert text == "name,count,value,ok,alpha\na,3,0.1,true,alpha1\nb,-1,inf,false,alpha0\n"
    assert table.parse_csv(text) == rows
    assert json.loads(table.to_json(rows)) == [
        {"name": "a", "count": 3, "value": 0.1, "ok": True, "alpha": "alpha1"},
        {"name": "b", "count": -1, "value": "inf", "ok": False, "alpha": "alpha0"},
    ]


def test_artifact_headers():
    assert bench.RECORDS.header == "family,n,m,kappa,alpha,iterations,converged,seed"
    assert bench.FITS.header == "law,mean_dev,max_abs_dev,trials"


def test_csv_parse_errors():
    with pytest.raises(ValueError, match="header"):
        bench.RECORDS.parse_csv("nope\n")
    with pytest.raises(ValueError, match="fields"):
        bench.RECORDS.parse_csv(bench.RECORDS.header + "\nmt,16,16\n")
    with pytest.raises(ValueError, match="header"):
        bench.FITS.parse_csv("law,mean\n")
    good = bench.RECORDS.to_csv([_rec(), _rec()])
    with pytest.raises(ValueError, match="data row 2, column 'converged'"):
        bench.RECORDS.parse_csv(good[: good.rindex("true")] + "yes,7\n")
    with pytest.raises(ValueError, match="data row 1, column 'n'"):
        bench.RECORDS.parse_csv(good.replace("mt,16,", "mt,sixteen,", 1))
    with pytest.raises(
        ValueError, match="data row 1, column 'alpha': 'alpha9' is not a valid ScaleFactorKind"
    ):
        bench.RECORDS.parse_csv(good.replace("alpha0", "alpha9", 1))
    with pytest.raises(ValueError, match="data row 1: unknown family token 'xx'"):
        bench.RECORDS.parse_csv(good.replace("mt,", "xx,", 1))
    header, first, second = good.splitlines()
    with pytest.raises(ValueError, match="data row 2: kappa must be at least 1, got nan"):
        bench.RECORDS.parse_csv("\n".join([header, first, second.replace(",64.0,", ",nan,")]))


def test_emit_csv(tmp_path):
    path = tmp_path / "r.csv"
    bench.RECORDS.write([], path)
    assert path.read_text() == bench.RECORDS.header + "\n"
    bench.RECORDS.write([_rec()], path)
    assert len(path.read_text().splitlines()) == 2
    fits_path = tmp_path / "f.csv"
    bench.FITS.write([bench.LawFit("N1", 0.5, 1.0, 3)], fits_path)
    assert fits_path.read_text().splitlines()[0] == bench.FITS.header
    with pytest.raises(OSError, match="missing"):
        bench.RECORDS.write([], tmp_path / "missing" / "r.csv")


def test_json_mirrors_csv_fields():
    rows = json.loads(bench.RECORDS.to_json([_rec()]))
    assert rows[0] == {
        "family": "mt",
        "n": 16,
        "m": 16,
        "kappa": 64.0,
        "alpha": "alpha0",
        "iterations": 9,
        "converged": True,
        "seed": 7,
    }
    fit_rows = json.loads(bench.FITS.to_json([bench.LawFit("N2", 0.1, 0.5, 9)]))
    assert fit_rows[0] == {"law": "N2", "mean_dev": 0.1, "max_abs_dev": 0.5, "trials": 9}


def test_check_helpers():
    assert bench.check_records([_rec()]) == []
    problems = bench.check_records([_rec(converged=False)])
    assert len(problems) == 1 and "non-converged" in problems[0]
    good = bench.LawFit("N0", 0.0, 1.0, 10)
    bad_max = bench.LawFit("N1", 0.0, 1.5, 10)
    bad_mean = bench.LawFit("N2", 0.8, 5.0, 10)
    assert bench.check_fits([good]) == []
    assert len(bench.check_fits([bad_max])) == 1
    assert len(bench.check_fits([bad_mean])) == 1


def test_suite_reproducibility():
    a = bench.run_mt_suite(grid=[(8, 32.0)], trials_per_cell=3, seed=5)
    b = bench.run_mt_suite(grid=[(8, 32.0)], trials_per_cell=3, seed=5)
    assert a == b
    assert bench.RECORDS.to_csv(a) == bench.RECORDS.to_csv(b)


def test_default_grid_shape(mt_records):
    assert len(bench.DEFAULT_MT_GRID) == 12
    assert len(mt_records) == 360
    assert all(r.converged for r in mt_records)


def test_default_grid_fits_within_tolerance(mt_records):
    fits = {f.law: f for f in bench.fit_laws(mt_records)}
    assert fits["N0"].max_abs_deviation <= 1.0
    assert fits["N1"].max_abs_deviation <= 1.0
    assert abs(fits["N2"].mean_deviation) <= 0.7
    assert bench.check_fits(list(fits.values())) == []


def _mean_by_cell(records):
    by_cell = {}
    for r in records:
        by_cell.setdefault((r.n, r.kappa, r.scale_kind), []).append(r.iterations)
    return {key: float(np.mean(counts)) for key, counts in by_cell.items()}


def test_iterations_nondecreasing_in_condition_number(mt_records):
    means = _mean_by_cell(mt_records)
    ladder = (64.0, 1024.0, 16384.0, 1048576.0)
    for kind in ScaleFactorKind:
        for n in (16, 64, 256):
            row = [means[(n, kappa, kind)] for kappa in ladder]
            for lo, hi in zip(row, row[1:]):
                assert hi >= lo


def test_gershgorin_beats_trace_for_larger_systems(mt_records):
    means = _mean_by_cell(mt_records)
    for n in (16, 64, 256):
        for kappa in (64.0, 1024.0, 16384.0, 1048576.0):
            assert means[(n, kappa, ScaleFactorKind.GERSHGORIN)] <= means[
                (n, kappa, ScaleFactorKind.TRACE)
            ]


def test_table1_rows_nonincreasing_in_width_ratio():
    records = bench.run_table1_suite(seed=42)
    cells = bench.summarize_cells(records)
    for kind in (ScaleFactorKind.TRACE, ScaleFactorKind.GERSHGORIN):
        for n in bench.DEFAULT_TABLE1_SIZES:
            row = sorted(
                (c.m // c.n, c.mean_iterations)
                for c in cells
                if c.scale_kind is kind and c.n == n
            )
            assert len(row) == len(bench.DEFAULT_TABLE1_RATIOS)
            means = [mean for _, mean in row]
            for lo, hi in zip(means, means[1:]):
                assert hi <= lo
