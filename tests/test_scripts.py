"""Smoke tests of the scripts under ``scripts/``: each runs in-process on
the library it imports and prints its final lines."""
import re
import runpy
import sys
from pathlib import Path

from hardy_optim import oracle

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name)] + argv)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_band_study_prints_the_band_per_horizon(monkeypatch, capsys):
    lines = _run_script("band_study.py", [], monkeypatch, capsys)
    bands = [line for line in lines if line.startswith("s_max = ")]
    assert len(bands) == 6
    assert bands[-1].startswith("s_max = 1e+300: ") and "predicted band [0.25" in bands[-1]
    assert any(line.startswith("c_osc ") for line in lines)
    assert any(line.startswith("band ") for line in lines)
    assert not any(line.startswith("c_non") for line in lines)


def test_catalog_report_prints_its_table(monkeypatch, capsys):
    lines = _run_script("catalog_report.py", ["--grid-n", "256"], monkeypatch, capsys)
    assert lines[0].startswith("potential")
    rows = {line[:15].strip(): line[15:].split() for line in lines[1:10]}
    assert list(rows) == ["constant", "power a=0.5", "power a=1", "power a=1.5", "power a=2",
                          "adimurthi m=1", "adimurthi m=2", "ft m=1", "ft m=2"]
    assert all("nan" not in row for row in rows.values())
    assert rows["constant"][0] == "X" and rows["adimurthi m=1"][4] == "band"
    assert lines[-1].startswith("closes only doubly-logarithmically")


def test_cold_start_times_a_log_family_row(monkeypatch, capsys):
    lines = _run_script("cold_start.py", ["--repeat", "1", "--row", "best-constant/log-2"],
                        monkeypatch, capsys)
    assert lines[0].split()[:2] == ["row", "median_ms"]
    name, wall, loaded = lines[1].split()
    assert name == "best-constant/log-2" and float(wall) > 0.0 and loaded == "-"


def test_cold_start_times_a_table_row(monkeypatch, capsys, tmp_path):
    # the 400-node exp(3r) table of shot_profile.py, its CSV in the run's
    # working directory: an exit-0 op whose cell sweeps load scipy.special
    lines = _run_script("cold_start.py", ["--repeat", "1", "--row", "best-constant/table"],
                        monkeypatch, capsys)
    name, wall, *loaded = lines[1].split()
    assert name == "best-constant/table" and float(wall) > 0.0 and "special" in loaded
    cold_start = runpy.run_path(str(SCRIPTS / "cold_start.py"))
    _, codes, loaded = cold_start["fresh_run"]([cold_start["ROWS"]["best-constant/table"]],
                                               tmp_path)
    assert codes == [0] and "scipy.special" in loaded


def test_record_digest_prints_one_digest_per_entry(monkeypatch, capsys):
    lines = _run_script("record_digest.py", [], monkeypatch, capsys)
    digests, names = zip(*(line.split("  ", 1) for line in lines))
    assert len(lines) == 35 and names[0] == "constant" and names[-1] == "total"
    assert "constant A=4e-308" in names and "custom flat rising, r^2 v = 2^-1078" in names
    assert "constant A=1e301" in names and "power_law alpha=1.5 r_max=1e300" in names
    assert "power_law alpha=1 A=1e-30" in names
    assert "adimurthi_log m=3 A=20" in names and "filippas_tertikas_x m=1 A=0.05" in names
    assert "adimurthi_log m=2 A=0" in names and "filippas_tertikas_x m=1 A=0" in names
    assert "power_law alpha=2" in names
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)


def test_fe_profile_prints_each_entry_point_on_the_catalog(monkeypatch, capsys):
    lines = _run_script("fe_profile.py", [], monkeypatch, capsys)
    assert lines[0] == f"lapack: {oracle._lapack().name}"
    assert lines[1].split() == ["entry", "potential", "N", "peak_N", "faults", "dpttrf",
                                "dpttrs", "ms"]
    name, maxrss = lines[-1].split()
    assert name == "ru_maxrss:" and int(maxrss) > 0
    rows = [line.split() for line in lines[2:-1]]
    assert len(rows) == 3 * 11 and [row[0] for row in rows[::11]] == [
        "reduced_rayleigh_min", "weighted_eigen", "lambda_limit"]
    for row in rows:
        peak, faults, factors, solves, ms = map(float, row[-5:])
        n = 4000 if row[0] == "lambda_limit" else 10_000
        assert int(row[-6]) == n and 0.0 < peak < 20.0 and faults >= 0.0 and ms > 0.0
        assert 1 <= factors <= solves
    assert [row[1] for row in rows[10::11]] == ["mean"] * 3


def test_shot_profile_prints_each_table(monkeypatch, capsys):
    lines = _run_script("shot_profile.py", [], monkeypatch, capsys)
    assert lines[0].split() == ["table", "probes", "c_lo", "c_hi", "rel_width", "bessel", "ms"]
    assert lines[5] == ""
    rows = [line.rsplit(None, 6) for line in lines[1:5]]
    assert [row[0] for row in rows] == ["exp(3r)", "r^-1.5", "item 17", "r^-1.9999"]
    for name, probes, c_lo, c_hi, rel_width, bessel, ms in rows:
        assert int(probes) >= 3 and 0.0 < float(c_lo) < float(c_hi) and float(ms) > 0.0
        # a relative bracket: the r^-1.9999 table's was [c, 2c], 100% wide
        width = (float(c_hi) - float(c_lo)) / float(c_lo)
        assert abs(float(rel_width) - width) <= 1e-2 * width and width <= 2.5e-7
    # 2 per segment: r^-1.9999's recessive start lies one segment inside its inner knot
    assert [int(row[5]) for row in rows] == [800, 800, 800, 802]
    assert [int(row[1]) for row in rows] == [7, 3, 7, 3]


def test_shot_profile_prints_one_op_per_rule_kind(monkeypatch, capsys):
    # a best-constant op per rule kind: its Python calls, deterministic,
    # pinned as bounds (a log family's took 86, a power law's 63), and its
    # median time.  A rising cell's answer is read off its tail, unswept:
    # no dearer than a log family's (71 against 51 with a sweep at c = 0).
    # 43 and 52 while the model was four lazily cached properties
    lines = _run_script("shot_profile.py", [], monkeypatch, capsys)
    assert lines[6].split() == ["rule", "potential", "calls", "us"]
    rows = [line.split() for line in lines[7:]]
    assert [row[0] for row in rows] == ["_LevelRule", "_ClosedRule", "_TailRule", "_SweptRule"]
    assert [" ".join(row[1:-2]) for row in rows] == [
        "power_law a=1.1", "adimurthi_log m=2", "power_law a=2.5", "custom"]
    calls = [int(row[-2]) for row in rows]
    assert calls[0] <= 39 and calls[1] <= 46 and calls[2] <= calls[1] < calls[3]
    assert all(float(row[-1]) > 0.0 for row in rows)
