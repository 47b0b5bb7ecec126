import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardy_optim.cli import main
from hardy_optim.config import KEYS, format_record, load_config, parse_record
from hardy_optim.errors import ConfigError

from conftest import Z0, Z0_SQ


def _write_config(tmp_path, name="run.ini", potential=None, **sections):
    lines = ["[potential]"]
    for key, val in (potential or {"kind": "constant", "amplitude": "1.0",
                                   "r_max": "1.0"}).items():
        lines.append(f"{key} = {val}")
    for section, mapping in sections.items():
        if mapping:
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in mapping.items())
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_best_constant_record(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code, out = _run(capsys, "best-constant", "--config", cfg)
    assert code == 0
    rec = parse_record(out)
    assert rec["status"] == "converged"
    assert float(rec["c_best"]) == pytest.approx(Z0_SQ, abs=1e-4)


def test_best_constant_no_upper_bracket(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "constant", "amplitude": "0.0"})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    assert code == 2
    rec = parse_record(out)
    assert rec["status"] == "NoUpperBracket"


def test_best_constant_band_exit(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "1"})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    assert code == 2
    rec = parse_record(out)
    assert rec["status"] == "indeterminate_band"
    assert float(rec["c_best"]) == pytest.approx(0.25, abs=1e-5)


def test_best_constant_on_a_constant_past_the_saturation_of_value(tmp_path, capsys):
    # v(R) once saturated at 1e300: the record was a converged bracket around
    # 5.78e-300, ten times c(V), and feasible --c 1e-300 said true
    cfg = _write_config(tmp_path, potential={"kind": "constant", "amplitude": "1e301"})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    rec = parse_record(out)
    assert code == 0 and rec["status"] == "converged" and rec["iterations"] == "3"
    assert float(rec["c_lo"]) < 5.7831859629467845e-301 < float(rec["c_hi"])
    assert float(rec["c_hi"]) / float(rec["c_lo"]) - 1.0 < 3e-7
    code, out = _run(capsys, "feasible", "--c", "1e-300", "--config", cfg)
    assert code == 0 and parse_record(out)["feasible"] == "false"


@pytest.mark.parametrize("m", ["4", "5"])
def test_tower_past_the_float_range_is_a_config_error_naming_m(tmp_path, capsys, m):
    # the record read "[potential] math range error"
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": m})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    rec = parse_record(out)
    assert code == 1 and rec["type"] == "ConfigError"
    assert f"m = {m}:" in rec["message"] and "exceeds the largest float" in rec["message"]


def test_malformed_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "nonsense"})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    assert code == 1
    rec = parse_record(out)
    assert rec["type"] == "ConfigError"


def test_missing_config_file(tmp_path, capsys):
    code, out = _run(capsys, "best-constant", "--config", str(tmp_path / "absent.ini"))
    assert code == 1


def test_feasible_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code, out = _run(capsys, "feasible", "--c", "5.0", "--config", cfg)
    assert code == 0 and parse_record(out)["feasible"] == "true"
    code, out = _run(capsys, "feasible", "--c", "6.0", "--config", cfg)
    assert code == 0 and parse_record(out)["feasible"] == "false"


def test_feasible_oscillation_certificate_at_huge_multiplier(tmp_path, capsys):
    # the certificate decides alone; no evidence sweep runs after it
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "1"})
    code, out = _run(capsys, "feasible", "--c", "1e80", "--config", cfg)
    rec = parse_record(out)
    assert code == 0
    assert (rec["feasible"], rec["method"]) == ("false", "oscillation-certificate")
    assert (rec["status"], rec["first_zero"]) == ("ZeroFound", "none")


def test_feasible_indeterminate(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "1"},
                        solver={"s_max": "1e4"})
    code, out = _run(capsys, "feasible", "--c", "0.35", "--config", cfg)
    assert code == 2
    assert parse_record(out)["status"] == "IndeterminateAtHorizon"


def test_classify_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "power_law", "alpha": "2.0"})
    code, out = _run(capsys, "classify", "--config", cfg)
    assert code == 0
    assert parse_record(out)["label"] == "Y"
    cfg = _write_config(tmp_path, potential={"kind": "power_law", "alpha": "1.0"})
    _, out = _run(capsys, "classify", "--config", cfg)
    assert parse_record(out)["label"] == "X"


@pytest.mark.parametrize("potential", [
    {"kind": "constant", "amplitude": "0"}, {"kind": "power_law", "alpha": "2.5", "amplitude": "0"},
    {"kind": "adimurthi_log", "m": "2", "amplitude": "0"},
    {"kind": "filippas_tertikas_x", "m": "1", "amplitude": "0"}],
    ids=["constant", "power_law alpha=2.5", "adimurthi_log m=2", "filippas_tertikas_x m=1"])
def test_classify_at_amplitude_zero_reads_a_limit_of_zero(tmp_path, capsys, potential):
    # v = 0 gives L = 0 on every kind; the log families printed -0, the
    # negated gamma = 0 of an Euler edge at amplitude 0
    code, out = _run(capsys, "classify", "--config", _write_config(tmp_path, potential=potential))
    assert code == 0 and "\nlabel = X\n" in out and "\nlimit_estimate = 0\n" in out


def test_eigen_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, domain={"R": "1.0", "n": "3"})
    code, out = _run(capsys, "eigen", "--mu", "0.0", "--config", cfg)
    assert code == 0
    assert float(parse_record(out)["lambda1"]) == pytest.approx(math.pi ** 2, rel=1e-3)


def test_eigen_csv_artifact(tmp_path, capsys):
    cfg = _write_config(tmp_path, solver={"grid_n": "500"})
    out_path = tmp_path / "vec.csv"
    code, out = _run(capsys, "eigen", "--mu", "0.1", "--config", cfg,
                     "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "r,u"
    assert len(lines) == 501
    assert parse_record(out)["csv"] == str(out_path)


def test_dual_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "power_law", "alpha": "1.0"})
    code, out = _run(capsys, "dual", "--c", "1.0", "--p", "1.0", "--config", cfg)
    assert code == 0
    rec = parse_record(out)
    assert float(rec["bound"]) == pytest.approx(1.0 / math.pi, abs=1e-6)
    assert rec["divergent"] == "false"


def test_dual_on_a_vanishing_potential_is_divergent(tmp_path, capsys):
    # (c v)^(-q) with v = 0 raised ZeroDivisionError for every p < 2
    cfg = _write_config(tmp_path, potential={"kind": "constant", "amplitude": "0.0"})
    for p in ("1", "2"):
        code, out = _run(capsys, "dual", "--c", "1", "--p", p, "--config", cfg)
        rec = parse_record(out)
        assert code == 0 and float(rec["bound"]) == 0.0
        assert rec["divergent"] == ("true" if p == "1" else "false")


def test_dual_on_a_table_rising_from_the_origin_is_divergent(tmp_path, capsys):
    # below its first node the table is r^4 (its inner cell): the p = 1 norm
    # diverges at the origin, as p = 2's infimum 0 already said
    r = np.geomspace(1e-9, 1.0, 200)
    v = np.ones_like(r)
    v[0] = v[1] * (r[0] / r[1]) ** 4
    table = tmp_path / "rising.csv"
    table.write_text("r,v\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(r, v)))
    cfg = _write_config(tmp_path, potential={"kind": "custom", "samples": str(table)})
    for p, divergent in (("1", "true"), ("2", "false")):
        code, out = _run(capsys, "dual", "--c", "1", "--p", p, "--config", cfg)
        rec = parse_record(out)
        assert code == 0 and float(rec["bound"]) == 0.0 and rec["divergent"] == divergent


def test_dual_near_p_2_is_a_record(tmp_path, capsys):
    # (c v)^(-q) = 1e597 at q = 199 ended in a bare OverflowError traceback;
    # the bound is c A (omega_3)^(-1/q)
    cfg = _write_config(tmp_path)
    code, out = _run(capsys, "dual", "--c", "0.001", "--p", "1.99", "--config", cfg)
    rec = parse_record(out)
    assert code == 0 and out.startswith("[result]")
    assert float(rec["bound"]) == pytest.approx(9.928277938747e-4, rel=1e-12)


def test_check_closed_form_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "filippas_tertikas_x", "m": "2"})
    code, out = _run(capsys, "check-closed-form", "--config", cfg)
    assert code == 0
    rec = parse_record(out)
    assert float(rec["residual_max"]) <= 1e-6
    assert float(rec["multiplier"]) == 0.25


def test_check_closed_form_past_the_saturation_of_v(tmp_path, capsys):
    # at amplitude 1e301, r^2 v once saturated at 1e300 near R, and the
    # residual read c r^2 v from it: 0.92, against 1.66e-9 at amplitude 1e299
    residuals = []
    for amplitude in ("1e301", "1e299"):
        cfg = _write_config(tmp_path, potential={"kind": "constant", "amplitude": amplitude})
        code, out = _run(capsys, "check-closed-form", "--config", cfg)
        assert code == 0
        residuals.append(float(parse_record(out)["residual_max"]))
    assert residuals[0] <= 1e-8 and residuals[0] == pytest.approx(residuals[1], rel=1e-3)


@pytest.mark.parametrize("potential", [{"r_max": "1e-300"},
                                       {"amplitude": "1e300", "r_max": "1e10"}],
                         ids=["R-squared-underflows", "multiplier-subnormal"])
def test_check_closed_form_multiplier_outside_the_floats_is_an_error(tmp_path, capsys,
                                                                      potential):
    # R R = 0 escaped as a bare ZeroDivisionError; z0^2 / (R^2 A) ~ 5.8e-320
    # printed multiplier = 0 and a residual of 1.17
    cfg = _write_config(tmp_path, potential={"kind": "constant", **potential})
    code, out = _run(capsys, "check-closed-form", "--config", cfg)
    rec = parse_record(out)
    assert code == 1 and out.startswith("[error]\n") and rec["type"] == "DomainError"
    assert "closed-form multiplier" in rec["message"]


@pytest.mark.parametrize("argv", [["dual", "--c", "nan", "--p", "2"],
                                  ["dual", "--c", "nan", "--p", "1"],
                                  ["trace", "--c", "nan", "--out", "OUT"]],
                         ids=["dual p=2", "dual p=1", "trace"])
def test_nan_multiplier_is_an_error_record(tmp_path, capsys, argv):
    # dual at p = 2 printed bound = nan, exit 0; at p = 1 a DivergentNorm,
    # "exp(nan)"; trace warned and reported NoZeroOnInterval, exit 0
    cfg = _write_config(tmp_path, potential={"kind": "power_law", "alpha": "1"})
    out_path = tmp_path / "traj.csv"
    code = main([*(str(out_path) if a == "OUT" else a for a in argv), "--config", cfg])
    out, err = capsys.readouterr()
    rec = parse_record(out)
    assert code == 1 and out.startswith("[error]\n") and rec["type"] == "DomainError"
    assert rec["message"].startswith("multiplier must be") and rec["message"].endswith("nan")
    assert err == "" and not out_path.exists()


def test_trace_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_path = tmp_path / "traj.csv"
    code, out = _run(capsys, "trace", "--c", "8.0", "--config", cfg,
                     "--out", str(out_path))
    assert code == 0
    rec = parse_record(out)
    assert rec["status"] == "ZeroFound"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "r,y,dy"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.all(np.diff(data[:, 0]) > 0.0)     # increasing abscissa
    assert float(rec["first_zero"]) == pytest.approx(data[-1, 0], rel=1e-9)


def test_trace_critical_uses_log_frame(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "1"})
    out_path = tmp_path / "traj.csv"
    code, out = _run(capsys, "trace", "--c", "0.35", "--config", cfg,
                     "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "s,z,dz"


def test_trace_at_huge_multiplier_finds_the_zero_next_to_the_edge(tmp_path, capsys):
    # the first zero lies ~1e-40 past the outer edge s = 1e-9: no step in s
    # resolves it, a step in tau = ln(s - s0) does
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "1"})
    out_path = tmp_path / "traj.csv"
    code, out = _run(capsys, "trace", "--c", "1e80", "--config", cfg, "--out", str(out_path))
    assert code == 0
    rec = parse_record(out)
    assert rec["status"] == "ZeroFound"
    assert float(rec["first_zero"]) == pytest.approx(math.exp(-1e-9), rel=1e-15)
    assert rec["samples"] == "2"
    lines = out_path.read_text().splitlines()
    start, zero = (np.array([float(x) for x in line.split(",")]) for line in lines[1:])
    assert (start[0], start[1], start[2]) == (1e-9, 1.0, 0.0)
    assert zero[0] == 1e-9 and zero[1] == 0.0 and zero[2] < 0.0


def test_trace_reports_a_zero_beyond_float_radii(tmp_path, capsys):
    # r* = e^-s* underflows beyond s* ~ 745, so first_zero reads 0 there;
    # zero_s still says where the zero is
    from hardy_optim import RadialPotential, integrate, log_problem
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "3",
                                             "amplitude": "0.05"})
    out_path = tmp_path / "traj.csv"
    code, out = _run(capsys, "trace", "--c", "0.2", "--config", cfg, "--out", str(out_path))
    assert code == 0
    rec = parse_record(out)
    assert rec["status"] == "ZeroFound" and float(rec["first_zero"]) == 0.0
    shot = integrate(log_problem(RadialPotential.adimurthi_log(3, amplitude=0.05), 0.2, 1.0))
    assert float(rec["zero_s"]) == shot.zero_s > 745.0


def test_trace_of_a_log_family_prints_its_certified_bracket(tmp_path, capsys):
    # at amplitude 1e200 DOP853 ended in [error] StepSizeUnderflow (exit 1)
    # with three RuntimeWarnings; the Euler cells give the zero and the
    # bracket their end laws certify, and a cell kind prints no bracket
    for potential, c in (({"kind": "adimurthi_log", "m": "2", "amplitude": "1e200"}, "0.2"),
                         ({"kind": "adimurthi_log", "m": "2"}, "0.3"), ({"kind": "constant"}, "8")):
        cfg = _write_config(tmp_path, potential=potential)
        code, out = _run(capsys, "trace", "--c", c, "--config", cfg,
                         "--out", str(tmp_path / "t.csv"))
        rec = parse_record(out)
        assert code == 0 and rec["status"] == "ZeroFound"
        if potential["kind"] == "constant":
            assert "zero_s_lo" not in rec and "zero_s_hi" not in rec
        else:
            assert float(rec["zero_s_lo"]) <= float(rec["zero_s"]) <= float(rec["zero_s_hi"])


@pytest.mark.parametrize("table", [False, True], ids=["power-1.999", "table-r^-1.999"])
def test_trace_of_a_recessive_zero_below_every_float_radius(tmp_path, capsys, table):
    # the exact J0 start already vanishes beyond s = 700: trace gave an
    # [error] UnsupportedSingularity record (exit 1); the zero has the closed
    # form x = z0 on the inner cell, and no trajectory samples precede it
    potential = {"kind": "power_law", "alpha": "1.999"}
    if table:
        r = np.geomspace(1e-8, 1.0, 400)
        samples = tmp_path / "table.csv"
        samples.write_text("r,v\n" + "".join(f"{x!r},{x ** -1.999!r}\n" for x in r.tolist()))
        potential = {"kind": "custom", "samples": str(samples)}
    cfg = _write_config(tmp_path, potential=potential)
    out_path = tmp_path / "traj.csv"
    code, out = _run(capsys, "trace", "--c", "1", "--config", cfg, "--out", str(out_path))
    assert code == 0
    rec = parse_record(out)
    assert (rec["status"], rec["samples"], float(rec["first_zero"])) == ("ZeroFound", "0", 0.0)
    q = 1.999 - 2.0    # x = (2/|q|) sqrt(c A e^(q s)) = z0 there, c = A = 1
    zero_s = 2.0 / -q * math.log(2.0 / (Z0 * -q))
    assert float(rec["zero_s"]) == pytest.approx(zero_s, rel=1e-9 if table else 1e-13)
    assert out_path.read_text() == "r,y,dy\n"
    code, out = _run(capsys, "feasible", "--c", "1", "--config", cfg)
    rec = parse_record(out)
    assert code == 0 and (rec["feasible"], rec["method"]) == ("false", "recessive-shot")
    assert (rec["status"], float(rec["first_zero"])) == ("ZeroFound", 0.0)


def test_feasible_on_a_rising_inner_cell_is_certified(tmp_path, capsys):
    # below the horizon-bound edge 7.47e-11 this was IndeterminateAtHorizon
    # (exit 2); the inner cell of r^-2 certifies every c > 0
    cfg = _write_config(tmp_path, potential={"kind": "power_law", "alpha": "2.0"})
    code, out = _run(capsys, "feasible", "--c", "1e-12", "--config", cfg)
    rec = parse_record(out)
    assert code == 0
    assert (rec["feasible"], rec["method"], rec["certificate"]) == \
        ("false", "oscillation-certificate", "oscillatory")
    assert float(rec["certificate_gamma"]) == 1e-12


def test_best_constant_on_a_flat_rising_table_whose_weight_underflows(tmp_path, capsys):
    # r^2 v = e^-747.2 on the flat inner cell underflows to 0: the plan's
    # end raised AttributeError, a bare traceback with exit 1
    table = tmp_path / "v.csv"
    table.write_text(f"r,v\n{2.0 ** -34!r},{2.0 ** -1010!r}\n{2.0 ** -33!r},{2.0 ** -1012!r}\n")
    cfg = _write_config(tmp_path, potential={"kind": "custom", "samples": str(table)})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    rec = parse_record(out)
    assert code in (0, 2) and out.startswith("[result]\n")
    assert float(rec["c_lo"]) == 0.0 and 0.0 < float(rec["c_hi"]) < math.inf
    code, out = _run(capsys, "feasible", "--c", "1e300", "--config", cfg)
    rec = parse_record(out)
    assert code == 0 and (rec["feasible"], rec["method"]) == ("false", "oscillation-certificate")


@pytest.mark.parametrize("argv,potential,error", [
    (("trace", "--c", "-1"), None, "DomainError"),
    (("trace", "--c", "1"), {"kind": "nonsense"}, "ConfigError"),
    (("eigen", "--mu", "0.3", "--format", "csv"), None, "IndefiniteForm"),
], ids=["trace", "trace-config", "eigen-csv"])
def test_error_record_leaves_the_csv_path_alone(tmp_path, capsys, argv, potential, error):
    # --out names the CSV artifact here, so the [error] record goes to stdout
    cfg = _write_config(tmp_path, potential=potential)
    out_path = tmp_path / "artifact.csv"
    code, out = _run(capsys, *argv, "--config", cfg, "--out", str(out_path))
    assert code == 1
    assert parse_record(out)["type"] == error
    assert not out_path.exists()


@pytest.mark.parametrize("argv,name", [
    (("best-constant",), "rec.ini"),
    (("trace", "--c", "1"), "t.csv"),
    (("eigen", "--mu", "0.1", "--format", "csv"), "v.csv"),
], ids=["record", "trace-csv", "eigen-csv"])
def test_unwritable_out_is_an_error_record(tmp_path, capsys, argv, name):
    # open() raised FileNotFoundError out of main: a bare traceback, and the
    # computed record was lost
    out_path = tmp_path / "no" / "such" / name
    code, out = _run(capsys, *argv, "--config", _write_config(tmp_path, solver={"grid_n": "200"}),
                     "--out", str(out_path))
    rec = parse_record(out)
    assert code == 1 and rec["type"] == "ConfigError"
    assert rec["message"] == f"cannot write {out_path}: No such file or directory"
    assert out.startswith("[error]\n")


@pytest.mark.parametrize("potential,code", [
    (None, 0), ({"kind": "constant", "amplitude": "0.0"}, 2)], ids=["result", "error"])
def test_record_goes_to_out(tmp_path, capsys, potential, code):
    # --out takes the record, an [error] one included (NoUpperBracket at
    # amplitude 0), and stdout stays empty: the file parses to the record
    # that stdout gets without --out
    cfg = _write_config(tmp_path, potential=potential)
    out_path = tmp_path / "rec.ini"
    assert _run(capsys, "best-constant", "--config", cfg, "--out", str(out_path)) == (code, "")
    _, out = _run(capsys, "best-constant", "--config", cfg)
    text = out_path.read_text()
    assert text == out and parse_record(text) == parse_record(out)
    assert text.startswith("[error]\n" if code else "[result]\n")
    if code:
        assert parse_record(text)["status"] == "NoUpperBracket"


def test_custom_potential_from_csv(tmp_path, capsys):
    table = tmp_path / "v.csv"
    r = np.logspace(-8, 0, 200)
    table.write_text("r,v\n" + "\n".join(f"{ri},{1.0/ri}" for ri in r))
    cfg = _write_config(tmp_path, potential={"kind": "custom", "samples": str(table)})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    assert code == 0
    # the table is exactly the alpha = 1 power law
    assert float(parse_record(out)["c_best"]) == pytest.approx(Z0_SQ / 4.0, abs=1e-4)


@pytest.mark.parametrize("row", ["1e-8,inf", "1e-8,nan", "inf,1", "nan,1"])
def test_custom_table_rejects_non_finite_samples(tmp_path, capsys, row):
    # NaN and inf passed the positivity check: "1e-8,inf" gave a converged
    # best constant [0, 2.5e-7] and classify said Y, "1e-8,nan" an unbounded
    # best constant.  The table's DomainError is reported as the config's
    from hardy_optim import RadialPotential
    from hardy_optim.errors import DomainError
    table = tmp_path / "v.csv"
    table.write_text(f"r,v\n{row}\n1e-4,2\n1,3\n")
    cfg = _write_config(tmp_path, potential={"kind": "custom", "samples": str(table)})
    for argv in (["best-constant"], ["classify"]):
        code, out = _run(capsys, *argv, "--config", cfg)
        rec = parse_record(out)
        assert code == 1 and rec["type"] == "ConfigError"
        assert rec["message"].endswith("custom potential samples must be finite")
    r0, v0 = (float(x) for x in row.split(","))
    with pytest.raises(DomainError, match="finite"):
        RadialPotential.custom(np.array([r0, 1e-4, 1.0]), np.array([v0, 2.0, 3.0]))


@pytest.mark.parametrize("potential, domain", [
    ({"kind": "constant", "amplitude": "nan"}, None),
    ({"kind": "constant", "amplitude": "inf"}, None),
    ({"kind": "power_law", "alpha": "nan"}, None),
    ({"kind": "power_law", "alpha": "inf"}, None),
    ({"kind": "power_law", "alpha": "-inf"}, None),
    ({"kind": "adimurthi_log", "rho": "nan"}, None),
    ({"kind": "filippas_tertikas_x", "d_scale": "inf"}, None),
    ({"kind": "constant", "amplitude": "1.0"}, {"r": "nan"})],
    ids=["amplitude-nan", "amplitude-inf", "alpha-nan", "alpha-inf", "alpha-minus-inf",
         "rho-nan", "d_scale-inf", "R-nan"])
def test_non_finite_config_values_are_config_errors(tmp_path, capsys, potential, domain):
    # each reached the solvers: feasible = true (NaN amplitude, alpha or rho,
    # infinite d), a ValueError traceback (alpha = -inf), [0, 2.2e-308]
    # (alpha = inf), the c = 0 guard (amplitude = inf), a classify record (R)
    cfg = _write_config(tmp_path, potential=potential, domain=domain)
    for argv in (["best-constant"], ["feasible", "--c", "0.2"], ["classify"]):
        code, out = _run(capsys, *argv, "--config", cfg)
        rec = parse_record(out)
        assert code == 1 and rec["type"] == "ConfigError" and out.startswith("[error]\n")
        assert "finite" in rec["message"] or "positive" in rec["message"]


# ---------------------------------------------------------------------------
# determinism and round trips
# ---------------------------------------------------------------------------

def test_records_are_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    _, first = _run(capsys, "best-constant", "--config", cfg)
    _, second = _run(capsys, "best-constant", "--config", cfg)
    assert first == second


def test_timestamp_behind_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "power_law", "alpha": "1.0"})
    _, plain = _run(capsys, "dual", "--c", "1.0", "--p", "2.0", "--config", cfg)
    _, stamped = _run(capsys, "dual", "--c", "1.0", "--p", "2.0", "--config", cfg,
                      "--timestamp")
    assert "timestamp" not in plain
    assert "timestamp" in stamped


def test_record_round_trip():
    rec = {"c_best": 5.783185962946785, "iterations": 25, "converged": True,
           "status": "converged", "first_zero": None}
    text = format_record(rec)
    back = parse_record(text)
    assert float(back["c_best"]) == rec["c_best"]
    assert int(back["iterations"]) == 25
    assert back["converged"] == "true"
    assert back["first_zero"] == "none"


def test_config_round_trip(tmp_path):
    cfg = _write_config(tmp_path, potential={"kind": "power_law", "alpha": "1.5",
                                             "amplitude": "2.0", "r_max": "3.0"},
                        domain={"R": "2.5", "n": "4"},
                        solver={"grid_n": "128", "s_max": "1e9"})
    run = load_config(cfg)
    assert run.potential.alpha == 1.5 and run.potential.r_max == 3.0
    assert run.R == 2.5 and run.n == 4
    assert run.grid_n == 128 and run.s_max == 1e9


# a value, other than the default, of every key in config.KEYS
_NEW_VALUES = {"amplitude": "3.0", "r_max": "2.0", "alpha": "1.5", "m": "2", "rho": "50.0",
               "d_scale": "3.0", "r": "0.5", "n": "4", "s_max": "1e9",
               "grid_n": "128", "r_min_rel": "1e-9"}


def _table(tmp_path, name, scale):
    path = tmp_path / name
    r = np.logspace(-8, 0, 50)
    path.write_text("r,v\n" + "\n".join(f"{ri},{scale / ri}" for ri in r))
    return str(path)


def test_every_config_key_is_read(tmp_path):
    # each key the table accepts must change the parsed config; a key that
    # is parsed and then ignored would leave it as it was
    def fingerprint(potential=None, **sections):
        run = load_config(_write_config(tmp_path, potential=potential, **sections))
        return repr(run), run.potential.value(0.25)

    bases = {kind: {"kind": kind} for kind in KEYS["potential"]}
    bases["power_law"]["alpha"] = "1.0"
    bases["custom"]["samples"] = _table(tmp_path, "one.csv", 1.0)
    new_values = dict(_NEW_VALUES, samples=_table(tmp_path, "two.csv", 2.0))
    seen = set()
    for kind, keys in KEYS["potential"].items():
        plain = fingerprint(bases[kind])
        for key in keys:
            assert fingerprint({**bases[kind], key: new_values[key]}) != plain, (kind, key)
            seen.add(key)
    plain = fingerprint()
    for section in ("domain", "solver"):
        for key in KEYS[section]:
            assert fingerprint(**{section: {key: new_values[key]}}) != plain, (section, key)
            seen.add(key)
    assert seen == set(new_values)


@pytest.mark.parametrize("potential,sections,culprit", [
    ({"kind": "constant", "amplitdue": "3.0"}, {}, "amplitdue"),
    (None, {"solvers": {"s_max": "1e9"}}, "solvers"),
    ({"kind": "custom", "amplitude": "3.0"}, {}, "amplitude"),
    (None, {"output": {"timestamp": "true"}}, "output"),
    ({"kind": "custom", "sigma": "0.5"}, {}, "sigma"),
    (None, {"domain": {"r": "0"}}, "R must be positive"),
    (None, {"domain": {"n": "2"}}, "dimension n must be >= 3"),
    (None, {"domain": {"r": "2.0"}}, "exceeds potential r_max"),
    (None, {"solver": {"grid_n": "8"}}, "grid_n must be >= 16"),
    ({"kind": "custom", "samples": "r,v\n1e-8,1,1\n1,1,1\n"}, {}, "expected two columns"),
], ids=["misspelt-key", "unknown-section", "key-of-another-kind", "output-section",
        "table-sigma", "radius-zero", "dimension-two", "radius-above-r_max", "grid-of-eight",
        "three-column-table"])
def test_unread_config_key_is_an_error(tmp_path, capsys, potential, sections, culprit):
    # each of the first five was once parsed and ignored: a misspelt
    # amplitude gave the best constant of amplitude 1; the later rows are
    # range checks, not unread keys.  A custom kind reads the samples text
    # given, else a valid table
    if potential and potential["kind"] == "custom":
        if "samples" in potential:
            table = tmp_path / "one.csv"
            table.write_text(potential["samples"])
        else:
            table = _table(tmp_path, "one.csv", 1.0)
        potential = dict(potential, samples=str(table))
    cfg = _write_config(tmp_path, potential=potential, **sections)
    with pytest.raises(ConfigError, match=culprit):
        load_config(cfg)
    code, out = _run(capsys, "best-constant", "--config", cfg)
    rec = parse_record(out)
    assert code == 1 and rec["type"] == "ConfigError" and culprit in rec["message"]


@pytest.mark.parametrize("text", [
    "kind = constant\n",
    "[potential]\nkind = constant\nkind = power_law\n",
    "[potential]\nkind = constant\n[solver]\ns_max = 1e6%\n",
    "[solver]\ns_max = 1e6\n",
], ids=["no-section-header", "repeated-key", "bad-interpolation", "no-potential-section"])
def test_malformed_ini_is_an_error_record(tmp_path, capsys, text):
    # configparser's own errors once escaped as bare tracebacks
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    code, out = _run(capsys, "best-constant", "--config", str(cfg))
    assert code == 1 and parse_record(out)["type"] == "ConfigError"


@pytest.mark.parametrize("argv", [
    ("feasible",), ("feasible", "--c", "1.0", "--tol", "1e-3"),
    ("best-constant", "--format", "csv"), ("no-such-command",)],
    ids=["missing-option", "unknown-flag", "format-off-eigen", "unknown-subcommand"])
def test_usage_error_is_an_error_record(tmp_path, capsys, argv):
    # argparse would exit with 2, the CLI's status for an indeterminate verdict
    code, out = _run(capsys, *argv, "--config", _write_config(tmp_path))
    assert code == 1
    assert parse_record(out)["type"] == "ConfigError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["feasible", "--help"])
    assert stop.value.code == 0
    assert "--c" in capsys.readouterr().out


# Every subcommand with all its required flags; "CFG" and "OUT" stand for the
# config and a CSV path.
_FULL_ARGV = {
    "best-constant": ["--config", "CFG"],
    "feasible": ["--config", "CFG", "--c", "1"],
    "classify": ["--config", "CFG"],
    "eigen": ["--config", "CFG", "--mu", "0.1"],
    "dual": ["--config", "CFG", "--c", "1", "--p", "1"],
    "check-closed-form": ["--config", "CFG"],
    "trace": ["--config", "CFG", "--c", "1", "--out", "OUT"],
}
# id -> (argv, expected): an exit code and record type, "help" (exit 0), or
# the argv whose record it must equal byte for byte
_GRAMMAR = {
    **{f"{name}-without-{argv[k]}": ([name] + argv[:k] + argv[k + 2:], (1, "ConfigError"))
       for name, argv in _FULL_ARGV.items() for k in range(0, len(argv), 2)
       if argv[k] != "--out"},
    **{f"{name}-flag=value": ([name] + [f"{flag}={value}" for flag, value
                                        in zip(argv[::2], argv[1::2])], [name] + argv)
       for name, argv in _FULL_ARGV.items()},
    "repeated-flag": (["feasible", "--config", "CFG", "--c", "1", "--c", "2"], (1, "ConfigError")),
    "abbreviated-flag": (["feasible", "--conf", "CFG", "--c", "1"], (1, "ConfigError")),
    "format-xml": (["eigen", "--config", "CFG", "--mu", "0.1", "--format", "xml"],
                   (1, "ConfigError")),
    "no-subcommand": ([], (1, "ConfigError")),
    "unknown-subcommand": (["best-constants", "--config", "CFG"], (1, "ConfigError")),
    "value-starting-with-dash": (["feasible", "--config", "CFG", "--c", "-1"], (1, "DomainError")),
    "switch-with-value": (["classify", "--config", "CFG", "--timestamp=1"], (1, "ConfigError")),
    "trailing-flag-without-value": (["feasible", "--config", "CFG", "--c"], (1, "ConfigError")),
    "top-level-help": (["--help"], "help"),
}


@pytest.mark.parametrize("argv,expected", _GRAMMAR.values(), ids=_GRAMMAR)
def test_argv_grammar(tmp_path, capsys, argv, expected):
    cfg = _write_config(tmp_path, solver={"grid_n": "200"})

    def run(argv):
        code = main([a.replace("CFG", cfg).replace("OUT", str(tmp_path / "t.csv")) for a in argv])
        return code, *capsys.readouterr()

    if expected == "help":
        with pytest.raises(SystemExit) as stop:
            main(argv)
        out = capsys.readouterr().out
        assert stop.value.code == 0 and all(f"hardy-optim {name} " in out for name in _FULL_ARGV)
    elif isinstance(expected, list):
        record = run(argv)
        assert record == run(expected) and record[0] == 0
    else:
        code, out, err = run(argv)
        assert (code, parse_record(out)["type"]) == expected
        # a usage error prints usage to stderr; the library's errors do not
        assert err.startswith("usage: hardy-optim") == (expected[1] == "ConfigError")


@pytest.mark.parametrize("key", ["bisect_tolerance", "zero_width_rel", "rtol", "atol",
                                 "bisect_tol", "boundary_grace", "tail_samples",
                                 "certificate_slack"])
def test_unknown_solver_key_is_rejected(key, tmp_path, capsys):
    # a misspelled setting, or one that no longer exists, was once parsed
    # and then silently ignored; the tolerances, sample count, slack and
    # grace are constants now, and best-constant uses best_constant's tol
    cfg = _write_config(tmp_path, solver={key: "64"})   # a value every old key parsed
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    code, out = _run(capsys, "best-constant", "--config", cfg)
    assert code == 1 and parse_record(out)["type"] == "ConfigError"


@pytest.mark.parametrize("s_max", ["1e400", "inf", "nan", "0"])
def test_horizon_must_be_positive_and_finite(s_max, tmp_path, capsys):
    # 1e400 parses as inf, which was accepted and then cut to 1e150
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "1"},
                        solver={"s_max": s_max})
    with pytest.raises(ConfigError, match="s_max"):
        load_config(cfg)
    code, out = _run(capsys, "best-constant", "--config", cfg)
    rec = parse_record(out)
    assert code == 1 and rec["type"] == "ConfigError" and "finite" in rec["message"]


@pytest.mark.parametrize("argv", [("best-constant",), ("feasible", "--c", "0.1")])
def test_log_domain_horizon_inside_the_ball_is_an_error_record(argv, tmp_path, capsys):
    # at R = 1e-3 the outer edge is s = 6.9; best-constant gave NoUpperBracket
    # (exit 2) for this c(V) = 1/4 potential, and feasible a verdict (exit 0)
    cfg = _write_config(tmp_path, potential={"kind": "adimurthi_log", "m": "1"},
                        domain={"r": "0.001"}, solver={"s_max": "5"})
    code, out = _run(capsys, *argv, "--config", cfg)
    rec = parse_record(out)
    assert code == 1 and rec["type"] == "DomainError"
    assert rec["message"].startswith("horizon s_max = 5.0 not beyond the outer edge 6.9")


@pytest.mark.parametrize("r_min_rel", ["nan", "0", "1", "2", "-1"])
def test_grid_cutoff_must_lie_inside_the_ball(r_min_rel, tmp_path, capsys):
    # best-constant and check-closed-form ignored the key, nan included, and
    # eigen reported it as GridSpec's DomainError
    cfg = _write_config(tmp_path, solver={"r_min_rel": r_min_rel})
    with pytest.raises(ConfigError, match=r"\[solver\] r_min_rel"):
        load_config(cfg)
    for argv in (["best-constant"], ["eigen", "--mu", "0.1"], ["check-closed-form"]):
        code, out = _run(capsys, *argv, "--config", cfg)
        rec = parse_record(out)
        assert code == 1 and rec["type"] == "ConfigError"
        assert f"[solver] r_min_rel must be in (0, 1), got {float(r_min_rel)}" in rec["message"]


def test_check_closed_form_grid_starts_at_r_min_rel(tmp_path, capsys, monkeypatch):
    # its grid began at 1e-6 R whatever the config said
    from hardy_optim import ode
    grids, residual = [], ode.residual

    def recorded(phi, prob, grid):
        grids.append(grid)
        return residual(phi, prob, grid)

    monkeypatch.setattr(ode, "residual", recorded)
    for solver in ({"grid_n": "64", "r_min_rel": "1e-3"}, {"grid_n": "64"}):
        cfg = _write_config(tmp_path, potential={"kind": "constant", "r_max": "2"}, solver=solver)
        assert _run(capsys, "check-closed-form", "--config", cfg)[0] == 0
    for grid, r_min in zip(grids, (2e-3, 2e-6)):
        assert grid.size == 64 and grid[-1] == pytest.approx(2.0 * (1.0 - 1e-12), rel=1e-15)
        assert grid[0] == pytest.approx(r_min, rel=1e-14)


# The CLI's contract, one row per call: the potential (None the default one,
# "README" the README's example config), the argv after the subcommand's
# --config ("OUT" a CSV path), the exit code, the record's section and some of
# its values (a float read to 1e-5), and what the installed script prints on
# stderr, where a fresh process checks that (None: the record alone, in-process)
_ZERO = {"kind": "constant", "amplitude": "0"}
_POWER = {"kind": "power_law", "alpha": "1"}
_USAGE = "usage: hardy-optim feasible --config CONFIG --c C [--out OUT] [--timestamp]\n"
_CONSOLE = {
    "feasible": (None, ["feasible", "--c", "1.0"], 0, "result", {"feasible": "true"}, ""),
    "README best-constant": ("README", ["best-constant"], 0, "result", {"status": "converged"},
                             None),
    "usage error": ("README", ["feasible"], 1, "error", {"type": "ConfigError"}, _USAGE),
    "amplitude 0 best-constant": (_ZERO, ["best-constant"], 2, "error",
                                  {"status": "NoUpperBracket"}, ""),
    "amplitude 0 feasible": (_ZERO, ["feasible", "--c", "1"], 0, "result",
                             {"method": "principal-tail", "certificate": "nonoscillatory"}, None),
    "amplitude 0 classify": ({"kind": "adimurthi_log", "m": "2", "amplitude": "0"}, ["classify"],
                             0, "result", {"limit_estimate": "0"}, None),
    "rising cell best-constant": ({"kind": "power_law", "alpha": "2.5", "amplitude": "1e-300"},
                                  ["best-constant"], 0, "result",
                                  {"iterations": "2", "c_hi": "2.2250738585072014e-308"}, None),
    "eigen at amplitude 1e200": ({"kind": "constant", "amplitude": "1e200"},
                                 ["eigen", "--mu", "0.1"], 0, "result", {}, ""),
    "dual p=2 past 1e300": ({"kind": "constant", "amplitude": "1e301"},
                            ["dual", "--p", "2", "--c", "1e-301"], 0, "result", {"bound": 1.0},
                            None),
    "closed-form multiplier underflows": ({"kind": "constant", "r_max": "1e-300"},
                                          ["check-closed-form"], 1, "error",
                                          {"type": "DomainError"}, ""),
    "trace at amplitude 1e200": ({"kind": "adimurthi_log", "m": "2", "amplitude": "1e200"},
                                 ["trace", "--c", "0.2", "--out", "OUT"], 0, "result",
                                 {"status": "ZeroFound"}, ""),
    "dual at c=nan": (_POWER, ["dual", "--c", "nan", "--p", "2"], 1, "error",
                      {"type": "DomainError"}, ""),
    "trace at c=nan": (_POWER, ["trace", "--c", "nan", "--out", "OUT"], 1, "error",
                       {"type": "DomainError"}, ""),
    "eigen on R=1e300": ({"kind": "power_law", "alpha": "1.5", "r_max": "1e300"},
                         ["eigen", "--mu", "0.1"], 0, "result", {}, ""),
    "classify iterated log m=2": ({"kind": "adimurthi_log", "m": "2"}, ["classify"], 0, "result",
                                  {"limit_estimate": "-1"}, None),
}
_FRESH = {name: row for name, row in _CONSOLE.items() if row[-1] is not None}
_README_INI = re.search(r"```ini\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md")
                        .read_text(encoding="utf-8"), re.S).group(1)


def _console_argv(tmp_path, potential, argv) -> list:
    if potential == "README":
        cfg = tmp_path / "readme.ini"
        cfg.write_text(_README_INI, encoding="utf-8")
    else:
        cfg = _write_config(tmp_path, potential=potential)
    return argv[:1] + ["--config", str(cfg)] + \
        [str(tmp_path / "out.csv") if a == "OUT" else a for a in argv[1:]]


@pytest.mark.parametrize("potential, argv, code, section, values, stderr", _CONSOLE.values(),
                         ids=_CONSOLE)
def test_console_record(tmp_path, capsys, potential, argv, code, section, values, stderr):
    assert main(_console_argv(tmp_path, potential, argv)) == code
    out, err = capsys.readouterr()
    rec = parse_record(out)
    assert out.startswith(f"[{section}]\n") and err == (stderr or "")
    for key, value in values.items():
        if isinstance(value, float):
            assert float(rec[key]) == pytest.approx(value, rel=1e-5, abs=0.0), key
        else:
            assert rec[key] == value, key


@pytest.mark.parametrize("potential, argv, code, section, values, stderr", _FRESH.values(),
                         ids=_FRESH)
def test_console_script_entry(tmp_path, capsys, potential, argv, code, section, values, stderr):
    # the script in a fresh process, with Python's default warning filters:
    # main's exit code and record, and on stderr no warning or traceback
    full = _console_argv(tmp_path, potential, argv)
    proc = subprocess.run([sys.executable, "-m", "hardy_optim.cli", *full],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert main(full) == code and proc.stdout == capsys.readouterr().out


# the five kinds of the contract below: one cell, a falling and a rising
# power law, and both log families
_CONTRACT_KINDS = {
    "constant": {"kind": "constant"},
    "power_law alpha=1.3": {"kind": "power_law", "alpha": "1.3"},
    "power_law alpha=2.5": {"kind": "power_law", "alpha": "2.5"},
    "adimurthi_log m=2": {"kind": "adimurthi_log", "m": "2"},
    "filippas_tertikas_x m=3": {"kind": "filippas_tertikas_x", "m": "3"},
}
_CONTRACT_AMPLITUDES = ("1e-300", "1e-200", "1e-100", "1e-30", "1", "1e30", "1e100", "1e200",
                        "1e301", "1e305")


@pytest.mark.parametrize("kind", _CONTRACT_KINDS)
def test_every_subcommand_answers_with_a_record_at_every_amplitude(kind, tmp_path, capsys):
    # no exception escapes cli.main: each call ends in an exit code and a
    # [result] or [error] record, from amplitude 1e-300 to 1e305.  Numpy's
    # RuntimeWarnings are raised (the suite's filter), so a warning escapes
    # too; they were printed while DOP853 swept the log families, which
    # warned from c A ~ 1e150 on
    escaped = []
    for amplitude in _CONTRACT_AMPLITUDES:
        cfg = _write_config(tmp_path, potential={**_CONTRACT_KINDS[kind], "amplitude": amplitude},
                            solver={"grid_n": "200"})
        for argv in (["best-constant"], ["feasible", "--c", "0.2"], ["classify"],
                     ["eigen", "--mu", "0.1"], ["dual", "--c", "0.2", "--p", "1"],
                     ["check-closed-form"], ["trace", "--c", "0.2", "--out",
                                             str(tmp_path / "trace.csv")]):
            try:
                code, out = _run(capsys, *argv, "--config", cfg)
            except Exception as exc:    # noqa: BLE001 - the contract is that none escapes
                escaped.append((amplitude, argv[0], type(exc).__name__))
                continue
            assert code in (0, 1, 2) and out.split("\n")[0] in ("[result]", "[error]"), \
                (amplitude, argv[0], out)
    assert not escaped


def test_eigen_at_amplitude_1e200_is_a_result(tmp_path, capsys):
    # its mass matrix is ~1e197: y.My overflowed in the inverse iteration
    cfg = _write_config(tmp_path, potential={"kind": "constant", "amplitude": "1e200"},
                        solver={"grid_n": "2000"})
    code, out = _run(capsys, "eigen", "--mu", "0.1", "--config", cfg)
    assert code == 0 and out.startswith("[result]\n")
    assert 1e200 * float(parse_record(out)["lambda1"]) == pytest.approx(8.8837960585, rel=1e-9)


# ---------------------------------------------------------------------------
# the cost of one best-constant op, counted
# ---------------------------------------------------------------------------

def _python_calls(argv) -> tuple:
    """The exit code and the Python function calls ("call" events of
    sys.setprofile) of one in-process CLI run, stdout captured, with the
    rule slot cleared so that the run builds its rule, and the cyclic
    collector paused so that no finalizer runs inside it."""
    import contextlib
    import gc
    import io

    import hardy_optim.bestconst as bestconst_mod
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    bestconst_mod._slot = None
    collecting = gc.isenabled()
    gc.disable()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
    return code, calls


@pytest.mark.parametrize("potential, bound", [
    ({"kind": "constant", "amplitude": "1.3", "r_max": "1.7"}, 43),
    ({"kind": "power_law", "amplitude": "1.3", "alpha": "1.1", "r_max": "1.7"}, 43),
    ({"kind": "adimurthi_log", "amplitude": "1.3", "m": "2"}, 52),
    ({"kind": "filippas_tertikas_x", "amplitude": "1.3", "m": "3"}, 51),
    ({"kind": "power_law", "amplitude": "1.3", "alpha": "2.5", "r_max": "1.7"}, 49),
    ({"kind": "power_law", "amplitude": "1.3", "alpha": "2", "r_max": "1.7"}, 48),
    ({"kind": "adimurthi_log", "amplitude": "0", "m": "2"}, 35),
], ids=["constant", "power_law", "adimurthi_log m=2", "filippas_tertikas_x m=3",
        "power_law alpha=2.5", "power_law alpha=2", "adimurthi_log m=2 A=0"])
def test_best_constant_op_python_calls(tmp_path, potential, bound):
    # a count that does not depend on the machine: the Python calls of a
    # warm best-constant op on the config the benchmark writes.  It took
    # 63, 63, 86 and 85, on 14 frozen-dataclass constructions for a log
    # family, the Euler edge read through a log problem and
    # dataclasses.replace, np.empty(0) row dicts and the text-mode codec.
    # A rising cell (alpha = 2.5, 2) and a vanishing tail (exit 2,
    # NoUpperBracket) took 76, 73 and 51 while the probe at c = 0 built a log
    # problem and swept the line z = 1 back from the horizon; their verdict
    # is the tail's certificate now, with no sweep
    argv = ["best-constant", "--config",
            _write_config(tmp_path, potential=potential, solver={"grid_n": "10000"})]
    warm = _python_calls(argv)
    code, calls = _python_calls(argv)
    assert code == warm[0] == (0 if potential["kind"] in ("constant", "power_law") else 2)
    assert calls == warm[1] and calls <= bound


def test_classify_op_python_calls(tmp_path):
    # a log family's bound read its Euler edge through a log problem and
    # tail_edges, imported from ode on each call: 67 calls; then the edge's
    # gamma at the default horizon, 56 calls, where its limit is -A exactly
    potential = {"kind": "adimurthi_log", "amplitude": "1.3", "m": "2"}
    argv = ["classify", "--config", _write_config(tmp_path, potential=potential)]
    warm = _python_calls(argv)
    code, calls = _python_calls(argv)
    assert code == warm[0] == 0 and calls == warm[1] and calls <= 50
