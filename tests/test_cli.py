import argparse
import math
import subprocess
import sys

import numpy as np
import pytest

from hardy_optim.cli import main
from hardy_optim.config import KEYS, format_record, load_config, parse_record
from hardy_optim.errors import ConfigError

from conftest import Z0_SQ


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


def test_check_closed_form_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, potential={"kind": "filippas_tertikas_x", "m": "2"})
    code, out = _run(capsys, "check-closed-form", "--config", cfg)
    assert code == 0
    rec = parse_record(out)
    assert float(rec["residual_max"]) <= 1e-6
    assert float(rec["multiplier"]) == 0.25


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


def test_custom_potential_from_csv(tmp_path, capsys):
    table = tmp_path / "v.csv"
    r = np.logspace(-8, 0, 200)
    table.write_text("r,v\n" + "\n".join(f"{ri},{1.0/ri}" for ri in r))
    cfg = _write_config(tmp_path, potential={"kind": "custom", "samples": str(table)})
    code, out = _run(capsys, "best-constant", "--config", cfg)
    assert code == 0
    # the table is exactly the alpha = 1 power law
    assert float(parse_record(out)["c_best"]) == pytest.approx(Z0_SQ / 4.0, abs=1e-4)


# ---------------------------------------------------------------------------
# determinism and round trips
# ---------------------------------------------------------------------------

def test_records_are_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    _, first = _run(capsys, "best-constant", "--config", cfg)
    _, second = _run(capsys, "best-constant", "--config", cfg)
    assert first == second


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    # the seven-subcommand tree once cost a third of a best-constant op
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = _write_config(tmp_path)
    for _ in range(3):
        assert _run(capsys, "feasible", "--c", "1.0", "--config", cfg)[0] == 0
    assert built.count("hardy-optim") <= 1


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
               "d_scale": "3.0", "sigma": "0.5", "r": "0.5", "n": "4", "s_max": "1e9",
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
], ids=["misspelt-key", "unknown-section", "key-of-another-kind", "output-section"])
def test_unread_config_key_is_an_error(tmp_path, capsys, potential, sections, culprit):
    # each of these was once parsed and ignored: a misspelt amplitude gave
    # the best constant of amplitude 1
    if potential and potential["kind"] == "custom":
        potential = dict(potential, samples=_table(tmp_path, "one.csv", 1.0))
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
], ids=["no-section-header", "repeated-key", "bad-interpolation"])
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


def test_console_script_entry(tmp_path):
    cfg = _write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "hardy_optim.cli", "feasible", "--c", "1.0",
         "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "feasible = true" in proc.stdout
