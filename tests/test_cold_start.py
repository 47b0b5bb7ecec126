"""Each CLI subcommand loads only the scipy it runs, checked in fresh
interpreters: the borderline families' best-constant, feasible and
classify are closed forms and numpy, and load no scipy submodule."""
import runpy
from pathlib import Path

COLD_START = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "cold_start.py"))
fresh_run = COLD_START["fresh_run"]

_LOG_2 = {"kind": "adimurthi_log", "m": "2"}


def test_borderline_subcommands_load_no_scipy(tmp_path):
    runs = [(_LOG_2, ["best-constant"]),
            ({"kind": "filippas_tertikas_x", "m": "3"}, ["best-constant"]),
            (_LOG_2, ["feasible", "--c", "0.2"]),
            (_LOG_2, ["feasible", "--c", "0.35"]),
            (_LOG_2, ["classify"])]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [2, 2, 0, 0, 0]     # the two bands are indeterminate
    assert loaded == []


def test_power_law_and_eigen_load_no_integrator(tmp_path):
    # the power law's cells need scipy.special and brentq, the eigensolve
    # LAPACK; neither sweeps a log family, so neither loads scipy.integrate
    runs = [({"kind": "power_law", "alpha": "1"}, ["best-constant"]),
            (_LOG_2, ["eigen", "--mu", "0"])]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0, 0]
    assert "scipy.integrate" not in loaded
    assert "scipy.linalg" in loaded and "scipy.special" in loaded
