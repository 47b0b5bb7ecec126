"""Each CLI subcommand loads only the scipy it runs, checked in fresh
interpreters: the borderline families' best-constant, feasible and
classify are closed forms and numpy, and so are best-constant and feasible
on a constant or a power law (x(R) against z0) and ``dual --p 2`` on
``log_cells``; none of them loads a scipy submodule.  Cell sweeps load
``scipy.special`` alone."""
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


def test_single_cell_subcommands_load_no_scipy(tmp_path):
    # a constant or a power law is decided by x(R) against z0: no cell sweep,
    # which loaded scipy.special for every probe's Bessel functions
    power = {"kind": "power_law", "alpha": "1"}
    runs = [(power, ["best-constant"]),
            ({"kind": "constant"}, ["best-constant"]),
            ({"kind": "power_law", "alpha": "1.9", "amplitude": "20"}, ["best-constant"]),
            (power, ["feasible", "--c", "1"]),
            (power, ["feasible", "--c", "2"]),
            ({"kind": "power_law", "alpha": "1.999"}, ["feasible", "--c", "1"])]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0] * 6
    assert loaded == []


def test_cell_sweeps_load_only_special(tmp_path):
    # a zero inside a cell comes from Newton steps on the Bessel phase; its
    # brentq imported scipy.optimize, and with it linalg and sparse
    table = tmp_path / "table.csv"
    r = [10.0 ** (-k / 4.0) for k in range(32, -1, -1)]
    table.write_text("r,v\n" + "".join(f"{x!r},{1.0 + 5.0 / x!r}\n" for x in r))
    runs = [({"kind": "custom", "samples": str(table)}, ["best-constant"]),
            ({"kind": "power_law", "alpha": "1.5"}, ["trace", "--c", "1e6", "--out",
                                                     str(tmp_path / "t.csv")])]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0, 0]
    assert loaded == ["scipy.special"]


def test_power_law_and_eigen_load_no_integrator(tmp_path):
    # the eigensolve needs LAPACK alone, and the power law's best constant
    # no scipy at all; neither sweeps a log family, so neither loads
    # scipy.integrate
    runs = [({"kind": "power_law", "alpha": "1"}, ["best-constant"]),
            (_LOG_2, ["eigen", "--mu", "0"])]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0, 0]
    assert loaded == ["scipy.linalg"]


def test_dual_infimum_on_cells_loads_no_scipy(tmp_path):
    # inf v on log_cells is v at R and at the knots; it once took 4096
    # samples and minimize_scalar, loading special, optimize and linalg
    table = tmp_path / "table.csv"
    r = [10.0 ** -k for k in range(8, -1, -1)]
    table.write_text("r,v\n" + "".join(f"{x!r},{2.0 + x * x!r}\n" for x in r))
    p2 = ["dual", "--c", "1", "--p", "2"]
    runs = [({"kind": "power_law", "alpha": "1"}, p2),
            ({"kind": "custom", "samples": str(table)}, p2)]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0, 0]
    assert loaded == []
