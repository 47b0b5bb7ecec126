"""Each CLI subcommand loads only the scipy it runs, checked in fresh
interpreters: the borderline families' best-constant, feasible and
classify are closed forms and numpy, and so are best-constant and feasible
on a constant or a power law (x(R) against z0), classify on every kind and
dual at every p; none of them loads a scipy submodule.  Cell sweeps load
``scipy.special`` alone.  ``eigen`` and a whole oracle row load what the
oracle's LAPACK needs: no scipy module with numpy's own OpenBLAS, and LAPACK's
extension ``scipy.linalg._flapack`` alone, without the ``scipy.linalg``
package, with the fallback.  No subcommand loads the standard library's ``configparser``, and none
loads ``argparse`` or ``numpy.polynomial`` unless the scipy it runs
does."""
import json
import runpy
import subprocess
import sys
from pathlib import Path

from hardy_optim import oracle

COLD_START = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "cold_start.py"))
fresh_run = COLD_START["fresh_run"]
_FLAPACK = oracle._lapack().name == "scipy.linalg._flapack"    # the fallback's choice
_LAPACK_LOADS = ["scipy.linalg._flapack"] if _FLAPACK else []

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


def test_log_family_trace_loads_no_scipy(tmp_path):
    # the Euler cells are numpy alone: DOP853 loaded scipy.integrate, and with
    # it linalg, optimize, sparse, spatial, special and fft (a cold trace took
    # about 1 s, against 0.3 s for feasible on the same config)
    runs = [(_LOG_2, ["trace", "--c", "0.35"]),
            ({"kind": "filippas_tertikas_x", "m": "3", "amplitude": "1e200"},
             ["trace", "--c", "0.2", "--out", str(tmp_path / "t.csv")])]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0, 0] and (tmp_path / "trajectory.csv").exists()
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
    # the eigensolve calls numpy's own OpenBLAS (the fallback: LAPACK's
    # extension alone, loaded from its file without the scipy.linalg package),
    # and the power law's best constant no scipy at all; neither sweeps a log
    # family, so neither loads scipy.integrate
    runs = [({"kind": "power_law", "alpha": "1"}, ["best-constant"]),
            (_LOG_2, ["eigen", "--mu", "0"])]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0, 0]
    assert loaded == _LAPACK_LOADS


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


def _table(tmp_path):
    table = tmp_path / "table.csv"
    r = [10.0 ** -k for k in range(8, -1, -1)]
    table.write_text("r,v\n" + "".join(f"{x!r},{2.0 + 1.0 / x!r}\n" for x in r))
    return {"kind": "custom", "samples": str(table)}


def test_dual_and_classify_load_no_scipy(tmp_path):
    # the norm integral is exact on log_cells and an exp-sinh rule on the log
    # families, where quad loaded integrate, optimize and linalg; the p = 2
    # infimum is refined by golden-section search, not minimize_scalar; and
    # classify's cell integrals take numpy's expm1, not scipy.special.exprel
    kinds = [{"kind": "power_law", "alpha": "1"}, _table(tmp_path), _LOG_2,
             {"kind": "filippas_tertikas_x", "m": "3"}]
    runs = [(kind, argv) for kind in kinds
            for argv in (["dual", "--c", "0.2", "--p", p] for p in ("1", "1.5", "2"))]
    runs += [(kind, ["classify"]) for kind in kinds]
    _, codes, loaded = fresh_run(runs, tmp_path)
    assert codes == [0] * 16
    assert loaded == []


# The bench's oracle-catalog row, one config after another in one fresh
# interpreter: classify, eigen and dual through cli.main, the two FE
# quotients through the library.
_ORACLE_ROW = f"""
import json, sys
from hardy_optim import cli, config, oracle
for path in sys.argv[1:]:
    for argv in (["classify"], ["eigen", "--mu", "0.1"], ["dual", "--c", "0.2", "--p", "1"],
                 ["dual", "--c", "0.2", "--p", "2"]):
        assert cli.main(argv[:1] + ["--config", path] + argv[1:]) == 0, argv
    cfg = config.load_config(path)
    grid = oracle.GridSpec(cfg.grid_n, oracle.GridMapping.LOG_SPACED, cfg.R, cfg.r_min_rel * cfg.R)
    oracle.reduced_rayleigh_min(cfg.potential, grid)
    oracle.lambda_limit(cfg.potential, cfg.n, cfg.R)
print(json.dumps([[m for m in {COLD_START["SCIPY_SUBMODULES"]!r} if m in sys.modules],
                  [m for m in ("numpy.f2py", "scipy._lib.array_api_compat", "numpy.polynomial")
                   if m in sys.modules],
                  "scipy" in sys.modules]))
"""


def test_oracle_row_loads_only_its_lapack(tmp_path):
    # numpy's own OpenBLAS and no scipy module at all: LAPACK's extension
    # loaded scipy's second OpenBLAS, about 3 MB of peak RSS.  The fallback
    # loads the extension, not the scipy.linalg package, whose import ran
    # scipy._lib.array_api_compat and with it numpy.f2py, numpy.testing and
    # numpy.random: about half the row's set-up (BENCH_37.json)
    kinds = ["kind = constant\namplitude = 3\nr_max = 2",
             "kind = power_law\nalpha = 1.3\namplitude = 0.5",
             "kind = adimurthi_log\nm = 2", "kind = filippas_tertikas_x\nm = 3\namplitude = 7"]
    paths = []
    for k, keys in enumerate(kinds):
        paths.append(tmp_path / f"row{k}.ini")
        paths[-1].write_text(f"[potential]\n{keys}\n[solver]\ngrid_n = 2000\n")
    proc = subprocess.run([sys.executable, "-c", _ORACLE_ROW] + [str(p) for p in paths],
                          env=COLD_START["child_env"](), stdout=subprocess.PIPE, text=True,
                          check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [_LAPACK_LOADS, [], _FLAPACK]


# Every subcommand, an error record and a usage error through cli.main in one
# fresh interpreter, each record read back by parse_record; the three that
# load scipy come last.  After each: is argparse loaded, is a scipy submodule,
# is fractions or decimal, is numpy.polynomial?
_EVERY_SUBCOMMAND = f"""
import io, json, sys
from contextlib import redirect_stdout
from hardy_optim import cli, config
config_path, out = sys.argv[1:]
codes, loaded = [], []
for argv in (["best-constant"], ["feasible", "--c", "1"], ["classify"],
             ["dual", "--c", "1", "--p", "1"], ["feasible"], ["eigen", "--mu", "0.1"],
             ["check-closed-form"], ["trace", "--c", "1", "--out", out]):
    with redirect_stdout(io.StringIO()) as record:
        codes.append(cli.main(argv[:1] + ["--config", config_path] + argv[1:]))
    config.parse_record(record.getvalue())
    loaded.append(["argparse" in sys.modules,
                   any(m in sys.modules for m in {COLD_START["SCIPY_SUBMODULES"]!r}),
                   "fractions" in sys.modules or "decimal" in sys.modules,
                   "numpy.polynomial" in sys.modules])
print(json.dumps([codes, "configparser" in sys.modules, loaded]))
"""


def test_no_subcommand_loads_configparser_or_argparse(tmp_path):
    # configs and records are read by config.read_ini, the command line by
    # cli._parse_args; configparser's parsing once took about 0.4 of each
    # 0.85 ms best-constant op, and importing argparse 2 ms of a cold start.
    # scipy.special imports argparse and numpy.polynomial itself (through
    # numpy.f2py and scipy._lib.array_api_compat's ``from numpy import *``),
    # so they may arrive with scipy and only with it; eigen loads no scipy
    # (the fallback LAPACK's extension alone) and neither of them.  The Gauss-Legendre rules are
    # literals, so hardy_optim loads no numpy.polynomial (3-5 ms).  The
    # closed-form test c A <= 1/4 is integer arithmetic: the five
    # subcommands without scipy load neither fractions nor decimal, which
    # took about 2 ms of a cold start
    path = tmp_path / "run.ini"
    path.write_text("[potential]\nkind = constant\n[solver]\ngrid_n = 200\n")
    proc = subprocess.run([sys.executable, "-c", _EVERY_SUBCOMMAND, str(path),
                           str(tmp_path / "trace.csv")],
                          env=COLD_START["child_env"](), stdout=subprocess.PIPE, text=True,
                          check=True)
    codes, configparser_loaded, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 1, 0, 0, 0]
    assert configparser_loaded is False
    assert loaded[:5] == [[False, False, False, False]] * 5
    assert loaded[5] == [False, _FLAPACK, False, False]
    assert all(scipy for argparse, scipy, _, polynomial in loaded if argparse or polynomial)


# The eigen record and the LAPACK routines, in a fresh interpreter where the
# oracle's extension is loaded first and scipy.linalg after it, or the
# reverse: both share one scipy.linalg._flapack module.
_IMPORT_ORDER = """
import io, json, sys
from contextlib import redirect_stdout
from hardy_optim import cli, oracle
if sys.argv[1] == "oracle-first":
    oracle._flapack()
from scipy.linalg import lapack
with redirect_stdout(io.StringIO()) as record:
    code = cli.main(["eigen", "--config", sys.argv[2], "--mu", "0.1"])
flapack = oracle._flapack()
print(json.dumps([code, record.getvalue(), flapack is sys.modules["scipy.linalg._flapack"],
                  flapack.dpttrf is lapack.dpttrf, flapack.dpttrs is lapack.dpttrs]))
"""


def test_oracle_lapack_is_scipys_in_either_import_order(tmp_path):
    # a scipy that moves or renames _flapack fails here: the loader raises
    # ImportError naming the directory it searched
    path = tmp_path / "run.ini"
    path.write_text("[potential]\nkind = power_law\nalpha = 1.3\n[solver]\ngrid_n = 2000\n")
    results = []
    for order in ("oracle-first", "linalg-first"):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", _IMPORT_ORDER, order,
                               str(path)], env=COLD_START["child_env"](), stdout=subprocess.PIPE,
                              text=True, check=True)
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for code, record, registered, same_dpttrf, same_dpttrs in results:
        assert (code, registered, same_dpttrf, same_dpttrs) == (0, True, True, True)
        assert record.startswith("[result]\nlambda1 = ")
    assert results[0][1] == results[1][1]
