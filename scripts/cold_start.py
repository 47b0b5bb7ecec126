#!/usr/bin/env python3
"""Cold-start wall time of the CLI subcommands on the catalog.

Each ``hardy-optim`` call is a fresh process, so its wall time includes
the imports.  For each row this starts ``--repeat`` fresh interpreters,
each of which imports hardy_optim and runs the row's subcommand through
``cli.main``, and prints the median wall time (interpreter start to exit)
and the scipy submodules the subcommand loaded: the packages special,
integrate, optimize and linalg, and linalg's LAPACK extension
``_flapack``.  The FE oracle calls numpy's own OpenBLAS, so ``eigen`` loads
none of them; it loads ``_flapack`` alone, from its file without the linalg
package, only where numpy's library lacks dpttrf and dpttrs.  The table
row reads the 400-node exp(3r) table of scripts/shot_profile.py on r =
geomspace(1e-8, 1, 400), written as a CSV into the run's working
directory; its cell sweeps load scipy.special.

The figures are taken with bytecode cached, as a second run of an
installed package finds it.  Before timing, one untimed interpreter runs
every row, which compiles all that the rows import, src/hardy_optim
included, into a fresh temporary PYTHONPYCACHEPREFIX that the timed runs
then read; PYTHONDONTWRITEBYTECODE is unset for them.  So an environment
that never writes bytecode and one that keeps it report the same kind of
figure.

Run:  python scripts/cold_start.py [--repeat 5] [--row best-constant/log-2 ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_SUBMODULES = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.linalg",
                    "scipy.linalg._flapack")

# Run in the fresh interpreter: each argv of the JSON list through cli.main,
# then the exit codes and the loaded SCIPY_SUBMODULES as the last stdout line.
_CHILD = f"""
import json, sys
from hardy_optim import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [m for m in {SCIPY_SUBMODULES!r} if m in sys.modules]]))
"""

_POWER_1 = {"kind": "power_law", "alpha": "1"}
TABLE = "exp3r.csv"    # the samples file a row names, written into its working directory
# name -> ([potential] keys, subcommand and its options); grid_n is 10000 by default
ROWS = {
    "best-constant/constant": ({"kind": "constant"}, ["best-constant"]),
    "best-constant/power-1": (_POWER_1, ["best-constant"]),
    "best-constant/log-1": ({"kind": "adimurthi_log", "m": "1"}, ["best-constant"]),
    "best-constant/log-2": ({"kind": "adimurthi_log", "m": "2"}, ["best-constant"]),
    "best-constant/x-1": ({"kind": "filippas_tertikas_x", "m": "1"}, ["best-constant"]),
    "best-constant/x-2": ({"kind": "filippas_tertikas_x", "m": "2"}, ["best-constant"]),
    "best-constant/table": ({"kind": "custom", "samples": TABLE}, ["best-constant"]),
    "eigen/power-1": (_POWER_1, ["eigen", "--mu", "0"]),
    "classify/log-2": ({"kind": "adimurthi_log", "m": "2"}, ["classify"]),
    "classify/power-1": (_POWER_1, ["classify"]),
    "dual/power-1-p1": (_POWER_1, ["dual", "--c", "1", "--p", "1"]),
    "dual/power-1-p2": (_POWER_1, ["dual", "--c", "1", "--p", "2"]),
    "dual/log-2-p1": ({"kind": "adimurthi_log", "m": "2"}, ["dual", "--c", "0.25", "--p", "1"]),
    "dual/x-3-p2": ({"kind": "filippas_tertikas_x", "m": "3"}, ["dual", "--c", "0.25", "--p", "2"]),
    "trace/log-2": ({"kind": "adimurthi_log", "m": "2"}, ["trace", "--c", "0.35"]),
}


def child_env() -> dict:
    """The environment of a fresh interpreter that imports hardy_optim from SRC."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def fresh_run(runs, workdir) -> tuple:
    """Run each (potential keys, subcommand argv) of ``runs`` through
    ``cli.main``, in order, in one fresh interpreter working in ``workdir``
    (where a trace writes its default CSV), with configs, and the TABLE a
    run reads, written there and bytecode read from and written to
    ``workdir/pycache``.  Returns the wall time in s, the exit codes and
    the scipy submodules loaded by the end."""
    argvs = []
    if any(potential.get("samples") == TABLE for potential, _ in runs):
        r = np.geomspace(1e-8, 1.0, 400)
        (Path(workdir) / TABLE).write_text("r,v\n" + "".join(
            f"{ri!r},{vi!r}\n" for ri, vi in zip(r.tolist(), np.exp(3.0 * r).tolist())))
    for k, (potential, argv) in enumerate(runs):
        config = Path(workdir) / f"run{k}.ini"
        config.write_text("[potential]\n" + "".join(f"{key} = {value}\n"
                                                    for key, value in potential.items()))
        argvs.append(argv[:1] + ["--config", str(config)] + argv[1:])
    env = child_env()
    env["PYTHONPYCACHEPREFIX"] = str(Path(workdir) / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
                          cwd=workdir, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.perf_counter() - t0
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    return wall, codes, loaded


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="fresh runs per row")
    parser.add_argument("--row", action="append", choices=ROWS,
                        help="a row to run (repeatable; default all)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    rows = args.row or list(ROWS)
    with tempfile.TemporaryDirectory() as workdir:
        fresh_run([ROWS[name] for name in rows], workdir)    # untimed: compiles
        print(f"{'row':<24} {'median_ms':>9}  scipy loaded  "
              f"(bytecode compiled into a fresh PYTHONPYCACHEPREFIX first)")
        for name in rows:
            walls = []
            for _ in range(args.repeat):
                wall, _, loaded = fresh_run([ROWS[name]], workdir)
                walls.append(wall)
            names = " ".join(m.removeprefix("scipy.") for m in loaded) or "-"
            print(f"{name:<24} {1e3 * statistics.median(walls):>9.1f}  {names}")


if __name__ == "__main__":
    main()
