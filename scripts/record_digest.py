#!/usr/bin/env python3
"""SHA-256 digests of every CLI record on a fixed catalog, so that two
checkouts can be compared record for record.

The seven subcommands, feasible at c = 0 (the verdict where c v = 0) and
at c = 0.2, dual at p = 1 and at p = 2, run in-process on each catalog
entry: a constant, power laws alpha = 0.5, 1.5, 2.5, alpha = 1 at
amplitude 1e-30 (best constant ~1.4e30), both log families at m = 1..3
and amplitude 0.05, 1, 20, one 40-node table, a constant at
amplitude 0 (no float multiplier is infeasible), the table scaled by
1e-30 (best constant ~3.7e29), a constant at amplitude 1e301 (best
constant z0^2 1e-301, past the 1e300 at which v(r) once saturated),
alpha = 1.5 on R = 1e300 (R^1.5 overflows), a constant at amplitude
4e-308 (best constant 1.4e308, next to the largest double), a two-node
table whose zeros lie below every float radius (so its shots have no
margin), a two-node table whose flat inner cell has r^2 v = 2^-1078,
below every float, both log families at amplitude 0 (iterated log m = 2,
X family m = 1: a vanishing Euler tail) and alpha = 2 (an inner cell of
slope q = 0), all at grid_n = 2000.  On R = 1e300 check-closed-form is a
deterministic [error] record.  Each record is hashed with its exit code
and with the CSV it writes (eigen --format csv, trace) by content, the
temporary directory's path replaced, and one digest is printed per entry,
then one over all of them.
hardy_optim is imported from PYTHONPATH, so the same script digests any
checkout.

Run:  PYTHONPATH=src python scripts/record_digest.py
"""
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from hardy_optim.cli import main as cli_main

# (name, [potential] keys); "samples" names a table's CSV in the temporary directory
CATALOG = [("constant", {"kind": "constant"})]
CATALOG += [(f"power_law alpha={a}", {"kind": "power_law", "alpha": a}) for a in (0.5, 1.5, 2.5)]
CATALOG += [("power_law alpha=1 A=1e-30", {"kind": "power_law", "alpha": 1, "amplitude": 1e-30})]
CATALOG += [(f"{kind} m={m} A={a}", {"kind": kind, "m": m, "amplitude": a})
            for kind in ("adimurthi_log", "filippas_tertikas_x")
            for m in (1, 2, 3) for a in (0.05, 1, 20)]
CATALOG += [("custom 40 nodes", {"kind": "custom", "samples": "table.csv"})]
CATALOG += [("constant A=0", {"kind": "constant", "amplitude": 0}),
            ("custom 40 nodes x 1e-30", {"kind": "custom", "samples": "table_1e-30.csv"}),
            ("constant A=1e301", {"kind": "constant", "amplitude": 1e301}),
            ("power_law alpha=1.5 r_max=1e300", {"kind": "power_law", "alpha": 1.5,
                                                 "r_max": 1e300}),
            ("constant A=4e-308", {"kind": "constant", "amplitude": 4e-308}),
            ("custom 2 nodes, zeros below float radii", {"kind": "custom", "samples": "deep.csv"}),
            ("custom flat rising, r^2 v = 2^-1078", {"kind": "custom", "samples": "flat.csv"}),
            ("adimurthi_log m=2 A=0", {"kind": "adimurthi_log", "m": 2, "amplitude": 0}),
            ("filippas_tertikas_x m=1 A=0",
             {"kind": "filippas_tertikas_x", "m": 1, "amplitude": 0}),
            ("power_law alpha=2", {"kind": "power_law", "alpha": 2})]

# the two-node tables, (r, v) by name
TABLES = {"deep.csv": ([1e-10, 1e-9], [1e-305, 1e-307]),
          "flat.csv": ([2.0 ** -34, 2.0 ** -33], [2.0 ** -1010, 2.0 ** -1012])}

# every subcommand with its flags; "OUT" stands for the CSV path
COMMANDS = [
    ["best-constant"],
    ["feasible", "--c", "0"],
    ["feasible", "--c", "0.2"],
    ["classify"],
    ["eigen", "--mu", "0.1", "--format", "csv", "--out", "OUT"],
    ["dual", "--c", "0.2", "--p", "1"],
    ["dual", "--c", "0.2", "--p", "2"],
    ["check-closed-form"],
    ["trace", "--c", "0.2", "--out", "OUT"],
]


def run(argv: list, tmp: Path) -> bytes:
    """The exit code, record and CSV of one in-process CLI call, with the
    temporary directory's path replaced."""
    csv = tmp / "out.csv"
    csv.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([str(csv) if a == "OUT" else a for a in argv])
    text = f"{' '.join(argv)}\n{code}\n{out.getvalue()}".replace(str(tmp), "TMP")
    return text.encode() + (csv.read_bytes() if csv.exists() else b"")


def main():
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        r = np.geomspace(1e-7, 1.0, 40)
        v = r ** -1.3 * (2.0 + np.sin(7.0 * np.log(r)))
        tables = {"table.csv": (r, v), "table_1e-30.csv": (r, 1e-30 * v), **TABLES}
        for name, (r, v) in tables.items():
            (tmp / name).write_text(
                "r,v\n" + "".join(f"{ri:.17g},{vi:.17g}\n" for ri, vi in zip(r, v)))
        for entry, potential in CATALOG:
            keys = {k: str(tmp / val) if k == "samples" else val for k, val in potential.items()}
            (tmp / "run.ini").write_text(
                "[potential]\n" + "".join(f"{k} = {val}\n" for k, val in keys.items())
                + "[solver]\ngrid_n = 2000\n")
            digest = hashlib.sha256()
            for command in COMMANDS:
                digest.update(run(command + ["--config", str(tmp / "run.ini")], tmp))
            print(f"{digest.hexdigest()}  {entry}")
            total.update(digest.digest())
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    main()
