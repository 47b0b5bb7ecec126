#!/usr/bin/env python3
"""Cost of the table sweeps and of one best-constant op per rule kind: the
shot-layer counterpart of fe_profile.py.

For each of four 400-node tables on r = geomspace(1e-8, 1, 400) on the
unit ball, v = exp(3r), v = r^-1.5, v = (1 + r^-1.2)(1 + sin(40 r)/2)
(ROADMAP item 17's table) and v = r^-1.9999 (c(V) = 1.4458e-8), it prints
best_constant's probes, certified bracket and its relative width (c_hi -
c_lo) / c_lo, the Bessel points (arguments passed to ode._bessel) of one
feasible call at c_lo, and the median wall time in ms of three
best_constant calls after an untimed one.

Then, for each rule kind of ``bestconst`` (_LevelRule: a power law alpha =
1.1; _ClosedRule: the iterated log at m = 2; _TailRule: a power law alpha =
2.5; _SweptRule: the r^-1.5 table), one in-process ``hardy-optim
best-constant`` op on a config written as the benchmark writes it: the
Python function calls of one warm op (sys.setprofile "call" events, the
rule slot cleared, so the op builds its rule, as every benchmark op does)
and the median wall time in microseconds of 101 warm ops.  Probes,
brackets, Bessel points and calls are deterministic; the times are not.

Run:  PYTHONPATH=src python scripts/shot_profile.py
"""
import contextlib
import gc
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hardy_optim import RadialPotential, best_constant, bestconst, cli, feasible, ode

R = np.geomspace(1e-8, 1.0, 400)
TABLES = [("exp(3r)", np.exp(3.0 * R)), ("r^-1.5", R ** -1.5),
          ("item 17", (1.0 + R ** -1.2) * (1.0 + 0.5 * np.sin(40.0 * R))),
          ("r^-1.9999", R ** -1.9999)]


def bessel_points(p, c):
    """The number of points ode._bessel evaluates in one feasible(p, c, 1)."""
    points, original = [], ode._bessel

    def counted(lnx):
        points.append(np.size(lnx))
        return original(lnx)

    ode._bessel = counted
    try:
        feasible(p, c, 1.0)
    finally:
        ode._bessel = original
    return sum(points)


# (rule kind, [potential] keys); "samples" names the r^-1.5 table's CSV
RULES = [("_LevelRule", {"kind": "power_law", "amplitude": 1.3, "alpha": 1.1, "r_max": 1.7}),
         ("_ClosedRule", {"kind": "adimurthi_log", "amplitude": 1.3, "m": 2}),
         ("_TailRule", {"kind": "power_law", "amplitude": 1.3, "alpha": 2.5, "r_max": 1.7}),
         ("_SweptRule", {"kind": "custom", "samples": "table.csv"})]


def op_calls(argv):
    """The Python calls of one in-process CLI op, the rule slot cleared and
    the cyclic collector paused, so that no finalizer runs inside it."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    bestconst._slot = None
    gc.disable()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        try:
            cli.main(argv)
        finally:
            sys.setprofile(None)
            gc.enable()
    return calls


def op_us(argv, repeat=101):
    """The median wall time in microseconds of ``repeat`` in-process CLI ops."""
    us = []
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(repeat):
            start = time.perf_counter()
            cli.main(argv)
            us.append(1e6 * (time.perf_counter() - start))
    return statistics.median(us)


def rule_rows():
    """One best-constant op per rule kind: its rule, Python calls and median us."""
    print(f"{'rule':<12}{'potential':<19}{'calls':>7}{'us':>9}")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "table.csv").write_text("r,v\n" + "".join(
            f"{ri!r},{vi!r}\n" for ri, vi in zip(R.tolist(), (R ** -1.5).tolist())))
        for rule, keys in RULES:
            keys = {k: tmp / v if k == "samples" else v for k, v in keys.items()}
            (tmp / "op.ini").write_text("[potential]\n" + "".join(
                f"{k} = {v}\n" for k, v in keys.items()) + "[solver]\ngrid_n = 10000\n")
            argv = ["best-constant", "--config", str(tmp / "op.ini")]
            op_calls(argv)    # untimed: first-use work
            kind = keys["kind"] + (f" m={keys['m']}" if "m" in keys else
                                   f" a={keys['alpha']}" if "alpha" in keys else "")
            print(f"{rule:<12}{kind:<19}{op_calls(argv):>7}{op_us(argv):>9.1f}")


def main():
    print(f"{'table':<10}{'probes':>7}{'c_lo':>25}{'c_hi':>25}{'rel_width':>11}{'bessel':>8}"
          f"{'ms':>8}")
    for name, v in TABLES:
        p = RadialPotential.custom(R, v)
        res = best_constant(p, 1.0)
        ms = []
        for _ in range(3):
            start = time.perf_counter()
            best_constant(p, 1.0)
            ms.append(1e3 * (time.perf_counter() - start))
        rel_width = (res.c_hi - res.c_lo) / res.c_lo
        print(f"{name:<10}{res.iterations:>7}{res.c_lo!r:>25}{res.c_hi!r:>25}{rel_width:>11.3g}"
              f"{bessel_points(p, res.c_lo):>8}{statistics.median(ms):>8.2f}")
    print()
    rule_rows()


if __name__ == "__main__":
    main()
