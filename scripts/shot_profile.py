#!/usr/bin/env python3
"""Cost of the table sweeps: the shot-layer counterpart of fe_profile.py.

For each of four 400-node tables on r = geomspace(1e-8, 1, 400) on the
unit ball, v = exp(3r), v = r^-1.5, v = (1 + r^-1.2)(1 + sin(40 r)/2)
(ROADMAP item 17's table) and v = r^-1.9999 (c(V) = 1.4458e-8), it prints
best_constant's probes, certified bracket and its relative width (c_hi -
c_lo) / c_lo, the Bessel points (arguments passed to ode._bessel) of one
feasible call at c_lo, and the median wall time in ms of three
best_constant calls after an untimed one.  Probes, brackets and Bessel
points are deterministic; the times are not.

Run:  PYTHONPATH=src python scripts/shot_profile.py
"""
import statistics
import time

import numpy as np

from hardy_optim import RadialPotential, best_constant, feasible, ode

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


if __name__ == "__main__":
    main()
