#!/usr/bin/env python3
"""Map the indeterminate multiplier band of the borderline catalog entries
against the log-domain horizon.

For each horizon s_max, every multiplier on a grid around the 1/4 threshold
is reported as feasible / infeasible / indeterminate; the indeterminate
stretch shrinks as the horizon grows because the Euler-comparison window
needs ln-length pi/sqrt(gamma - 1/4).  Beside the grid, each horizon's
predicted band [1/4, c_osc]: the family's closed form certifies every
c <= 1/4 feasible without a sweep, and its Euler tail's ``edge`` gives
c_osc from g at the outer edge and at the horizon, with gamma = r^2 v (s -
s0)^2 at the family's Euler shift s0, where it is non-increasing: every c
>= c_osc has an oscillatory certificate on the window from the outer edge
to the horizon, which no shorter window beats (infeasible).  The ``band`` row is
its width c_osc - 1/4.  Below them, each horizon's ``best_constant``
bracket and its wall time (best of 3): c_lo is 1/4 at every horizon, and
c_hi follows c_osc.  It is the before/after table of a change to the
sweeps or the edges.

Run:  python scripts/band_study.py
"""
import time

import numpy as np

from hardy_optim import RadialPotential, best_constant, feasible
from hardy_optim.errors import IndeterminateAtHorizon


def verdict(p, c, s_max):
    try:
        return "feasible" if feasible(p, c, 1.0, s_max=s_max).feasible else "infeasible"
    except IndeterminateAtHorizon:
        return "indeterminate"


def predicted_band(p, s_max):
    """[1/(4A), c_osc]: feasible by the closed form up to its lower end,
    certified infeasible from its upper end on."""
    return p.closed_form_multiplier(1.0), p.tail.edge(1.0, s_max)[0]


def timed_best_constant(p, s_max):
    """best_constant on the unit ball and its best wall time of 3, in ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        res = best_constant(p, 1.0, s_max=s_max)
        times.append(time.perf_counter() - start)
    return res, 1e3 * min(times)


def main():
    p = RadialPotential.adimurthi_log(1)
    multipliers = np.round(np.arange(0.20, 0.46, 0.025), 3)
    horizons = (1e4, 1e5, 1e6, 1e30, 1e150, 1e300)

    header = "c      " + "".join(f"s_max={h:<12.0e}" for h in horizons)
    print("# indeterminate band vs horizon, adimurthi_log (m = 1, threshold 1/4)")
    print(header)
    bands = {h: [] for h in horizons}
    for c in multipliers:
        row = [f"{c:<7.3f}"]
        for h in horizons:
            v = verdict(p, float(c), h)
            row.append(f"{v:<18}")
            if v == "indeterminate":
                bands[h].append(float(c))
        print("".join(row))
    edges = {h: predicted_band(p, h) for h in horizons}
    print("c_osc  " + "".join(f"{edges[h][1]:<18.6f}" for h in horizons))
    print("band   " + "".join(f"{edges[h][1] - edges[h][0]:<18.6f}" for h in horizons))
    solved = {h: timed_best_constant(p, h) for h in horizons}
    print("c_lo   " + "".join(f"{solved[h][0].c_lo:<18.6f}" for h in horizons))
    print("c_hi   " + "".join(f"{solved[h][0].c_hi:<18.6f}" for h in horizons))
    print("ms     " + "".join(f"{solved[h][1]:<18.2f}" for h in horizons))
    print()
    for h in horizons:
        seen = (f"indeterminate on [{min(bands[h])}, {max(bands[h])}] ({len(bands[h])} grid points)"
                if bands[h] else "no indeterminate grid point")
        print(f"s_max = {h:.0e}: {seen}; predicted band [{edges[h][0]:.6f}, {edges[h][1]:.6f}]")


if __name__ == "__main__":
    main()
