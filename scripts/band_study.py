#!/usr/bin/env python3
"""Map the indeterminate multiplier band of the borderline catalog entries
against the log-domain horizon.

For each horizon s_max, every multiplier on a grid around the 1/4 threshold
is reported as feasible / infeasible / indeterminate; the indeterminate
stretch shrinks as the horizon grows because the Euler-comparison window
needs ln-length pi/sqrt(gamma - 1/4).  Beside the grid, each horizon's band
edges as ``tail_edges`` predicts them: every c <= c_non has a
non-oscillatory certificate, to within ``CERTIFICATE_SLACK`` (feasible
unless the principal tail vanishes), every c >= c_osc an oscillatory one
(infeasible).

Run:  python scripts/band_study.py [--family adimurthi_log|filippas_tertikas_x]
"""
import argparse

import numpy as np

from hardy_optim import RadialPotential, SolverSettings, feasible, log_problem, tail_edges
from hardy_optim.errors import IndeterminateAtHorizon


def verdict(p, c, s_max):
    try:
        return "feasible" if feasible(p, c, 1.0, SolverSettings(s_max=s_max)).feasible \
            else "infeasible"
    except IndeterminateAtHorizon:
        return "indeterminate"


def predicted_edges(p, s_max):
    edges = tail_edges(log_problem(p, 1.0, 1.0, s_max=s_max))
    return edges.c_non, edges.c_osc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--family", default="adimurthi_log",
                        choices=("adimurthi_log", "filippas_tertikas_x"))
    args = parser.parse_args()
    maker = RadialPotential.adimurthi_log if args.family == "adimurthi_log" \
        else RadialPotential.filippas_tertikas
    p = maker(1)
    multipliers = np.round(np.arange(0.20, 0.46, 0.025), 3)
    horizons = (1e4, 1e5, 1e6, 1e30, 1e150)    # 1e150 is the largest horizon

    header = "c      " + "".join(f"s_max={h:<12.0e}" for h in horizons)
    print(f"# indeterminate band vs horizon, {args.family} (m = 1, threshold 1/4)")
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
    edges = {h: predicted_edges(p, h) for h in horizons}
    print("c_non  " + "".join(f"{edges[h][0]:<18.6f}" for h in horizons))
    print("c_osc  " + "".join(f"{edges[h][1]:<18.6f}" for h in horizons))
    print()
    for h in horizons:
        seen = (f"indeterminate on [{min(bands[h])}, {max(bands[h])}] ({len(bands[h])} grid points)"
                if bands[h] else "no indeterminate grid point")
        print(f"s_max = {h:.0e}: {seen}; predicted band [{edges[h][0]:.6f}, {edges[h][1]:.6f}]")


if __name__ == "__main__":
    main()
