#!/usr/bin/env python3
"""One-table summary of the potential catalog on the unit ball: class label,
shooting best constant, reduced-quotient oracle, critical-coupling limit,
and the p = 1 dual bound.

Run:  python scripts/catalog_report.py [--grid-n 10000]
"""
import argparse
import math

from hardy_optim import (GridMapping, GridSpec, RadialPotential, best_constant, classify,
                         dual_lower_bound, lambda_limit, reduced_rayleigh_min)
from hardy_optim.errors import HardyError


def fmt(x, width=12):
    return f"{x:<{width}.6g}" if isinstance(x, float) else f"{x:<{width}}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--grid-n", type=int, default=10_000)
    args = parser.parse_args()
    grid = GridSpec(args.grid_n, GridMapping.LOG_SPACED, 1.0, 1e-6)

    catalog = [
        ("constant", RadialPotential.constant(1.0)),
        ("power a=0.5", RadialPotential.power_law(0.5)),
        ("power a=1", RadialPotential.power_law(1.0)),
        ("power a=1.5", RadialPotential.power_law(1.5)),
        ("power a=2", RadialPotential.power_law(2.0)),
        ("adimurthi m=1", RadialPotential.adimurthi_log(1)),
        ("adimurthi m=2", RadialPotential.adimurthi_log(2)),
        ("ft m=1", RadialPotential.filippas_tertikas(1)),
        ("ft m=2", RadialPotential.filippas_tertikas(2)),
    ]

    print(f"{'potential':<15}{'class':<15}{'c_best':<12}{'bracket/band':<22}"
          f"{'rr_min':<12}{'lam_limit':<12}{'dual p=1':<12}")
    for name, p in catalog:
        label = classify(p).label.value
        try:
            res = best_constant(p, 1.0, tol=1e-6)
            cb = res.c_best
            span = f"[{res.c_lo:.4g}, {res.c_hi:.4g}]" + ("" if res.converged else " band")
        except HardyError as exc:
            cb, span = float("nan"), type(exc).__name__
        try:
            rr = reduced_rayleigh_min(p, grid).lambda1
        except HardyError:
            rr = float("nan")
        try:
            lam = lambda_limit(p, 3, 1.0).limit
        except HardyError:
            lam = float("nan")
        try:
            c_for_dual = min(cb, 1.0) if math.isfinite(cb) and cb > 0 else 1.0
            db = dual_lower_bound(p, c_for_dual, 1.0, 3, 1.0).bound
        except HardyError:
            db = float("nan")
        print(f"{name:<15}{label:<15}{fmt(cb)}{span:<22}{fmt(rr)}{fmt(lam)}{fmt(db)}")

    print("\nNote: for the borderline families the reduced quotient converges to the")
    print("truncated-interval eigenvalue, not to the ODE threshold 1/4 -- the gap")
    print("closes only doubly-logarithmically in the inner cutoff (non-attainment).")


if __name__ == "__main__":
    main()
