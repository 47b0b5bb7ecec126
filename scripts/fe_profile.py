#!/usr/bin/env python3
"""Working set and cost of the FE quotients on the catalog.

For each FE entry point on each catalog potential on the unit ball
(a constant, power laws alpha = 0.5, 1, 1.5, both log families at m = 1, 2,
3), it prints the peak of traced memory in units of N doubles (tracemalloc),
the minor page faults (resource.getrusage), the number of LAPACK dpttrf
factorizations and dpttrs solves, and the wall time in ms.  The entry points
are run as one oracle-catalog benchmark row runs them: reduced_rayleigh_min
and weighted_eigen (mu = 0.125, n = 3) at N = 10,000 down to r_min = 1e-6,
and lambda_limit (n = 3) on its own 4000-node grid.  Every call is made once
untimed first; the faults and the time are medians over three untraced
calls (the LAPACK counts are per call), the peak is of one traced call.  A
last line per entry point gives the means over the catalog.  The first line
names the LAPACK the oracle chose (numpy's own OpenBLAS, or scipy's
_flapack), the last the process's peak resident set (ru_maxrss, in kB on
Linux and bytes on macOS).

Run:  PYTHONPATH=src python scripts/fe_profile.py
"""
import resource
import statistics
import time
import tracemalloc

from hardy_optim import (GridMapping, GridSpec, RadialPotential, lambda_limit, oracle,
                         reduced_rayleigh_min, weighted_eigen)

CATALOG = [("constant", RadialPotential.constant(1.0))]
CATALOG += [(f"power_law alpha={a}", RadialPotential.power_law(a)) for a in (0.5, 1.0, 1.5)]
CATALOG += [(f"adimurthi_log m={m}", RadialPotential.adimurthi_log(m)) for m in (1, 2, 3)]
CATALOG += [(f"filippas_tertikas m={m}", RadialPotential.filippas_tertikas(m)) for m in (1, 2, 3)]
GRID = GridSpec(10_000, GridMapping.LOG_SPACED, 1.0, 1e-6)
LIMIT_N = 4000                     # lambda_limit's default grid
ENTRIES = [("reduced_rayleigh_min", GRID.N, lambda p: reduced_rayleigh_min(p, GRID)),
           ("weighted_eigen", GRID.N, lambda p: weighted_eigen(p, 0.125, 3, GRID)),
           ("lambda_limit", LIMIT_N, lambda p: lambda_limit(p, 3, 1.0))]


def profile(run, n):
    """(peak N-arrays, minor faults, dpttrf calls, dpttrs calls, ms) of run()."""
    repeat = 3
    counts = {"dpttrf": 0, "solve_banded": 0}
    originals = {name: getattr(oracle, name) for name in counts}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return originals[name](*args)
        return call

    run()
    for name in counts:
        setattr(oracle, name, counted(name))
    faults, ms = [], []
    try:
        for _ in range(repeat):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            run()
            ms.append(1e3 * (time.perf_counter() - start))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    finally:
        for name, fn in originals.items():
            setattr(oracle, name, fn)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * n)
    finally:
        tracemalloc.stop()
    return (peak, statistics.median(faults), counts["dpttrf"] // repeat,
            counts["solve_banded"] // repeat, statistics.median(ms))


def main():
    print(f"lapack: {oracle._lapack().name}")
    print(f"{'entry':<22}{'potential':<24}{'N':>6}{'peak_N':>8}{'faults':>8}"
          f"{'dpttrf':>8}{'dpttrs':>8}{'ms':>8}")
    for entry, n, fn in ENTRIES:
        rows = []
        for name, p in CATALOG:
            rows.append(profile(lambda: fn(p), n))
            print(f"{entry:<22}{name:<24}{n:>6}{rows[-1][0]:>8.2f}{rows[-1][1]:>8}"
                  f"{rows[-1][2]:>8}{rows[-1][3]:>8}{rows[-1][4]:>8.2f}")
        means = [statistics.fmean(column) for column in zip(*rows)]
        print(f"{entry:<22}{'mean':<24}{n:>6}{means[0]:>8.2f}{means[1]:>8.1f}"
              f"{means[2]:>8.1f}{means[3]:>8.1f}{means[4]:>8.2f}")
    print(f"ru_maxrss: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")


if __name__ == "__main__":
    main()
