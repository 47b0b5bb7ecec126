"""Command-line front end.

Subcommands wrap the library one-to-one and emit machine-readable records
(INI-style, re-parsable by the config machinery) to stdout, or to --out
unless that names a CSV artifact (`trace`, `eigen --format csv`).  Exit
codes: 0 success, 1 error, 2 indeterminate/uncertified, so batch scripts
can tell "borderline" from "broken".  Errors, usage errors (an unknown
flag, a missing option) included, are emitted as structured [error]
records, never bare tracebacks or argparse's exit status 2.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Optional

import numpy as np

from . import bestconst, dual, ode, oracle
from .config import (RunConfig, format_record, load_config, write_trajectory_csv,
                     write_vector_csv)
from .errors import ConfigError, HardyError, IndeterminateAtHorizon, NoUpperBracket
from .potentials import classify as classify_potential

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_INDETERMINATE = 2


def main(argv: Optional[list] = None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        record, exit_code = args.handler(args, load_config(args.config))
    except (IndeterminateAtHorizon, NoUpperBracket) as exc:
        record = {"type": type(exc).__name__, "message": str(exc), "status": type(exc).__name__}
        _emit(args, record, section="error")
        return _EXIT_INDETERMINATE
    except HardyError as exc:
        _emit(args, {"type": type(exc).__name__, "message": str(exc)}, section="error")
        return _EXIT_ERROR
    if args.timestamp:
        record["timestamp"] = f"{time.time():.6f}"
    _emit(args, record)
    return exit_code


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a usage error: argparse would exit with 2,
    which this CLI keeps for indeterminate verdicts.  --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardy-optim",
        description="Improved Hardy inequality feasibility, best constants, and "
                    "discretized eigenvalue cross-checks.")
    sub = parser.add_subparsers(required=True)

    def add(name, handler, **extra_args):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="INI config path")
        cmd.add_argument("--out", default=None, help="write the record/CSV here instead of stdout")
        cmd.add_argument("--timestamp", action="store_true",
                         help="append a wall-clock field (off by default for reproducibility)")
        for flag, kw in extra_args.items():
            cmd.add_argument(flag, **kw)
        cmd.set_defaults(handler=handler)
        return cmd

    add("best-constant", _cmd_best_constant)
    add("feasible", _cmd_feasible, **{"--c": dict(type=float, required=True, dest="c")})
    add("classify", _cmd_classify)
    add("eigen", _cmd_eigen, **{"--mu": dict(type=float, required=True, dest="mu"),
                                "--format": dict(choices=("record", "csv"), default="record")})
    add("dual", _cmd_dual, **{"--c": dict(type=float, required=True, dest="c"),
                              "--p": dict(type=float, required=True, dest="p")})
    add("check-closed-form", _cmd_check_closed_form)
    add("trace", _cmd_trace, **{"--c": dict(type=float, required=True, dest="c")})
    return parser


def _writes_csv(args) -> bool:
    """Whether --out names the subcommand's CSV artifact."""
    return args.handler is _cmd_trace or getattr(args, "format", None) == "csv"


def _emit(args, record: dict, section: str = "result") -> None:
    text = format_record(record, section=section)
    # records, [error] ones included, never overwrite a CSV artifact path;
    # a usage error has no parsed arguments and goes to stdout
    if args is not None and args.out and not _writes_csv(args):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_best_constant(args, cfg: RunConfig):
    result = bestconst.best_constant(cfg.potential, cfg.R, s_max=cfg.s_max)
    record = {
        "c_best": result.c_best,
        "c_lo": result.c_lo,
        "c_hi": result.c_hi,
        "iterations": result.iterations,
        "tolerance": result.tolerance,
        "converged": result.converged,
        "status": "converged" if result.converged else "indeterminate_band",
    }
    if result.band is not None:
        record["band_lo"], record["band_hi"] = result.band
    return record, _EXIT_OK if result.converged else _EXIT_INDETERMINATE


def _cmd_feasible(args, cfg: RunConfig):
    check = bestconst.feasible(cfg.potential, args.c, cfg.R, cfg.s_max)
    out = check.evidence
    record = {
        "feasible": check.feasible,
        "method": check.method,
        "status": out.status.value,
        "first_zero": out.first_zero,
    }
    if out.certificate is not None:
        record["certificate"] = out.certificate.kind
        record["certificate_gamma"] = out.certificate.gamma
    return record, _EXIT_OK


def _cmd_classify(args, cfg: RunConfig):
    label = classify_potential(cfg.potential)
    record = {
        "label": label.label.value,
        "limit_estimate": label.limit_estimate,
        "n_probes": label.probe_radii.size,
        "smallest_probe": float(label.probe_radii[-1]),
        "evidence_last": float(label.evidence[-1]),
    }
    return record, _EXIT_OK


def _cmd_eigen(args, cfg: RunConfig):
    grid = oracle.GridSpec(cfg.grid_n, oracle.GridMapping.LOG_SPACED,
                           cfg.R, cfg.r_min_rel * cfg.R)
    result = oracle.weighted_eigen(cfg.potential, args.mu, cfg.n, grid)
    record = {
        "lambda1": result.lambda1,
        "N": grid.N,
        "r_min": grid.r_min,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
    }
    if args.format == "csv":
        path = args.out or "eigenvector.csv"
        write_vector_csv(path, grid.nodes(), result.eigenvector)
        record["csv"] = path
    return record, _EXIT_OK


def _cmd_dual(args, cfg: RunConfig):
    bound = dual.dual_lower_bound(cfg.potential, args.c, args.p, cfg.n, cfg.R)
    record = {
        "p": bound.p,
        "q": bound.q if bound.q is not None else "inf",
        "bound": bound.bound,
        "c_used": bound.c_used,
        "divergent": bound.divergent,
    }
    return record, _EXIT_OK


def _cmd_check_closed_form(args, cfg: RunConfig):
    p = cfg.potential
    c = p.closed_form_multiplier(cfg.R)
    grid = np.exp(np.linspace(math.log(1e-6 * cfg.R), math.log(cfg.R * (1.0 - 1e-12)),
                              cfg.grid_n))
    phi = p.closed_form(grid, cfg.R)
    prob = ode.radius_problem(p, c, cfg.R)
    res = ode.residual(phi, prob, grid)
    record = {
        "kind": p.kind.value,
        "multiplier": c,
        "grid_n": cfg.grid_n,
        "residual_max": res,
    }
    return record, _EXIT_OK


def _cmd_trace(args, cfg: RunConfig):
    prob = ode.radius_problem(cfg.potential, args.c, cfg.R)
    if ode.wants_log_domain(cfg.potential):
        prob = ode.to_log_domain(prob, cfg.s_max)
    out = ode.integrate(prob)
    header = ",".join(out.trajectory)    # r,y,dy or s,z,dz
    path = args.out or "trajectory.csv"
    write_trajectory_csv(path, out, header)
    record = {
        "status": out.status.value,
        "first_zero": out.first_zero,
        "zero_s": out.zero_s,
        "samples": out.trajectory[header.split(",")[0]].size,
        "csv": path,
    }
    return record, _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
