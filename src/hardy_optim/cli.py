"""Command-line front end.

Subcommands wrap the library one-to-one and emit machine-readable records
(INI-style, re-parsable by the config machinery) to stdout, or to --out
unless that names a CSV artifact (`trace`, `eigen --format csv`).  Exit
codes: 0 success, 1 error, 2 indeterminate/uncertified, so batch scripts
can tell "borderline" from "broken".  Errors, usage errors (an unknown
flag, a missing option) and an unwritable --out included, are emitted as
structured [error] records, never bare tracebacks.
"""
from __future__ import annotations

import sys
import time
from types import SimpleNamespace
from typing import Optional

from . import bestconst, dual, ode, oracle
from .config import RunConfig, format_record, load_config, write_csv, write_text
from .errors import ConfigError, HardyError, IndeterminateAtHorizon, NoUpperBracket
from .potentials import classify as classify_potential

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_INDETERMINATE = 2


def main(argv: Optional[list] = None) -> int:
    args = None
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        record, exit_code = args.handler(args, load_config(args.config))
        if args.timestamp:
            record["timestamp"] = f"{time.time():.6f}"
        return _emit(args, record, exit_code)
    except (IndeterminateAtHorizon, NoUpperBracket) as exc:
        return _emit(args, {**_error(exc), "status": type(exc).__name__}, _EXIT_INDETERMINATE,
                     section="error")
    except HardyError as exc:
        return _emit(args, _error(exc), _EXIT_ERROR, section="error")


def _emit(args, record: dict, exit_code: int, section: str = "result") -> int:
    """Write the record and return exit_code; a record that --out cannot
    take is lost, and an [error] record on stdout says so (exit 1)."""
    text = format_record(record, section=section)
    # records, [error] ones included, never overwrite --out's CSV (trace, eigen
    # --format csv); a usage error has no parsed arguments and goes to stdout
    if args is not None and args.out and args.handler is not _cmd_trace \
            and getattr(args, "format", None) != "csv":
        try:
            write_text(args.out, text)
            return exit_code
        except ConfigError as exc:
            text, exit_code = format_record(_error(exc), section="error"), _EXIT_ERROR
    sys.stdout.write(text)
    return exit_code


def _error(exc: HardyError) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


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
        write_csv(path, "r,u", (grid.nodes(), result.eigenvector))
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
    grid = oracle.GridSpec(cfg.grid_n, oracle.GridMapping.LOG_SPACED, cfg.R * (1.0 - 1e-12),
                           cfg.r_min_rel * cfg.R).nodes()
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
    if cfg.potential.tail.log_domain:
        prob = ode.to_log_domain(prob, cfg.s_max)
    out = ode.integrate(prob)
    header = ",".join(out.trajectory)    # r,y,dy or s,z,dz
    path = args.out or "trajectory.csv"
    write_csv(path, header, out.trajectory.values())
    record = {
        "status": out.status.value,
        "first_zero": out.first_zero,
        "zero_s": out.zero_s, **dict(zip(("zero_s_lo", "zero_s_hi"), out.zero_bracket or ())),
        "samples": out.trajectory[header.split(",")[0]].size,
        "csv": path,
    }
    return record, _EXIT_OK


# ---------------------------------------------------------------------------
# Command line: one table gives both the parse and the --help text
# ---------------------------------------------------------------------------

def _format(value: str) -> str:
    if value not in ("record", "csv"):
        raise ValueError(value)
    return value


# {name: (handler, {flag: value parser})}, every subcommand taking the shared
# flags too; a flag is required unless _DEFAULTS holds it, and --timestamp
# (parser None) is a switch that takes no value
_SHARED = {"--config": str, "--out": str, "--timestamp": None}
_DEFAULTS = {"--out": None, "--timestamp": False, "--format": "record"}
_COMMANDS = {name: (handler, {**_SHARED, **flags}) for name, handler, flags in (
    ("best-constant", _cmd_best_constant, {}),
    ("feasible", _cmd_feasible, {"--c": float}),
    ("classify", _cmd_classify, {}),
    ("eigen", _cmd_eigen, {"--mu": float, "--format": _format}),
    ("dual", _cmd_dual, {"--c": float, "--p": float}),
    ("check-closed-form", _cmd_check_closed_form, {}),
    ("trace", _cmd_trace, {"--c": float}))}


def _usage(name: Optional[str], error: Optional[str] = None):
    """Print the usage line of subcommand ``name`` (of all seven for None),
    optional flags bracketed: for --help to stdout, then exit 0; for a usage
    error to stderr, then raise it as a ConfigError."""
    for each in [name] if name else _COMMANDS:
        words = ["usage: hardy-optim", each]
        for flag, parse in sorted(_COMMANDS[each][1].items(), key=lambda kv: kv[0] in _DEFAULTS):
            word = flag if parse is None else \
                f"{flag} {'record|csv' if parse is _format else flag[2:].upper()}"
            words.append(f"[{word}]" if flag in _DEFAULTS else word)
        print(*words, file=sys.stderr if error else sys.stdout)
    if error:
        raise ConfigError(f"hardy-optim{' ' + name if name else ''}: {error}")
    raise SystemExit(0)


def _parse_args(argv: list) -> SimpleNamespace:
    """The namespace the handlers read, from ``<subcommand>`` and its flags in
    any order, each ``--flag value`` or ``--flag=value``: exact names, each at
    most once, value tokens verbatim.  -h/--help prints usage and exits 0."""
    name = argv[0] if argv else ""
    if name in ("-h", "--help"):
        _usage(None)
    if name not in _COMMANDS:
        _usage(None, f"expected a subcommand, one of {', '.join(_COMMANDS)}; got {name!r}")
    (handler, flags), values, tokens = _COMMANDS[name], {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            _usage(name)
        if flag not in flags or flag in values:
            _usage(name, f"{'repeated' if flag in values else 'unrecognized'} argument {token!r}")
        if flags[flag] is None:     # a switch
            if eq:
                _usage(name, f"argument {flag} takes no value")
            values[flag] = True
            continue
        value = value if eq else next(tokens, None)
        if value is None:
            _usage(name, f"argument {flag}: expected one argument")
        try:
            values[flag] = flags[flag](value)
        except ValueError:
            _usage(name, f"argument {flag}: invalid value {value!r}")
    if not values.keys() >= flags.keys() - _DEFAULTS.keys():
        missing = [flag for flag in flags if flag not in values and flag not in _DEFAULTS]
        _usage(name, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(handler=handler,
                           **{flag[2:]: values.get(flag, _DEFAULTS.get(flag)) for flag in flags})


if __name__ == "__main__":
    sys.exit(main())
