"""Seeded workload generation, the benchmark ops, and their closed-form checks.

Every op drives the library the way a user does: it writes an INI config,
calls ``hardy_optim.cli.main`` in-process with stdout captured, and re-parses
the emitted record with ``config.parse_record``.  The two FE quotients that
have no subcommand (``reduced_rayleigh_min`` and ``lambda_limit``) are called
through the public API on the potential that ``config.load_config`` builds
from the same INI file, the way ``scripts/catalog_report.py`` calls them.

Inputs come in blocks that hold every discrete case (family, depth m) once,
with the continuous parameters taken from randomly started low-discrepancy
sequences.  Each draw still follows the stated distribution; the blocks only
keep the input mix of a time-bounded run from wandering with the seed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from hardy_optim import cli, config, oracle

# First positive zero of J0, frozen from a 40-digit evaluation so the
# reference constants do not depend on the package under test.
Z0 = 2.4048255576957727686

WORKLOADS = ("shoot-noncritical", "certify-borderline", "oracle-catalog")
BORDERLINE_KINDS = ("adimurthi_log", "filippas_tertikas_x")

AMPLITUDE_RANGE = (0.05, 20.0)   # log-uniform
RADIUS_RANGE = (0.25, 4.0)       # log-uniform, R = r_max
ALPHA_MAX = 1.9                  # power-law exponent ~ U[0, ALPHA_MAX]
MU_MAX = 0.25                    # eigen --mu ~ U[0, MU_MAX)
ORACLE_GRID_N = 10_000

# Acceptance tolerances the repository itself uses (criteria 06a, 07).
ORACLE_FLOOR = 0.01              # every FE quotient >= c(V) (1 - 1%)
REDUCED_TOL = 0.01               # reduced_rayleigh_min within 1% of c(V)
LIMIT_TOL = 0.02                 # lambda_limit within 2% of c(V)
DUAL_TOL = 1e-6                  # dual bound against its closed form

# Nominal baseline op rates of the traced and of the timed run (the timed
# rate includes the reference loops).  They only size the runs; see
# ``run_ops``.
TRACED_OPS_PER_S = {"shoot-noncritical": 3.0, "certify-borderline": 2.0,
                    "oracle-catalog": 1.0}
TIMED_OPS_PER_S = {"shoot-noncritical": 4.4, "certify-borderline": 2.75,
                   "oracle-catalog": 1.27}


@dataclass(frozen=True)
class Draw:
    """One generated input: a catalog potential on its ball, plus mu for eigen."""

    kind: str
    amplitude: float
    R: float = 1.0
    alpha: float = 0.0
    m: int = 0
    mu: float = 0.0

    @property
    def critical(self) -> bool:
        return self.kind in BORDERLINE_KINDS

    def ini(self) -> str:
        lines = ["[potential]", f"kind = {self.kind}", f"amplitude = {self.amplitude!r}"]
        if self.critical:
            lines.append(f"m = {self.m}")
        else:
            if self.kind == "power_law":
                lines.append(f"alpha = {self.alpha!r}")
            lines.append(f"r_max = {self.R!r}")
        lines += ["[solver]", f"grid_n = {ORACLE_GRID_N}"]
        return "\n".join(lines) + "\n"

    def c_ref(self) -> float:
        """Closed-form best constant c(V)."""
        if self.critical:
            return 0.25 / self.amplitude
        return (Z0 * (2.0 - self.alpha) / 2.0) ** 2 * self.R ** (self.alpha - 2.0) / self.amplitude

    def dual_ref(self, c: float, p: float) -> float:
        """Closed-form Hoelder-dual bound (n = 3) for constants and power laws."""
        if p == 1.0:
            volume_weight = 4.0 * math.pi * self.R ** (3.0 + self.alpha) / (3.0 + self.alpha)
            return c * self.amplitude / volume_weight
        return c * self.amplitude * self.R ** (-self.alpha)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# Irrational steps of the Kronecker sequences, one per input dimension
# (alpha, amplitude, R, mu): fractional parts of square roots of primes.
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7))

# Each block holds one draw per slot: (kind, m).  A quarter of the
# non-critical draws are constants; the log families come at m = 1, 2, 3.
_NONCRITICAL = [("constant", 0)] + [("power_law", 0)] * 3
_BORDERLINE = [(kind, m) for kind in BORDERLINE_KINDS for m in (1, 2, 3)]
_SLOTS = {"shoot-noncritical": _NONCRITICAL, "certify-borderline": _BORDERLINE,
          "oracle-catalog": _NONCRITICAL + _BORDERLINE}


def _log_uniform(u: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return lo * (hi / lo) ** u


def _draw(workload: str, kind: str, m: int, u: list[float]) -> Draw:
    u_alpha, u_amp, u_radius, u_mu = u
    amplitude = _log_uniform(u_amp, AMPLITUDE_RANGE)
    mu = MU_MAX * u_mu if workload == "oracle-catalog" else 0.0
    if kind in BORDERLINE_KINDS:
        return Draw(kind, amplitude, m=m, mu=mu)
    alpha = ALPHA_MAX * u_alpha if kind == "power_law" else 0.0
    return Draw(kind, amplitude, _log_uniform(u_radius, RADIUS_RANGE), alpha, mu=mu)


def warm_up_draw(workload: str) -> Draw:
    """The untimed warm-up op: the workload's first slot at mid-range
    parameters, the same for every seed so that set-up time does not
    depend on the seed."""
    kind, m = _SLOTS[workload][0]
    return _draw(workload, kind, m, [0.5] * len(_STEPS))


def block_size(workload: str) -> int:
    return len(_SLOTS[workload])


def generate(workload: str, seed: int) -> Iterator[Draw]:
    """Endless, seed-determined stream of draws for ``workload``.

    Each slot of a block walks its own randomly started Kronecker sequence
    over the unit cube of (alpha, amplitude, R, mu), so every draw is
    uniform on the stated ranges while a run of a few dozen blocks covers
    them evenly; the order within each block is shuffled.  The three
    power-law slots share one exponent sequence, offset by thirds.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    slots = _SLOTS[workload]
    starts = [[rng.random() for _ in _STEPS] for _ in slots]
    for b in itertools.count():
        block = []
        for i, ((kind, m), start) in enumerate(zip(slots, starts)):
            u = [(u0 + b * step) % 1.0 for u0, step in zip(start, _STEPS)]
            # repeats of one case (the power laws) split the exponent range
            # evenly within every block
            first, share = slots.index((kind, m)), slots.count((kind, m))
            u[0] = (starts[first][0] + b * _STEPS[0] + (i - first) / share) % 1.0
            block.append(_draw(workload, kind, m, u))
        rng.shuffle(block)
        yield from block


def run_ops(workload: str, seconds: float, traced: bool = False) -> int:
    """Fixed op count of a run: whole blocks, about ``seconds`` of baseline
    work.  A fixed count keeps every op outcome, so the failure count and
    the traced counters, exactly repeatable for one seed."""
    rate = (TRACED_OPS_PER_S if traced else TIMED_OPS_PER_S)[workload]
    size = block_size(workload)
    return size * max(1, round(seconds * rate / size))


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def plain_call(name: str, fn: Callable, *args):
    """Call hook of the untraced run; the traced run passes ``Tracer.call``."""
    return fn(*args)


@dataclass(frozen=True)
class CliRecord:
    section: str      # "result" or "error"
    record: dict


def _cli(args: list, call: Callable) -> CliRecord:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        call("cli.main", cli.main, args)
    text = buf.getvalue()
    record = call("config.parse_record", config.parse_record, text)
    return CliRecord(text[1:text.index("]")], record)


def run_op(workload: str, draw: Draw, path: str, call: Callable = plain_call) -> dict:
    """Run one op on the config already written to ``path``; returns its outputs."""
    if workload != "oracle-catalog":
        return {"best": _cli(["best-constant", "--config", path], call)}
    c = repr(draw.c_ref())
    out = {
        "classify": _cli(["classify", "--config", path], call),
        "eigen": _cli(["eigen", "--config", path, "--mu", repr(draw.mu)], call),
    }
    cfg = call("config.load_config", config.load_config, path)
    grid = oracle.GridSpec(cfg.grid_n, oracle.GridMapping.LOG_SPACED, cfg.R, cfg.r_min_rel * cfg.R)
    out["reduced"] = call("oracle.reduced_rayleigh_min", oracle.reduced_rayleigh_min,
                          cfg.potential, grid).lambda1
    out["limit"] = call("oracle.lambda_limit", oracle.lambda_limit,
                        cfg.potential, cfg.n, cfg.R).limit
    out["dual1"] = _cli(["dual", "--config", path, "--c", c, "--p", "1"], call)
    out["dual2"] = _cli(["dual", "--config", path, "--c", c, "--p", "2"], call)
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

# Verdicts, worst first.  "wrong" contradicts a closed-form fact (the op's
# answer is incorrect); "error" is a raised exception or an [error] record;
# "miss" is an answer outside the repository's own accuracy tolerance.  All
# three count as failed ops; only "wrong" makes the run incorrect.
SEVERITY = ("wrong", "error", "miss", "ok")


@dataclass(frozen=True)
class Verdict:
    status: str
    note: str = ""
    band_rel: Optional[float] = None    # relative width of the band around c(V)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _worst(verdicts: list[Verdict]) -> Verdict:
    return min(verdicts, key=lambda v: SEVERITY.index(v.status))


def _error(rec: CliRecord, what: str) -> Optional[Verdict]:
    if rec.section == "error":
        return Verdict("error", f"{what}: {rec.record.get('type')}: {rec.record.get('message')}")
    return None


def check_best_constant(draw: Draw, rec: CliRecord) -> Verdict:
    """Bracket must hold c(V) within the driver's tol * max(1, c), c_best inside."""
    failed = _error(rec, "best-constant")
    if failed:
        return failed
    c = draw.c_ref()
    lo, hi, best = (float(rec.record[k]) for k in ("c_lo", "c_hi", "c_best"))
    slack = float(rec.record["tolerance"]) * max(1.0, c)
    band_rel = (hi - lo) / c
    if not lo - slack <= c <= hi + slack:
        return Verdict("wrong", f"bracket [{lo!r}, {hi!r}] misses c(V) = {c!r}", band_rel)
    if not lo <= best <= hi:
        return Verdict("wrong", f"c_best {best!r} outside [{lo!r}, {hi!r}]", band_rel)
    return Verdict("ok", band_rel=band_rel)


def _check_quotient(name: str, value: float, c: float, tol: Optional[float]) -> Verdict:
    if not value >= c * (1.0 - ORACLE_FLOOR):
        return Verdict("wrong", f"{name} = {value!r} below c(V) = {c!r}")
    if tol is not None and abs(value / c - 1.0) > tol:
        return Verdict("miss", f"{name} = {value!r} off c(V) = {c!r} by more than {tol:g}")
    return Verdict("ok")


def _check_dual(draw: Draw, rec: CliRecord, c: float, p: float) -> Verdict:
    failed = _error(rec, f"dual p={p:g}")
    if failed:
        return failed
    bound = float(rec.record["bound"])
    if draw.critical:
        if not (math.isfinite(bound) and bound > 0.0):
            return Verdict("wrong", f"dual p={p:g} bound {bound!r} not finite and positive")
        return Verdict("ok")
    ref = draw.dual_ref(c, p)
    if not abs(bound / ref - 1.0) <= DUAL_TOL:
        return Verdict("wrong", f"dual p={p:g} bound {bound!r} != closed form {ref!r}")
    return Verdict("ok")


def check_oracle_row(draw: Draw, out: dict) -> Verdict:
    c = draw.c_ref()
    verdicts = []
    for part in ("classify", "eigen", "dual1", "dual2"):
        failed = _error(out[part], part)
        if failed:
            return failed
    label = out["classify"].record["label"]
    if label == "Y":
        verdicts.append(Verdict("wrong", "classified Y; every catalog entry is admissible (X)"))
    elif label != "X":
        verdicts.append(Verdict("miss", f"classified {label}"))
    eigen = float(out["eigen"].record["lambda1"])
    verdicts.append(_check_quotient("eigen lambda1", eigen, c, None))
    verdicts.append(_check_quotient("reduced_rayleigh_min", out["reduced"], c,
                                    None if draw.critical else REDUCED_TOL))
    verdicts.append(_check_quotient("lambda_limit", out["limit"], c,
                                    None if draw.critical else LIMIT_TOL))
    verdicts.append(_check_dual(draw, out["dual1"], c, 1.0))
    verdicts.append(_check_dual(draw, out["dual2"], c, 2.0))
    worst = _worst(verdicts)
    # Constant rows only: their FE error is the same for every amplitude and
    # radius, so the median does not wander with the drawn exponents.
    band_rel = None
    if draw.kind == "constant":
        band_rel = max(abs(out["reduced"] / c - 1.0), abs(out["limit"] / c - 1.0))
    return Verdict(worst.status, worst.note, band_rel)


def check(workload: str, draw: Draw, out: dict) -> Verdict:
    if workload == "oracle-catalog":
        return check_oracle_row(draw, out)
    return check_best_constant(draw, out["best"])

