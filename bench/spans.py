"""In-memory span tracing around the calls into each hardy_optim layer.

A span is ``[name, start, end, parent, op, error, extra]``: ``parent`` is
the index of the enclosing span (-1 for none), ``op`` the benchmark op it
belongs to, ``error`` the name of the exception that left it (or None) and
``extra`` a dict of counts read from the result.  Spans are recorded by
replacing public callables at the name each caller looks up (``patched``)
and by the benchmark's own call sites (``Tracer.call``).  Potential
evaluations are only counted, never timed, because there are hundreds of
thousands of them per op.
"""
from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Iterable, Optional

NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn: Callable,
             extra: Optional[Callable[[object], dict]] = None) -> Callable:
        """``fn`` recording one span per call; exceptions pass through unchanged."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``name``, without a timer."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def call_op(self, op: int, fn: Callable, *args):
        """Run one benchmark op under a root span named "op"; the layer
        spans inside it carry its id."""
        self.op = op
        return self.call("op", fn, *args)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (called once, at the end of the run)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op",
                                              "error", "extra"), span))) + "\n")


@contextlib.contextmanager
def patched(targets: Iterable[tuple]):
    """Set ``owner.attr = replacement`` for each target; restore on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ivp_counts(sol) -> dict:
    return {"nfev": int(sol.nfev), "steps": int(sol.t.size)}


def instrument(tracer: Tracer) -> list[tuple]:
    """Patch targets for every layer boundary below ``cli.main``.

    ``bestconst`` imports ``feasible``'s helpers by name, so they are
    replaced in ``bestconst`` (patching ``hardy_optim.ode.integrate`` alone
    would miss them).  ``cli`` reaches ``bestconst``, ``oracle`` and ``dual``
    through module attributes, so replacing the function on the module
    covers the CLI call; ``classify`` is bound in ``cli`` under its own name.
    """
    from hardy_optim import bestconst, cli, dual, ode, oracle
    from hardy_optim.potentials import RadialPotential

    spanned = [
        (bestconst, "best_constant", "bestconst.best_constant"),
        (bestconst, "feasible", "bestconst.feasible"),
        (bestconst, "integrate", "ode.integrate"),
        (bestconst, "euler_tail_certificate", "ode.euler_tail_certificate"),
        (bestconst, "integrate_principal_tail", "ode.integrate_principal_tail"),
        (cli, "classify_potential", "potentials.classify"),
        (dual, "dual_lower_bound", "dual.dual_lower_bound"),
        (oracle, "weighted_eigen", "oracle.weighted_eigen"),
        (oracle, "solve_banded", "oracle.solve_banded"),
    ]
    targets = [(mod, attr, tracer.wrap(name, mod.__dict__[attr])) for mod, attr, name in spanned]
    targets.append((ode, "solve_ivp", tracer.wrap("ode.solve_ivp", ode.solve_ivp, _ivp_counts)))
    for attr in ("value", "log_weight"):
        targets.append((RadialPotential, attr,
                        tracer.count(f"potentials.{attr}", RadialPotential.__dict__[attr])))
    return targets


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for a, b in sorted((spans[j][START], spans[j][END]) for j in children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


# Timed layer metrics: (metric, span name, "total" or "self").
_TIMED = [
    ("cli.main.self_ms_per_op", "cli.main", "self"),
    ("config.parse_record.ms_per_op", "config.parse_record", "total"),
    ("config.load_config.ms_per_op", "config.load_config", "total"),
    ("bestconst.best_constant.self_ms_per_op", "bestconst.best_constant", "self"),
    ("bestconst.feasible.ms_per_op", "bestconst.feasible", "total"),
    ("ode.integrate.ms_per_op", "ode.integrate", "total"),
    ("ode.euler_tail_certificate.ms_per_op", "ode.euler_tail_certificate", "total"),
    ("ode.integrate_principal_tail.ms_per_op", "ode.integrate_principal_tail", "total"),
    ("potentials.classify.ms_per_op", "potentials.classify", "total"),
    ("oracle.weighted_eigen.ms_per_op", "oracle.weighted_eigen", "total"),
    ("oracle.reduced_rayleigh_min.ms_per_op", "oracle.reduced_rayleigh_min", "total"),
    ("oracle.lambda_limit.self_ms_per_op", "oracle.lambda_limit", "self"),
    ("oracle.solve_banded.ms_per_op", "oracle.solve_banded", "total"),
    ("dual.dual_lower_bound.ms_per_op", "dual.dual_lower_bound", "total"),
    ("op.self_ms_per_op", "op", "self"),
]
_CALLS = ["bestconst.feasible", "ode.integrate", "ode.euler_tail_certificate",
          "ode.integrate_principal_tail", "ode.solve_ivp", "oracle.solve_banded"]
_FE_CALLS = ("oracle.weighted_eigen", "oracle.reduced_rayleigh_min")

# (metric, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    [(name, "ms") for name, _, _ in _TIMED]
    + [(f"{name}.calls_per_op", "count") for name in _CALLS]
    + [("bestconst.feasible.indeterminate_frac", "ratio"),
       ("ode.solve_ivp.nfev_per_op", "count"),
       ("ode.solve_ivp.steps_per_op", "count"),
       ("potentials.value.calls_per_op", "count"),
       ("potentials.log_weight.calls_per_op", "count"),
       ("oracle.assembly_ms_per_op", "ms")]
)

# Counters that depend only on the inputs; two traced runs of one seed
# must reproduce them exactly.
DETERMINISTIC = ("bestconst.feasible.calls_per_op", "ode.solve_ivp.nfev_per_op",
                 "potentials.log_weight.calls_per_op", "potentials.value.calls_per_op",
                 "oracle.solve_banded.calls_per_op")


def layer_metrics(spans: list[list], counts: dict, n_ops: int) -> dict[str, float]:
    """Per-op layer metrics over ``n_ops`` ops from one traced run."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_time in zip(spans, selfs):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        own[name] = own.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
    out = {}
    for metric, name, kind in _TIMED:
        out[metric] = 1e3 * (own if kind == "self" else total).get(name, 0.0) / n_ops
    for name in _CALLS:
        out[f"{name}.calls_per_op"] = calls.get(name, 0) / n_ops
    feasible = [s for s in spans if s[NAME] == "bestconst.feasible"]
    out["bestconst.feasible.indeterminate_frac"] = (
        sum(s[ERROR] == "IndeterminateAtHorizon" for s in feasible) / len(feasible)
        if feasible else 0.0)
    ivp = [s[EXTRA] for s in spans if s[NAME] == "ode.solve_ivp" and s[EXTRA]]
    out["ode.solve_ivp.nfev_per_op"] = sum(e["nfev"] for e in ivp) / n_ops
    out["ode.solve_ivp.steps_per_op"] = sum(e["steps"] for e in ivp) / n_ops
    for attr in ("value", "log_weight"):
        out[f"potentials.{attr}.calls_per_op"] = counts.get(f"potentials.{attr}", 0) / n_ops
    fe_time = sum(total.get(name, 0.0) for name in _FE_CALLS)
    banded = total.get("oracle.solve_banded", 0.0)
    out["oracle.assembly_ms_per_op"] = 1e3 * (fe_time - banded) / n_ops
    return out
