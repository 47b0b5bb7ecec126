"""One benchmark process: package import, input generation, one untimed
warm-up op, then either nothing more (``--mode setup``), the timed closed
loop, or the traced run.  ``run.py`` starts it in a fresh interpreter from
the root of the checkout, with ``src`` on PYTHONPATH, and reads the JSON
object on its last stdout line.

Closed loop: one client, one thread, each op issued when the previous one
has returned, because callers of this library wait for every answer.
"""
import time

START = time.perf_counter()   # setup_s counts from here, before any import

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import numpy
import scipy

import spans
import workloads

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "out"


def attempt(workload: str, draw, path: str, runner) -> tuple:
    """Write the op's config, run it through ``runner`` and check it.
    Returns (latency_s, verdict, traceback or None)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(draw.ini())
    t0 = time.perf_counter()
    try:
        out = runner(workload, draw, path)
    except Exception as exc:   # a raising op is a failed op; the loop goes on
        return (time.perf_counter() - t0,
                workloads.Verdict("error", f"{type(exc).__name__}: {exc}"),
                traceback.format_exc())
    latency = time.perf_counter() - t0
    return latency, workloads.check(workload, draw, out), None


class Tally:
    """Outcomes of the measured ops of one run.  ``slowdown`` is how much
    slower than the reference speed the machine ran during an op (see
    ``reference_loop``); latencies are kept scaled to the reference speed."""

    def __init__(self):
        self.latencies, self.raw, self.bands, self.failures, self.ops = [], [], [], [], []
        self.attempted = self.wrong = 0
        self.busy = 0.0     # scaled time of all ops, failed ones included

    def add(self, draw, latency: float, verdict, tb, slowdown: float = 1.0) -> None:
        index = self.attempted
        self.attempted += 1
        self.busy += latency / slowdown
        self.ops.append({"kind": draw.kind, "m": draw.m, "alpha": draw.alpha,
                         "ms": 1e3 * latency, "slowdown": slowdown, "status": verdict.status})
        if verdict.band_rel is not None:
            self.bands.append(verdict.band_rel)
        if verdict.ok:
            self.latencies.append(latency / slowdown)
            self.raw.append(latency)
            return
        self.wrong += verdict.status == "wrong"
        self.failures.append({"op": index, "status": verdict.status, "note": verdict.note,
                              "draw": vars(draw), "traceback": tb})

    @property
    def ok(self) -> int:
        return len(self.latencies)


# Duration of ``reference_loop`` that defines the reference speed: about
# its time on the 2-vCPU baseline machine in a quiet phase.
REF_S = 0.015


def reference_loop() -> float:
    """Run a fixed loop of the three kinds of work the ops do (scalar
    Python, numpy on 2-vectors as in ``solve_ivp``, numpy on long arrays as
    in FE assembly); return its duration in s."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(50_000):
        x += math.sqrt(i + x * 1e-9)
    y = numpy.array([1.0, 0.0])
    for _ in range(3_000):
        y = y + 1e-3 * numpy.array([y[1], -y[0]])
    a = numpy.arange(1.0, 20_001.0)
    for _ in range(60):
        a = numpy.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def machine_slowdown() -> float:
    """The machine's current slowdown against the reference speed."""
    return (reference_loop() + reference_loop()) / (2.0 * REF_S)


def timed_run(workload: str, draws, path: str, n_ops: int) -> tuple:
    """Fixed-length timed run of ``n_ops`` ops.

    The speed of a shared machine wanders by tens of percent within
    seconds.  So each op is bracketed by two reference loops, and its
    latency is divided by their mean duration over ``REF_S``: the latency
    the op would have at the reference speed.  The wall-clock figures, over
    the same op time, go to the record."""
    tally = Tally()
    start = time.perf_counter()
    before = reference_loop()
    for _ in range(n_ops):
        draw = next(draws)
        latency, verdict, tb = attempt(workload, draw, path, workloads.run_op)
        after = reference_loop()
        tally.add(draw, latency, verdict, tb, slowdown=(before + after) / (2.0 * REF_S))
        before = after
    elapsed = time.perf_counter() - start
    if not tally.latencies or not tally.bands:
        raise RuntimeError(f"{workload}: no successful op or no band in {elapsed:.1f} s")
    metrics = {
        "ops_per_s": tally.ok / tally.busy,
        "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        "op_p90_ms": 1e3 * _p90(tally.latencies),
        "ok_frac": tally.ok / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "band_rel_width": statistics.median(tally.bands),
    }
    wall = {"wall_ops_per_s": tally.ok / (1e-3 * math.fsum(op["ms"] for op in tally.ops)),
            "wall_op_p50_ms": 1e3 * statistics.median(tally.raw),
            "wall_op_p90_ms": 1e3 * _p90(tally.raw)}
    return tally, metrics, elapsed, wall


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def traced_run(workload: str, draws, path: str, n_ops: int, spans_path=None) -> tuple:
    """Fixed-length traced run (``n_ops`` ops) returning per-layer metrics."""
    tracer = spans.Tracer()
    tally = Tally()

    def runner(workload, draw, path):
        return tracer.call_op(tally.attempted, workloads.run_op, workload, draw, path,
                              tracer.call)

    with spans.patched(spans.instrument(tracer)):
        start = time.perf_counter()
        for _ in range(n_ops):
            draw = next(draws)
            tally.add(draw, *attempt(workload, draw, path, runner))
        elapsed = time.perf_counter() - start
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, n_ops)
    metrics["trace.ops_per_s"] = tally.ok / elapsed
    if spans_path is not None:
        tracer.dump(spans_path)
    return tally, metrics, elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args()

    package = Path(workloads.cli.__file__).resolve().parent
    if package != (ROOT / "src" / "hardy_optim").resolve():
        raise SystemExit(f"imported hardy_optim from {package}, not from {ROOT / 'src'}")
    draws = workloads.generate(args.workload, args.seed)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        path = str(work / "op.ini")
        attempt(args.workload, workloads.warm_up_draw(args.workload), path, workloads.run_op)
        setup_wall_s = time.perf_counter() - START
        result = {"setup_s": setup_wall_s / machine_slowdown(), "setup_wall_s": setup_wall_s}
        if args.mode == "run":
            if args.trace:
                n_ops = workloads.run_ops(args.workload, args.seconds, traced=True)
                spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
                tally, metrics, elapsed = traced_run(args.workload, draws, path, n_ops,
                                                     spans_path)
                wall = {}
            else:
                n_ops = workloads.run_ops(args.workload, args.seconds)
                tally, metrics, elapsed, wall = timed_run(args.workload, draws, path, n_ops)
            result.update(
                attempted=tally.attempted, failed=tally.attempted - tally.ok,
                wrong=tally.wrong, elapsed_s=elapsed, metrics=metrics, wall=wall,
                failures=tally.failures, ops=tally.ops,
                env={"nproc": len(os.sched_getaffinity(0)),
                     "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                     "hardy_optim_threads": os.environ.get("HARDY_OPTIM_THREADS", "default")})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
