#!/usr/bin/env python3
"""hardy-optim benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload shoot-noncritical --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` starts three fresh
interpreters: two only set up (import, input generation, one warm-up op)
and the third sets up the same way and then runs the closed loop over a
fixed, seed-determined op stream worth about ``--seconds`` of baseline
work; it prints the end-to-end metrics, with every time scaled to a
reference speed of the machine.  ``--trace 1`` starts one
interpreter that runs a fixed, seed-determined prefix of the op stream with
every layer boundary traced and prints the per-layer metrics.  The last
stdout line is a JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, and the spans of a traced run,
go to ``bench/out/``.  See bench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("shoot-noncritical", "certify-borderline", "oracle-catalog")
SETUPS = 3                 # interpreters whose set-up time gives setup_s
DEADLINE_S = 170.0         # all workers of one invocation end within this

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("ok_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("band_rel_width", "ratio")]
LAYER_METRICS = spans.LAYER_METRICS + [("trace.ops_per_s", "1/s")]

# Pool sizes of the numeric libraries: one thread, like the single client.
PINNED_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}


def worker_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("HARDY_OPTIM_THREADS", None)   # the package default
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args, mode: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "hardy_optim" / "__init__.py").is_file():
        print(f"no hardy_optim sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = worker_env(root)
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [run_worker(args, "setup", env, deadline) for _ in range(SETUPS - 1)]
    result = run_worker(args, "run", env, deadline)
    setups.append(result)

    metrics = dict(result["metrics"])
    if args.trace:
        units = dict(LAYER_METRICS)
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        units = dict(END_TO_END)
    report = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    env_record = dict(result["env"], workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, ops=result["attempted"],
                      elapsed_s=result["elapsed_s"],
                      setup_samples_s=[s["setup_s"] for s in setups],
                      setup_wall_samples_s=[s["setup_wall_s"] for s in setups],
                      failed_frac=result["failed"] / result["attempted"], **result["wall"])
    record = {"env": env_record, "metrics": report, "failures": result["failures"],
              "ops": result["ops"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("# " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for failure in result["failures"]:
        print(f"# failed op {failure['op']} ({failure['status']}): {failure['note']}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": result["wrong"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
