"""Self-tests of the benchmark: generation, checks, tracing and the runner.

    python3 -m pytest -q bench
"""
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads
from hardy_optim import RadialPotential, bestconst, cli, dual, ode, oracle
from hardy_optim.errors import IndeterminateAtHorizon

BENCH = Path(__file__).resolve().parent


def _take(workload, seed, n):
    return list(itertools.islice(workloads.generate(workload, seed), n))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _take(workload, 7, 40) == _take(workload, 7, 40)
    assert _take(workload, 7, 40) != _take(workload, 8, 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_draws_stay_in_the_stated_ranges(workload):
    draws = _take(workload, 3, 10 * workloads.block_size(workload))
    for d in draws:
        assert workloads.AMPLITUDE_RANGE[0] <= d.amplitude <= workloads.AMPLITUDE_RANGE[1]
        if d.critical:
            assert d.R == 1.0 and d.m in (1, 2, 3)
        else:
            assert workloads.RADIUS_RANGE[0] <= d.R <= workloads.RADIUS_RANGE[1]
            assert 0.0 <= d.alpha < workloads.ALPHA_MAX
        assert 0.0 <= d.mu < workloads.MU_MAX
    noncritical = [d for d in draws if not d.critical]
    if workload == "certify-borderline":
        assert not noncritical
    else:
        assert sum(d.kind == "constant" for d in noncritical) * 4 == len(noncritical)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runs_have_a_fixed_count_of_whole_blocks(workload):
    for traced in (False, True):
        n = workloads.run_ops(workload, 30, traced)
        assert n > 0 and n % workloads.block_size(workload) == 0
        assert n == workloads.run_ops(workload, 30, traced)
    assert workloads.run_ops(workload, 1) == workloads.block_size(workload)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _best_record(lo, hi, best, status="converged"):
    return workloads.CliRecord("result", {"c_lo": repr(lo), "c_hi": repr(hi),
                                          "c_best": repr(best), "tolerance": "1e-06",
                                          "status": status})


@pytest.mark.parametrize("draw", [
    workloads.Draw("power_law", 0.7, R=2.0, alpha=1.3),
    workloads.Draw("constant", 3.0, R=0.5),
])
def test_checker_flags_a_bracket_perturbed_by_1e_3(draw):
    c = draw.c_ref()
    rec = _best_record(c * (1 - 2e-7), c * (1 + 2e-7), c)
    assert workloads.check_best_constant(draw, rec).status == "ok"
    f = 1.0 + 1e-3
    bad = _best_record(c * (1 - 2e-7) * f, c * (1 + 2e-7) * f, c * f)
    assert workloads.check_best_constant(draw, bad).status == "wrong"


def test_checker_flags_a_band_perturbed_by_1e_3():
    draw = workloads.Draw("adimurthi_log", 2.0, m=1)
    c = draw.c_ref()
    rec = _best_record(c, 1.2 * c, c, "indeterminate_band")
    assert workloads.check_best_constant(draw, rec).status == "ok"
    bad = _best_record(c * (1 + 1e-3), 1.2 * c, c * (1 + 1e-3), "indeterminate_band")
    assert workloads.check_best_constant(draw, bad).status == "wrong"


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_checker_flags_a_dual_bound_perturbed_by_1e_3(p):
    draw = workloads.Draw("power_law", 1.5, R=0.8, alpha=0.6)
    c = draw.c_ref()
    ok = workloads.CliRecord("result", {"bound": repr(draw.dual_ref(c, p))})
    bad = workloads.CliRecord("result", {"bound": repr(draw.dual_ref(c, p) * (1 + 1e-3))})
    assert workloads._check_dual(draw, ok, c, p).status == "ok"
    assert workloads._check_dual(draw, bad, c, p).status == "wrong"


def test_checker_on_a_real_solve(tmp_path):
    draw = workloads.Draw("power_law", 2.0, R=1.5, alpha=1.0)
    path = tmp_path / "op.ini"
    path.write_text(draw.ini())
    out = workloads.run_op("shoot-noncritical", draw, str(path))
    assert workloads.check("shoot-noncritical", draw, out).ok
    rec = out["best"].record
    bad = {**rec, **{k: repr(float(rec[k]) * (1 + 1e-3)) for k in ("c_lo", "c_hi", "c_best")}}
    verdict = workloads.check_best_constant(draw, workloads.CliRecord("result", bad))
    assert verdict.status == "wrong"


def test_error_records_count_as_failed_not_wrong():
    draw = workloads.Draw("adimurthi_log", 0.26, m=1)
    rec = workloads.CliRecord("error", {"type": "IndeterminateAtHorizon", "message": "x"})
    verdict = workloads.check_best_constant(draw, rec)
    assert verdict.status == "error" and not verdict.ok


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _originals():
    return [bestconst.best_constant, bestconst.feasible, bestconst.integrate,
            bestconst.euler_tail_certificate, bestconst.integrate_principal_tail,
            cli.classify_potential, dual.dual_lower_bound, oracle.weighted_eigen,
            oracle.solve_banded, ode.solve_ivp,
            RadialPotential.__dict__["value"], RadialPotential.__dict__["log_weight"]]


def test_wrappers_restore_originals_and_pass_indeterminate_through():
    before = _originals()
    tracer = spans.Tracer()
    # the doubling-phase escape: multiplier 1 sits inside this potential's band
    pot = RadialPotential.adimurthi_log(1, amplitude=0.26)
    with spans.patched(spans.instrument(tracer)):
        assert bestconst.feasible is not before[1]
        with pytest.raises(IndeterminateAtHorizon):
            bestconst.feasible(pot, 1.0, 1.0)
        with pytest.raises(IndeterminateAtHorizon):
            bestconst.best_constant(pot, 1.0)
    assert all(a is b for a, b in zip(_originals(), before))
    feasible = [s for s in tracer.spans if s[spans.NAME] == "bestconst.feasible"]
    assert feasible[0][spans.ERROR] == "IndeterminateAtHorizon"
    assert tracer.counts["potentials.log_weight"] > 0


def test_wrappers_restore_originals_when_the_body_raises():
    before = _originals()
    with pytest.raises(KeyError):
        with spans.patched(spans.instrument(spans.Tracer())):
            raise KeyError("boom")
    assert all(a is b for a, b in zip(_originals(), before))


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None, None]


def test_self_times_add_up_to_the_op_latency():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("cli.main", 1.0, 9.0, 0),
        _span("bestconst.feasible", 2.0, 5.0, 1),
        _span("ode.integrate", 3.0, 4.0, 2),
        _span("bestconst.feasible", 5.0, 8.0, 1),
        _span("config.parse_record", 9.0, 9.5, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([1.5, 2.0, 2.0, 1.0, 3.0, 0.5])
    assert sum(selfs) == pytest.approx(10.0)
    metrics = spans.layer_metrics(tree, {}, n_ops=2)
    assert metrics["cli.main.self_ms_per_op"] == pytest.approx(1e3)
    assert metrics["bestconst.feasible.ms_per_op"] == pytest.approx(3e3)
    assert metrics["bestconst.feasible.calls_per_op"] == 1.0


def test_self_time_clips_children_to_the_parent():
    tree = [_span("op", 0.0, 4.0, -1), _span("a", 1.0, 3.0, 0), _span("b", 2.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_exactly(workload, tmp_path):
    path = str(tmp_path / "op.ini")
    runs = [worker.traced_run(workload, workloads.generate(workload, 11), path, 3)[1]
            for _ in range(2)]
    for name in spans.DETERMINISTIC:
        assert runs[0][name] == runs[1][name], name
    if workload == "oracle-catalog":
        assert runs[0]["potentials.value.calls_per_op"] > 0
        assert all(v == 0 for k, v in runs[0].items() if k.startswith("ode."))
    else:
        assert runs[0]["bestconst.feasible.calls_per_op"] > 0
        assert runs[0]["ode.solve_ivp.nfev_per_op"] > 0


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------

def test_timed_run_scales_latencies_to_the_reference_speed(monkeypatch, tmp_path):
    # the machine runs at half the reference speed: every reference loop
    # takes twice REF_S, so every latency is halved
    monkeypatch.setattr(worker, "reference_loop", lambda: 2.0 * worker.REF_S)
    monkeypatch.setattr(workloads, "run_op", lambda *args: {})
    monkeypatch.setattr(workloads, "check",
                        lambda *args: workloads.Verdict("ok", band_rel=0.5))
    draws = workloads.generate("shoot-noncritical", 1)
    tally, metrics, _, wall = worker.timed_run("shoot-noncritical", draws,
                                               str(tmp_path / "op.ini"), 8)
    assert tally.attempted == tally.ok == 8
    assert tally.latencies == pytest.approx([t / 2.0 for t in tally.raw])
    assert metrics["ops_per_s"] == pytest.approx(8 / math.fsum(tally.latencies))
    assert metrics["op_p50_ms"] == pytest.approx(wall["wall_op_p50_ms"] / 2.0)
    assert metrics["band_rel_width"] == 0.5


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_runner_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shoot-noncritical",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.LAYER_METRICS
