"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Target, Tracer  # noqa: E402

# Workload-specific end-to-end metrics, printed on the detail line.
WORKLOAD_METRICS = {
    "gate-demo": ("gate_s", "check_s", "verify_residual_s",
                  "verify_flatness_s", "verify_asympt_s",
                  "verify_properties_s", "solution.max_abs_err"),
    "solve-cold": ("solve_p50_ms", "solve_p99_ms", "solves_per_s",
                   "solution.max_abs_err"),
    "check-strict": ("check_s",),
}
COMMON = ("setup_s", "cpu_over_wall", "fail_ratio", "peak_rss_mb")
END_TO_END, PER_LAYER = run.declared_metrics()


def bench(workload, trace, seed=7, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.01",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    detail = json.loads(lines[-2][len("detail: "):])
    return json.loads(lines[-1]), detail["metrics"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_runs_print_every_metric_and_counts_repeat(workload):
    result, detail = parse(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name in WORKLOAD_METRICS[workload] + COMMON:
        assert name in detail, name
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name

    first, first_detail = parse(bench(workload, 1))
    second, _ = parse(bench(workload, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(PER_LAYER)
    assert "trace.overhead" in first_detail
    counts = {k: m["value"] for k, m in first["metrics"].items()
              if m["unit"] in ("count", "B")}
    again = {k: m["value"] for k, m in second["metrics"].items()
             if m["unit"] in ("count", "B")}
    assert counts == again
    assert first["metrics"]["trace.overhead"]["unit"] == "ratio"


def _bindings():
    """Every qgevrey module and class attribute, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qgevrey" or name.startswith("qgevrey.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type):
                for attr, v in vars(value).items():
                    out[(name, key, attr)] = v
    return out


def test_tracer_restores_every_original_and_reports_absent_names():
    modules = run.import_program()
    w = workloads.CheckStrict(ROOT, 3, os.path.join(ROOT, ".bench_out",
                                                    "test-restore"), modules)
    before = _bindings()
    solution = sys.modules["qgevrey.solution"]
    qlaplace = sys.modules["qgevrey.qlaplace"]
    missing = Target("theta.removed", "theta", "removed_function")
    tracer = Tracer(TARGETS + (missing,))
    rec = workloads.Recorder()
    try:
        with tracer:
            assert solution.log_theta is not before[("qgevrey.solution",
                                                     "log_theta")]
            assert qlaplace.log_theta is solution.log_theta
            seconds = w.operation(rec, tracer)
    finally:
        shutil.rmtree(w.out, ignore_errors=True)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.absent == ["theta.removed"]
    summary = tracer.summary()
    assert summary["cli.run_check"]["calls"] == 1
    assert summary["covering.validate_family"]["calls"] == 1
    # the removed name reaches the gated result, not only the detail line
    detail = run.layer_metrics(w, tracer, [summary], [seconds], [seconds])
    result = run.result(rec, detail, PER_LAYER)
    assert result["metrics"]["trace.absent"] == {"value": 1, "unit": "count"}


def test_set_up_sample_puts_the_running_modules_back():
    run.import_program()
    before = {name: sys.modules[name] for name in run._program_modules()}
    times = []
    run.sample_set_up(workloads.CheckStrict, argparse.Namespace(seed=3),
                      None, times)
    assert len(times) == 1 and times[0] > 0
    after = {name: sys.modules[name] for name in run._program_modules()}
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)


def test_tracer_restores_after_an_exception():
    run.import_program()
    theta = sys.modules["qgevrey.theta"]
    original = theta.log_theta
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert theta.log_theta is not original
            1 / 0
    assert theta.log_theta is original


def test_self_time_subtracts_children():
    tracer = Tracer(targets=())
    with tracer.span("cmd.outer"):
        with tracer.span("inner"):
            sum(range(10000))
    _, _, start, end = tracer.arrays()
    own = tracer.self_times()
    assert own[1] == pytest.approx(end[1] - start[1])
    assert own[0] == pytest.approx((end[0] - start[0]) - (end[1] - start[1]))
    assert list(tracer.roots()) == [0, 0]


def test_accuracy_check_flags_a_wrong_value():
    modules = run.import_program()
    w = workloads.SolveCold(ROOT, 5, None, modules)
    rec = workloads.Recorder()
    w.operation(rec)
    idx, eps, t, z, value = w.points[0]
    w.points[0] = (idx, eps, t, z, value + 10 * w.cfg.quad.abs_tol)
    w.verify(rec)
    assert rec.attempted == workloads.SOLVE_BATCH
    assert rec.failed == 1
    assert w.max_abs_err > 9 * w.cfg.quad.abs_tol


def test_reference_matches_closed_form_theta_identity():
    import reference
    log_q = np.log(2.0 + 0j)
    x = np.array([0.3 + 0.4j, 1.7 - 2.0j, 30.0 + 1.0j])
    # theta(q x) = q x theta(x)
    lhs = 1.0 / reference.inv_theta(2.0 * x, log_q)
    rhs = 2.0 * x / reference.inv_theta(x, log_q)
    assert np.allclose(lhs, rhs, rtol=1e-13)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("solve-cold", 0, cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
