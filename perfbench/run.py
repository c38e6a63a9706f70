"""qgevrey benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each invocation runs one workload in its own process, so set-up
time and peak memory belong to it.  Human-readable lines start with ``#``;
the line before last, ``detail: {...}``, holds every measured value with
its unit and sample count and the run settings; the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics from the traced ones, plus ``trace.overhead`` (traced
over untraced wall, minus one); the spans of the first traced operation
are written to ``.bench_trace/``.

``--workload all`` runs every workload in turn, each in a child process,
and prints one table of all their metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from tracer import PACKAGE, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5     # set-ups before the run
SETUP_SHARE = 0.05    # share of the run spent on more set-ups between
                      # operations
MODULES = ("cli", "config", "errors", "qgeometry", "solution")


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units (name -> unit) from the
    BENCHMARK.json at the checkout root: the names every run reports with
    --trace 0 and --trace 1 respectively."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def settings(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _program_modules() -> list[str]:
    return [n for n in sys.modules if n.partition(".")[0] == PACKAGE]


def import_program() -> dict:
    """(Re)import the qgevrey modules the workloads use."""
    for name in _program_modules():
        del sys.modules[name]
    return {m: importlib.import_module("qgevrey." + m) for m in MODULES}


def set_up_once(workload_cls, args, out_dir):
    """Import the program and build the workload; returns both the workload
    and the seconds taken."""
    t0 = time.perf_counter()
    modules = import_program()
    workload = workload_cls(ROOT, args.seed, out_dir, modules)
    return workload, time.perf_counter() - t0


def set_up(workload_cls, args, out_dir):
    """SETUP_REPEATS set-ups; the last build is used.  Returns (workload,
    seconds of each set-up)."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload, dt = set_up_once(workload_cls, args, out_dir)
        times.append(dt)
    return workload, times


def sample_set_up(workload_cls, args, out_dir, times) -> float:
    """One more set-up, its seconds appended to ``times`` and returned, with
    the running workload's modules put back afterwards.  Taken between
    operations, so that the set-up time is a median over the same stretch
    of time as the operations rather than over the first half second of
    the run."""
    saved = {name: sys.modules[name] for name in _program_modules()}
    try:
        times.append(set_up_once(workload_cls, args, out_dir)[1])
        return times[-1]
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()  # the discarded build's garbage, outside any timing


def timed_run(w, rec, seconds, set_up_again):
    """Operations until ``seconds`` of measuring have passed.  After each,
    ``set_up_again()`` (which returns its seconds) runs until set-ups have
    taken SETUP_SHARE of the time so far."""
    start = time.perf_counter()
    spent = 0.0
    while True:
        w.operation(rec)
        now = time.perf_counter()
        while spent < SETUP_SHARE * (now - start):
            spent += set_up_again()
        if now >= start + seconds:
            break
    if hasattr(w, "verify"):
        w.verify(rec)
    times = w.op_times_ms()
    detail = dict(w.metrics())
    total_s = sum(times) / 1e3
    detail["op_p50_ms"] = (statistics.median(times), "ms", len(times))
    detail["ops_per_s"] = (len(times) / total_s, "1/s", len(times))
    detail["cpu_over_wall"] = (rec.cpu / rec.wall, "ratio", len(times))
    return detail


def traced_run(w, rec, seconds, trace_path):
    """Untraced and traced operations in turn until ``seconds`` have passed;
    per-layer metrics from the traced ones.  Only the first traced
    operation's spans are kept and written."""
    plain, traced, summaries = [], [], []
    first = None
    end = time.perf_counter() + seconds
    while True:
        plain.append(w.operation(rec))
        tracer = Tracer()
        with tracer:
            traced.append(w.operation(rec, tracer))
        summaries.append(tracer.summary())
        first = first or tracer
        if time.perf_counter() >= end:
            break
    if hasattr(w, "verify"):
        w.verify(rec)
    first.write(trace_path)
    for name in first.absent:
        print("# absent: " + name)
    return layer_metrics(w, first, summaries, plain, traced)


def layer_metrics(w, first, summaries, plain, traced) -> dict:
    """Per-layer metrics: counts from the first traced operation (they depend
    only on the seed), self times as medians over the traced operations."""
    counts = summaries[0]
    out = {"trace.absent": (len(first.absent), "count", 1)}
    for name, values in sorted(counts.items()):
        for key, value in values.items():
            if key == "self_s":
                value = statistics.median(s.get(name, {}).get("self_s", 0.0)
                                          for s in summaries)
                out[name + ".self_s"] = (value, "s", len(summaries))
            else:
                out["%s.%s" % (name, key)] = (value, "count", 1)

    def get(name, key):
        return counts.get(name, {}).get(key, 0)

    blocks = first.count_outside("qlaplace.truncation_window",
                                 "qlaplace.q_laplace")
    requests = (get("solution.evaluate_solution", "calls")
                + get("solution.initial_condition", "calls")
                + (2 + w.n_terms) * get("solution.equation_residual", "calls"))
    out["solution.blocks"] = (blocks, "count", 1)
    out["solution.node_columns_per_block"] = (
        get("problem.table", "node_columns") / blocks if blocks else 0.0,
        "count", 1)
    out["solution.block_hit_ratio"] = (
        1.0 - blocks / requests if requests else 0.0, "ratio", 1)
    out["solution.max_abs_err"] = (getattr(w, "max_abs_err", 0.0), "abs", 1)
    out["report.write_s"] = (
        statistics.median(s.get("report.write", {}).get("self_s", 0.0)
                          + s.get("report.write_csv", {}).get("self_s", 0.0)
                          for s in summaries), "s", len(summaries))
    out["report.write_bytes"] = (get("report.write", "bytes")
                                 + get("report.write_csv", "bytes"), "B", 1)
    out["trace.overhead"] = (statistics.median(traced)
                             / statistics.median(plain) - 1.0, "ratio",
                             len(traced))
    out.update(command_shares(first))
    return out


def command_shares(tracer) -> dict:
    """For each benchmark-side command span (``cmd.*``), the share of its
    wall time spent as self time in each traced function beneath it."""
    ids, _, start, end = tracer.arrays()
    own = tracer.self_times()
    root = tracer.roots()
    out = {}
    for cid, cname in enumerate(tracer.names):
        if not cname.startswith("cmd."):
            continue
        spans = ids == cid
        wall = float((end - start)[spans].sum())
        under = root == root[spans][0] if spans.any() else spans
        for nid, name in enumerate(tracer.names):
            if name.startswith("cmd."):
                continue
            share = float(own[under & (ids == nid)].sum()) / wall
            if share > 0:
                out["%s.share.%s" % (cname, name)] = (share, "ratio", 1)
    return out


def _fmt(value) -> str:
    return "%.6g" % value if isinstance(value, float) else str(value)


def run_one(args) -> int:
    end_to_end, per_layer = declared_metrics()
    out_dir = os.path.join(ROOT, ".bench_out",
                           "%s-%d" % (args.workload, os.getpid()))
    rec = workloads.Recorder()
    try:
        w, setup_times = set_up(workloads.WORKLOADS[args.workload], args,
                                out_dir)
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            detail = traced_run(w, rec, args.seconds, os.path.join(
                trace_dir, "%s-seed%d.npz" % (args.workload, args.seed)))
            names = per_layer
        else:
            detail = timed_run(w, rec, args.seconds, lambda: sample_set_up(
                workloads.WORKLOADS[args.workload], args, out_dir,
                setup_times))
            names = end_to_end
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(out_dir))
    detail["setup_s"] = (statistics.median(setup_times), "s",
                         len(setup_times))
    detail["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)
    detail["fail_ratio"] = (rec.failed / max(rec.attempted, 1), "ratio",
                            rec.attempted)
    info = settings(args)
    print("# " + " ".join("%s=%s" % kv for kv in info.items()))
    for name, (value, unit, n) in sorted(detail.items()):
        print("# %-52s %14s %-6s n=%d" % (name, _fmt(value), unit, n))
    for failure in rec.failures:
        print("# failed: " + failure.replace("\n", " "))
    print("detail: " + json.dumps({"settings": info, "metrics": {
        k: {"value": v, "unit": u, "samples": n}
        for k, (v, u, n) in sorted(detail.items())}}))
    print(json.dumps(result(rec, detail, names)))
    return 0


def result(rec, detail, names) -> dict:
    """The result object: outcomes and the value of each metric in
    ``names``.  A metric of a traced function that a refactor removed reads
    0, and ``trace.absent`` (a per-layer metric) counts those functions."""
    return {"correct": rec.failed == 0, "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {k: {"value": detail.get(k, (0,))[0], "unit": unit}
                        for k, unit in names.items()}}


def run_all(args) -> int:
    """Each workload in a child process; one table of every metric."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600 + 4 * args.seconds)
        lines = proc.stdout.splitlines()
        details = [l for l in lines if l.startswith("detail: ")]
        if proc.returncode != 0 or not details:
            print("%s: exit %d\n%s" % (name, proc.returncode, proc.stderr))
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(details[-1][len("detail: "):])
        print("== %s  correct=%s attempted=%d failed=%d"
              % (name, result["correct"], result["attempted"],
                 result["failed"]))
        for metric, m in detail["metrics"].items():
            print("   %-52s %14s %-6s n=%d" % (metric, _fmt(m["value"]),
                                                m["unit"], m["samples"]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a natural number")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "qgevrey", "__init__.py")):
        print("error: %s holds no src/qgevrey; run the benchmark from a "
              "qgevrey source checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
