"""Machine-independent counts and in-process timings of the ``verify`` modes.

    python3 tools/bench_gate.py [--runs N]

Run from the root of a source checkout (the program is imported from the
``src/`` next to this script).  Prints one JSON object:

* ``counts``: per ``verify`` mode on the shipped ``demo.json``, over one
  in-process run: ``integrand_calls``, the calls of the path quadrature's
  integrand (:func:`qgevrey.qlaplace._sweep`'s ``rows``);
  ``node_columns``, the nodes those calls evaluated (one column of
  ``n_rows`` values each); ``max_call_values``, the most values one call
  held; ``table_calls``, the calls of
  :meth:`qgevrey.problem.CoefficientEvaluator.table`; and
  ``log_theta_calls``, the calls of :func:`qgevrey.theta.log_theta` (also
  through ``theta``).
* ``ms``: per mode, the median over N in-process runs (after one warm-up
  run of every mode) of the wall time of ``cli.main``, and of a pass of
  all four modes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qgevrey import cli, qlaplace  # noqa: E402
from qgevrey.problem import CoefficientEvaluator  # noqa: E402
from qgevrey.theta import log_theta  # noqa: E402

CONFIG = os.path.join(ROOT, "src", "qgevrey", "configs", "demo.json")
MODES = ("residual", "flatness", "asympt", "properties")


def verify(mode: str, out_dir: str) -> None:
    """One in-process ``verify`` run on demo.json, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", mode, "--config", CONFIG,
                         "--out-dir", out_dir])
    if code != 0:
        raise SystemExit("verify %s exited %d" % (mode, code))


@contextlib.contextmanager
def counting(seen: dict):
    """Count integrand calls, node-columns, table and log_theta calls
    into ``seen`` while active."""
    sweep = qlaplace._sweep
    table = CoefficientEvaluator.table

    def counted_sweep(rows, *args):
        n_rows = args[-1]

        def counted(s, block):
            seen["integrand_calls"] += 1
            seen["node_columns"] += s.size
            seen["max_call_values"] = max(seen["max_call_values"],
                                          s.size * n_rows)
            return rows(s, block)
        return sweep(counted, *args)

    @functools.wraps(table)
    def counted_table(*args, **kwargs):
        seen["table_calls"] += 1
        return table(*args, **kwargs)

    @functools.wraps(log_theta)
    def counted_log_theta(*args, **kwargs):
        seen["log_theta_calls"] += 1
        return log_theta(*args, **kwargs)

    # every module that bound log_theta by name, theta itself included
    owners = [m for name, m in sys.modules.items()
              if name.partition(".")[0] == "qgevrey"
              and getattr(m, "log_theta", None) is log_theta]
    qlaplace._sweep = counted_sweep
    CoefficientEvaluator.table = counted_table
    for m in owners:
        m.log_theta = counted_log_theta
    try:
        yield
    finally:
        for m in owners:
            m.log_theta = log_theta
        CoefficientEvaluator.table = table
        qlaplace._sweep = sweep


def counts(out_dir: str) -> dict:
    """The counts of one run of each mode."""
    out = {}
    for mode in MODES:
        seen = dict.fromkeys(("integrand_calls", "node_columns",
                              "max_call_values", "table_calls",
                              "log_theta_calls"), 0)
        with counting(seen):
            verify(mode, out_dir)
        out[mode] = seen
    return out


def timings(runs: int, out_dir: str) -> dict:
    """Median in-process ms per mode and per pass over ``runs`` passes."""
    for mode in MODES:
        verify(mode, out_dir)
    samples = {k: [] for k in MODES + ("pass",)}
    for _ in range(runs):
        total = 0.0
        for mode in MODES:
            t0 = time.perf_counter()
            verify(mode, out_dir)
            wall = time.perf_counter() - t0
            samples[mode].append(wall)
            total += wall
        samples["pass"].append(total)
    return {k: round(1e3 * statistics.median(v), 2)
            for k, v in samples.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as out_dir:
        print(json.dumps({"counts": counts(out_dir),
                          "ms": timings(args.runs, out_dir)}, indent=1))


if __name__ == "__main__":
    main()
