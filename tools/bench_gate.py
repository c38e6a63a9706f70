"""Machine-independent counts and in-process timings of the benchmark's
``gate-demo`` pass: ``check`` plus the four ``verify`` modes on the shipped
``demo.json`` at ``--seed 1``.

    python3 tools/bench_gate.py [--runs N] [--against PATH]

Run from the root of a source checkout (the program is imported from the
``src/`` next to this script).  Prints one JSON object:

* ``counts``: per command, over one in-process run: ``integrand_calls``,
  the calls of the path quadrature's integrand
  (:func:`qgevrey.qlaplace._sweep`'s ``rows``); ``node_columns``, the
  nodes those calls evaluated (one column of ``n_rows`` values each);
  ``max_call_values``, the most values one call held; ``table_calls``, the
  calls of :meth:`qgevrey.problem.CoefficientEvaluator.table`; and
  ``log_theta_calls``, the calls of :func:`qgevrey.theta.log_theta` (also
  through ``theta``).
* ``ms``: per command, the median over N passes (after one warm-up pass)
  of the wall time of ``cli.main``, and of the whole pass.

With ``--against PATH`` the checkout at PATH is loaded too, side by side
under another package name, and both are measured in one process: each
command runs on both checkouts back to back, the order alternating from
pass to pass, so host load that drifts over the run falls on both alike.
``counts`` and ``ms`` then hold ``this`` and ``against``, ``ratio``
the median over passes of each command's (and the pass's) paired wall
time ratio, this checkout over PATH's, and ``differ`` the names of the
reports and CSV files whose bytes differ between the two checkouts (a
file only one of them wrote differs): empty for a refactor that keeps
every output byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

COMMANDS = (("check",), ("verify", "residual"), ("verify", "flatness"),
            ("verify", "asympt"), ("verify", "properties"))
SEED = "1"


def label(cmd) -> str:
    return cmd[-1]


def load(root: str, name: str) -> str:
    """Import the package under ``root/src/qgevrey`` as ``name`` (its
    modules import each other relatively); returns ``name``."""
    if name not in sys.modules:
        src = os.path.join(root, "src", "qgevrey")
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(src, "__init__.py"),
            submodule_search_locations=[src])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return name


class Checkout:
    """One checkout's ``cli`` and demo config, run in process."""

    def __init__(self, root: str, package: str, out_dir: str):
        self.package = package
        self.cli = importlib.import_module(load(root, package) + ".cli")
        self.config = os.path.join(root, "src", "qgevrey", "configs",
                                   "demo.json")
        self.out_dir = out_dir

    def run(self, cmd) -> float:
        """One command's wall seconds, its output discarded."""
        argv = [*cmd, "--config", self.config, "--out-dir", self.out_dir,
                "--seed", SEED]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise SystemExit("%s %s exited %d" % (self.package,
                                                  " ".join(cmd), code))
        return wall


@contextlib.contextmanager
def counting(package: str, seen: dict):
    """Count integrand calls, node-columns, table and log_theta calls of
    ``package`` into ``seen`` while active."""
    qlaplace = sys.modules[package + ".qlaplace"]
    evaluator = sys.modules[package + ".problem"].CoefficientEvaluator
    log_theta = sys.modules[package + ".theta"].log_theta
    sweep, table = qlaplace._sweep, evaluator.table

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
              if name.partition(".")[0] == package
              and getattr(m, "log_theta", None) is log_theta]
    qlaplace._sweep = counted_sweep
    evaluator.table = counted_table
    for m in owners:
        m.log_theta = counted_log_theta
    try:
        yield
    finally:
        for m in owners:
            m.log_theta = log_theta
        evaluator.table = table
        qlaplace._sweep = sweep


def counts(side: Checkout) -> dict:
    """The counts of one run of each command."""
    out = {}
    for cmd in COMMANDS:
        seen = dict.fromkeys(("integrand_calls", "node_columns",
                              "max_call_values", "table_calls",
                              "log_theta_calls"), 0)
        with counting(side.package, seen):
            side.run(cmd)
        out[label(cmd)] = seen
    return out


def timings(sides, runs: int) -> list[dict]:
    """Per side, the seconds of every command and pass over ``runs``
    passes, after one warm-up pass; with two sides each command runs on
    both back to back, the first side alternating from pass to pass."""
    for side in sides:
        for cmd in COMMANDS:
            side.run(cmd)
    samples = [{label(c): [] for c in COMMANDS + (("pass",),)}
               for _ in sides]
    for i in range(runs):
        order = list(enumerate(sides))[::(-1) ** i]
        total = [0.0] * len(sides)
        for cmd in COMMANDS:
            for j, side in order:
                wall = side.run(cmd)
                samples[j][label(cmd)].append(wall)
                total[j] += wall
        for j, t in enumerate(total):
            samples[j]["pass"].append(t)
    return samples


def medians(samples: dict) -> dict:
    return {k: round(1e3 * statistics.median(v), 2)
            for k, v in samples.items()}


def differ(this_dir: str, against_dir: str) -> list[str]:
    """The file names whose bytes differ between two output directories."""
    def read(path):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                return fh.read()
    names = set(os.listdir(this_dir)) | set(os.listdir(against_dir))
    return sorted(n for n in names
                  if read(os.path.join(this_dir, n))
                  != read(os.path.join(against_dir, n)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--against", metavar="PATH",
                        help="another checkout to measure paired with this "
                             "one")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as out_dir:
        this = Checkout(ROOT, "qgevrey", os.path.join(out_dir, "this"))
        if args.against is None:
            [samples] = timings([this], args.runs)
            out = {"counts": counts(this), "ms": medians(samples)}
        else:
            other = Checkout(os.path.abspath(args.against),
                             "qgevrey_against",
                             os.path.join(out_dir, "against"))
            mine, theirs = timings([this, other], args.runs)
            out = {"counts": {"this": counts(this),
                              "against": counts(other)},
                   "ms": {"this": medians(mine), "against": medians(theirs)},
                   "ratio": {k: round(statistics.median(
                       a / b for a, b in zip(mine[k], theirs[k])), 4)
                       for k in mine},
                   "differ": differ(this.out_dir, other.out_dir)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
