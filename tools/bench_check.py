"""Machine-independent counts and in-process layer timings of ``check``.

    python3 tools/bench_check.py [--runs N]

Run from the root of a source checkout (the program is imported from the
``src/`` next to this script).  Prints one JSON object:

* ``grid_values``: the k-grid length of the clearance scan
  (:func:`qgevrey.qgeometry.spiral_min_distance`) at ``delta = 0.2`` and
  the default ``step``, at each complex base of ``BASES`` (a real base
  takes the closed form and scans no grid);
* ``candidates_per_row``: grid minima refined per scanned point of one
  ``POINTS``-point call at each complex base;
* ``call_ms``: the median over N of the ms one ``POINTS``-point
  ``spiral_min_distance`` call takes at each base of ``BASES`` (after
  three warm-up calls);
* ``per_check``: on each shipped config, machine-independent counts of
  one ``check``: ``spiral_min_distance`` calls; admissibility grid
  sweeps (each ``problem.admissibility_fits`` call, one per tau patch
  for all components, sweeps the ``n`` and the ``2n`` grid);
  ``_ring_peaks`` calls; the ``|W|`` values one component's fit computes
  on average; and the torus cells ``covering.covering_report`` counts;
* ``covering_ms`` and ``family_ms``: on each shipped config, the median
  over N of the ms one ``covering_report`` call and one
  ``validate_family`` call take (after three warm-up calls);
* ``check_ms``: on each shipped config, the median over N in-process
  ``check`` runs (after three warm-up runs) of the ms spent in
  ``spiral_min_distance``, ``covering_report``, ``validate_family`` and
  ``admissibility_fits``, and of the whole ``run_check``;
* ``import_ms``: the median over N fresh processes of the ms ``import
  qgevrey.cli`` takes after ``import numpy``, compiling every source
  (``no_bytecode``, ``PYTHONDONTWRITEBYTECODE=1``, as each benchmark
  set-up does) and reading bytecode that a first, untimed process cached
  under a temporary ``PYTHONPYCACHEPREFIX`` (``bytecode_cached``; no
  ``__pycache__`` lands in the checkout); the two alternate;
* ``generated_methods``: the methods of the package's classes whose code
  was compiled from a source string (``co_filename`` such as
  ``<string>``), as ``dataclasses`` and ``typing.NamedTuple`` make them.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qgevrey import cli, covering, problem, qgeometry  # noqa: E402
from qgevrey.config import load_shipped_config  # noqa: E402
from qgevrey.report import Report  # noqa: E402

BASES = {"2": 2.0, "e^(1/16)": math.exp(1.0 / 16.0),
         "1.0645 e^(0.05i)": 1.0645 * cmath.exp(0.05j),
         "1.5 e^(0.2i)": 1.5 * cmath.exp(0.2j),
         "e^(1/16+0.3i)": cmath.exp(1.0 / 16.0 + 0.3j)}
CONFIGS = ("demo", "strict_exponents_fail")
#: points of every timed or counted spiral_min_distance call
POINTS = 1200
#: what each process of import_ms runs: it prints the ms of the import
IMPORT_PROBE = ("import time, numpy\n"
                "t0 = time.perf_counter()\n"
                "import qgevrey.cli\n"
                "print(1e3 * (time.perf_counter() - t0))\n")


def patched(owner, name, wrap):
    """Replace ``owner.name`` by ``wrap(original)``; returns an undo."""
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    return lambda: setattr(owner, name, original)


def scan_points() -> np.ndarray:
    """The ``POINTS`` points of every timed or counted call."""
    rng = np.random.default_rng(0)
    return rng.uniform(0.3, 3.0, POINTS) * np.exp(
        1j * rng.uniform(0.0, 2.0 * math.pi, POINTS))


def complex_bases() -> dict:
    """The bases of ``BASES`` whose ``log q`` is complex: those scanned."""
    return {label: q for label, q in BASES.items()
            if qgeometry.QBase(q).log_q.imag != 0.0}


def grid_values() -> dict:
    """Length of the scan tables one spiral_min_distance call reads."""
    build = qgeometry._scan_tables.__wrapped__  # uncached: every call seen
    sizes = []

    def tables(*args):
        out = build(*args)
        sizes.append(out[2].size)
        return out

    out = {}
    undo = patched(qgeometry, "_scan_tables", lambda fn: tables)
    try:
        for label, q in complex_bases().items():
            qgeometry.spiral_min_distance(0.7 + 0.2j, qgeometry.QBase(q),
                                          0.2)
            out[label] = sizes[-1]
    finally:
        undo()
    return out


def candidates_per_row() -> dict:
    """Refined grid minima per point of one scan at each complex base."""
    seen = {"rows": 0, "refined": 0}

    def wrap(fn):
        def scan(cos_w, sin_w, cells):
            row, at = fn(cos_w, sin_w, cells)
            seen["rows"] += cos_w.size
            seen["refined"] += row.size
            return row, at
        return scan

    out = {}
    ws = scan_points()
    undo = patched(qgeometry, "_scan_candidates", wrap)
    try:
        for label, q in complex_bases().items():
            qgeometry.spiral_min_distance(ws, qgeometry.QBase(q), 0.2)
            out[label] = round(seen["refined"] / seen["rows"], 4)
            seen.update(rows=0, refined=0)
    finally:
        undo()
    return out


def call_ms(runs: int) -> dict:
    """Median ms of one POINTS-point spiral_min_distance call per base."""
    ws = scan_points()
    out = {}
    for label, q in BASES.items():
        base = qgeometry.QBase(q)
        samples = []
        for r in range(runs + 3):
            t0 = time.perf_counter()
            qgeometry.spiral_min_distance(ws, base, 0.2)
            if r >= 3:
                samples.append(time.perf_counter() - t0)
        out[label] = round(1e3 * statistics.median(samples), 3)
    return out


def run_check(cfg, name: str) -> None:
    """``cli.run_check`` on ``cfg`` into a fresh report."""
    cli.run_check(cfg, Report(command="check", config=name, seed=None))


def counted(seen: dict, key: str, size=lambda out: 1):
    """Wrapper adding ``size(result)`` to ``seen[key]`` on every call."""
    def wrap(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen[key] += size(out)
            return out
        return call
    return wrap


def per_check() -> dict:
    """Machine-independent counts of one check per shipped config."""
    out = {}
    for cfg_name in CONFIGS:
        cfg = load_shipped_config(cfg_name)
        seen = dict.fromkeys(("scans", "calls", "peaks", "fits", "values",
                              "cells"), 0)
        # covering holds its own reference to spiral_min_distance
        undo = [patched(owner, "spiral_min_distance",
                        counted(seen, "scans"))
                for owner in (qgeometry, covering)]
        undo += [
            patched(problem, "admissibility_fits", counted(seen, "calls")),
            patched(problem, "admissibility_fits",
                    counted(seen, "fits", len)),
            patched(problem, "_ring_peaks", counted(seen, "peaks")),
            patched(problem, "_ring_peaks",
                    counted(seen, "values",
                            lambda peaks: peaks.size * peaks.shape[-1])),
            patched(covering, "covering_report", counted(
                seen, "cells", lambda rep: rep.n_cells))]
        try:
            run_check(cfg, cfg_name)
        finally:
            for u in reversed(undo):
                u()
        out[cfg_name] = {
            "spiral_min_distance_calls": seen["scans"],
            "admissibility_grid_sweeps": 2 * seen["calls"],
            "ring_peaks_calls": seen["peaks"],
            "abs_w_values_per_fit": seen["values"] / seen["fits"],
            "covering_cells": seen["cells"]}
    return out


def call_ms_per_config(runs: int, call, args_of) -> dict:
    """Median ms of one ``call(*args_of(cfg))`` per shipped config."""
    out = {}
    for cfg_name in CONFIGS:
        args = args_of(load_shipped_config(cfg_name))
        samples = []
        for r in range(runs + 3):
            t0 = time.perf_counter()
            call(*args)
            if r >= 3:
                samples.append(time.perf_counter() - t0)
        out[cfg_name] = round(1e3 * statistics.median(samples), 3)
    return out


def check_ms(runs: int) -> dict:
    """Median in-process ms per layer over ``runs`` checks per config."""
    spent = {"spiral_min_distance": 0.0, "covering": 0.0,
             "validate_family": 0.0, "admissibility": 0.0}

    def timer(label):
        def wrap(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent[label] += time.perf_counter() - t0
            return timed
        return wrap

    # covering holds its own reference to spiral_min_distance
    undo = [patched(owner, "spiral_min_distance",
                    timer("spiral_min_distance"))
            for owner in (qgeometry, covering)]
    undo += [patched(owner, name, timer(label))
             for owner, name, label in (
                 (covering, "covering_report", "covering"),
                 (covering, "validate_family", "validate_family"),
                 (problem, "admissibility_fits", "admissibility"))]
    out = {}
    try:
        for cfg_name in CONFIGS:
            cfg = load_shipped_config(cfg_name)
            samples = {k: [] for k in list(spent) + ["run_check"]}
            for r in range(runs + 3):
                for k in spent:
                    spent[k] = 0.0
                t0 = time.perf_counter()
                run_check(cfg, cfg_name)
                wall = time.perf_counter() - t0
                if r >= 3:
                    for k, v in spent.items():
                        samples[k].append(v)
                    samples["run_check"].append(wall)
            out[cfg_name] = {k: round(1e3 * statistics.median(v), 3)
                             for k, v in samples.items()}
    finally:
        for u in reversed(undo):
            u()
    return out


def import_ms(runs: int) -> dict:
    """Median ms of a fresh process's ``import qgevrey.cli`` after numpy,
    without bytecode and with it cached."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def probe(env):
        return float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
            capture_output=True, text=True).stdout)

    with tempfile.TemporaryDirectory() as cache:
        envs = {"no_bytecode": dict(env, PYTHONDONTWRITEBYTECODE="1"),
                "bytecode_cached": dict(env, PYTHONPYCACHEPREFIX=cache)}
        probe(envs["bytecode_cached"])  # writes the cache, untimed
        samples = {label: [] for label in envs}
        for _ in range(runs):
            for label, e in envs.items():
                samples[label].append(probe(e))
    return {label: round(statistics.median(v), 2)
            for label, v in samples.items()}


def generated_methods() -> int:
    """Methods of the package's classes compiled from a source string."""
    return sum(getattr(fn, "__code__", None) is not None
               and fn.__code__.co_filename.startswith("<")
               for name, module in list(sys.modules.items())
               if name.partition(".")[0] == "qgevrey"
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == name
               for fn in vars(cls).values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=30)
    args = parser.parse_args()
    print(json.dumps({"grid_values": grid_values(),
                      "candidates_per_row": candidates_per_row(),
                      "call_ms": call_ms(args.runs),
                      "per_check": per_check(),
                      "covering_ms": call_ms_per_config(
                          args.runs, covering.covering_report,
                          lambda cfg: (cfg.covering, cfg.base)),
                      "family_ms": call_ms_per_config(
                          args.runs, covering.validate_family,
                          lambda cfg: (cfg.family, cfg.covering, cfg.base)),
                      "check_ms": check_ms(args.runs),
                      "import_ms": import_ms(args.runs),
                      "generated_methods": generated_methods()}, indent=1))


if __name__ == "__main__":
    main()
