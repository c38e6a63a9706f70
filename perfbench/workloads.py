"""The benchmark's workloads: what one operation is and how it is checked.

* ``gate-demo``: one pass runs ``check`` and the four ``verify`` modes on
  the shipped ``demo.json`` through ``qgevrey.cli.main``, each verify with
  its own quick pre-check, as a user's invocations do.  It exercises every
  layer; ``verify residual`` reuses cached transform blocks.  After the
  run, ACCURACY_POINTS solve-cold points are checked against the
  reference, untimed.
* ``solve-cold``: ``solution.evaluate_solution`` at points drawn the way
  ``verify residual`` draws them, every ``(eps, t)`` distinct, so no
  transform block is reused and no covering work runs.
* ``check-strict``: ``check`` on the shipped ``strict_exponents_fail.json``
  (``|q| = e^{1/16}``, S = 4): the geometry, covering and problem layers
  on a base close to ``|q| = 1``.

Each workload object is built by the harness's set-up step and then asked
for operations; inputs come only from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback

import numpy as np

import reference

GATE_COMMANDS = (("check",), ("verify", "residual"), ("verify", "flatness"),
                 ("verify", "asympt"), ("verify", "properties"))
STRICT_FAILING_ROWS = {"term_exponents[k=0,s=1]"}
SOLVE_BATCH = 100     # points of one solve-cold operation
ACCURACY_POINTS = 50  # demo points checked against the reference after a
                      # gate-demo run


def _median(values):
    return statistics.median(values) if values else 0.0


def _label(cmd) -> str:
    return "_".join(cmd)


class Recorder:
    """Wall and process-CPU time of the timed operations, plus outcomes."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def timed(self):
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _run_cli(cli, argv, rec: Recorder, tracer=None, label=None):
    """``cli.main(argv)`` with its console output captured; returns the exit
    code (None after a traceback), the seconds taken and the output."""
    sink = io.StringIO()
    span = tracer.span(label) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                rec.timed(), span:
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a crash
        code = None
        sink.write(traceback.format_exc())
    return code, time.perf_counter() - t0, sink.getvalue()


def _read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _digest(directory: str) -> str:
    """Hash of every file's name and bytes (empty if nothing was written)."""
    h = hashlib.sha256()
    names = os.listdir(directory) if os.path.isdir(directory) else []
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _config_path(root: str, name: str) -> str:
    return os.path.join(root, "src", "qgevrey", "configs", name + ".json")


class _CliWorkload:
    """A workload whose operations are CLI commands on a shipped config."""

    config = ""

    def __init__(self, root, seed, out_dir, modules):
        self.root = root
        self.modules = modules
        self.cli = modules["cli"]
        self.path = _config_path(root, self.config)
        self.cfg = modules["config"].load_config(self.path)
        self.seed = seed
        self.out = out_dir
        self.n_terms = len(self.cfg.problem.terms)

    def _command(self, cmd, rec, tracer):
        """Run one command; returns its exit code, seconds, parsed report
        (None if missing) and the tail of its output."""
        argv = [*cmd, "--config", self.path, "--out-dir", self.out,
                "--seed", str(self.seed)]
        code, dt, text = _run_cli(self.cli, argv, rec, tracer,
                                  "cmd." + _label(cmd))
        report = _read_report(os.path.join(self.out,
                                           "%s_report.json" % _label(cmd)))
        return code, dt, report, text[-300:]


class GateDemo(_CliWorkload):
    """``check`` plus the four ``verify`` modes on the demo config."""

    name = "gate-demo"
    config = "demo"

    def __init__(self, *args):
        super().__init__(*args)
        self.first_digest = None
        self.pass_s: list[float] = []
        self.cmd_s = {_label(c): [] for c in GATE_COMMANDS}
        self.max_abs_err = 0.0

    def operation(self, rec: Recorder, tracer=None) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        total = 0.0
        for cmd in GATE_COMMANDS:
            code, dt, report, text = self._command(cmd, rec, tracer)
            total += dt
            self.cmd_s[_label(cmd)].append(dt)
            ok = code == 0 and report is not None and report["all_pass"]
            rec.outcome(ok, "%s exited %s: %s" % (" ".join(cmd), code, text))
        digest = _digest(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            rec.outcome(digest == self.first_digest,
                        "reports and CSVs differ from the first pass")
        self.pass_s.append(total)
        return total

    def verify(self, rec: Recorder) -> None:
        """Untimed, after the run: solve ACCURACY_POINTS points drawn from
        the seed as solve-cold draws them, on freshly built charts, and
        check each against the independent reference."""
        probe = SolveCold(self.root, self.seed, None, self.modules)
        probe.solve(probe.draw(ACCURACY_POINTS), Recorder(), record=False)
        probe.verify(rec)
        self.max_abs_err = probe.max_abs_err

    def metrics(self) -> dict:
        m = {"gate_s": (_median(self.pass_s), "s", len(self.pass_s)),
             "solution.max_abs_err": (self.max_abs_err, "abs",
                                      ACCURACY_POINTS)}
        for label, values in self.cmd_s.items():
            m[label + "_s"] = (_median(values), "s", len(values))
        return m

    def op_times_ms(self):
        return [1e3 * s for s in self.pass_s]


class CheckStrict(_CliWorkload):
    """``check`` on the strict negative-control config (expected to fail)."""

    name = "check-strict"
    config = "strict_exponents_fail"

    def __init__(self, *args):
        super().__init__(*args)
        self.check_s: list[float] = []

    def operation(self, rec: Recorder, tracer=None) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        code, dt, report, text = self._command(("check",), rec, tracer)
        failing = ({c["name"] for c in report["checks"]
                    if c["status"] == "fail"} if report else None)
        rec.outcome(code == 1 and failing == STRICT_FAILING_ROWS,
                    "check exited %s with failing rows %s: %s"
                    % (code, failing, text))
        self.check_s.append(dt)
        return dt

    def metrics(self) -> dict:
        return {"check_s": (_median(self.check_s), "s", len(self.check_s))}

    def op_times_ms(self):
        return [1e3 * s for s in self.check_s]


class SolveCold:
    """Point evaluations on the 25 demo charts, each at a fresh (eps, t).

    One operation is a batch of SOLVE_BATCH points.  The per-point latency
    is multimodal (points need different numbers of step halvings), and
    its median sits between two modes, so a batch time is the steadier
    operation time; per-point percentiles are reported as well.
    """

    name = "solve-cold"

    def __init__(self, root, seed, out_dir, modules):
        self.modules = modules
        self.cfg = modules["config"].load_config(_config_path(root, "demo"))
        self.charts = [self.cfg.chart_solution(i)
                       for i in range(len(self.cfg.covering.charts))]
        self.rng = np.random.default_rng(seed)
        self.seen: set = set()
        self.n_terms = len(self.cfg.problem.terms)
        self.latency_ms: list[float] = []
        self.batch_ms: list[float] = []
        self.points: list[tuple] = []   # (chart, eps, t, z, X or None)
        self.max_abs_err = 0.0

    def draw(self, n: int) -> list[tuple]:
        """n points the way ``verify residual`` draws them; (eps, t) distinct."""
        cfg, rng, qg = self.cfg, self.rng, self.modules["qgeometry"]
        out = []
        while len(out) < n:
            idx = int(rng.integers(0, len(self.charts)))
            ch = self.charts[idx].chart
            u = rng.uniform(*ch.i1)
            v = rng.uniform(*ch.i2) - rng.integers(0, 3)
            eps = complex(np.exp(2j * math.pi * u) * qg.qpow(cfg.base, v))
            t = complex(cfg.family.t_set.sample(rng, 1)[0])
            z = complex(rng.uniform(0.0, 0.5)
                        * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            if (eps, t) not in self.seen:
                self.seen.add((eps, t))
                out.append((idx, eps, t, z))
        return out

    def solve(self, batch, rec: Recorder, record: bool) -> None:
        evaluate = self.modules["solution"].evaluate_solution
        err = self.modules["errors"].QGevreyError
        for idx, eps, t, z in batch:
            value = None
            t0 = time.perf_counter()
            with rec.timed():
                try:
                    value = evaluate(self.charts[idx], eps, t, z).value
                except err:
                    pass
            if record:
                self.latency_ms.append(1e3 * (time.perf_counter() - t0))
            self.points.append((idx, eps, t, z, value))

    def operation(self, rec: Recorder, tracer=None) -> float:
        """One batch of SOLVE_BATCH fresh points; returns its seconds."""
        batch = self.draw(SOLVE_BATCH)
        n = len(self.latency_ms)
        span = (tracer.span("cmd.solve_batch") if tracer
                else contextlib.nullcontext())
        with span:
            self.solve(batch, rec, record=True)
        self.batch_ms.append(sum(self.latency_ms[n:]))
        return self.batch_ms[-1] / 1e3

    def verify(self, rec: Recorder) -> None:
        """Compare every solved point with the independent reference."""
        pts = self.points
        lam = np.array([self.charts[p[0]].lam for p in pts])
        eps, t, z = (np.array([p[i] for p in pts]) for i in (1, 2, 3))
        ref = reference.solution_values(self.cfg, lam, eps, t, z)
        tol = self.cfg.quad.abs_tol
        for (idx, e, tt, zz, value), r in zip(pts, ref):
            err = math.inf if value is None else abs(value - r)
            if value is not None:
                self.max_abs_err = max(self.max_abs_err, err)
            rec.outcome(err <= tol, "chart %d eps=%s t=%s z=%s: |X - X_ref| = "
                        "%.3g" % (idx, e, tt, zz, err))

    def metrics(self) -> dict:
        lat = sorted(self.latency_ms)
        n = len(lat)
        p50 = float(np.percentile(lat, 50)) if n else 0.0
        p99 = float(np.percentile(lat, 99)) if n else 0.0
        total_s = sum(lat) / 1e3
        return {"solve_p50_ms": (p50, "ms", n),
                "solve_p99_ms": (p99, "ms", n),
                "solve_beyond_p99": (sum(x > p99 for x in lat), "count", n),
                "solves_per_s": (n / total_s if total_s else 0.0, "1/s", n),
                "solution.max_abs_err": (self.max_abs_err, "abs",
                                         len(self.points))}

    def op_times_ms(self):
        return list(self.batch_ms)


WORKLOADS = {w.name: w for w in (GateDemo, SolveCold, CheckStrict)}
