"""Call spans around the public functions of the qgevrey modules.

A :class:`Tracer` wraps each target by rebinding the module attribute and
every ``from ... import`` copy of it in the other ``qgevrey`` modules (or
the class attribute, for methods), records one span per call (name,
start, end, parent) in compact arrays, and restores every original
object on exit.  Nothing under ``src/`` is edited: the wrappers live
only while the tracer is active.

A target that a refactor has removed is listed in ``Tracer.absent``
instead of raising, so the benchmark keeps running on later commits.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "qgevrey"

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _report_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``qgevrey.<module>.<qualname>`` under ``name``.

    ``count`` maps ``(args, kwargs, result)`` of one call to counters that
    are summed over calls.
    """

    name: str
    module: str
    qualname: str
    count: Callable | None = None


# Public entry points of each layer.  The metric prefix is ``name``.
TARGETS = (
    Target("theta.log_theta", "theta", "log_theta",
           lambda a, k, r: {"points": int(np.size(_arg(a, k, 0, "x")))}),
    Target("theta.theta", "theta", "theta"),
    Target("problem.table", "problem", "CoefficientEvaluator.table",
           lambda a, k, r: {"node_columns": r.shape[1],
                            "column_orders": r.shape[0] * r.shape[1]}),
    Target("problem.coefficient", "problem", "CoefficientEvaluator.coefficient"),
    Target("problem.admissibility_fit", "problem", "admissibility_fit"),
    Target("qlaplace.truncation_window", "qlaplace", "truncation_window"),
    Target("qlaplace.q_laplace", "qlaplace", "q_laplace"),
    Target("solution.evaluate_solution", "solution", "evaluate_solution"),
    Target("solution.initial_condition", "solution", "initial_condition"),
    Target("solution.equation_residual", "solution", "equation_residual"),
    Target("solution.flatness_fit", "solution", "flatness_fit"),
    Target("solution.extract_coefficients", "solution", "extract_coefficients"),
    Target("qgeometry.in_discrete_spiral", "qgeometry", "in_discrete_spiral"),
    Target("qgeometry.spiral_min_distance", "qgeometry", "spiral_min_distance"),
    Target("qgeometry.in_theta_safe", "qgeometry", "in_theta_safe"),
    Target("covering.validate_covering", "covering", "validate_covering",
           lambda a, k, r: {"points": int(_arg(a, k, 2, "n_samples"))}),
    Target("covering.validate_family", "covering", "validate_family"),
    Target("config.load_config", "config", "load_config"),
    Target("cli.run_check", "cli", "run_check"),
    Target("report.write", "report", "Report.write", _report_bytes),
    Target("report.write_csv", "report", "write_csv", _report_bytes),
)


class Tracer:
    """Context manager that traces ``targets`` while active.

    Spans are kept in memory (``array`` columns, 28 bytes a span) and
    written by :meth:`write` once the traced work is done.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side work (e.g. one CLI command)."""
        idx = self._open(self._intern(name))
        self.span_start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, target: Target, fn):
        name_id = self._intern(target.name)
        counters = self.counters.setdefault(target.name, {})
        count = target.count
        starts, ends, stack = self.span_start, self.span_end, self._stack
        perf = time.perf_counter
        open_span = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(name_id)
            starts[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    # -- install / restore ---------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and n.partition(".")[0] == PACKAGE]

    def __enter__(self):
        modules = self._modules()
        for target in self.targets:
            module = sys.modules.get("%s.%s" % (PACKAGE, target.module))
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = module
            for part in owner_name.split(".") if owner_name else ():
                owner = getattr(owner, part, None)
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
        return self

    def _rebind(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """Span columns as numpy arrays: name id, parent, start, end."""
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=float),
                np.frombuffer(self.span_end, dtype=float))

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        _, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def roots(self):
        """Index of each span's outermost ancestor (parents precede children)."""
        parent = self.arrays()[1]
        root = np.where(parent >= 0, parent, np.arange(len(parent)))
        while True:  # pointer jumping: each pass doubles the reach
            up = root[root]
            if np.array_equal(up, root):
                return root
            root = up

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self_s and the target's counters."""
        name, _, _, _ = self.arrays()
        own = self.self_times()
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        out = {}
        for i, n in enumerate(self.names):
            out[n] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
            out[n].update(self.counters.get(n, {}))
        return out

    def count_outside(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` that are not nested in a span ``ancestor``."""
        if name not in self._name_id:
            return 0
        ids, parent, _, _ = self.arrays()
        nid = self._name_id[name]
        aid = self._name_id.get(ancestor, -1)
        n = 0
        for i in np.flatnonzero(ids == nid):
            j = parent[i]
            while j >= 0 and ids[j] != aid:
                j = parent[j]
            n += j < 0
        return int(n)

    def write(self, path: str) -> None:
        """Write the spans as a compressed ``.npz`` (names, name, parent,
        start, end), times relative to the first span."""
        name, parent, start, end = self.arrays()
        t0 = start[0] if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start - t0, end=end - t0)
