"""Independent references for ``covering.covering_report`` and
``covering.validate_family``.

* :func:`full_covering_report` samples an annulus three q-levels deep
  below the lowest chart bottom, adds three seam probes per chart, and
  tests every point against every chart with ``in_discrete_spiral``: the
  Monte Carlo covering check the exact decision replaced.
* :func:`cell_members` maps one representative of every torus cell to a
  complex point deep in the disc and tests it against every chart with
  ``in_discrete_spiral``; :func:`cell_multiplicity` counts the charts of
  each cell, and :func:`intersecting_pairs` lists the chart pairs that
  share one.
* :func:`grid_family_clearances` takes the least clearance over a grid of
  every chart's box of direction-patch points and kernel points
  ``lam / (eps t)``, each point built as a complex product and tested by
  ``spiral_min_distance``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from qgevrey import in_discrete_spiral, qpow, spiral_min_distance

TWO_PI = 2.0 * math.pi


def seam_probes(c, base) -> np.ndarray:
    """Three deterministic probes per chart, in chart order.

    They sit on the chart's left, right and bottom edges (open sets!), at
    the edge midpoints, pushed three levels down into the annulus of
    :func:`full_covering_report`; a good covering has each interior to a
    neighbouring chart.
    """
    return np.array([cmath.exp(TWO_PI * 1j * u) * qpow(base, v - 3.0)
                     for ch in c.charts
                     for u, v in ((ch.i1[0], ch.v_mid), (ch.i1[1], ch.v_mid),
                                  (ch.u_mid, ch.i2[0]))], dtype=complex)


@dataclass(frozen=True)
class SampledReport:
    covered: bool
    max_multiplicity: int
    n_uncovered: int
    n_quadruple: int
    per_chart_counts: tuple[int, ...]
    r_min: float
    r_max: float


def full_covering_report(c, base, n_samples, seed=0) -> SampledReport:
    """Membership counts of ``n_samples`` uniform draws (in log-modulus
    and argument) from the annulus ``r_min < |eps| < r_max`` and of the
    :func:`seam_probes`.  A probe never counts for the chart it was built
    from: it lies on that chart's open boundary, where rounding alone
    would decide."""
    L = base.log_abs_q
    r_max = min(math.exp(ch.i2[0] * L) for ch in c.charts)
    r_min = r_max * math.exp(-3.0 * L)
    rng = np.random.default_rng(seed)
    mods = np.exp(rng.uniform(math.log(r_min), math.log(r_max), n_samples))
    args = rng.uniform(0.0, TWO_PI, n_samples)
    probes = seam_probes(c, base)
    pts = np.concatenate([mods * np.exp(1j * args), probes])
    owner = np.concatenate([np.full(n_samples, -1),
                            np.arange(probes.size) // 3])
    counts = np.zeros(len(c.charts), dtype=np.int64)
    mult = np.zeros(pts.size, dtype=np.int64)
    for idx, ch in enumerate(c.charts):
        inside = in_discrete_spiral(pts, ch, base) & (owner != idx)
        counts[idx] = np.count_nonzero(inside)
        mult += inside
    n_unc = int(np.count_nonzero(mult == 0))
    return SampledReport(covered=n_unc == 0,
                         max_multiplicity=int(mult.max(initial=0)),
                         n_uncovered=n_unc,
                         n_quadruple=int(np.count_nonzero(mult >= 4)),
                         per_chart_counts=tuple(int(k) for k in counts),
                         r_min=r_min, r_max=r_max)


def _mod1(x: float) -> float:
    """Python's ``x % 1.0``, whose 1.0 (for ``x`` a hair below an
    integer) is 0.0 on the circle."""
    r = x % 1.0
    return 0.0 if r == 1.0 else r


def _circle(ends):
    """Cuts of the circle at ``ends`` (:func:`_mod1`) and one
    representative per class: class ``2k`` is the cut ``e_k``, class
    ``2k + 1`` the midpoint of the gap after it."""
    cuts = sorted({_mod1(x) for x in ends})
    # a rounded point resolves no gap narrower than this
    assert np.diff(cuts + [cuts[0] + 1.0]).min() > 1e-9
    reps = []
    for k, e in enumerate(cuts):
        nxt = cuts[k + 1] if k + 1 < len(cuts) else cuts[0] + 1.0
        reps += [e, 0.5 * (e + nxt)]
    return cuts, reps


def cell_members(c, base) -> np.ndarray:
    """Which charts hold every torus cell: a boolean array of shape
    ``(charts, u classes, v classes)``.

    A representative ``(u, v)`` of each cell, with ``v`` moved by whole
    levels below every chart's ``i2``, becomes the point
    ``exp(2 pi i u) q^v`` and is tested against every chart by
    ``in_discrete_spiral``, so distinct cuts must lie more than 1e-9
    apart.  A cut is a point of a chart's boundary only where it is one
    of that chart's own endpoints; there the open chart misses it by
    definition, and the point, which rounding may move by an ulp, is not
    tested.
    """
    u_cuts, u_reps = _circle(x for ch in c.charts for x in ch.i1)
    v_cuts, v_reps = _circle(x for ch in c.charts for x in ch.i2)
    depth = math.floor(min(ch.i2[0] for ch in c.charts)) - 2.0
    u = np.repeat(u_reps, len(v_reps))
    v = np.tile(v_reps, len(u_reps)) + depth
    pts = np.exp(TWO_PI * 1j * u) * qpow(base, v)
    u_cls = np.repeat(np.arange(len(u_reps)), len(v_reps))
    v_cls = np.tile(np.arange(len(v_reps)), len(u_reps))
    members = []
    for ch in c.charts:
        own_u = [2 * u_cuts.index(_mod1(x)) for x in ch.i1]
        own_v = [2 * v_cuts.index(_mod1(x)) for x in ch.i2]
        on_edge = np.isin(u_cls, own_u) | np.isin(v_cls, own_v)
        members.append(in_discrete_spiral(pts, ch, base) & ~on_edge)
    return np.reshape(members, (len(c.charts), len(u_reps), len(v_reps)))


def cell_multiplicity(c, base) -> np.ndarray:
    """Multiplicity of every torus cell, ``(u classes, v classes)``: the
    number of charts that hold it (:func:`cell_members`)."""
    return cell_members(c, base).sum(axis=0)


def intersecting_pairs(c, base) -> set:
    """The ordered pairs of distinct charts that share a torus cell
    (:func:`cell_members`)."""
    members = cell_members(c, base).reshape(len(c.charts), -1)
    shared = members.astype(np.int64) @ members.T.astype(np.int64)
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(shared)) if i != j}


def _axis(lo, hi, n, log=False):
    """``n`` points from ``lo`` to ``hi``, ends included (in log scale if
    ``log``)."""
    if log:
        return np.exp(np.linspace(math.log(lo), math.log(hi), n))
    return np.linspace(lo, hi, n)


def grid_family_clearances(f, c, base, n=(2, 3, 17, 2, 2, 3)):
    """``(v_clearance, kernel_clearance)``: least ``spiral_min_distance``
    over grids of every chart's points, ends included.

    ``n`` counts the points along ``|lam|`` (log scale, in
    ``(max(1, lo), min(rho0, hi))``), ``arg lam``, ``u``, ``v``, ``|t|``
    (log scale) and ``arg t``; kernel points are ``lam / (eps t)`` with
    ``eps = exp(2 pi i u) q^v``.  Direction-patch points take the same
    counts along ``|v|`` and ``arg v`` as ``|lam|`` and ``arg lam``, over
    the whole patch.  Every grid point is a point of the box, so each
    value is at least the exact least clearance.
    """
    v_pts, k_pts = [], []
    t = (_axis(*f.t_set.mod, n[4], log=True)[:, None]
         * np.exp(1j * _axis(*f.t_set.arg, n[5]))).ravel()
    for ch, vs in zip(c.charts, f.v_sets):
        phase = np.exp(1j * _axis(*vs.arg, n[1]))
        v_pts.append(np.outer(_axis(*vs.mod, n[0], log=True), phase))
        lam = np.outer(_axis(max(1.0, vs.mod[0]), min(f.rho0, vs.mod[1]),
                             n[0], log=True), phase).ravel()
        eps = np.outer(np.exp(TWO_PI * 1j * _axis(*ch.i1, n[2])),
                       qpow(base, _axis(*ch.i2, n[3]))).ravel()
        k_pts.append(lam[:, None, None] / (eps[:, None] * t))
    return tuple(float(min(spiral_min_distance(p, base, f.delta).min()
                           for p in pts)) for pts in (v_pts, k_pts))
