"""Good coverings of a punctured neighborhood of 0 by discrete q-spirals.

A covering is a finite grid of chart patches whose spirals jointly cover a
punctured neighborhood of the origin while no point lies in four or more
of them.  The construction tiles the angular coordinate ``u`` with
overlapping intervals (staggered row by row so that u-overlaps of adjacent
rows never align) and the level coordinate ``v`` with overlapping
intervals spanning one unit, whose integer translates close the radial
gaps.  Triple overlaps survive; quadruple ones are excluded by the
stagger.

The companion family supplies, per chart, a base patch for the transform
directions plus a shared evaluation patch, a radius and a clearance
``delta``; validity reduces to distance-to(-1) checks on the relevant
spirals, sampled and refined.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qgeometry import (BLOCK, ChartBase, ContinuousBase, QBase, _frac,
                        _level_hit, _turn_in, qpow, spiral_coordinates,
                        spiral_min_distance)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GoodCovering:
    charts: tuple[ChartBase, ...]
    n_u: int = 0


@dataclass(frozen=True)
class AssociatedFamily:
    """Per-chart direction patches V_I, shared t-patch, radius and clearance."""

    v_sets: tuple[ContinuousBase, ...]
    t_set: ContinuousBase
    rho0: float
    delta: float

    def __post_init__(self):
        if not self.rho0 > 1.0:
            raise ValueError("rho0 must exceed 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.t_set.mod[1] > 1.0:
            raise ValueError("evaluation patch must satisfy |t| <= 1")
        for i, v in enumerate(self.v_sets):
            if v.mod[0] >= self.rho0:
                raise ValueError("direction patch %d misses the disc of "
                                 "radius rho0" % i)


def build_covering(n_u: int, n_v: int, overlap: float,
                   v_top: float = -0.02) -> GoodCovering:
    """Overlapping n_u x n_v grid of charts tiling angle and one level period.

    u-intervals have pitch 1/n_u and length (1+overlap)/n_u; the same in v,
    anchored so the topmost level stays below ``v_top`` (keeping the whole
    spiral inside the unit disc for v_top < 0).  Row j's u-grid is shifted
    by j/(n_u n_v), which keeps the u-overlap bands of any two adjacent
    rows (cyclically) disjoint, so no point lies in four charts.
    """
    if n_u < 5 or n_v < 5:
        raise ValueError("need at least 5 charts per direction")
    if not 0.0 <= overlap < 0.5:
        raise ValueError("overlap must lie in [0, 0.5)")
    length_u = (1.0 + overlap) / n_u
    length_v = (1.0 + overlap) / n_v
    if length_u >= 0.25 or length_v >= 0.25:
        raise ValueError(
            "infeasible (n_u=%d, n_v=%d, overlap=%g): chart intervals would "
            "reach length 1/4" % (n_u, n_v, overlap))
    if overlap >= 1.0 / n_v:
        raise ValueError(
            "infeasible overlap %g >= 1/n_v: row stagger cannot separate "
            "u-overlap bands" % overlap)
    pitch_u = 1.0 / n_u
    pitch_v = 1.0 / n_v
    charts = []
    for j in range(n_v):
        stagger = j * pitch_u / n_v
        v_lo = v_top - length_v - pitch_v * (n_v - 1 - j)
        for i in range(n_u):
            u_lo = (i - overlap / 2.0) * pitch_u + stagger
            charts.append(ChartBase(
                i1=(u_lo, u_lo + length_u),
                i2=(v_lo, v_lo + length_v)))
    return GoodCovering(charts=tuple(charts), n_u=n_u)


@dataclass(frozen=True)
class CoveringReport:
    covered: bool
    max_multiplicity: int
    n_uncovered: int
    n_quadruple: int
    per_chart_counts: tuple[int, ...]
    r_min: float
    r_max: float

    @property
    def ok(self) -> bool:
        return self.covered and self.max_multiplicity <= 3


def seam_probes(c: GoodCovering, base: QBase) -> np.ndarray:
    """Three deterministic probes per chart, in chart order.

    They sit on the chart's left, right and bottom edges (open sets!), at
    the edge midpoints, pushed three levels down into the annulus of
    :func:`validate_covering`; a good covering has each interior to a
    neighbouring chart.
    """
    return np.array([cmath.exp(TWO_PI * 1j * u) * qpow(base, v - 3.0)
                     for ch in c.charts
                     for u, v in ((ch.i1[0], ch.v_mid), (ch.i1[1], ch.v_mid),
                                  (ch.u_mid, ch.i2[0]))], dtype=complex)


def _u_slices(u: np.ndarray, i1: tuple[float, float]) -> list[slice]:
    """Disjoint slices of the sorted ``u`` (in ``[0, 1)``) holding every
    entry that lies in ``i1`` modulo one.

    The interval is moved to start in ``[0, 1]`` and widened by 1e-9 at
    both ends, far more than the rounding of the turn coordinates; where
    it then reaches past 0 or 1 it wraps into a second slice.
    """
    pad = 1e-9
    lo = i1[0] % 1.0 - pad
    hi = lo + (i1[1] - i1[0]) + 2.0 * pad
    bounds = [lo, hi]
    if lo < 0.0:
        bounds += [lo + 1.0, 1.0]
    elif hi > 1.0:
        bounds += [0.0, hi - 1.0]
    cuts = np.searchsorted(u, bounds)
    return [slice(cuts[k], cuts[k + 1]) for k in range(0, len(cuts), 2)]


def validate_covering(c: GoodCovering, base: QBase, n_samples: int,
                      seed: int = 0) -> CoveringReport:
    """Sample an annulus inside the covered neighborhood and count memberships.

    The annulus top sits at the lowest chart-bottom modulus (below every
    chart's own patch, hence inside the covered neighborhood), three
    q-levels deep.  Each sample is drawn as a log-modulus and an argument
    and mapped straight to its spiral coordinates ``v = log_mod / log|q|``
    and ``u = frac((arg - v Im log q) / 2 pi)``; only the
    :func:`seam_probes` are complex points.  Per block of points the
    coordinates are sorted by ``u``.  Each chart tests only the points
    whose ``u`` lies in its own u-interval (widened by 1e-9, one or two
    ``searchsorted`` slices, see :func:`_u_slices`) with the interval test
    of :func:`~qgevrey.qgeometry.in_discrete_spiral`; a point outside the
    slices fails that test anyway.  The v half of that test depends only
    on the chart's ``i2``: it runs once per distinct ``i2`` (a covering
    row) over the block.  So every decision, count and the report are
    those of testing every point against every chart, at about
    ``(1 + overlap) / n_u`` of the work.  A probe never counts for the
    chart it was built from: it lies on that chart's open boundary, where
    rounding alone would decide.
    """
    L = base.log_abs_q
    r_max = min(math.exp(ch.i2[0] * L) for ch in c.charts)
    r_min = r_max * math.exp(-3.0 * L)
    rng = np.random.default_rng(seed)
    v_s = rng.uniform(math.log(r_min), math.log(r_max), n_samples) / L
    arg = rng.uniform(0.0, TWO_PI, n_samples)
    u_p, v_p = spiral_coordinates(seam_probes(c, base), base)
    u_all = np.concatenate([_frac((arg - v_s * base.log_q.imag) / TWO_PI),
                            u_p])
    v_all = np.concatenate([v_s, v_p])
    owner = np.concatenate([np.full(n_samples, -1),
                            np.arange(u_p.size) // 3])
    row_of = {}
    rows = [row_of.setdefault(ch.i2, len(row_of)) for ch in c.charts]
    counts = np.zeros(len(c.charts), dtype=np.int64)
    n_unc = 0
    max_mult = 0
    n_quad = 0
    for start in range(0, u_all.size, BLOCK):
        blk = slice(start, start + BLOCK)
        order = np.argsort(u_all[blk])
        u, v, own = u_all[blk][order], v_all[blk][order], owner[blk][order]
        hits = [_level_hit(v, i2) for i2 in row_of]
        mult = np.zeros(u.size, dtype=np.int64)
        for idx, ch in enumerate(c.charts):
            for part in _u_slices(u, ch.i1):
                inside = (_turn_in(u[part], ch.i1) & hits[rows[idx]][part]
                          & (own[part] != idx))
                counts[idx] += np.count_nonzero(inside)
                mult[part] += inside
        n_unc += int(np.count_nonzero(mult == 0))
        n_quad += int(np.count_nonzero(mult >= 4))
        max_mult = max(max_mult, int(mult.max(initial=0)))
    return CoveringReport(covered=n_unc == 0, max_multiplicity=max_mult,
                          n_uncovered=n_unc, n_quadruple=n_quad,
                          per_chart_counts=tuple(int(k) for k in counts),
                          r_min=r_min, r_max=r_max)


def pick_lambda(v: ContinuousBase, rho0: float) -> complex:
    """Centroid of the feasible part of the direction patch.

    The feasible moduli are ``(max(1, lo), min(rho0, hi))``: inside the
    patch, inside the radius-rho0 disc, and of modulus above one.
    """
    m_lo = max(1.0, v.mod[0])
    m_hi = min(rho0, v.mod[1])
    if not m_lo < m_hi:
        raise ValueError(
            "direction patch has no point with 1 < |lambda| < rho0 "
            "(moduli %s, rho0=%g)" % (v.mod, rho0))
    mod = 0.5 * (m_lo + m_hi)
    arg = 0.5 * (v.arg[0] + v.arg[1])
    return mod * cmath.exp(1j * arg)


@dataclass(frozen=True)
class FamilyReport:
    lambda_feasible: bool
    v_clearance: float      # item: min over V_I q^R of |tau + 1|, vs delta
    v_clearance_ok: bool
    kernel_clearance: float  # min over (eps, t, lam_v, r) of |1 + lam/(eps t q^r)|
    kernel_clearance_ok: bool
    t_bounded: bool

    @property
    def ok(self) -> bool:
        return (self.lambda_feasible and self.v_clearance_ok
                and self.kernel_clearance_ok and self.t_bounded)


def validate_family(f: AssociatedFamily, c: GoodCovering, base: QBase,
                    lambdas: tuple[complex, ...], n_samples: int,
                    seed: int = 0) -> FamilyReport:
    """Check the family against the covering, spiraling both ways in v.

    * every supplied direction must lie in its patch intersected with the
      rho0-disc and have modulus above one;
    * the two-sided spirals of the direction patches must keep
      ``|tau + 1| > delta``;
    * for sampled chart points, t-points and directions, the full
      two-sided spiral of ``lam / (eps t)`` must keep distance > delta
      from -1 (:func:`spiral_min_distance`: closed form at a real base,
      scan plus local refinement otherwise).

    Per chart, eight uniform draws give a patch point and a t-point (as
    ``ContinuousBase.sample`` maps them), a chart point ``(u, v)`` and a
    direction.  One ``rng.uniform`` call over a ``(charts, 8, n)`` array
    of ``(lo, hi)`` bounds returns the stream of eight calls per chart,
    value for value.  All points take one :func:`spiral_min_distance`
    call; no value depends on the others.
    """
    if len(lambdas) != len(c.charts) or len(f.v_sets) != len(c.charts):
        raise ValueError("need one direction and one patch per chart")
    feasible = True
    for lam, vset in zip(lambdas, f.v_sets):
        mod_ok = max(1.0, vset.mod[0]) <= abs(lam) <= min(f.rho0, vset.mod[1])
        center = 0.5 * (vset.arg[0] + vset.arg[1])
        half = 0.5 * (vset.arg[1] - vset.arg[0])
        d = (cmath.phase(lam) - center) % TWO_PI
        arg_ok = min(d, TWO_PI - d) <= half + 1e-9
        feasible = feasible and mod_ok and arg_ok
    b = np.array([v.draw_bounds() + (ch.i1, ch.i2) + f.t_set.draw_bounds()
                  + ((max(1.0, v.mod[0]), min(f.rho0, v.mod[1])), v.arg)
                  for ch, v in zip(c.charts, f.v_sets)])
    x = np.random.default_rng(seed).uniform(
        b[..., :1], b[..., 1:], (len(b), 8, max(n_samples // len(b), 4)))
    v_pts = ContinuousBase.from_draws(x[:, 0], x[:, 1])
    eps_pts = np.exp(2j * math.pi * x[:, 2]) * qpow(base, x[:, 3])
    t_pts = ContinuousBase.from_draws(x[:, 4], x[:, 5])
    lam_pts = x[:, 6] * np.exp(1j * x[:, 7])
    v_clear, k_clear = (float(d.min()) for d in spiral_min_distance(
        np.stack([v_pts, lam_pts / (eps_pts * t_pts)]), base, f.delta))
    return FamilyReport(
        lambda_feasible=bool(feasible),
        v_clearance=v_clear, v_clearance_ok=v_clear > f.delta,
        kernel_clearance=k_clear, kernel_clearance_ok=k_clear > f.delta,
        t_bounded=f.t_set.mod[1] <= 1.0)


def overlap_point(c1: ChartBase, c2: ChartBase, base: QBase,
                  v_level: float = None) -> complex:
    """A point lying in both chart spirals (u in both intervals mod 1).

    Charts of one row overlap in u; the returned point takes the middle of
    the u-overlap and the deeper chart middle in v (spiral membership only
    needs v below the interval).
    """
    u = None
    for k in (-1, 0, 1):
        lo = max(c1.i1[0], c2.i1[0] + k)
        hi = min(c1.i1[1], c2.i1[1] + k)
        if hi > lo:
            u = 0.5 * (lo + hi)
            break
    if u is None:
        raise ValueError("charts do not overlap in u")
    v = min(c1.v_mid, c2.v_mid) if v_level is None else v_level
    return cmath.exp(2j * math.pi * u) * complex(qpow(base, v))
