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

from .qgeometry import (BLOCK, ChartBase, ContinuousBase, QBase,
                        in_discrete_spiral, qpow, spiral_min_distance)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GoodCovering:
    charts: tuple[ChartBase, ...]
    n_u: int = 0
    n_v: int = 0

    def chart(self, index: int) -> ChartBase:
        return self.charts[index]


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
    return GoodCovering(charts=tuple(charts), n_u=n_u, n_v=n_v)


def chart_index(covering: GoodCovering, i: int, j: int) -> int:
    return j * covering.n_u + i


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


def validate_covering(c: GoodCovering, base: QBase, n_samples: int,
                      seed: int = 0) -> CoveringReport:
    """Sample an annulus inside the covered neighborhood and count memberships.

    The annulus top sits at the lowest chart-bottom modulus (below every
    chart's own patch, hence inside the covered neighborhood), three
    q-levels deep.  The samples and the :func:`seam_probes` form one point
    array; each chart tests it with one array-valued
    :func:`in_discrete_spiral` call per block of points.  A probe never
    counts for the chart it was built from: it lies on that chart's open
    boundary, where rounding alone would decide.
    """
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
    n_unc = 0
    max_mult = 0
    n_quad = 0
    for start in range(0, pts.size, BLOCK):
        block = pts[start:start + BLOCK]
        own = owner[start:start + BLOCK]
        mult = np.zeros(block.size, dtype=np.int64)
        for idx, ch in enumerate(c.charts):
            inside = in_discrete_spiral(block, ch, base) & (own != idx)
            counts[idx] += np.count_nonzero(inside)
            mult += inside
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
      from -1 (scan plus local refinement).

    The samples of every chart are drawn first; each clearance is then one
    array-valued :func:`spiral_min_distance` call over all of them.
    """
    if len(lambdas) != len(c.charts) or len(f.v_sets) != len(c.charts):
        raise ValueError("need one direction and one patch per chart")
    rng = np.random.default_rng(seed)
    feasible = True
    for lam, vset in zip(lambdas, f.v_sets):
        mod_ok = max(1.0, vset.mod[0]) <= abs(lam) <= min(f.rho0, vset.mod[1])
        center = 0.5 * (vset.arg[0] + vset.arg[1])
        half = 0.5 * (vset.arg[1] - vset.arg[0])
        d = (cmath.phase(lam) - center) % TWO_PI
        arg_ok = min(d, TWO_PI - d) <= half + 1e-9
        feasible = feasible and mod_ok and arg_ok
    per_chart = max(n_samples // len(c.charts), 4)
    v_pts = []
    kernel_pts = []
    for ch, vset in zip(c.charts, f.v_sets):
        v_pts.append(vset.sample(rng, per_chart))
        u = rng.uniform(ch.i1[0], ch.i1[1], per_chart)
        v = rng.uniform(ch.i2[0], ch.i2[1], per_chart)
        eps_pts = np.exp(2j * math.pi * u) * qpow(base, v)
        t_pts = f.t_set.sample(rng, per_chart)
        lam_mods = rng.uniform(max(1.0, vset.mod[0]),
                               min(f.rho0, vset.mod[1]), per_chart)
        lam_args = rng.uniform(vset.arg[0], vset.arg[1], per_chart)
        lam_pts = lam_mods * np.exp(1j * lam_args)
        kernel_pts.append(lam_pts / (eps_pts * t_pts))
    v_clear = float(spiral_min_distance(np.concatenate(v_pts), base,
                                        f.delta).min())
    k_clear = float(spiral_min_distance(np.concatenate(kernel_pts), base,
                                        f.delta).min())
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
