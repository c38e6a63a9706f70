"""Good coverings of a punctured neighborhood of 0 by discrete q-spirals.

A covering is a finite grid of chart patches whose spirals jointly cover a
punctured neighborhood of the origin while no point lies in four or more
of them.  The construction tiles the angular coordinate ``u`` with
overlapping intervals (staggered row by row so that u-overlaps of adjacent
rows never align) and the level coordinate ``v`` with overlapping
intervals spanning one unit, whose integer translates close the radial
gaps.  Triple overlaps survive; quadruple ones are excluded by the
stagger.  Both are decided exactly, on the cells the chart endpoints cut
the torus of spiral coordinates into (:func:`covering_report`).

Two charts intersect iff they share a torus cell; :func:`overlap_point`
returns a point of every such pair.  The companion family supplies, per
chart, a base patch for the transform directions plus a shared
evaluation patch, a radius and a clearance ``delta``; validity reduces to
distance-to(-1) checks on the relevant spirals, decided exactly on one
interval of the argument at which they cross the unit circle per chart
(:func:`direction_clearances` at parse time, :func:`validate_family`).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .qgeometry import (ChartBase, ContinuousBase, QBase, _frac, qpow,
                        spiral_min_distance)
from .records import record

TWO_PI = 2.0 * math.pi

# widening of validate_family's theta-intervals, times the magnitude of
# the corner terms plus 1 + |kappa|: more than the rounding of a corner
# sum (less than 2^-50 of that magnitude), of the pole test and of
# exp(i theta), so every end lies outside the exact interval
_ARG_MARGIN = 2.0 ** -48

#: Most charts :func:`build_covering` builds: :func:`covering_report`
#: holds an ``(n, 4 n)`` float array for ``n`` charts, 32 MB at 1,000
MAX_CHARTS = 1000


@record(frozen=True)
class GoodCovering:
    charts: tuple[ChartBase, ...]
    n_u: int = 0


@record(frozen=True)
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
            if not max(1.0, v.mod[0]) < min(self.rho0, v.mod[1]):
                raise ValueError("direction patch %d has no modulus in "
                                 "(1, rho0)" % i)


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
    if n_u * n_v > MAX_CHARTS:
        raise ValueError("n_u * n_v = %d charts exceed the limit of %d"
                         % (n_u * n_v, MAX_CHARTS))
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


@record(frozen=True)
class CoveringReport:
    """Counts of torus cells (see :func:`covering_report`)."""

    covered: bool
    max_multiplicity: int
    n_uncovered: int
    n_quadruple: int
    n_cells: int
    r_min: float
    r_max: float

    @property
    def ok(self) -> bool:
        return self.covered and self.max_multiplicity <= 3


def _arc_classes(arcs: np.ndarray) -> np.ndarray:
    """Which classes of the circle ``R/Z`` each open arc contains.

    ``arcs`` is an ``(n, 2)`` array of intervals shorter than one.  Their
    endpoints, reduced modulo one (``_frac`` can round a value a hair
    below an integer up to 1.0, which is 0.0 on the circle), cut the
    circle at the ``m`` distinct values ``e_0 < ... < e_{m-1}`` into
    ``2m`` classes: class ``2k`` is the point ``e_k`` and class
    ``2k + 1`` the open gap after it.  The open arc from ``e_a`` to
    ``e_b`` holds the classes strictly between ``2a`` and ``2b``, read
    past ``2m - 1`` back to 0 where ``b < a``, so the ``(n, 2m)`` boolean
    result is integer logic on the endpoint indices.
    """
    ends = _frac(arcs)
    ends[ends == 1.0] = 0.0
    cuts = np.unique(ends)
    lo, hi = 2 * np.searchsorted(cuts, ends).T[:, :, None]
    c = np.arange(2 * cuts.size)
    # lo == hi: an arc whose ends round to one cut holds no class
    return np.where(lo <= hi, (lo < c) & (c < hi), (lo < c) | (c < hi))


def covering_report(c: GoodCovering, base: QBase) -> CoveringReport:
    """Decide coverage and multiplicity of the punctured disc exactly.

    ``eps = exp(2 pi i u) q^v`` lies on a chart's discrete spiral iff
    ``u`` is in ``i1`` modulo one and ``v + n`` is in ``i2`` for some
    integer ``n >= 0``.  Below ``r_max``, the lowest chart-bottom
    modulus, ``v`` lies below every ``i2``, so the second condition is
    ``v`` in ``i2`` modulo one: on that punctured disc each chart is the
    open rectangle ``i1 x i2`` of the torus ``(R/Z)^2``, at every base.
    The chart endpoints cut each circle into classes
    (:func:`_arc_classes`); the multiplicity of every cell, a pair of
    classes, is one product of the u- and v-memberships.  The report
    counts cells; ``r_min`` and ``r_max`` bound the three q-levels below
    ``r_max`` that the admissibility fits take as their eps patch.
    """
    L = base.log_abs_q
    r_max = min(math.exp(ch.i2[0] * L) for ch in c.charts)
    r_min = r_max * math.exp(-3.0 * L)
    ends = np.array([ch.i1 + ch.i2 for ch in c.charts])
    # counts up to the number of charts: exact in float64
    mult = (_arc_classes(ends[:, :2]).T.astype(float)
            @ _arc_classes(ends[:, 2:]).astype(float))
    n_unc = int(np.count_nonzero(mult == 0))
    return CoveringReport(covered=n_unc == 0,
                          max_multiplicity=int(mult.max()),
                          n_uncovered=n_unc,
                          n_quadruple=int(np.count_nonzero(mult >= 4)),
                          n_cells=mult.size, r_min=r_min, r_max=r_max)


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


def _theta_clearances(box: np.ndarray, base: QBase,
                      delta: float) -> np.ndarray:
    """Least distance from -1 of the two-sided spirals through each box.

    The spiral ``{w q^-k : k real}`` crosses the unit circle at the
    arguments ``theta(w) = arg w - kappa log|w|`` (mod 2 pi),
    ``kappa = Im log q / log|q|``; its clearance is ``f(theta)``, that of
    the spiral through ``exp(i theta)``.  For ``r < 1``,
    ``{z : |1 + e^z| <= r}`` is a union of ``2 pi i``-translates of one
    connected set around ``i pi``, growing with ``r``, so the capped
    ``f`` does not decrease as ``theta`` moves away from the nearest
    ``pi + 2 pi n``: its least value on an interval is 0 if the interval
    holds some ``pi + 2 pi n``, else the lesser end value.

    ``box[..., i, :]`` holds the ends of the ``i``-th coordinate of a box
    on which ``theta`` is linear: ``log|w|`` and ``arg w``, then, for the
    kernel points ``w = lam / (eps t)`` of :func:`validate_family`, ``u``,
    ``log|t|`` and ``arg t``.  Its range is exact from the corner terms,
    widened by ``_ARG_MARGIN``; all ends take one
    :func:`spiral_min_distance` call (the closed form at a real base,
    where ``theta = arg w``).
    """
    kappa = base.log_q.imag / base.log_q.real
    coef = np.array([-kappa, 1.0, -TWO_PI, kappa, -1.0])[:box.shape[-2]]
    # each term's lesser and greater end: their sums are theta's range
    terms = np.sort(box * coef[:, None])
    arcs = terms.sum(axis=-2)
    arcs += np.multiply.outer(_ARG_MARGIN * (
        1.0 + abs(kappa) + np.abs(terms).sum(axis=(-2, -1))), (-1.0, 1.0))
    n = np.floor((arcs - math.pi) / TWO_PI)
    pole = n[..., 0] < n[..., 1]  # some pi + 2 pi n in (lo, hi]
    ends = spiral_min_distance(np.exp(1j * arcs), base, delta)
    return np.where(pole, 0.0, ends.min(axis=-1))


def direction_clearances(mod, arg, base: QBase, delta: float) -> np.ndarray:
    """The least distance from -1 of the two-sided spiral ``V q^R`` of each
    direction patch ``V``, of argument ends ``arg`` (shape ``(..., 2)``)
    and modulus ends ``mod`` (broadcast against them), decided exactly on
    the interval of ``theta = arg v - kappa log|v|``
    (:func:`_theta_clearances`)."""
    box = np.empty(np.shape(arg)[:-1] + (2, 2))
    box[..., 0, :], box[..., 1, :] = np.log(mod), arg
    return _theta_clearances(box, base, delta)


def validate_family(f: AssociatedFamily, c: GoodCovering,
                    base: QBase) -> float:
    """The least distance from -1 of the two-sided spirals of every
    ``lam / (eps t)`` (chart point ``eps``, t-point, ``lam`` in its patch
    with ``1 < |lam| < rho0``), decided exactly: the family is valid where
    it exceeds ``delta``.  For ``eps = exp(2 pi i u) q^v``, ``theta = arg
    lam - 2 pi u - arg t - kappa (log|lam| - log|t|)``, where ``v``
    cancels: each chart gives one interval (:func:`_theta_clearances`).
    """
    if len(f.v_sets) != len(c.charts):
        raise ValueError("need one direction patch per chart")
    # the ends of log|lam|, arg lam, u, log|t| and arg t, per chart
    box = np.zeros((len(c.charts), 5, 2))
    # max(1, lo) < min(rho0, hi) (AssociatedFamily): a clip of both ends
    box[:, 0] = np.log(np.clip([v.mod for v in f.v_sets], 1.0, f.rho0))
    box[:, 1] = [v.arg for v in f.v_sets]
    box[:, 2] = [ch.i1 for ch in c.charts]
    box[:, 3] = np.log(f.t_set.mod)
    box[:, 4] = f.t_set.arg
    return float(_theta_clearances(box, base, f.delta).min())


def _overlap_mod_one(a, b, axis: str) -> tuple[float, int]:
    """The middle of the overlap of intervals ``a`` and ``b + k`` and the
    shift ``k``: the least with ``b[1] + k > a[0]``, the only one at which
    two intervals shorter than 1/2 each can overlap."""
    k = math.floor(a[0] - b[1]) + 1
    lo, hi = max(a[0], b[0] + k), min(a[1], b[1] + k)
    if not hi > lo:
        raise ValueError("charts do not overlap in %s" % axis)
    return 0.5 * (lo + hi), k


def overlap_point(c1: ChartBase, c2: ChartBase, base: QBase) -> complex:
    """A point on both charts' discrete spirals, or ``ValueError`` where
    they share no torus cell (:func:`covering_report`): ``u`` is the middle
    of the overlap of the ``i1`` modulo one, and with ``w`` that of
    ``c1.i2`` and ``c2.i2 + k``, ``v = w - max(k, 0)`` reaches ``c1.i2``
    after ``max(k, 0)`` steps and ``c2.i2`` after ``max(-k, 0)``."""
    u, _ = _overlap_mod_one(c1.i1, c2.i1, "u")
    w, k = _overlap_mod_one(c1.i2, c2.i2, "v")
    v = w - max(k, 0)
    return cmath.exp(2j * math.pi * u) * complex(qpow(base, v))
