"""Chart solutions, equation residuals, flatness and asymptotic diagnostics.

A chart solution is assembled from the kernel transforms of the recursion
coefficients,

    X(eps, t, z) = sum_beta  T_beta(eps, eps t) z^beta / beta!,

where ``T_beta`` is the transform of ``tau -> W_beta(eps, tau)`` along the
chart direction.  All orders at one ``(eps, t)`` pair share one quadrature
grid, a transform block, and are cached together per pair for reuse by the
residual and the diagnostics.  Each diagnostic requests all the pairs it
needs, on all its charts, up front, and they are computed as one batch:
every probe round and halving level of the path quadrature evaluates the
nodes of all blocks still open in as few integrand calls as fit one memory
cap, while each block keeps its own direction, window, halvings and
stopping test.  A batch computes the recursion's eps factors once per eps,
and its kernel sums the theta series once per block and residue of the
dyadic s-lattice.

Quantitative experiments built on top:

* ``equation_residual`` - left minus right side of the functional
  equation, with every z-derivative/dilation acting exactly on the
  truncated series coefficients;
* ``flatness_fit`` - decay of sup-differences of two chart solutions
  against log^2|eps| along a q-geometric sequence;
* ``extract_coefficients`` / ``gevrey_fit`` - stabilized limits of
  successive-subtraction quotients along the same sequence, and the
  remainder-growth fit estimating the expansion type;
* ``young_conjugate`` / ``flatness_from_null_expansion`` - the closed
  forms tying weight functions to flatness exponents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .problem import CoefficientEvaluator, EpsFactors, GevreyParams
from .qgeometry import ChartBase, ContinuousBase, QBase, in_discrete_spiral, \
    in_theta_safe, qpow
from .qlaplace import QuadSettings, kernel, path_integral, path_window, \
    theta_unsafe, truncation_window
from .theta import log_theta, pi_q  # noqa: F401 (perfbench traces it here)


@dataclass
class SolutionChart:
    """One chart's solution evaluator with its direction and quadrature.

    The per-(eps, t) transform cache is single-writer: populate from one
    thread (or use one chart object per worker) and share read-only
    afterwards.  Distinct (eps, t) pairs, of this chart and others, are
    computed in batches (:func:`_transform_blocks`): one integrand call
    evaluates a halving level of many blocks.
    """

    chart_index: int
    chart: ChartBase
    lam: complex
    evaluator: CoefficientEvaluator
    beta_max: int = 25
    quad: QuadSettings = field(default_factory=QuadSettings)
    delta: float = 0.1
    t_set: ContinuousBase | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.beta_max < self.evaluator.problem.s_order:
            raise ValueError("beta_max must be at least the equation order")

    @property
    def base(self) -> QBase:
        return self.evaluator.base


def _require_on_spiral(sc: SolutionChart, eps_values) -> None:
    """Raise :class:`DomainError` for the first eps off the chart's
    discrete spiral; one array test covers all of them."""
    inside = in_discrete_spiral(np.array(eps_values, dtype=complex),
                                sc.chart, sc.base)
    if not inside.all():
        raise DomainError(
            "eps = %s is outside the discrete spiral of chart %d"
            % (eps_values[int(np.argmin(inside))], sc.chart_index),
            membership="discrete_spiral")


def _shared(sc: SolutionChart) -> tuple:
    """What the charts of one batch must have in common."""
    ev = sc.evaluator
    return ev.problem, ev.initial, ev.base, sc.beta_max, sc.quad


def _transform_blocks(items) -> None:
    """Cache the transform block of every ``(chart, (eps, t))`` in ``items``.

    A block holds all transforms T_beta(eps, eps t), beta <= beta_max, on
    shared nodes: one path integral whose rows are the orders.  The items
    not yet cached, from any number of charts, form one batch of
    :mod:`qgevrey.qlaplace`'s window and nested-halving loop, in which each
    block keeps its own direction, window, halvings and stopping test.  The
    charts must share problem, initial data, base, ``beta_max`` and
    ``quad`` (else ``ValueError``).  The windows leave the integrand below
    ``tol = 0.01 abs_tol`` over their width at both ends, where the
    trapezoid sums converge exponentially; the halvings add midpoints only
    where the coarse pass found the integrand above that threshold, within
    the same ``tol``; and a block returns its sums as soon as it settles
    by the rules of :func:`qgevrey.qlaplace.path_integral`.  Before
    any integrand call every eps is tested against its chart's discrete
    spiral, one array call per chart, and then every ``z = eps t`` for
    theta-safety, one array call per distinct ``delta``; each error names
    the first failing key of the first failing chart.  The batch builds the
    :class:`EpsFactors` of its distinct eps once and one
    :func:`qgevrey.qlaplace.kernel` for its ``(lam, z)``; each ``z`` is a
    Python scalar product, as a one-pair call computes it, so a block's
    values do not depend on the batch around it.  A block whose window the
    probe cannot close, or that does not settle, raises
    :class:`ConvergenceError` naming its chart and key; the blocks that
    settled stay cached.
    """
    new, charts = {}, {}
    for sc, (e, t) in items:
        key = (complex(e), complex(t))
        if key not in sc._cache:
            new[id(sc), key] = sc, key
            charts.setdefault(id(sc), sc)
    if not new:
        return
    new = list(new.values())
    first = next(iter(charts.values()))
    for sc in charts.values():
        if _shared(sc) != _shared(first):
            raise ValueError("charts %d and %d differ in problem, initial "
                             "data, base, beta_max or quad"
                             % (first.chart_index, sc.chart_index))
        _require_on_spiral(sc, [e for owner, (e, _) in new if owner is sc])
    base, quad, n_rows = first.base, first.quad, first.beta_max + 1
    zs = [e * t for _, (e, t) in new]
    lams = np.array([sc.lam for sc, _ in new])
    deltas = np.array([sc.delta for sc, _ in new])
    safe = np.empty(len(new), dtype=bool)
    for delta in dict.fromkeys(deltas.tolist()):
        mine = deltas == delta
        safe[mine] = in_theta_safe(np.array(zs)[mine], lams[mine], base,
                                   delta)
    if not safe.all():
        unsafe = [(sc, z) for (sc, _), z, ok in zip(new, zs, safe) if not ok]
        sc, z = next(p for c in charts.values() for p in unsafe if p[0] is c)
        raise theta_unsafe(z, sc.lam, sc.delta)
    pref = base.log_q / pi_q(base)
    kern = kernel(base, lams, zs)
    eps_index = {e: i for i, e in
                 enumerate(dict.fromkeys(key[0] for _, key in new))}
    factors = EpsFactors(first.evaluator.initial,
                         first.evaluator.problem.terms, list(eps_index))
    eps_of = np.array([eps_index[key[0]] for _, key in new])

    def rows(s: np.ndarray, block: np.ndarray) -> np.ndarray:
        tau = qpow(base, s) * lams[block]
        # pref * table * kern in place: complex products are not
        # bitwise commutative (fused multiply-add), so pref stays left
        out = first.evaluator.table(factors.at(eps_of[block]), tau,
                                    first.beta_max)
        np.multiply(pref, out, out=out)
        out *= kern(s, block)
        return out

    tol = 0.01 * quad.abs_tol
    try:
        windows = path_window(
            rows, [truncation_window(sc.lam, z, base, tol, s_pad=quad.s_pad)
                   for (sc, _), z in zip(new, zs)],
            quad, tol, n_rows)
        for i, value in path_integral(rows, windows, quad, tol, n_rows):
            sc, key = new[i]
            sc._cache[key] = value
    except ConvergenceError as exc:
        sc, (eps, t) = new[exc.block]
        raise ConvergenceError(
            "chart %d, transform block (eps, t) = (%s, %s): %s"
            % (sc.chart_index, eps, t, exc),
            last=exc.last, previous=exc.previous, block=exc.block) from exc


def _transform_block(sc: SolutionChart, eps: complex, t: complex) -> np.ndarray:
    """The cached transform block of one ``(eps, t)``: a one-key batch."""
    key = (complex(eps), complex(t))
    _transform_blocks([(sc, key)])
    return sc._cache[key]


@dataclass(frozen=True)
class SolutionValue:
    value: complex
    tail_estimate: float
    warnings: tuple[str, ...] = ()

    def __complex__(self) -> complex:
        return self.value


def _series_sum(coeffs: np.ndarray, z: complex, n_max: int = None) -> complex:
    n_max = len(coeffs) - 1 if n_max is None else n_max
    total = 0j
    zp = 1.0 + 0j
    for b in range(n_max + 1):
        total += coeffs[b] * zp / math.factorial(b)
        zp *= z
    return total


def _decay_fit(mags: np.ndarray) -> tuple[float, float]:
    """Least squares of log|T_beta| against beta^2 (orders above 1e-300),
    by the centred two-parameter formula."""
    good = np.flatnonzero(mags > 1e-300)
    if good.size < 3:
        return 0.0, -math.inf
    b2 = good.astype(float) ** 2
    b2_mean = b2.sum() / good.size
    x = b2 - b2_mean
    y = np.log(mags[good])
    slope = float(x @ y / (x @ x))
    return slope, float(y.sum() / good.size - slope * b2_mean)


# _tail_estimate divides by (beta_max + 1)!, which must stay a finite float
BETA_MAX_LIMIT = 169


def _tail_estimate(coeffs: np.ndarray, z: complex) -> float:
    slope, intercept = _decay_fit(np.abs(coeffs))
    if not math.isfinite(intercept):
        return 0.0
    b1 = len(coeffs)
    term = math.exp(min(slope * b1 * b1 + intercept, 700.0))
    return 2.0 * term * abs(z) ** b1 / math.factorial(b1)


def check_point(sc: SolutionChart, eps: complex, t: complex) -> list[str]:
    """Domain warnings for an evaluation point.

    The hard failures come from the transform blocks every caller reads:
    :func:`_transform_blocks` tests each eps against the chart's discrete
    spiral before it computes a block, or tested it when the block was
    cached, so the point is not tested again here.
    """
    warns = []
    if sc.t_set is not None:
        inside = (sc.t_set.mod[0] <= abs(t) <= sc.t_set.mod[1]
                  and sc.t_set.arg[0] <= cmath.phase(t) <= sc.t_set.arg[1])
        if not inside:
            warns.append("t = %s leaves the validated evaluation patch" % t)
    return warns


def evaluate_solution(sc: SolutionChart, eps: complex, t: complex,
                      z: complex) -> SolutionValue:
    """Truncated chart solution at (eps, t, z) with an a-posteriori tail bound.

    The tail estimate extrapolates the fitted quadratic-exponent decay of
    the computed transform magnitudes past beta_max; exceeding a caller's
    tolerance is a warning, never a failure.
    """
    warns = check_point(sc, eps, t)
    coeffs = _transform_block(sc, eps, t)
    tail = _tail_estimate(coeffs, z)
    if tail > 10.0 * sc.quad.abs_tol:
        warns.append("series tail estimate %.3e exceeds the quadrature "
                     "tolerance; consider raising beta_max" % tail)
    return SolutionValue(value=complex(_series_sum(coeffs, z)),
                         tail_estimate=tail, warnings=tuple(warns))


def initial_condition(sc: SolutionChart, j: int, eps: complex,
                      t: complex) -> complex:
    """The j-th prescribed z-derivative at z = 0: the order-j transform.

    Shares the cache with :func:`evaluate_solution`, so the value is
    bit-identical to the series coefficient used there.
    """
    if not 0 <= j < sc.evaluator.problem.s_order:
        raise ValueError("initial index j must satisfy 0 <= j < S")
    check_point(sc, eps, t)
    return complex(_transform_block(sc, eps, t)[j])


def _residual_keys(sc: SolutionChart, eps: complex, t: complex) -> list:
    """The ``(eps, t)`` keys :func:`equation_residual` reads: ``t``, ``q t``
    and ``q**m0 * t`` per term, in that order.

    Exact integer powers of q keep the t-dilations cache-coherent with the
    left side (``q**1 * t`` is the same float as ``q * t``).
    """
    q = sc.base.q
    return [(complex(eps), complex(t_key)) for t_key in
            [t, q * t] + [q**term.m0 * t
                          for term in sc.evaluator.problem.terms]]


def prefetch_residuals(points) -> None:
    """Compute every transform block :func:`equation_residual` needs at the
    ``(chart, eps, t)`` points, of any charts, as one batch."""
    _transform_blocks([(sc, key) for sc, eps, t in points
                       for key in _residual_keys(sc, eps, t)])


def eps_sequence(eps0: complex, q: complex, n: int) -> list:
    """``eps0 q^-i`` for ``i < n``: the sequence the diagnostics sample."""
    return [eps0 * q ** (-i) for i in range(n)]


def prefetch_samples(charts, eps_values, grid) -> None:
    """Compute the transform block of every chart at every ``(eps, t)``,
    ``t`` from the ``(t, z)`` grid, as one batch."""
    _transform_blocks([(sc, (eps, t)) for sc in charts
                       for eps in eps_values for t, _ in grid])


@dataclass(frozen=True)
class ResidualValue:
    value: complex
    lhs: complex
    rhs: complex
    warnings: tuple[str, ...] = ()


def equation_residual(sc: SolutionChart, eps: complex, t: complex,
                      z: complex) -> ResidualValue:
    """LHS minus RHS of the functional equation on the truncated series.

    z-derivatives shift the coefficient index, the z-dilation multiplies
    order beta by q^{-m1 beta}, and the (t sigma_q)-power re-evaluates the
    cached transforms at the dilated t.  Both sides are truncated at the
    same z-order, so the residual measures quadrature plus truncation
    error only.  Points whose t-dilations leave the validated evaluation
    patch are computed anyway and flagged.
    """
    base = sc.base
    q = base.q
    S = sc.evaluator.problem.s_order
    n_z = sc.beta_max - S
    warns = list(check_point(sc, eps, t))
    keys = _residual_keys(sc, eps, t)
    _transform_blocks([(sc, key) for key in keys])
    c_t, c_qt, *c_dils = [sc._cache[key] for key in keys]
    if sc.t_set is not None and abs(q * t) > sc.t_set.mod[1]:
        warns.append("q*t leaves the validated evaluation patch")
    lhs = 0j
    zp = 1.0 + 0j
    for n in range(n_z + 1):
        lhs += (eps * t * c_qt[n + S] + c_t[n + S]) * zp / math.factorial(n)
        zp *= z
    rhs = 0j
    for term, c_dil in zip(sc.evaluator.problem.terms, c_dils):
        if sc.t_set is not None and abs(q**term.m0 * t) > sc.t_set.mod[1]:
            warns.append("q^%d*t leaves the validated evaluation patch"
                         % term.m0)
        op_factor = t ** term.m0 * q ** (term.m0 * (term.m0 - 1) // 2)
        for s in term.z_powers:
            b = term.b_value(s, eps)
            if b == 0:
                continue
            inner = 0j
            zp = 1.0 + 0j
            for m in range(n_z - s + 1):
                inner += (c_dil[m + term.k] * q ** (-term.m1 * m)
                          * zp / math.factorial(m))
                zp *= z
            rhs += b * op_factor * z**s * inner
    return ResidualValue(value=lhs - rhs, lhs=lhs, rhs=rhs,
                         warnings=tuple(warns))


def transform_decay_fit(sc: SolutionChart, eps: complex, t: complex
                        ) -> tuple[float, float, np.ndarray]:
    """Regression slope of log|T_beta| against beta^2 at one point."""
    check_point(sc, eps, t)
    coeffs = _transform_block(sc, eps, t)
    mags = np.abs(coeffs)
    slope, intercept = _decay_fit(mags)
    return slope, intercept, mags


# ---------------------------------------------------------------------------
# flatness of chart differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatnessFit:
    slope: float
    intercept: float
    r2: float
    predicted: float
    n_used: int
    log2_eps: tuple[float, ...]
    d_sup: tuple[float, ...]


NUMERIC_FLOOR = 1e-14


def flatness_fit(sc1: SolutionChart, sc2: SolutionChart, eps0: complex,
                 n_points: int, grid, g: GevreyParams) -> FlatnessFit:
    """Fit log sup-difference of two chart solutions against log^2|eps|.

    ``d_n`` is the max over the (t, z) grid of |X_1 - X_2| at
    ``eps0 q^-n``; points below the numeric floor are excluded.  The
    predicted exponent is ``-1/A`` from the constant pack; a nonpositive
    ``1/A`` or a fully floored difference sequence is rejected.
    """
    if n_points < 8:
        raise ValueError("need at least 8 sequence points")
    one_over_a = g.one_over_a(sc1.base)
    if one_over_a <= 0:
        raise ValueError(
            "flatness exponent 1/A = %g is nonpositive; the constant pack "
            "admits no decay" % one_over_a)
    eps_values = eps_sequence(eps0, sc1.base.q, n_points)
    prefetch_samples((sc1, sc2), eps_values, grid)
    log2_eps, d_sup = [], []
    for eps in eps_values:
        d = 0.0
        for (t, z) in grid:
            v1 = evaluate_solution(sc1, eps, t, z).value
            v2 = evaluate_solution(sc2, eps, t, z).value
            d = max(d, abs(v1 - v2))
        log2_eps.append(math.log(abs(eps)) ** 2)
        d_sup.append(d)
    slope, intercept, r2, n_used = fit_log_decay(log2_eps, d_sup)
    return FlatnessFit(slope=slope, intercept=intercept, r2=r2,
                       predicted=-one_over_a, n_used=n_used,
                       log2_eps=tuple(log2_eps), d_sup=tuple(d_sup))


def fit_log_decay(log2_eps, d_values) -> tuple[float, float, float, int]:
    """Least squares of log d against log^2|eps|, floored points excluded.

    Returns (slope, intercept, r2, n_used); fewer than 3 usable points is
    a degenerate sequence and raises.
    """
    usable = [(l2, d) for l2, d in zip(log2_eps, d_values)
              if d > NUMERIC_FLOOR]
    if len(usable) < 3:
        raise ValueError(
            "difference sequence sits at the numeric floor (%d usable "
            "points); nothing to fit" % len(usable))
    x = np.array([u[0] for u in usable])
    y = np.log([u[1] for u in usable])
    A = np.vstack([x, np.ones(len(x))]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(
        np.sum((y - A @ [slope, intercept]) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), r2, len(usable)


# ---------------------------------------------------------------------------
# asymptotic coefficient extraction and type fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticSeries:
    coeffs: tuple[np.ndarray, ...]   # per k: values on the (t, z) grid
    stab: tuple[float, ...]          # per k: stabilization residual
    depths: tuple[int, ...]          # per k: sequence index used
    eps_values: tuple[complex, ...]
    samples: np.ndarray              # X(eps_n) on the grid, shape (n, grid)
    grid: tuple

    @property
    def k_max(self) -> int:
        return len(self.coeffs) - 1


def _solution_samples(sc: SolutionChart, eps_values, grid) -> np.ndarray:
    prefetch_samples((sc,), eps_values, grid)
    out = np.empty((len(eps_values), len(grid)), dtype=complex)
    for i, eps in enumerate(eps_values):
        for gi, (t, z) in enumerate(grid):
            out[i, gi] = evaluate_solution(sc, eps, t, z).value
    return out


def extract_coefficients(sc: SolutionChart, eps0: complex, k_max: int,
                         tol: float, grid, depth: int = 32,
                         depth_override: tuple[int, ...] = None
                         ) -> AsymptoticSeries:
    """Stabilized limits of successive-subtraction quotients along eps0 q^-n.

    Order k is estimated by ``(X(eps) - sum_{p<k} X_p eps^p / p!) k! /
    eps^k``; the reported value is taken at the turning point of the
    successive changes (truncation decays, then amplified noise grows),
    provided the change there lies below ``tol`` relative to the estimate
    scale - otherwise extraction aborts at that order.  ``depth_override``
    replays a fixed depth schedule (e.g. another chart's, or a shallow
    common one) so that cross-chart comparisons share their truncation
    bias.
    """
    if k_max > 4:
        raise ValueError("extraction beyond order 4 exceeds the double-"
                         "precision noise budget")
    q = sc.base.q
    eps_values = eps_sequence(eps0, q, depth + 1)
    samples = _solution_samples(sc, eps_values, grid)
    return extract_from_samples(samples, eps_values, q, k_max, tol,
                                grid=grid, depth_override=depth_override)


def extract_from_samples(samples: np.ndarray, eps_values, q: complex,
                         k_max: int, tol: float, grid=(),
                         depth_override: tuple[int, ...] = None
                         ) -> AsymptoticSeries:
    """Samples-level core of :func:`extract_coefficients`.

    ``samples[n, g]`` holds the function value at ``eps_values[n]`` and
    grid point g; the sequence must be q-geometric
    (``eps_values[n+1] = eps_values[n] / q``).
    """
    samples = np.asarray(samples, dtype=complex)
    eps_values = list(eps_values)
    coeffs, stabs, depths = [], [], []
    for k in range(k_max + 1):
        raw = np.empty_like(samples)
        for i, eps in enumerate(eps_values):
            acc = samples[i].copy()
            for p in range(k):
                acc -= coeffs[p] * eps**p / math.factorial(p)
            raw[i] = acc * math.factorial(k) / eps**k
        # one geometric-extrapolation step along eps -> eps/q removes the
        # next-order term of the quotient, sharpening the achievable limit
        est = (q * raw[1:] - raw[:-1]) / (q - 1.0)
        diffs = np.max(np.abs(np.diff(est, axis=0)), axis=1)
        scales = np.maximum(1.0, np.max(np.abs(est[1:]), axis=1))
        rel = diffs / scales
        if depth_override is not None:
            if k >= len(depth_override):
                break
            n_star = depth_override[k]
            stab = float(rel[max(min(n_star, len(rel)) - 1, 0)])
        else:
            # the successive changes first shrink (truncation decays), then
            # grow again (noise amplified by eps^-k); extract at the turning
            # point, provided the changes got below tol at all
            i_best = int(np.argmin(rel))
            if rel[i_best] >= tol:
                break  # this order amplifies before it stabilizes: abort
            n_star = i_best + 1
            stab = float(rel[i_best])
        coeffs.append(est[min(n_star, len(est) - 1)])
        stabs.append(stab)
        depths.append(n_star)
    if not coeffs:
        raise ConvergenceError(
            "order-0 estimates never stabilized below %g within depth %d"
            % (tol, len(eps_values) - 1))
    return AsymptoticSeries(coeffs=tuple(coeffs), stab=tuple(stabs),
                            depths=tuple(depths),
                            eps_values=tuple(eps_values), samples=samples,
                            grid=tuple(grid))


#: Fewest extracted orders :func:`gevrey_fit` takes: it fits three
#: parameters to one remainder per order.
GEVREY_FIT_ORDERS = 3


@dataclass(frozen=True)
class GevreyFit:
    c1: float
    h: float
    b_type: float
    r2: float
    degenerate: bool
    remainders: tuple[float, ...]


def gevrey_fit(series: AsymptoticSeries, base: QBase) -> GevreyFit:
    """Estimate the expansion type from normalized remainder growth.

    For each truncation order N the remainder sup over the stored samples,
    normalized by ``|eps|^{N+1} / (N+1)!``, is regressed (log scale)
    against (N, N^2); the N^2 coefficient equals ``log|q| * type / 2``.
    Remainders at the numeric floor flag the fit degenerate (the input was
    an exact polynomial).
    """
    n_orders = len(series.coeffs)
    if n_orders < GEVREY_FIT_ORDERS:
        raise ValueError("need at least %d extracted orders"
                         % GEVREY_FIT_ORDERS)
    L = base.log_abs_q
    remainders = []
    for N in range(n_orders):
        # restrict the sup to the range where the genuine order-(N+1) term
        # dominates the extraction error of the subtracted coefficients:
        # past the next order's own stabilization depth, the normalized
        # remainder is pure amplified noise
        n_cap = series.depths[N + 1] if N + 1 < n_orders else series.depths[N]
        worst = 0.0
        for i, eps in enumerate(series.eps_values[:n_cap + 1]):
            partial = np.zeros_like(series.samples[i], dtype=complex)
            for p in range(N + 1):
                partial += series.coeffs[p] * eps**p / math.factorial(p)
            rem = np.max(np.abs(series.samples[i] - partial))
            worst = max(worst, float(rem) * math.factorial(N + 1)
                        / abs(eps) ** (N + 1))
        remainders.append(worst)
    rema = np.array(remainders)
    # a drop of many orders past some degree signals an exact polynomial:
    # the surviving "remainders" are extraction noise, not genuine tails
    degenerate = bool(np.any(rema < NUMERIC_FLOOR)
                      or rema.min() < 1e-6 * rema.max())
    usable = rema > max(NUMERIC_FLOOR, 1e-6 * float(rema.max()))
    if usable.sum() < 3:
        return GevreyFit(c1=0.0, h=0.0, b_type=0.0, r2=0.0, degenerate=True,
                         remainders=tuple(remainders))
    nn = np.arange(n_orders, dtype=float)[usable]
    y = np.log(rema[usable])
    A = np.vstack([np.ones(len(nn)), nn, nn**2]).T
    sol, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((y - A @ sol) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return GevreyFit(c1=float(math.exp(min(sol[0], 700.0))),
                     h=float(math.exp(min(sol[1], 700.0))),
                     b_type=float(2.0 * sol[2] / L), r2=r2,
                     degenerate=degenerate, remainders=tuple(remainders))


# ---------------------------------------------------------------------------
# closed forms: weight conjugate and null-expansion conversion
# ---------------------------------------------------------------------------

class YoungConjugate(NamedTuple):
    numeric: float
    closed_form: float


def _golden_max(f, a: float, b: float, iters: int = 200) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return max(fc, fd)


def young_conjugate(y: float, base: QBase) -> YoungConjugate:
    """sup over x >= 0 of ``x y - x^2 / (4 log|q|)``.

    Returns the numeric maximization alongside the closed form
    ``log|q| y^2``; the two must agree.
    """
    if y < 0:
        raise ValueError("y must be nonnegative")
    L = base.log_abs_q

    def f(x: float) -> float:
        return x * y - x * x / (4.0 * L)

    hi = 4.0 * L * y + 1.0
    numeric = max(_golden_max(f, 0.0, hi), f(0.0))
    return YoungConjugate(numeric=numeric, closed_form=L * y * y)


def null_expansion_envelope(c1: float, h: float, a_type: float,
                            abs_eps: float, base: QBase):
    """Envelope ``G(x) = c1 exp(log(h) x + log|q| a x^2 / 2 + (x+1) log|eps|)``
    whose minimum over x >= 0 converts a null expansion into a flatness
    bound; returns (G, x0) with the closed-form minimizer x0."""
    L = base.log_abs_q
    le = math.log(abs_eps)

    def G(x: float) -> float:
        return c1 * math.exp(math.log(h) * x + 0.5 * L * a_type * x * x
                             + (x + 1.0) * le)

    x0 = (-math.log(h) - le) / (a_type * L)
    return G, x0


def flatness_from_null_expansion(a_type: float, base: QBase,
                                 a_tilde: float) -> float:
    """Coefficient of ``-log^2|eps|`` in the flatness bound implied by a
    null expansion of the given type, at any looser type ``a_tilde``."""
    if not a_tilde > a_type:
        raise ValueError("need a_tilde > a_type")
    return 1.0 / (2.0 * a_tilde * base.log_abs_q)
