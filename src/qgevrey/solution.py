"""Chart solutions, equation residuals, flatness and asymptotic diagnostics.

A chart solution is assembled from the kernel transforms of the recursion
coefficients,

    X(eps, t, z) = sum_beta  T_beta(eps, eps t) z^beta / beta!,

where ``T_beta`` is the transform of ``tau -> W_beta(eps, tau)`` along the
chart direction.  All orders at one ``(eps, t)`` pair share one quadrature
grid, a transform block.  Each diagnostic requests all the blocks it
needs, on all its charts, in one call, which computes each distinct pair
once, as one :func:`qgevrey.qlaplace.transform` batch, and returns the
blocks in request order: every coarse round and halving level of the
path quadrature evaluates the nodes of all blocks still open in as few
integrand calls as fit one memory cap, while each block keeps its own
direction, window, halvings and stopping test.  What this module adds to
the transform is what is specific to solution blocks: the spiral test of
each chart's eps, the recursion's eps factors once per eps, and a
numerator that writes the coefficient table into the transform's buffer.

Quantitative experiments built on top, each an array program over all
its points: the series of all points are summed as one ``(points,
orders)`` array, row by row, so a point's value does not depend on the
points around it.

* ``equation_residuals`` - left minus right side of the functional
  equation, with every z-derivative/dilation acting exactly on the
  truncated series coefficients;
* ``flatness_fit`` - decay of sup-differences of two chart solutions
  against log^2|eps| along a q-geometric sequence;
* ``extract_coefficients`` - stabilized limits of successive-subtraction
  quotients along the same sequence (with a depth schedule, on the levels
  it reads only);
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
from .qgeometry import ChartBase, ContinuousBase, QBase, in_discrete_spiral
from .qlaplace import QuadSettings, transform
from .theta import log_theta  # noqa: F401 (perfbench traces it here)


@dataclass
class SolutionChart:
    """One chart's solution evaluator with its direction and quadrature.

    Its transform blocks, with other charts', are computed in batches
    (:func:`_transform_blocks`): one integrand call evaluates a halving
    level of many blocks.
    """

    chart_index: int
    chart: ChartBase
    lam: complex
    evaluator: CoefficientEvaluator
    beta_max: int = 25
    quad: QuadSettings = field(default_factory=QuadSettings)
    delta: float = 0.1
    t_set: ContinuousBase | None = None

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


def _transform_blocks(items) -> np.ndarray:
    """The transform blocks of the ``(chart, (eps, t))`` in ``items``, as a
    ``(len(items), beta_max + 1)`` array in item order.

    A block holds all transforms T_beta(eps, eps t), beta <= beta_max, on
    shared nodes: one path integral whose rows are the orders.  The
    distinct items, from any number of charts, form one
    :func:`qgevrey.qlaplace.transform` batch at ``tol = 0.01 abs_tol``,
    in which each block keeps its own direction, window, halvings and
    stopping test.  The charts must share problem, initial data, base,
    ``beta_max`` and ``quad`` (else ``ValueError``).  Before any integrand
    call every eps is tested against its chart's discrete spiral, one
    array call per chart, naming the first failing eps of the first
    failing chart; then the transform tests every ``z = eps t`` for
    theta-safety at its chart's ``delta`` and names the first unsafe key
    in item order.  The batch builds the :class:`EpsFactors` of its
    distinct eps once; each ``z`` is a Python scalar product, as a
    one-pair call computes it, so a block's values do not depend on the
    batch around it.  A block whose window the coarse pass cannot close,
    or that does not settle, raises :class:`ConvergenceError` naming its
    chart and key.  An item listed more than once is computed once, and
    its rows are equal.
    """
    rows_of, new, charts = {}, [], {}  # charts: each chart and its eps
    index = []  # per item, its row of new
    for sc, (e, t) in items:
        key = (complex(e), complex(t))
        i = rows_of.setdefault((id(sc), key), len(new))
        if i == len(new):
            new.append((sc, key))
            charts.setdefault(id(sc), (sc, []))[1].append(key[0])
        index.append(i)
    first = new[0][0]
    for sc, eps in charts.values():
        if _shared(sc) != _shared(first):
            raise ValueError("charts %d and %d differ in problem, initial "
                             "data, base, beta_max or quad"
                             % (first.chart_index, sc.chart_index))
        _require_on_spiral(sc, eps)
    eps_index = {e: i for i, e in
                 enumerate(dict.fromkeys(key[0] for _, key in new))}
    factors = EpsFactors(first.evaluator.initial,
                         first.evaluator.problem.terms, list(eps_index))
    eps_of = np.array([eps_index[key[0]] for _, key in new])

    def numerator(tau, block, out):
        return first.evaluator.table(factors.at(eps_of[block]), tau,
                                     first.beta_max, out=out)

    try:
        out = transform(numerator, [sc.lam for sc, _ in new],
                        [e * t for _, (e, t) in new],
                        [sc.delta for sc, _ in new], first.base, first.quad,
                        0.01 * first.quad.abs_tol, first.beta_max + 1)
    except ConvergenceError as exc:
        sc, (eps, t) = new[exc.block]
        raise ConvergenceError(
            "chart %d, transform block (eps, t) = (%s, %s): %s"
            % (sc.chart_index, eps, t, exc),
            last=exc.last, previous=exc.previous, block=exc.block) from exc
    return out[index]


def _transform_block(sc: SolutionChart, eps: complex, t: complex) -> np.ndarray:
    """The transform block of one ``(eps, t)``: a one-key batch."""
    return _transform_blocks([(sc, (eps, t))])[0]


@dataclass(frozen=True)
class SolutionValue:
    value: complex
    tail_estimate: float
    block: np.ndarray = field(repr=False, compare=False)  # the summed T_beta
    warnings: tuple[str, ...] = ()


def _taylor_weights(z: np.ndarray, n: int) -> np.ndarray:
    """``z^m / m!`` for ``m <= n``, one row per ``z``: an ``(len(z), n + 1)``
    array whose powers are repeated products along each row."""
    zp = np.empty((z.size, n + 1), dtype=complex)
    zp[:, 0] = 1.0
    zp[:, 1:] = z[:, None]
    np.cumprod(zp, axis=1, out=zp)
    return zp / np.array([math.factorial(m) for m in range(n + 1)],
                         dtype=float)


def _series_values(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sum_beta T_beta z^beta / beta!`` per row: ``blocks[i]`` holds the
    transforms ``T_beta`` of row ``i`` and ``z[i]`` its point.  Rows are
    summed on their own, so a row's value does not depend on the rows
    around it."""
    return (blocks * _taylor_weights(z, blocks.shape[1] - 1)).sum(axis=1)


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
    """``2 |T_b1| |z|^b1 / b1!``, ``b1 = beta_max + 1``, with ``|T_b1|``
    from the decay fit: in logs where ``|z|^b1`` is no double, and ``inf``
    where the estimate is none either."""
    slope, intercept = _decay_fit(np.abs(coeffs))
    if not math.isfinite(intercept):
        return 0.0
    b1 = len(coeffs)
    log_term = min(slope * b1 * b1 + intercept, 700.0)
    if abs(z) > 1.0 and b1 * math.log(abs(z)) > 700.0:
        log_tail = (math.log(2.0) + log_term + b1 * math.log(abs(z))
                    - math.lgamma(b1 + 1))
        return math.exp(log_tail) if log_tail < 709.0 else math.inf
    return 2.0 * math.exp(log_term) * abs(z) ** b1 / math.factorial(b1)


def check_point(sc: SolutionChart, eps: complex, t: complex) -> list[str]:
    """Domain warnings for an evaluation point, as
    :func:`evaluate_solution` and :func:`equation_residuals` report them.

    The hard failures come from the transform blocks every caller reads:
    :func:`_transform_blocks` tests each eps against the chart's discrete
    spiral before it computes a block, so the point is not tested again
    here.
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
    value = _series_values(coeffs[None], np.array([z], dtype=complex))[0]
    return SolutionValue(value=complex(value), tail_estimate=tail,
                         block=coeffs, warnings=tuple(warns))


def initial_condition(sc: SolutionChart, j: int, eps: complex,
                      t: complex) -> complex:
    """The j-th prescribed z-derivative at z = 0: the order-j transform.

    It reads the block :func:`evaluate_solution` sums at the same ``(eps,
    t)``, and a block does not depend on its batch, so the value is
    bit-identical to ``SolutionValue.block[j]``.
    """
    if not 0 <= j < sc.evaluator.problem.s_order:
        raise ValueError("initial index j must satisfy 0 <= j < S")
    return complex(_transform_block(sc, eps, t)[j])


def _residual_keys(sc: SolutionChart, eps: complex, t: complex) -> list:
    """The ``(eps, t)`` keys :func:`equation_residual` reads: ``t``, ``q t``
    and ``q**m0 * t`` per term, in that order.

    Exact integer powers of q make a t-dilation that equals a left-side
    key the same key (``q**1 * t`` is the same float as ``q * t``), which a
    batch computes once.
    """
    q = sc.base.q
    return [(complex(eps), complex(t_key)) for t_key in
            [t, q * t] + [q**term.m0 * t
                          for term in sc.evaluator.problem.terms]]


def eps_sequence(eps0: complex, q: complex, n: int) -> list:
    """``eps0 q^-i`` for ``i < n``: the sequence the diagnostics sample."""
    return [eps0 * q ** (-i) for i in range(n)]


def _solution_samples(charts, eps_values, grid) -> np.ndarray:
    """:func:`evaluate_solution`'s values (no tail estimates) of every chart
    at every eps of ``eps_values`` and ``(t, z)`` of ``grid``, from one
    batch, as a ``(charts, eps, grid)`` array."""
    blocks = _transform_blocks([(sc, (eps, t)) for sc in charts
                                for eps in eps_values for t, _ in grid])
    z = np.array([z for _ in charts for _ in eps_values for _, z in grid],
                 dtype=complex)
    return _series_values(blocks, z).reshape(len(charts), len(eps_values),
                                             len(grid))


@dataclass(frozen=True)
class ResidualValue:
    value: complex
    lhs: complex
    rhs: complex
    warnings: tuple[str, ...] = ()


def equation_residuals(points) -> list[ResidualValue]:
    """LHS minus RHS of the functional equation on the truncated series, at
    every ``(chart, eps, t, z)`` of ``points``.

    z-derivatives shift the coefficient index, the z-dilation multiplies
    order beta by q^{-m1 beta}, and the (t sigma_q)-power reads the
    transforms at the dilated t.  Both sides are truncated at the
    same z-order, so the residual measures quadrature plus truncation
    error only.  Points whose t-dilations leave the validated evaluation
    patch are computed anyway and flagged.

    The points may lie on any charts that can share a transform batch
    (:func:`_transform_blocks`), and one batch computes every block they
    read.  Both sides are array sums over a ``(points, keys, orders)``
    stack of the blocks against one ``(points, n_z + 1)`` array of ``z^n
    / n!``, each point's row on its own.
    """
    points = [(sc, complex(eps), complex(t), complex(z))
              for sc, eps, t, z in points]
    if not points:
        return []
    first = points[0][0]
    q = first.base.q
    S = first.evaluator.problem.s_order
    terms = first.evaluator.problem.terms
    n_z = first.beta_max - S
    eps, t, z = (np.array([p[i] for p in points]) for i in (1, 2, 3))
    # per point: the blocks at t, q t and q^m0 t per term (_residual_keys)
    blocks = _transform_blocks(
        [(sc, key) for sc, e, tt, _ in points
         for key in _residual_keys(sc, e, tt)]).reshape(
             len(points), 2 + len(terms), first.beta_max + 1)
    zf = _taylor_weights(z, n_z)
    lhs = (((eps * t)[:, None] * blocks[:, 1, S:] + blocks[:, 0, S:])
           * zf).sum(axis=1)
    rhs = np.zeros(len(points), dtype=complex)
    for i, term in enumerate(terms, start=2):
        op_factor = t ** term.m0 * q ** (term.m0 * (term.m0 - 1) // 2)
        dil = blocks[:, i, term.k:term.k + n_z + 1] * np.array(
            [q ** (-term.m1 * m) for m in range(n_z + 1)])
        for s in term.z_powers:
            b = term.b_value(s, eps)
            n = max(n_z - s + 1, 0)
            inner = (dil[:, :n] * zf[:, :n]).sum(axis=1)
            rhs += np.where(b != 0, b * op_factor * z**s * inner, 0)
    out = []
    for (sc, e, tt, _), left, right in zip(points, lhs.tolist(),
                                           rhs.tolist()):
        warns = check_point(sc, e, tt)
        if sc.t_set is not None:
            if abs(q * tt) > sc.t_set.mod[1]:
                warns.append("q*t leaves the validated evaluation patch")
            warns += ["q^%d*t leaves the validated evaluation patch"
                      % term.m0 for term in terms
                      if abs(q**term.m0 * tt) > sc.t_set.mod[1]]
        out.append(ResidualValue(value=left - right, lhs=left, rhs=right,
                                 warnings=tuple(warns)))
    return out


def equation_residual(sc: SolutionChart, eps: complex, t: complex,
                      z: complex) -> ResidualValue:
    """:func:`equation_residuals` at one point."""
    return equation_residuals([(sc, eps, t, z)])[0]


def transform_decay_fit(sc: SolutionChart, eps: complex, t: complex
                        ) -> tuple[float, float, np.ndarray]:
    """Regression slope of log|T_beta| against beta^2 at one point."""
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
    x1, x2 = _solution_samples((sc1, sc2), eps_values, grid)
    d_sup = np.abs(x1 - x2).max(axis=1, initial=0.0).tolist()
    log2_eps = [math.log(abs(eps)) ** 2 for eps in eps_values]
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
# asymptotic coefficient extraction
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
    bias; the chart is then sampled only on the levels the schedule reads,
    ``depth`` capping them (:func:`extraction_levels`).
    """
    if k_max > 4:
        raise ValueError("extraction beyond order 4 exceeds the double-"
                         "precision noise budget")
    q = sc.base.q
    eps_values = eps_sequence(eps0, q, extraction_levels(depth,
                                                         depth_override))
    samples = _solution_samples((sc,), eps_values, grid)[0]
    return extract_from_samples(samples, eps_values, q, k_max, tol,
                                grid=grid, depth_override=depth_override)


def extraction_levels(depth: int, depth_override=None) -> int:
    """How many of the levels ``eps0 q^-n``, ``n <= depth``, an extraction
    reads: all, or with a depth schedule those up to ``max(depth_override)
    + 1`` (depth ``n`` reads the estimates at ``n - 1`` and ``n``, or 0 and
    1, and an estimate combines two levels)."""
    if depth_override is None:
        return depth + 1
    return min(depth + 1, max(max(depth_override, default=1), 1) + 2)


def extract_from_samples(samples: np.ndarray, eps_values, q: complex,
                         k_max: int, tol: float, grid=(),
                         depth_override: tuple[int, ...] = None
                         ) -> AsymptoticSeries:
    """Samples-level core of :func:`extract_coefficients`.

    ``samples[n, g]`` holds the function value at ``eps_values[n]`` and
    grid point g; the sequence must be q-geometric
    (``eps_values[n+1] = eps_values[n] / q``).  Each order's quotients
    are array operations over all levels; with ``depth_override`` only the
    levels the schedule reads are used.
    """
    samples = np.asarray(samples, dtype=complex)
    eps_values = list(eps_values)
    n_read = extraction_levels(len(eps_values) - 1, depth_override)
    # eps^p per level and order, in Python complex
    eps_pow = np.array([[eps**p for p in range(k_max + 1)]
                        for eps in eps_values[:n_read]], dtype=complex)
    coeffs, stabs, depths = [], [], []
    for k in range(k_max + 1):
        raw = samples[:n_read].copy()
        for p in range(k):
            raw -= coeffs[p] * eps_pow[:, p, None] / math.factorial(p)
        raw = raw * math.factorial(k) / eps_pow[:, k, None]
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


# ---------------------------------------------------------------------------
# closed forms: weight conjugate and null-expansion conversion
# ---------------------------------------------------------------------------

class YoungConjugate(NamedTuple):
    numeric: float
    closed_form: float


def _golden_max(f, a: float, b: float, iters: int = 200) -> float:
    """Golden-section maximum of ``f`` on ``[a, b]``: at most ``iters``
    steps, fewer once the inner points meet (the bracket has collapsed to
    rounding)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if c >= d:
            break
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
