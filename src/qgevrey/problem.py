"""Cauchy problem data, hypothesis checkers, and the coefficient recursion.

The target equation couples a q-dilation in ``t`` with derivatives and
q-dilations in ``z``:

    eps t dz^S X(eps, qt, z) + dz^S X(eps, t, z)
        = sum_k b_k(eps, z) (t sigma_q)^{m0_k} (dz^k X)(eps, t, z q^{-m1_k}),

with ``b_k(eps, z) = sum_{s in I_k} b_{ks}(eps) z^s`` polynomial in both
arguments.  After the kernel transform the z-series coefficients
``W_beta(eps, tau)`` obey a pointwise recursion in beta driven by
``tau^{m0_k} / ((tau + 1) eps^{m0_k})`` factors; this module evaluates that
recursion (vectorized over tau) and provides the quantitative
hypotheses and weighted norms under which the series is controlled.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from .errors import DomainError
from .qgeometry import BLOCK, ContinuousBase, QBase, qpow
from .records import record


@record(frozen=True)
class ProblemTerm:
    """One right-hand-side term: index k, dilation orders, z-polynomial."""

    k: int
    m0: int
    m1: int
    coeffs: tuple[tuple[int, tuple[complex, ...]], ...]
    # coeffs maps z-power s -> polynomial in eps (coefficient tuple, low to high)

    def __post_init__(self):
        if self.m0 < 1 or self.m1 < 1:
            raise ValueError("dilation orders m0, m1 must be positive integers")
        powers = [s for s, _ in self.coeffs]
        if len(powers) != len(set(powers)):
            raise ValueError("duplicate z-power in term k=%d" % self.k)
        if any(s < 0 for s in powers):
            raise ValueError("z-powers must be natural numbers")

    def b_value(self, s: int, eps):
        """``b_{k s}(eps)``: a complex for a scalar ``eps``, an array of
        values for an array (``0j`` where the term has no z-power s)."""
        for p, poly in self.coeffs:
            if p == s:
                value = np.polynomial.polynomial.polyval(eps, np.array(poly))
                return complex(value) if np.ndim(value) == 0 else value
        return 0j

    @property
    def z_powers(self) -> tuple[int, ...]:
        return tuple(sorted(s for s, _ in self.coeffs))


@record(frozen=True)
class CauchyProblem:
    s_order: int
    terms: tuple[ProblemTerm, ...]

    def __post_init__(self):
        if self.s_order < 1:
            raise ValueError("equation order S must be at least 1")
        ks = [t.k for t in self.terms]
        if len(ks) != len(set(ks)):
            raise ValueError("each derivative index k may appear only once")
        if any(not 0 <= k < self.s_order for k in ks):
            raise ValueError("derivative indices must satisfy 0 <= k < S")


@record(frozen=True)
class GevreyParams:
    """Constant pack governing every quantitative bound check."""

    m_big: float
    a1_type: float
    c_geom: float
    xi: float
    xi_bar: float
    a1: float
    a2: float
    b1: float
    b2: float
    d1: float
    d2: float

    def __post_init__(self):
        for name in ("xi", "xi_bar"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError("%s must lie in (0, 1)" % name)
        for name in ("m_big", "a1_type", "c_geom", "a1", "a2", "b1", "b2",
                     "d1", "d2"):
            if not getattr(self, name) > 0:
                raise ValueError("%s must be positive" % name)

    def one_over_a(self, base: QBase) -> float:
        """Flatness exponent (1 - xi_bar)(xi / (2 log|q|) - m_big)."""
        return (1.0 - self.xi_bar) * (
            self.xi / (2.0 * base.log_abs_q) - self.m_big)


@record(frozen=True)
class InitialTerm:
    """One building block ``c * tau^a * eps^-b * (1 + tau)^-r``."""

    c: complex
    a: int = 0
    b: int = 0
    r: int = 0

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.r < 0:
            raise ValueError("exponents a, b, r must be natural numbers")


@record(frozen=True)
class InitialData:
    """Initial z-derivatives: components[j] defines W_j(eps, tau)."""

    components: tuple[tuple[InitialTerm, ...], ...]

    def value(self, j: int, eps, tau) -> np.ndarray | complex:
        """``W_j(eps, tau)``; ``eps`` is a scalar or one value per tau (see
        :class:`EpsFactors`)."""
        return self._value(j, EpsFactors(self, (), eps), tau)

    def _value(self, j: int, factors, tau) -> np.ndarray | complex:
        """:meth:`value` with the eps factors taken from ``factors``."""
        tau_arr = np.asarray(tau, dtype=complex)
        out = np.zeros_like(tau_arr)
        for term, f in zip(self.components[j], factors.initial[j]):
            out = out + (term.c * tau_arr**term.a * f[factors.where]
                         * (1.0 + tau_arr) ** (-term.r))
        return out if isinstance(tau, np.ndarray) else complex(out)


class EpsFactors:
    """The recursion's eps factors (``eps^-b`` per initial term; per problem
    term ``eps^-m0`` and ``b_{k h1}(eps)``), each an array over the values
    of ``eps``, computed per value in Python complex.  ``where`` gives each
    table column its value (``0`` for a scalar eps: scalar factors); a
    caller evaluating many tables at a few eps builds the factors once and
    passes ``factors.at(where)`` as ``eps``.
    """

    def __init__(self, initial: InitialData, terms, eps):
        values = [complex(e) for e in np.ravel(eps).tolist()]
        if 0 in values:
            raise DomainError("eps = 0 is excluded", membership="nonzero")

        def over(f):
            return np.array([f(e) for e in values])

        self.initial = [[over(lambda e: e ** (-t.b)) for t in component]
                        for component in initial.components]
        self.m0 = [over(lambda e: e ** (-t.m0)) for t in terms]
        self.b = [[(h1, over(lambda e: t.b_value(h1, e)))
                   for h1 in t.z_powers] for t in terms]
        self.where = 0 if np.ndim(eps) == 0 else np.arange(len(values))

    def at(self, where) -> "EpsFactors":
        """The same factors, column ``i`` taking value ``where[i]``."""
        out = copy.copy(self)
        out.where = where
        return out


# ---------------------------------------------------------------------------
# hypothesis checkers
# ---------------------------------------------------------------------------

@record(frozen=True)
class ExponentRow:
    k: int
    s: int
    low_ok: bool
    low_slack: float
    high_ok: bool
    high_slack: float


@record(frozen=True)
class ExponentReport:
    rows: tuple[ExponentRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.low_ok and r.high_ok for r in self.rows)


def check_term_exponents(p: CauchyProblem, g: GevreyParams) -> ExponentReport:
    """Per (k, s): ``m0 <= C(S - k + s)`` and ``m1 >= 2(S - k + s) A1``."""
    rows = []
    for term in p.terms:
        for s in term.z_powers:
            bound_low = g.c_geom * (p.s_order - term.k + s)
            bound_high = 2.0 * (p.s_order - term.k + s) * g.a1_type
            rows.append(ExponentRow(
                k=term.k, s=s,
                low_ok=term.m0 <= bound_low, low_slack=bound_low - term.m0,
                high_ok=term.m1 >= bound_high, high_slack=term.m1 - bound_high))
    return ExponentReport(rows=tuple(rows))


def check_growth_cap(g: GevreyParams, base: QBase) -> tuple[bool, float]:
    """``m_big <= 1 / (2 log|q|)``, with slack."""
    cap = 1.0 / (2.0 * base.log_abs_q)
    return g.m_big <= cap, cap - g.m_big


@record(frozen=True)
class ConstantSystemReport:
    c1_ok: bool
    c1_slack: float
    c2_ok: bool
    c2_slack: float
    c3_ok: bool
    c3_slack: float
    c4_ok: bool
    c4_slack: float
    one_over_a: float
    one_over_a_positive: bool

    @property
    def all_ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok and self.c4_ok


def check_constant_system(g: GevreyParams, base: QBase) -> ConstantSystemReport:
    """The four auxiliary strict inequalities, evaluated as printed.

    Also reports the flatness exponent ``1/A`` and flags it when
    nonpositive (``xi / (2 log|q|) <= m_big`` leaves no flatness decay).
    """
    L = base.log_abs_q
    gap = g.m_big - g.xi / (2.0 * L)  # negative in the useful regime
    s1 = g.b1 / g.b2 - L
    s2 = L + g.xi * g.b1 / (2.0 * g.b2) + (g.d1 / g.d2) * gap
    s3 = -(gap + (g.d2 / g.d1) * L)
    lhs4 = g.a1_type * (1.0 - g.d2 * L / (g.d1 * (-gap)))
    rhs4 = (g.c_geom**2 / (4.0 * g.xi_bar * L * (-gap))
            + g.c_geom * g.a2 / g.a1)
    one_over_a = g.one_over_a(base)
    return ConstantSystemReport(
        c1_ok=s1 > 0, c1_slack=s1,
        c2_ok=s2 > 0, c2_slack=s2,
        c3_ok=s3 > 0, c3_slack=s3,
        c4_ok=lhs4 > rhs4, c4_slack=lhs4 - rhs4,
        one_over_a=one_over_a,
        one_over_a_positive=one_over_a > 0)


# ---------------------------------------------------------------------------
# coefficient recursion
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _scales(q: complex, m1s: tuple, n_h: int) -> tuple:
    """Per dilation order ``m1``, ``[h][h2] -> h! / h2! q^{-m1 h2}`` for
    ``h2 <= h < n_h``: the recursion's scalars, once per (q, m1, n_h)."""
    f = [math.factorial(h) for h in range(n_h)]
    return tuple(tuple(tuple(f[h] / f[h2] * q ** (-m1 * h2)
                             for h2 in range(h + 1)) for h in range(n_h))
                 for m1 in m1s)


@record
class CoefficientEvaluator:
    """Evaluator of the z-series coefficients W_beta(eps, tau).

    For beta < S the initial data is returned exactly; for beta = h + S,

        W_{h+S} = h! * sum_k sum_{h1 + h2 = h, h1 in I_k}
                  b_{k h1}(eps) tau^{m0_k} W_{h2+k}(eps, tau)
                  / ((tau + 1) eps^{m0_k} h2! q^{m1_k h2}).

    The recursion is pointwise in (eps, tau) and linear in the initial
    data.  ``table`` evaluates all orders on a tau-array, at one eps or at
    one eps per tau, in one pass.  Its eps factors come from an
    :class:`EpsFactors`, built once per eps (by the caller, once for many
    tables, or by ``table`` from a raw eps), and the scalars ``h! / h2!
    q^{-m1_k h2}`` once per ``q``, ``m1`` and ``beta_max``.  Per call it
    forms, per term, the tau factor ``tau^{m0_k} / ((tau + 1) eps^{m0_k})``
    times each nonzero ``b_{k h1}(eps)``, and accumulates each order in
    place into its row through one scratch vector.  The scalar
    ``coefficient`` is one entry of a one-column table.
    """

    problem: CauchyProblem
    initial: InitialData
    base: QBase

    def __post_init__(self):
        if len(self.initial.components) != self.problem.s_order:
            raise ValueError("initial data must provide exactly S components")

    def table(self, eps, tau: np.ndarray, beta_max: int,
              out: np.ndarray = None) -> np.ndarray:
        """Array of shape (beta_max + 1, len(tau)) of coefficient values.

        ``eps`` is a scalar, an array with one value per tau, or an
        :class:`EpsFactors` whose ``where`` gives one value per tau, so
        that transform blocks at several eps share one call; a column's
        values are bit-identical to those of a one-eps call.  ``out``, a
        complex array of that shape, is overwritten and returned in place
        of a new array, so a caller can reuse one buffer across calls.
        """
        if not isinstance(eps, EpsFactors):
            eps = EpsFactors(self.initial, self.problem.terms, eps)
        tau = np.asarray(tau, dtype=complex)
        if np.any(tau == -1.0):
            raise DomainError("tau = -1 is a pole of the recursion",
                              membership="tau_pole")
        S = self.problem.s_order
        tau = tau.ravel()
        if out is None:
            out = np.zeros((beta_max + 1, tau.size), dtype=complex)
        for j in range(min(S, beta_max + 1)):
            out[j] = self.initial._value(j, eps, tau)
        n_h = beta_max + 1 - S
        pole = 1.0 / (tau + 1.0)
        # per term: k and the pairs (h1, b_{k h1}(eps) tau^{m0} / ((tau + 1)
        # eps^{m0})) over the z-powers h1 whose b is nonzero at some
        # column's eps, in ascending h1
        terms = []
        for term, eps_m0, bs in zip(self.problem.terms, eps.m0, eps.b):
            tau_f = tau**term.m0 * pole * eps_m0[eps.where]
            pairs = []
            for h1, b in bs:
                b = b[eps.where]
                if np.any(b != 0):
                    pairs.append((h1, b * tau_f))
            terms.append((term.k, pairs))
        scratch = np.empty(tau.size, dtype=complex)
        scales = _scales(self.base.q, tuple(t.m1 for t in self.problem.terms),
                         n_h)
        for h in range(n_h):
            row = out[h + S]
            # the first contribution is written into the row, the others
            # added to it; a row without any is zero
            first = True
            for (k, pairs), scale in zip(terms, scales):
                for h1, b_tau_f in pairs:
                    h2 = h - h1
                    if h2 < 0:
                        break
                    part = row if first else scratch
                    np.multiply(b_tau_f, out[h2 + k], out=part)
                    part *= scale[h][h2]
                    if not first:
                        row += scratch
                    first = False
            if first:
                row.fill(0)
        return out

    def coefficient(self, beta: int, eps: complex, tau: complex) -> complex:
        """Scalar coefficient value ``W_beta(eps, tau)``."""
        return complex(self.table(eps, np.array([tau]), beta)[beta, 0])


# ---------------------------------------------------------------------------
# weighted norms and the shift inequality constant
# ---------------------------------------------------------------------------

def weighted_norm(tau_grid: np.ndarray, values: np.ndarray, beta: int,
                  eps: complex, g: GevreyParams, base: QBase,
                  flavor: str = "spiral") -> float:
    """Grid max of the weighted modulus used to control order-beta coefficients.

    spiral flavor:  |v| exp(-M log^2|tau/eps|) |tau/eps|^{-C beta} |q|^{A1 beta^2}
    disc flavor:    |v| |eps|^{C beta} exp(-M log^2|eps/tau|) |q|^{A1 beta^2}
    """
    if len(tau_grid) == 0:
        raise ValueError("empty grid")
    ratio = np.abs(np.asarray(tau_grid, dtype=complex) / eps)
    log2 = np.log(ratio) ** 2
    absv = np.abs(values)
    aq = abs(base.q)
    if flavor == "spiral":
        weighted = absv * np.exp(-g.m_big * log2) * ratio ** (-g.c_geom * beta)
    elif flavor == "disc":
        weighted = absv * abs(eps) ** (g.c_geom * beta) * np.exp(-g.m_big * log2)
    else:
        raise ValueError("flavor must be 'spiral' or 'disc'")
    return float(np.max(weighted)) * aq ** (g.a1_type * beta**2)


def series_norm(tau_grid: np.ndarray, coeff_values: np.ndarray, eps: complex,
                g: GevreyParams, base: QBase, delta: float,
                flavor: str = "spiral") -> float:
    """Weighted series norm: sum_beta ||v_beta|| delta^beta / beta!."""
    total = 0.0
    for beta in range(coeff_values.shape[0]):
        total += (weighted_norm(tau_grid, coeff_values[beta], beta, eps, g,
                                base, flavor)
                  * delta**beta / math.factorial(beta))
    return total


def shift_bound_constant(s: int, k: int, m1: int, m2: int, g: GevreyParams,
                         cu: float, cv: float, base: QBase) -> float:
    """Explicit constant in the weighted-norm bound of the shift operator
    ``v(tau, z) -> z^s (tau/eps)^{m1} dz^-k v(tau, z q^{-m2})``.

    Requires ``m1 <= C(k+s)`` and ``m2 >= 2(k+s) A1``; under them the
    per-order factor ``(cu/cv)^{C(k+s)-m1} |q|^{p(beta)}`` with
    ``p(beta) = A1 beta^2 - A1 (beta-k-s)^2 - m2 (beta-s)`` is maximized at
    ``beta = k + s`` (the linear exponent p has nonpositive slope), giving

        (cu/cv)^{C(k+s)-m1} * |q|^{(k+s)^2 A1 - m2 k}.
    """
    if m1 > g.c_geom * (k + s):
        raise ValueError("hypothesis m1 <= C(k+s) fails")
    if m2 < 2.0 * (k + s) * g.a1_type:
        raise ValueError("hypothesis m2 >= 2(k+s)A1 fails")
    aq = abs(base.q)
    return ((cu / cv) ** (g.c_geom * (k + s) - m1)
            * aq ** (g.a1_type * (k + s) ** 2 - m2 * k))


def apply_shift_operator(tau_grid: np.ndarray, coeff_values: np.ndarray,
                         s: int, k: int, m1: int, m2: int, eps: complex,
                         base: QBase) -> np.ndarray:
    """Coefficients of ``z^s (tau/eps)^{m1} dz^-k v(tau, z q^{-m2})``.

    Order beta of the result is
    ``(tau/eps)^{m1} v_{beta-k-s} beta! / ((beta-s)! q^{m2 (beta-s)})``
    for beta >= k + s, zero below.
    """
    n_beta, n_tau = coeff_values.shape
    out = np.zeros((n_beta + k + s, n_tau), dtype=complex)
    factor = (np.asarray(tau_grid, dtype=complex) / eps) ** m1
    for beta in range(k + s, n_beta + k + s):
        src = beta - (k + s)
        scale = (math.factorial(beta) / math.factorial(beta - s)
                 * qpow(base, -m2 * (beta - s)))
        out[beta] = factor * coeff_values[src] * scale
    return out


# ---------------------------------------------------------------------------
# admissibility of initial data
# ---------------------------------------------------------------------------

@record(frozen=True)
class AdmissibilityFit:
    delta: float
    m_used: float
    passed: bool


@functools.lru_cache(maxsize=8)
def _patch_grid(patch: ContinuousBase, n: int) -> np.ndarray:
    """Polar ``n x n`` grid of ``patch``, ring by ring (one modulus, ``n``
    arguments).  Cached, since every fit of a ``check`` shares its eps
    patch and most share a tau patch, and read-only."""
    mods = np.exp(np.linspace(math.log(patch.mod[0]), math.log(patch.mod[1]), n))
    args = np.linspace(patch.arg[0], patch.arg[1], n)
    grid = (mods[:, None] * np.exp(1j * args[None, :])).ravel()
    grid.flags.writeable = False
    return grid


def _ring_peaks(factors: list, terms: np.ndarray, nn: int,
                buffers) -> np.ndarray:
    """Largest ``|W| = |sum_i factors[i] terms[i]|`` over each tau ring (NaN
    if one is NaN), shape ``(eps rows, components, rings)``: ``factors[i]``
    holds a value per eps row, ``terms[i]`` a row of tau values per
    component.  Blocks of at most ``BLOCK // 8`` complex values, or of one
    row and component where that exceeds it, go through ``buffers``, which
    both grids of a fit reuse: larger temporaries were mapped afresh per
    call, up to twice as slow, and a whole ``(rows, components, tau)``
    array can reach 1,024 x K x 1,024 values."""
    n_rows, n_comp, n_tau = factors[0].size, terms[0].shape[0], nn * nn
    pairs = max(1, (BLOCK // 8) // n_tau)
    k_step = min(n_comp, pairs)
    r_step = pairs // k_step
    peaks = np.empty((n_rows, n_comp, nn))
    for r0 in range(0, n_rows, r_step):
        r1 = min(r0 + r_step, n_rows)
        for k0 in range(0, n_comp, k_step):
            k1 = min(k0 + k_step, n_comp)
            shape = (r1 - r0, k1 - k0, n_tau)
            w_sum, w_term, w_abs = (buf[:math.prod(shape)].reshape(shape)
                                    for buf in buffers)
            # summed in place into the first term
            np.multiply(factors[0][r0:r1, None, None], terms[0][k0:k1],
                        out=w_sum)
            for f, t in zip(factors[1:], terms[1:]):
                w_sum += np.multiply(f[r0:r1, None, None], t[k0:k1],
                                     out=w_term)
            np.abs(w_sum, out=w_abs)
            w_abs.reshape(shape[:2] + (nn, nn)).max(
                axis=3, out=peaks[r0:r1, k0:k1])
    return peaks


def admissibility_fits(components, eps_patch: ContinuousBase,
                       tau_patch: ContinuousBase, g: GevreyParams,
                       n: int = 24) -> tuple[AdmissibilityFit, ...]:
    """Fit the growth envelope ``Delta exp(M~ log^2|tau/eps|)`` on a grid,
    one fit per initial-data component.

    ``M~`` is fixed at ``0.9 m_big`` (reported as ``m_used``), the paper's
    ``M~ < M`` with a 10% margin; no config key sets it.  Reports the grid
    maximum of the weighted modulus; passes when the maximum is finite and
    stable (within 10%) under doubling the grid resolution.  A pole inside
    the patch reveals itself through blow-up under refinement.

    Both grids are polar (rings of one modulus).  The weight depends only
    on the two rings and is never negative, and rounding is monotone, so
    the most ``|W| w`` on a tau ring is ``w`` times its largest ``|W|``.
    ``W`` depends on eps only through the ``eps^-b``: bit-equal over the
    grid (every ``b`` is 0), one row of ``|W|`` is swept, else one per ring
    where they are bit-equal and one per point elsewhere.  NaN rows do
    not count (``np.fmax``).  Components with the same ordered tuple of
    distinct ``b`` share the factors, the rows swept and the order of
    summation: each such group is one sweep per grid.  The result is a
    full sweep's per component, bit for bit.
    """
    m_used = 0.9 * g.m_big
    size = max(BLOCK // 8, (2 * n) ** 2)
    buffers = (np.empty(size, dtype=complex), np.empty(size, dtype=complex),
               np.empty(size))
    groups = {}
    for k, component in enumerate(components):
        bs = tuple(dict.fromkeys(term.b for term in component)) or (0,)
        groups.setdefault(bs, []).append(k)

    def grid_max(nn: int) -> np.ndarray:
        eps_pts = _patch_grid(eps_patch, nn)
        tau_pts = _patch_grid(tau_patch, nn)
        log_ratio = (np.log(np.abs(tau_pts[::nn]))[None, :]
                     - np.log(np.abs(eps_pts[::nn]))[:, None])
        weight = np.exp(-m_used * log_ratio**2)
        out = np.empty(len(components))
        for bs, members in groups.items():
            # W(eps, tau) = sum_b eps^-b F_b(tau), F_b summing c tau^a
            # (1 + tau)^-r over a component's terms with that b: the
            # factors eps^-b are computed once over the eps grid
            terms = np.empty((len(bs), len(members), tau_pts.size),
                             dtype=complex)
            for i, k in enumerate(members):
                by_b = dict.fromkeys(bs, 0.0)
                for term in components[k]:
                    by_b[term.b] = by_b[term.b] + (
                        term.c * tau_pts**term.a
                        * (1.0 + tau_pts) ** (-term.r))
                for j, b in enumerate(bs):
                    terms[j, i] = by_b[b]
            factors = [eps_pts ** (-b) for b in bs]
            # each point's factors as int64 bits
            bits = np.stack([f.view(np.int64).reshape(nn, nn, 2)
                             for f in factors], axis=2)
            if (bits == bits[:1, :1]).all():
                swept = np.zeros(1, dtype=np.intp)
                ring, src = np.arange(nn), np.zeros(nn, dtype=np.intp)
            else:
                keep = np.ones((nn, nn), dtype=bool)
                keep[(bits == bits[:, :1]).all(axis=(1, 2, 3)), 1:] = False
                swept = np.flatnonzero(keep)
                ring, src = swept // nn, np.arange(swept.size)
            peaks = _ring_peaks([f[swept] for f in factors], terms, nn,
                                buffers)
            # NaN where a peak is NaN or inf meets weight 0, as in the
            # full grid
            out[members] = np.fmax.reduce(
                (weight[ring, None] * peaks[src]).max(axis=2), axis=0,
                initial=0.0)
        return out

    fits = []
    for d1, d2 in zip(grid_max(n).tolist(), grid_max(2 * n).tolist()):
        finite = math.isfinite(d1) and math.isfinite(d2)
        stable = finite and abs(d2 - d1) <= 0.1 * max(d1, 1e-300)
        fits.append(AdmissibilityFit(delta=d2, m_used=m_used,
                                     passed=bool(stable)))
    return tuple(fits)


def admissibility_fit(component: tuple[InitialTerm, ...],
                      eps_patch: ContinuousBase, tau_patch: ContinuousBase,
                      g: GevreyParams, n: int = 24) -> AdmissibilityFit:
    """:func:`admissibility_fits` of one component."""
    return admissibility_fits((component,), eps_patch, tau_patch, g, n)[0]
