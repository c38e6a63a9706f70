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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .qgeometry import BLOCK, ContinuousBase, QBase, qpow


@dataclass(frozen=True)
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

    def b_value(self, s: int, eps: complex) -> complex:
        for p, poly in self.coeffs:
            if p == s:
                return complex(np.polynomial.polynomial.polyval(eps, np.array(poly)))
        return 0j

    @property
    def z_powers(self) -> tuple[int, ...]:
        return tuple(sorted(s for s, _ in self.coeffs))


@dataclass(frozen=True)
class CauchyProblem:
    s_order: int
    terms: tuple[ProblemTerm, ...]
    r0: float = 1.0

    def __post_init__(self):
        if self.s_order < 1:
            raise ValueError("equation order S must be at least 1")
        ks = [t.k for t in self.terms]
        if len(ks) != len(set(ks)):
            raise ValueError("each derivative index k may appear only once")
        if any(not 0 <= k < self.s_order for k in ks):
            raise ValueError("derivative indices must satisfy 0 <= k < S")
        if not 0.0 < self.r0 <= 1.0:
            raise ValueError("r0 must lie in (0, 1]")


@dataclass(frozen=True)
class GevreyParams:
    """Constant pack governing every quantitative bound check."""

    m_big: float
    m_tilde: float
    a1_type: float
    c_geom: float
    delta_theta: float
    xi: float
    xi_bar: float
    a1: float
    a2: float
    b1: float
    b2: float
    d1: float
    d2: float

    def __post_init__(self):
        if not 0.0 < self.m_tilde < self.m_big:
            raise ValueError("need 0 < m_tilde < m_big")
        if not 0.0 < self.delta_theta < 1.0:
            raise ValueError("delta_theta must lie in (0, 1)")
        for name in ("xi", "xi_bar"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError("%s must lie in (0, 1)" % name)
        for name in ("a1_type", "c_geom", "a1", "a2", "b1", "b2", "d1", "d2"):
            if not getattr(self, name) > 0:
                raise ValueError("%s must be positive" % name)

    def one_over_a(self, base: QBase) -> float:
        """Flatness exponent (1 - xi_bar)(xi / (2 log|q|) - m_big)."""
        return (1.0 - self.xi_bar) * (
            self.xi / (2.0 * base.log_abs_q) - self.m_big)


@dataclass(frozen=True)
class InitialTerm:
    """One building block ``c * tau^a * eps^-b * (1 + tau)^-r``."""

    c: complex
    a: int = 0
    b: int = 0
    r: int = 0

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.r < 0:
            raise ValueError("exponents a, b, r must be natural numbers")


@dataclass(frozen=True)
class InitialData:
    """Initial z-derivatives: components[j] defines W_j(eps, tau)."""

    components: tuple[tuple[InitialTerm, ...], ...]

    def value(self, j: int, eps: complex, tau) -> np.ndarray | complex:
        tau_arr = np.asarray(tau, dtype=complex)
        out = np.zeros_like(tau_arr)
        for term in self.components[j]:
            out = out + (term.c * tau_arr**term.a * eps ** (-term.b)
                         * (1.0 + tau_arr) ** (-term.r))
        return out if isinstance(tau, np.ndarray) else complex(out)


# ---------------------------------------------------------------------------
# hypothesis checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentRow:
    k: int
    s: int
    low_ok: bool
    low_slack: float
    high_ok: bool
    high_slack: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

@dataclass
class CoefficientEvaluator:
    """Evaluator of the z-series coefficients W_beta(eps, tau).

    For beta < S the initial data is returned exactly; for beta = h + S,

        W_{h+S} = h! * sum_k sum_{h1 + h2 = h, h1 in I_k}
                  b_{k h1}(eps) tau^{m0_k} W_{h2+k}(eps, tau)
                  / ((tau + 1) eps^{m0_k} h2! q^{m1_k h2}).

    The recursion is pointwise in (eps, tau) and linear in the initial
    data.  ``table`` evaluates all orders on a tau-array in one pass; the
    scalar ``coefficient`` is one entry of a one-column table.
    """

    problem: CauchyProblem
    initial: InitialData
    base: QBase

    def __post_init__(self):
        if len(self.initial.components) != self.problem.s_order:
            raise ValueError("initial data must provide exactly S components")

    def table(self, eps: complex, tau: np.ndarray, beta_max: int) -> np.ndarray:
        """Array of shape (beta_max + 1, len(tau)) of coefficient values."""
        if eps == 0:
            raise DomainError("eps = 0 is excluded", membership="nonzero")
        tau = np.asarray(tau, dtype=complex)
        if np.any(tau == -1.0):
            raise DomainError("tau = -1 is a pole of the recursion",
                              membership="tau_pole")
        S = self.problem.s_order
        out = np.zeros((beta_max + 1, tau.size), dtype=complex)
        for j in range(min(S, beta_max + 1)):
            out[j] = self.initial.value(j, eps, tau.ravel())
        pole = 1.0 / (tau.ravel() + 1.0)
        for h in range(beta_max + 1 - S):
            acc = np.zeros(tau.size, dtype=complex)
            for term in self.problem.terms:
                tau_pow = tau.ravel() ** term.m0 * pole * eps ** (-term.m0)
                for h1 in term.z_powers:
                    h2 = h - h1
                    if h2 < 0:
                        continue
                    b = term.b_value(h1, eps)
                    if b == 0:
                        continue
                    scale = (math.factorial(h) / math.factorial(h2)
                             * self.base.q ** (-term.m1 * h2))
                    acc += b * scale * tau_pow * out[h2 + term.k]
            out[h + S] = acc
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

@dataclass(frozen=True)
class AdmissibilityFit:
    delta: float
    m_used: float
    passed: bool
    delta_refined: float


def _patch_grid(patch: ContinuousBase, n: int) -> np.ndarray:
    mods = np.exp(np.linspace(math.log(patch.mod[0]), math.log(patch.mod[1]), n))
    args = np.linspace(patch.arg[0], patch.arg[1], n)
    return (mods[:, None] * np.exp(1j * args[None, :])).ravel()


def admissibility_fit(component: tuple[InitialTerm, ...],
                      eps_patch: ContinuousBase, tau_patch: ContinuousBase,
                      g: GevreyParams, n: int = 24) -> AdmissibilityFit:
    """Fit the growth envelope ``Delta exp(m_tilde log^2|tau/eps|)`` on a grid.

    Uses the single candidate ``m_tilde = 0.9 m_big`` and reports the grid
    maximum of the weighted modulus; passes when the maximum is finite and
    stable (within 10%) under doubling the grid resolution.  A pole inside
    the patch reveals itself through blow-up under refinement.
    """
    m_used = 0.9 * g.m_big

    def grid_max(nn: int) -> float:
        # W(eps, tau) = sum_b eps^-b F_b(tau), F_b summing c tau^a
        # (1 + tau)^-r over the terms with that b: the F_b are computed
        # once and eps swept in row blocks.  Both grids are polar
        # (row-major over nn moduli x nn arguments), so the weight
        # exp(-m log^2|tau/eps|) takes only nn x nn values.  A row
        # whose maximum is NaN does not count (np.fmax).
        eps_pts = _patch_grid(eps_patch, nn)
        tau_pts = _patch_grid(tau_patch, nn)
        by_b = {}
        for term in component:
            by_b[term.b] = by_b.get(term.b, 0.0) + (
                term.c * tau_pts**term.a * (1.0 + tau_pts) ** (-term.r))
        if not by_b:
            by_b[0] = np.zeros(tau_pts.size, dtype=complex)
        log_ratio = (np.log(np.abs(tau_pts[::nn]))[None, :]
                     - np.log(np.abs(eps_pts[::nn]))[:, None])
        weight = np.exp(-m_used * log_ratio**2)
        worst = 0.0
        # a complex value takes two doubles: BLOCK / 2 per complex block
        rows = max(1, BLOCK // (2 * tau_pts.size))
        mags = np.empty((rows, tau_pts.size))
        for start in range(0, eps_pts.size, rows):
            eps = eps_pts[start:start + rows, None]
            m = eps.shape[0]
            # summed in place into the first term
            terms = (eps ** (-b) * f for b, f in by_b.items())
            np.abs(functools.reduce(operator.iadd, terms), out=mags[:m])
            block = mags[:m].reshape(m, nn, nn)
            block *= weight[np.arange(start, start + m) // nn, :, None]
            worst = float(np.fmax.reduce(block.max(axis=(1, 2)),
                                         initial=worst))
        return worst

    d1 = grid_max(n)
    d2 = grid_max(2 * n)
    finite = math.isfinite(d1) and math.isfinite(d2)
    stable = finite and abs(d2 - d1) <= 0.1 * max(d1, 1e-300)
    return AdmissibilityFit(delta=d2, m_used=m_used, passed=bool(stable),
                            delta_refined=d2)
