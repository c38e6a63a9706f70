"""Acceptance gate: every quantitative criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here, not configurable.
"""

import cmath
import math
import time

import numpy as np
import pytest

from covering_reference import full_covering_report
from qgevrey import (QBase, QuadSettings, build_covering,
                     check_constant_system, check_growth_cap,
                     check_term_exponents, covering_report,
                     extract_coefficients, flatness_fit, in_theta_safe,
                     null_expansion_envelope, q_laplace, qpow, series_norm,
                     shift_bound_constant, theta, transform_decay_fit,
                     young_conjugate)
from qgevrey.covering import overlap_point
from qgevrey.problem import (CauchyProblem, CoefficientEvaluator, GevreyParams,
                             InitialData, InitialTerm, ProblemTerm,
                             apply_shift_operator)
from qgevrey.config import load_shipped_config

SEED = 20240901


@pytest.fixture(scope="module")
def demo():
    return load_shipped_config("demo")


def report(n, desc, **metrics):
    body = ", ".join("%s=%.6g" % (k, v) for k, v in metrics.items())
    print("\nACCEPTANCE %2d PASS: %s (%s)" % (n, desc, body))


def test_criterion_01_theta_functional_equation():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    bases = [QBase(2.0), QBase(1.5 * cmath.exp(0.2j)),
             QBase(3.0 * cmath.exp(-0.1j))]
    worst = 0.0
    for b in bases:
        count = 0
        while count < 1000:
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if not 0.1 <= abs(x) <= 10.0:
                continue
            count += 1
            lhs = theta(b.q * x, b)
            rhs = b.q * x * theta(x, b)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, "theta functional equation on 3 bases x 1000 points",
           worst_rel=worst, seconds=elapsed)


def test_criterion_02_theta_reduction_vs_direct(base2=QBase(2.0)):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    count = 0
    while count < 400:
        x = (rng.uniform(1.0, 1.999)
             * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        # relative comparison requires samples clear of the zero spiral,
        # where any summation (the oracle included) loses all digits
        if not in_theta_safe(1.0, complex(x), base2, 0.2):
            continue
        count += 1
        direct = sum(2.0 ** (-n * (n - 1) / 2.0) * x**n
                     for n in range(-200, 201))
        worst = max(worst, abs(theta(x, base2) - direct) / abs(direct))
    assert worst <= 1e-12
    report(2, "theta reduction vs direct 200-term summation",
           worst_rel=worst, n_samples=count)


def test_criterion_03_transform_commutation():
    t0 = time.monotonic()
    base = QBase(2.0)
    settings = QuadSettings(abs_tol=1e-10)
    worst = 0.0
    t_pt = 1.7
    for j, r in ((0, 1), (1, 2), (2, 3), (0, 2), (3, 4)):
        phi = (lambda jj, rr: lambda x: x**jj / (1.0 + x) ** rr)(j, r)
        mphi = (lambda jj, rr: lambda x: x ** (jj + 1)
                / (1.0 + x) ** rr)(j, r)
        lhs = q_laplace(mphi, 1.0, t_pt, base, settings)
        rhs = t_pt * q_laplace(phi, 1.0, 2.0 * t_pt, base, settings)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0
    report(3, "variable-multiplication / dilation commutation, 5 functions",
           worst_rel=worst, seconds=elapsed)


def test_criterion_04_recursion_closed_form():
    base = QBase(2.0)
    problem = CauchyProblem(
        s_order=1,
        terms=(ProblemTerm(k=0, m0=1, m1=2, coeffs=((0, (1.0 + 0j,)),)),))
    initial = InitialData(components=((InitialTerm(c=1.0 + 0j),),))
    ev = CoefficientEvaluator(problem=problem, initial=initial, base=base)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        eps = complex(rng.uniform(0.2, 0.9)
                      * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        tau = complex(rng.uniform(0.5, 3.0)
                      * cmath.exp(1j * rng.uniform(-2.0, 2.0)))
        ratio = tau / ((tau + 1.0) * eps)
        for h in range(31):
            closed = ratio**h * 2.0 ** (-h * (h - 1.0))
            got = ev.coefficient(h, eps, tau)
            if closed != 0:
                worst = max(worst, abs(got - closed) / abs(closed))
    assert worst <= 1e-12
    report(4, "first-order closed form vs iterated recursion, h <= 30",
           worst_rel=worst)


def test_criterion_05_shift_inequality_on_truncations():
    base = QBase(2.0)
    g = GevreyParams(m_big=0.5, a1_type=0.75, c_geom=1.5, xi=0.9,
                     xi_bar=0.9, a1=9.0, a2=1.0, b1=8.0, b2=1.0, d1=2.0,
                     d2=1.0)
    rng = np.random.default_rng(SEED)
    cu, cv = 0.9, 1.1
    delta = 0.4
    worst_margin = math.inf
    for _ in range(20):
        k = int(rng.integers(0, 3))
        s = int(rng.integers(0, 3))
        if k + s == 0:
            s = 1
        m1 = int(rng.integers(0, math.floor(g.c_geom * (k + s)) + 1))
        m2 = int(math.ceil(2.0 * (k + s) * g.a1_type) + rng.integers(0, 4))
        eps = complex(rng.uniform(0.3, cu)
                      * cmath.exp(2j * math.pi * rng.uniform(0, 1)))
        levels = rng.uniform(0.0, 3.0, 40)
        tau = (rng.uniform(cv, 1.4, 40) * np.exp(1j * rng.uniform(0.2, 0.5, 40))
               * np.exp(levels * base.log_q))
        coeffs = np.zeros((21, tau.size), dtype=complex)
        for beta in range(21):
            coeffs[beta] = (complex(rng.normal(), rng.normal())
                            * tau ** int(rng.integers(0, 3))
                            / (1.0 + tau) ** int(rng.integers(0, 3)))
        shifted = apply_shift_operator(tau, coeffs, s, k, m1, m2, eps, base)
        lhs = series_norm(tau, shifted, eps, g, base, delta)
        rhs = series_norm(tau, coeffs, eps, g, base, delta)
        const = shift_bound_constant(s, k, m1, m2, g, cu, cv, base)
        bound = const * delta ** (k + s) * rhs
        assert lhs <= bound * (1.0 + 1e-12)
        if lhs > 0:
            worst_margin = min(worst_margin, bound / lhs)
    report(5, "shift-operator norm inequality on 20-order truncations",
           tightest_bound_over_lhs=worst_margin)


def test_criterion_06_equation_residual(demo):
    t0 = time.monotonic()
    quad = QuadSettings(abs_tol=1e-8, initial_step=0.25, max_halvings=14)
    rng = np.random.default_rng(SEED)
    from qgevrey import equation_residual
    charts = {}
    worst = 0.0
    for i in range(100):
        idx = i % len(demo.covering.charts)
        if idx not in charts:
            charts[idx] = demo.chart_solution(idx, quad=quad, beta_max=25)
        sc = charts[idx]
        u = rng.uniform(*sc.chart.i1)
        v = rng.uniform(*sc.chart.i2) - rng.integers(0, 3)
        eps = complex(np.exp(2j * math.pi * u) * qpow(demo.base, v))
        t = complex(demo.family.t_set.sample(rng, 1)[0])
        z = complex(rng.uniform(0.0, 0.5)
                    * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        res = equation_residual(sc, eps, t, z)
        worst = max(worst, abs(res.value))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 60.0
    report(6, "equation residual over 100 samples, beta_max 25",
           max_residual=worst, seconds=elapsed)


def test_criterion_07_transform_decay_slope(demo):
    quad = QuadSettings(abs_tol=1e-10, max_halvings=16)
    sc = demo.chart_solution(20, quad=quad)
    eps0 = overlap_point(demo.covering.charts[20], demo.covering.charts[21],
                         demo.base)
    slope, _, mags = transform_decay_fit(sc, eps0, 0.6)
    threshold = -0.9 * demo.gevrey.a1_type * demo.base.log_abs_q
    assert slope <= threshold
    report(7, "transform magnitude decay vs squared order",
           slope=slope, threshold=threshold)


def test_criterion_08_flatness_of_chart_differences(demo):
    t0 = time.monotonic()
    quad = QuadSettings(abs_tol=1e-12, max_halvings=16)
    sc1 = demo.chart_solution(20, quad=quad)
    sc2 = demo.chart_solution(21, quad=quad)
    eps0 = overlap_point(sc1.chart, sc2.chart, demo.base)
    grid = [(0.62, 0.3), (0.85, 0.45j)]
    fit = flatness_fit(sc1, sc2, eps0, 13, grid, demo.gevrey)
    threshold = -0.9 * demo.gevrey.one_over_a(demo.base)
    elapsed = time.monotonic() - t0
    assert fit.slope <= threshold
    assert elapsed < 300.0
    report(8, "chart-difference flatness over 13 q-geometric levels",
           slope=fit.slope, threshold=threshold, r2=fit.r2,
           n_used=fit.n_used, seconds=elapsed)


def test_criterion_09_asymptotic_chart_independence(demo):
    quad = QuadSettings(abs_tol=1e-12, max_halvings=16)
    sc1 = demo.chart_solution(24, quad=quad)
    sc2 = demo.chart_solution(20, quad=quad)
    eps0 = overlap_point(sc1.chart, sc2.chart, demo.base)
    grid = [(0.7, 0.3), (0.55, 0.4j)]
    schedule = tuple(demo.sampling["asympt"]["depths"])
    s1 = extract_coefficients(sc1, eps0, 3, 0.05, grid, depth=30,
                              depth_override=schedule)
    s2 = extract_coefficients(sc2, eps0, 3, 0.05, grid, depth=30,
                              depth_override=schedule)
    assert s1.k_max == 3 and s2.k_max == 3
    worst = 0.0
    for k in range(4):
        for a, b in zip(s1.coeffs[k], s2.coeffs[k]):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-10))
    assert worst <= 1e-4
    report(9, "asymptotic coefficients agree across overlapping charts",
           worst_rel=worst, orders=4)


def test_criterion_10_closed_forms():
    base = QBase(2.0)
    rng = np.random.default_rng(SEED)
    worst_yc = 0.0
    for _ in range(100):
        y = rng.uniform(0.0, 50.0)
        yc = young_conjugate(y, base)
        worst_yc = max(worst_yc,
                       abs(yc.numeric - yc.closed_form)
                       / max(yc.closed_form, 1.0))
    assert worst_yc <= 1e-9

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    worst_x0 = 0.0
    checked = 0
    while checked < 40:
        c1 = rng.uniform(0.5, 3.0)
        h = rng.uniform(0.5, 5.0)
        a = rng.uniform(0.5, 3.0)
        abs_eps = rng.uniform(0.005, 0.2)
        G, x0 = null_expansion_envelope(c1, h, a, abs_eps, base)
        if x0 <= 0.1:
            continue
        checked += 1
        f = lambda x: math.log(G(x))
        lo, hi = 0.0, 3.0 * x0 + 10.0
        for _ in range(80):
            m1 = hi - inv_phi * (hi - lo)
            m2 = lo + inv_phi * (hi - lo)
            if f(m1) < f(m2):
                hi = m2
            else:
                lo = m1
        xm = 0.5 * (lo + hi)
        d = 1e-4
        f0, fm, fp = f(xm), f(xm - d), f(xm + d)
        vertex = xm + 0.5 * d * (fm - fp) / (fm - 2.0 * f0 + fp)
        worst_x0 = max(worst_x0, abs(vertex - x0) / max(x0, 1.0))
    assert worst_x0 <= 1e-8
    report(10, "weight conjugate and envelope minimizer closed forms",
           worst_conjugate_rel=worst_yc, worst_minimizer_rel=worst_x0)


def test_criterion_11_covering_validation():
    base = QBase(2.0)
    covering = build_covering(5, 5, 0.1)
    rep = full_covering_report(covering, base, 10000, seed=SEED)
    assert rep.covered
    assert rep.max_multiplicity <= 3
    exact = covering_report(covering, base)
    assert exact.covered
    assert exact.max_multiplicity <= 3
    report(11, "5x5 covering: coverage and no quadruple overlaps",
           max_multiplicity=exact.max_multiplicity, n_cells=exact.n_cells,
           n_samples=10000 + 3 * len(covering.charts))


def test_criterion_12_checkers_vs_direct_evaluation():
    rng = np.random.default_rng(SEED)
    agree = 0
    for _ in range(100):
        base = QBase(math.exp(rng.uniform(0.05, 1.2)))
        L = base.log_abs_q
        g = GevreyParams(
            m_big=rng.uniform(0.05, 2.0),
            a1_type=rng.uniform(0.2, 3.0), c_geom=rng.uniform(0.2, 2.0),
            xi=rng.uniform(0.05, 0.95), xi_bar=rng.uniform(0.05, 0.95),
            a1=rng.uniform(0.5, 10.0), a2=rng.uniform(0.5, 10.0),
            b1=rng.uniform(0.5, 10.0), b2=rng.uniform(0.5, 10.0),
            d1=rng.uniform(0.5, 10.0), d2=rng.uniform(0.5, 10.0))
        S = int(rng.integers(1, 5))
        k = int(rng.integers(0, S))
        m0 = int(rng.integers(1, 8))
        m1 = int(rng.integers(1, 25))
        s = int(rng.integers(0, 3))
        problem = CauchyProblem(
            s_order=S,
            terms=(ProblemTerm(k=k, m0=m0, m1=m1,
                               coeffs=((s, (1.0 + 0j,)),)),))
        rep = check_term_exponents(problem, g)
        direct_a = (m0 <= g.c_geom * (S - k + s)
                    and m1 >= 2.0 * (S - k + s) * g.a1_type)
        cap_ok, _ = check_growth_cap(g, base)
        direct_b = g.m_big <= 1.0 / (2.0 * L)
        cs = check_constant_system(g, base)
        direct_c = (
            L < g.b1 / g.b2,
            L + g.xi * g.b1 / (2.0 * g.b2)
            + (g.d1 / g.d2) * (g.m_big - g.xi / (2.0 * L)) > 0,
            g.m_big - g.xi / (2.0 * L) + (g.d2 / g.d1) * L < 0,
            g.a1_type * (1.0 - g.d2 * L / (g.d1 * (g.xi / (2.0 * L)
                                                   - g.m_big)))
            > g.c_geom**2 / (4.0 * g.xi_bar * L
                             * (g.xi / (2.0 * L) - g.m_big))
            + g.c_geom * g.a2 / g.a1)
        assert rep.all_ok == direct_a
        assert cap_ok == direct_b
        assert (cs.c1_ok, cs.c2_ok, cs.c3_ok, cs.c4_ok) == direct_c
        agree += 1
    assert agree == 100
    report(12, "hypothesis checkers vs independent inequality evaluation",
           tuples=agree)
