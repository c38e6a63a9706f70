import cmath
import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from qgevrey import (CauchyProblem, CoefficientEvaluator, ContinuousBase,
                     DomainError, GevreyParams, InitialData, InitialTerm,
                     ProblemTerm, QBase, admissibility_fit,
                     admissibility_fits,
                     apply_shift_operator, check_constant_system,
                     check_growth_cap, check_term_exponents,
                     series_norm, shift_bound_constant, weighted_norm)
from qgevrey import problem
from qgevrey.config import load_shipped_config
from qgevrey.problem import EpsFactors
from qgevrey.qgeometry import BLOCK


def make_gevrey(**kw):
    params = dict(m_big=0.5, a1_type=1.0, c_geom=1.0, xi=0.9, xi_bar=0.9,
                  a1=9.0, a2=1.0, b1=8.0, b2=1.0, d1=2.0, d2=1.0)
    params.update(kw)
    return GevreyParams(**params)


def single_term_problem(m0=1, m1=2, s_order=1, b_poly=((1.0 + 0j,),)):
    coeffs = tuple((s, poly) for s, poly in enumerate(b_poly))
    return CauchyProblem(
        s_order=s_order,
        terms=(ProblemTerm(k=0, m0=m0, m1=m1, coeffs=coeffs),))


CONST_INITIAL = InitialData(components=((InitialTerm(c=1.0 + 0j),),))


class TestTermExponents:
    def test_tight_first_order_case(self):
        g = make_gevrey(a1_type=1.0, c_geom=1.0)
        rep = check_term_exponents(single_term_problem(), g)
        assert rep.all_ok
        row = rep.rows[0]
        assert row.low_slack == 0.0 and row.high_slack == 0.0

    def test_fourth_order_example_fails_where_expected(self):
        # S=4 with (k=0: m0=3, m1=17 at s in {0,1}) and (k=1: m0=4, m1=21
        # at s=1); at (k=0, s=1) the dilation bound needs 2*5*2 = 20 > 17
        problem = CauchyProblem(
            s_order=4,
            terms=(ProblemTerm(k=0, m0=3, m1=17,
                               coeffs=((0, (1.0 + 0j,)), (1, (1.0 + 0j,)))),
                   ProblemTerm(k=1, m0=4, m1=21,
                               coeffs=((1, (1.0 + 0j,)),))))
        g = make_gevrey(a1_type=2.0, c_geom=1.0, m_big=1.0)
        rep = check_term_exponents(problem, g)
        assert not rep.all_ok
        failing = [r for r in rep.rows if not (r.low_ok and r.high_ok)]
        assert len(failing) == 1
        assert (failing[0].k, failing[0].s) == (0, 1)
        assert failing[0].high_slack == -3.0

    def test_empty_terms_vacuously_true(self):
        problem = CauchyProblem(s_order=2, terms=())
        assert check_term_exponents(problem, make_gevrey()).all_ok


class TestGrowthCap:
    def test_small_log_q_allows_unit_growth(self):
        # log|q| = 1/16 admits m_big = 1 (cap is 8)
        base = QBase(math.exp(1.0 / 16.0))
        ok, slack = check_growth_cap(make_gevrey(m_big=1.0),
                                     base)
        assert ok and abs(slack - 7.0) < 1e-12

    def test_large_log_q_fails(self):
        base = QBase(math.exp(1.0))
        ok, slack = check_growth_cap(make_gevrey(m_big=1.0),
                                     base)
        assert not ok and slack < 0

    def test_boundary_has_zero_slack(self):
        base = QBase(math.exp(1.0))
        ok, slack = check_growth_cap(make_gevrey(m_big=0.5),
                                     base)
        assert ok and slack == 0.0


def direct_constant_system(g, base):
    """Independent re-coding of the four strict inequalities."""
    L = base.log_abs_q
    c1 = L < g.b1 / g.b2
    c2 = L + g.xi * g.b1 / (2.0 * g.b2) \
        + (g.d1 / g.d2) * (g.m_big - g.xi / (2.0 * L)) > 0
    c3 = g.m_big - g.xi / (2.0 * L) + (g.d2 / g.d1) * L < 0
    c4 = g.a1_type * (1.0 - g.d2 * L
                      / (g.d1 * (g.xi / (2.0 * L) - g.m_big))) \
        > g.c_geom**2 / (4.0 * g.xi_bar * L * (g.xi / (2.0 * L) - g.m_big)) \
        + g.c_geom * g.a2 / g.a1
    return c1, c2, c3, c4


class TestConstantSystem:
    def test_negative_flatness_exponent_flagged(self):
        base = QBase(math.exp(1.0))
        g = make_gevrey(m_big=1.0, xi=0.5)
        rep = check_constant_system(g, base)
        assert rep.one_over_a < 0
        assert not rep.one_over_a_positive

    def test_sweep_finds_passing_tuple(self):
        # coarse parameter sweep at log|q| = 1/16, M = 1, A1 = 2, C = 1:
        # at least one tuple must satisfy all four inequalities, and the
        # checker must agree with the independent evaluation on it
        base = QBase(math.exp(1.0 / 16.0))
        found = None
        for xi in (0.5, 0.75, 0.9):
            for xi_bar in (0.5, 0.9):
                for d2 in (6.0, 12.0, 16.0):
                    for a1 in (4.0, 9.0):
                        g = make_gevrey(m_big=1.0, a1_type=2.0,
                                        c_geom=1.0, xi=xi, xi_bar=xi_bar,
                                        a1=a1, a2=1.0, b1=1.0, b2=1.0,
                                        d1=1.0, d2=d2)
                        if all(direct_constant_system(g, base)):
                            found = g
                            break
        assert found is not None
        assert check_constant_system(found, base).all_ok

    def test_boundary_ratio_fails_first_inequality(self):
        base = QBase(math.exp(0.25))
        g = make_gevrey(b1=base.log_abs_q, b2=1.0)
        rep = check_constant_system(g, base)
        assert not rep.c1_ok and rep.c1_slack == 0.0

    def test_checker_matches_direct_evaluation(self, rng):
        # exact boolean agreement between the checker and an independent
        # coding of the inequalities, over random parameter tuples
        for _ in range(100):
            base = QBase(math.exp(rng.uniform(0.05, 1.2)))
            g = make_gevrey(
                m_big=rng.uniform(0.05, 2.0),
                a1_type=rng.uniform(0.2, 3.0), c_geom=rng.uniform(0.2, 2.0),
                xi=rng.uniform(0.05, 0.95), xi_bar=rng.uniform(0.05, 0.95),
                a1=rng.uniform(0.5, 10.0), a2=rng.uniform(0.5, 10.0),
                b1=rng.uniform(0.5, 10.0), b2=rng.uniform(0.5, 10.0),
                d1=rng.uniform(0.5, 10.0), d2=rng.uniform(0.5, 10.0))
            rep = check_constant_system(g, base)
            direct = direct_constant_system(g, base)
            assert (rep.c1_ok, rep.c2_ok, rep.c3_ok, rep.c4_ok) == direct
            cap_ok, _ = check_growth_cap(g, base)
            assert cap_ok == (g.m_big <= 1.0 / (2.0 * base.log_abs_q))


class TestCoefficientRecursion:
    def test_zero_polynomials_give_zero_tail(self, base2):
        problem = single_term_problem(b_poly=((0j,),))
        ev = CoefficientEvaluator(problem=problem, initial=CONST_INITIAL,
                                  base=base2)
        for beta in (1, 2, 5):
            assert ev.coefficient(beta, 0.5, 1.2 + 0.3j) == 0.0

    def test_initial_orders_exact(self, base2):
        initial = InitialData(components=(
            (InitialTerm(c=2.0 - 1.0j, a=1, b=1, r=1),),))
        ev = CoefficientEvaluator(problem=single_term_problem(),
                                  initial=initial, base=base2)
        eps, tau = 0.4 + 0.1j, 1.5 - 0.2j
        expected = (2.0 - 1.0j) * tau / eps / (1.0 + tau)
        assert abs(ev.coefficient(0, eps, tau) - expected) < 1e-15

    def test_closed_form_oracle(self, base2, rng):
        # first-order single-term problem: unrolling the recursion gives
        # W_h = W_0 (tau / ((tau+1) eps))^h q^{-h(h-1)}
        ev = CoefficientEvaluator(problem=single_term_problem(),
                                  initial=CONST_INITIAL, base=base2)
        for _ in range(100):
            eps = (rng.uniform(0.2, 0.9)
                   * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            tau = (rng.uniform(0.5, 3.0)
                   * cmath.exp(1j * rng.uniform(-2.0, 2.0)))
            ratio = tau / ((tau + 1.0) * eps)
            for h in range(0, 31, 6):
                closed = ratio**h * 2.0 ** (-h * (h - 1.0))
                got = ev.coefficient(h, complex(eps), complex(tau))
                assert abs(got - closed) <= 1e-12 * abs(closed)

    def test_linearity_in_initial_data(self, base2):
        scale = 3.0 - 2.0j
        scaled = InitialData(components=((InitialTerm(c=scale),),))
        ev1 = CoefficientEvaluator(problem=single_term_problem(),
                                   initial=CONST_INITIAL, base=base2)
        ev2 = CoefficientEvaluator(problem=single_term_problem(),
                                   initial=scaled, base=base2)
        for beta in (0, 3, 9):
            a = ev1.coefficient(beta, 0.5 + 0.2j, 1.3 - 0.4j)
            b = ev2.coefficient(beta, 0.5 + 0.2j, 1.3 - 0.4j)
            assert abs(b - scale * a) < 1e-13 * max(abs(b), 1e-30)

    def test_repeated_calls_bit_identical(self, base2):
        ev = CoefficientEvaluator(problem=single_term_problem(),
                                  initial=CONST_INITIAL, base=base2)
        first = ev.coefficient(7, 0.3 + 0.1j, 1.1 + 0.9j)
        second = ev.coefficient(7, 0.3 + 0.1j, 1.1 + 0.9j)
        assert first == second

    def test_poles_rejected(self, base2):
        ev = CoefficientEvaluator(problem=single_term_problem(),
                                  initial=CONST_INITIAL, base=base2)
        with pytest.raises(DomainError):
            ev.coefficient(2, 0.5, -1.0)
        with pytest.raises(DomainError):
            ev.coefficient(2, 0.0, 1.5)

    def test_multi_term_against_hand_rolled(self, base2):
        # independent oracle: direct recursion transcription for S = 2
        problem = CauchyProblem(
            s_order=2,
            terms=(ProblemTerm(k=0, m0=2, m1=4,
                               coeffs=((0, (1.0 + 0j, 0.5 + 0j)),)),
                   ProblemTerm(k=1, m0=1, m1=3,
                               coeffs=((1, (0.25 + 0j,)),))))
        initial = InitialData(components=(
            (InitialTerm(c=1.0),),
            (InitialTerm(c=0.5, a=1, r=1),)))
        ev = CoefficientEvaluator(problem=problem, initial=initial,
                                  base=base2)
        eps, tau = 0.6 - 0.1j, 1.4 + 0.5j
        w = {0: 1.0 + 0j, 1: 0.5 * tau / (1.0 + tau)}
        q = 2.0
        b00 = 1.0 + 0.5 * eps
        b11 = 0.25
        for h in range(0, 6):
            acc = 0j
            # k=0 term: h1 = 0 (only power present), h2 = h
            acc += (b00 * tau**2 * w[h] /
                    ((tau + 1.0) * eps**2 * math.factorial(h) * q ** (4 * h)))
            # k=1 term: h1 = 1, h2 = h - 1
            if h >= 1:
                acc += (b11 * tau * w[h]
                        / ((tau + 1.0) * eps * math.factorial(h - 1)
                           * q ** (3 * (h - 1))))
            w[h + 2] = math.factorial(h) * acc
        for beta in range(8):
            got = ev.coefficient(beta, eps, tau)
            assert abs(got - w[beta]) <= 1e-12 * max(abs(w[beta]), 1e-30)


def per_h_table(ev, eps, tau, beta_max):
    """Reference: the recursion as a plain loop over h that recomputes the
    tau factor, ``b_value`` and ``q^{-m1 h2}`` on every pass."""
    S = ev.problem.s_order
    out = np.zeros((beta_max + 1, tau.size), dtype=complex)
    for j in range(min(S, beta_max + 1)):
        out[j] = ev.initial.value(j, eps, tau)
    pole = 1.0 / (tau + 1.0)
    for h in range(beta_max + 1 - S):
        acc = np.zeros(tau.size, dtype=complex)
        for term in ev.problem.terms:
            tau_pow = tau ** term.m0 * pole * eps ** (-term.m0)
            for h1 in term.z_powers:
                h2 = h - h1
                if h2 < 0:
                    continue
                b = term.b_value(h1, eps)
                if b == 0:
                    continue
                scale = (math.factorial(h) / math.factorial(h2)
                         * ev.base.q ** (-term.m1 * h2))
                acc += b * scale * tau_pow * out[h2 + term.k]
        out[h + S] = acc
    return out


class TestTableAgainstPerHLoop:
    # S = 4; two terms with several z-powers, an eps-dependent b, and a
    # z-power (s = 2 of the k = 1 term) whose b is identically 0
    PROBLEM = CauchyProblem(
        s_order=4,
        terms=(ProblemTerm(k=0, m0=3, m1=17,
                           coeffs=((0, (1.0 + 0j,)),
                                   (1, (0.5 - 0.25j, 0.75 + 0j, -0.2j)),
                                   (3, (0.3 + 0j,)))),
               ProblemTerm(k=1, m0=4, m1=21,
                           coeffs=((1, (1.0 + 0j, -0.5 + 0j)),
                                   (2, (0j, 0j)),
                                   (4, (0.1j,))))))
    INITIAL = InitialData(components=(
        (InitialTerm(c=1.0),),
        (InitialTerm(c=0.5, a=1, r=1),),
        (InitialTerm(c=0.25 - 0.5j, b=1), InitialTerm(c=0.1, a=2, r=2)),
        (InitialTerm(c=-0.3j, a=1, b=2, r=1),)))

    def evaluator(self):
        return CoefficientEvaluator(problem=self.PROBLEM,
                                    initial=self.INITIAL,
                                    base=QBase(math.exp(1.0 / 16.0)))

    def test_matches_per_h_loop(self, rng):
        ev = self.evaluator()
        for _ in range(5):
            eps = complex(rng.uniform(0.2, 0.9)
                          * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            tau = (rng.uniform(0.3, 3.0, 40)
                   * np.exp(1j * rng.uniform(-2.5, 2.5, 40)))
            got = ev.table(eps, tau, 25)
            want = per_h_table(ev, eps, tau, 25)
            assert got.shape == (26, 40)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail",
                                      "empty_first_row"])
    def test_table_into_nan_filled_out_equals_new_array_bitwise(self, name,
                                                                rng):
        # every row is written: the recursion rows by their first
        # contribution, or zeroed when they get none (z-power 1 only
        # leaves order S without one)
        if name == "empty_first_row":
            problem = CauchyProblem(s_order=1, terms=(ProblemTerm(
                k=0, m0=1, m1=2, coeffs=((1, (1.0 + 0j,)),)),))
            ev = CoefficientEvaluator(problem=problem, initial=CONST_INITIAL,
                                      base=QBase(2.0))
        else:
            cfg = load_shipped_config(name)
            ev = CoefficientEvaluator(problem=cfg.problem,
                                      initial=cfg.initial, base=cfg.base)
        eps = (rng.uniform(0.2, 0.9, 3)
               * np.exp(1j * rng.uniform(0, 2 * math.pi, 3)))
        tau = rng.uniform(0.3, 3.0, 60) * np.exp(1j * rng.uniform(-2.5, 2.5,
                                                                  60))
        factors = EpsFactors(ev.initial, ev.problem.terms, eps)
        where = np.arange(60) % 3
        want = ev.table(factors.at(where), tau, 25)
        out = np.full((26, 60), complex(np.nan, np.nan))
        got = ev.table(factors.at(where), tau, 25, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()
        if name == "empty_first_row":
            assert not want[1].any()

    def test_beta_max_below_order_gives_initial_rows(self):
        ev = self.evaluator()
        eps, tau = 0.5 + 0.2j, np.array([1.3 - 0.4j, 0.7 + 1.1j])
        for beta_max in range(4):
            got = ev.table(eps, tau, beta_max)
            assert got.shape == (beta_max + 1, 2)
            for j in range(beta_max + 1):
                assert np.array_equal(got[j],
                                      self.INITIAL.value(j, eps, tau))


class TestWeightedNorm:
    def test_zero_function(self, base2):
        tau = np.linspace(1.0, 3.0, 11).astype(complex)
        assert weighted_norm(tau, np.zeros(11), 2, 0.5, make_gevrey(),
                             base2) == 0.0

    def test_constant_order_zero_spiral(self, base2):
        g = make_gevrey()
        tau = np.linspace(1.0, 3.0, 31).astype(complex)
        got = weighted_norm(tau, np.ones(31), 0, 0.5, g, base2)
        expected = max(math.exp(-g.m_big * math.log(abs(t) / 0.5) ** 2)
                       for t in tau)
        assert abs(got - expected) < 1e-14

    def test_refinement_monotone(self, base2, rng):
        g = make_gevrey()
        coarse = np.linspace(1.0, 3.0, 16)
        fine = np.linspace(1.0, 3.0, 31)  # superset of the coarse grid
        vals_c = 1.0 / (1.0 + coarse.astype(complex))
        vals_f = 1.0 / (1.0 + fine.astype(complex))
        for beta in (0, 1, 3):
            for flavor in ("spiral", "disc"):
                n_c = weighted_norm(coarse.astype(complex), vals_c, beta,
                                    0.5, g, base2, flavor)
                n_f = weighted_norm(fine.astype(complex), vals_f, beta,
                                    0.5, g, base2, flavor)
                assert n_f >= n_c - 1e-15


class TestShiftBoundConstant:
    def test_collapsed_exponents(self, base2):
        # m1 = C(k+s) with k = 0 leaves only the square weight
        g = make_gevrey(c_geom=1.0, a1_type=1.0)
        got = shift_bound_constant(s=2, k=0, m1=2, m2=4, g=g, cu=0.9, cv=1.1,
                                   base=base2)
        assert abs(got - 2.0 ** (1.0 * 4)) < 1e-12

    def test_worked_example(self, base2):
        g = make_gevrey(c_geom=1.0, a1_type=1.0)
        got = shift_bound_constant(s=1, k=1, m1=0, m2=4, g=g, cu=0.5, cv=1.0,
                                   base=base2)
        assert abs(got - 0.25) < 1e-14
        # cross-check: the per-order exponent p(beta) is maximized at
        # beta = k + s over the admissible range
        p = lambda beta: (1.0 * beta**2 - 1.0 * (beta - 2) ** 2
                          - 4 * (beta - 1))
        numeric = max((0.5 / 1.0) ** (1.0 * 2 - 0) * 2.0 ** p(beta)
                      for beta in range(2, 51))
        assert abs(got - numeric) < 1e-14

    def test_monotone_in_dilation_order(self, base2):
        g = make_gevrey(c_geom=1.0, a1_type=1.0)
        prev = math.inf
        for m2 in (4, 5, 7, 10):
            c = shift_bound_constant(s=1, k=1, m1=1, m2=m2, g=g, cu=0.9,
                                     cv=1.1, base=base2)
            assert c <= prev
            prev = c

    def test_hypothesis_violation_rejected(self, base2):
        g = make_gevrey(c_geom=1.0, a1_type=1.0)
        with pytest.raises(ValueError):
            shift_bound_constant(s=1, k=0, m1=5, m2=4, g=g, cu=0.9, cv=1.1,
                                 base=base2)
        with pytest.raises(ValueError):
            shift_bound_constant(s=1, k=1, m1=1, m2=1, g=g, cu=0.9, cv=1.1,
                                 base=base2)


class TestShiftInequality:
    def test_truncated_norm_bound(self, base2, rng):
        # the weighted series norm of z^s (tau/eps)^m1 dz^-k v(tau, z q^-m2)
        # is bounded by the explicit constant times delta^{k+s} times the
        # norm of v, on any grid, for parameters within the hypotheses
        g = make_gevrey(c_geom=1.5, a1_type=0.75)
        v_mod = (1.1, 1.4)
        cu, cv = 0.9, v_mod[0]
        delta = 0.4
        for trial in range(20):
            k = int(rng.integers(0, 3))
            s = int(rng.integers(0, 3))
            if k + s == 0:
                s = 1
            m1 = int(rng.integers(0, math.floor(g.c_geom * (k + s)) + 1))
            m2 = int(math.ceil(2.0 * (k + s) * g.a1_type)
                     + rng.integers(0, 4))
            eps = (rng.uniform(0.3, cu)
                   * cmath.exp(2j * math.pi * rng.uniform(0, 1)))
            # grid on the outgoing spiral patch
            levels = rng.uniform(0.0, 3.0, 40)
            mods = rng.uniform(*v_mod, 40)
            args = rng.uniform(0.2, 0.5, 40)
            tau = mods * np.exp(1j * args) * np.exp(levels * base2.log_q)
            n_orders = 21
            coeffs = np.zeros((n_orders, tau.size), dtype=complex)
            for beta in range(n_orders):
                c = complex(rng.normal(), rng.normal())
                a = int(rng.integers(0, 3))
                r = int(rng.integers(0, 3))
                coeffs[beta] = c * tau**a / (1.0 + tau) ** r
            lhs_coeffs = apply_shift_operator(tau, coeffs, s, k, m1, m2,
                                              complex(eps), base2)
            lhs = series_norm(tau, lhs_coeffs, complex(eps), g, base2, delta)
            rhs = series_norm(tau, coeffs, complex(eps), g, base2, delta)
            const = shift_bound_constant(s, k, m1, m2, g, cu, cv, base2)
            assert lhs <= const * delta ** (k + s) * rhs * (1.0 + 1e-12)


class TestAdmissibility:
    EPS_PATCH = ContinuousBase(mod=(0.1, 0.9), arg=(0.0, 2 * math.pi))

    def test_constant_passes_with_envelope_below_modulus(self):
        g = make_gevrey()
        tau_patch = ContinuousBase(mod=(1.1, 4.0), arg=(0.2, 0.5))
        fit = admissibility_fit((InitialTerm(c=3.0 - 4.0j),),
                                self.EPS_PATCH, tau_patch, g)
        assert fit.passed
        assert fit.delta <= 5.0 + 1e-12

    def test_ratio_passes_away_from_pole(self):
        g = make_gevrey()
        tau_patch = ContinuousBase(mod=(1.1, 4.0), arg=(0.2, 0.5))
        fit = admissibility_fit((InitialTerm(c=1.0, a=1, r=1),),
                                self.EPS_PATCH, tau_patch, g)
        assert fit.passed and math.isfinite(fit.delta)

    def test_pole_blowup_fails(self):
        # patch hugging tau = -1: refinement walks into the pole and the
        # envelope explodes instead of stabilizing
        g = make_gevrey()
        tau_patch = ContinuousBase(mod=(1.0 - 1e-9, 1.0 + 1e-9),
                                   arg=(math.pi - 1e-7, math.pi + 1e-7))
        fit = admissibility_fit((InitialTerm(c=1.0, a=0, r=2),),
                                self.EPS_PATCH, tau_patch, g)
        assert not fit.passed

    @staticmethod
    def reference_grid_max(component, eps_patch, tau_patch, m, n):
        """Grid maximum of |W| exp(-m log^2|tau/eps|), one eps at a time."""
        def grid(patch):
            mods = np.exp(np.linspace(math.log(patch.mod[0]),
                                      math.log(patch.mod[1]), n))
            args = np.linspace(patch.arg[0], patch.arg[1], n)
            return (mods[:, None] * np.exp(1j * args[None, :])).ravel()
        data = InitialData(components=(tuple(component),))
        tau = grid(tau_patch)
        worst = 0.0
        for eps in grid(eps_patch):
            weight = np.exp(-m * np.log(np.abs(tau / eps)) ** 2)
            worst = max(worst, float(np.max(np.abs(data.value(0, eps, tau))
                                            * weight)))
        return worst

    @pytest.mark.parametrize("component", [
        (InitialTerm(c=1.0 + 2.0j, a=1, b=2, r=1),),
        (InitialTerm(c=1.0, a=1, b=1, r=0), InitialTerm(c=-0.5j, a=0, b=1,
                                                        r=2)),
        (InitialTerm(c=1.0, a=2, b=0, r=1), InitialTerm(c=0.3, b=3, r=0),
         InitialTerm(c=2.0j, a=1, b=1, r=3)),
        (),
    ])
    def test_blocked_sweep_matches_pointwise_loop(self, component):
        g = make_gevrey()
        tau_patch = ContinuousBase(mod=(0.2, 3.0), arg=(0.2, 2.5))
        fit = admissibility_fit(component, self.EPS_PATCH, tau_patch, g, n=9)
        ref = self.reference_grid_max(component, self.EPS_PATCH, tau_patch,
                                      fit.m_used, 18)
        assert abs(fit.delta - ref) <= 1e-12 * ref

    @staticmethod
    def full_sweep_fit(component, eps_patch, tau_patch, g, n):
        """``(delta, passed)`` as every eps point's row is swept: the
        blocked sweep before rings with equal eps factors were swept once."""
        m_used = 0.9 * g.m_big

        def grid(patch, nn):
            mods = np.exp(np.linspace(math.log(patch.mod[0]),
                                      math.log(patch.mod[1]), nn))
            args = np.linspace(patch.arg[0], patch.arg[1], nn)
            return (mods[:, None] * np.exp(1j * args[None, :])).ravel()

        def grid_max(nn):
            eps_pts, tau_pts = grid(eps_patch, nn), grid(tau_patch, nn)
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
            rows = max(1, BLOCK // (2 * tau_pts.size))
            mags = np.empty((rows, tau_pts.size))
            for start in range(0, eps_pts.size, rows):
                eps = eps_pts[start:start + rows, None]
                m = eps.shape[0]
                terms = (eps ** (-b) * f for b, f in by_b.items())
                np.abs(functools.reduce(operator.iadd, terms), out=mags[:m])
                block = mags[:m].reshape(m, nn, nn)
                block *= weight[np.arange(start, start + m) // nn, :, None]
                worst = float(np.fmax.reduce(block.max(axis=(1, 2)),
                                             initial=worst))
            return worst

        d1, d2 = grid_max(n), grid_max(2 * n)
        stable = (math.isfinite(d1) and math.isfinite(d2)
                  and abs(d2 - d1) <= 0.1 * max(d1, 1e-300))
        return d2, stable

    TAU_PATCH = ContinuousBase(mod=(0.2, 3.0), arg=(0.2, 2.5))
    B0_TERMS = (InitialTerm(c=1.0, a=2, r=1), InitialTerm(c=-0.5j, a=1, r=3),
                InitialTerm(c=0.25 + 1.0j))
    POLE_PATCH = ContinuousBase(mod=(1.0 - 1e-9, 1.0 + 1e-9),
                                arg=(math.pi - 1e-7, math.pi + 1e-7))
    # |tau|^2 overflows: |W| is inf or NaN and the weight 0, so rows of
    # |W| * weight hold NaN
    HUGE_PATCH = ContinuousBase(mod=(1e150, 1e160), arg=(0.2, 2.5))

    @pytest.mark.parametrize("n", [9, 16])
    @pytest.mark.parametrize("component,patch", [
        ((InitialTerm(c=3.0 - 4.0j),), "TAU_PATCH"),
        ((InitialTerm(c=1.0, a=1, r=1),), "TAU_PATCH"),
        ((InitialTerm(c=1.0 + 2.0j, a=1, b=2, r=1),), "TAU_PATCH"),
        ((InitialTerm(c=1.0, a=1, b=1, r=0), InitialTerm(c=-0.5j, a=0, b=1,
                                                        r=2)), "TAU_PATCH"),
        ((InitialTerm(c=1.0, a=2, b=0, r=1), InitialTerm(c=0.3, b=3, r=0),
          InitialTerm(c=2.0j, a=1, b=1, r=3)), "TAU_PATCH"),
        ((), "TAU_PATCH"),
        ((InitialTerm(c=1.0, a=0, r=2),), "POLE_PATCH"),
        ((InitialTerm(c=1.0, a=2),), "HUGE_PATCH"),
        ((InitialTerm(c=1.0, a=2), InitialTerm(c=1.0, a=2, b=1)),
         "HUGE_PATCH"),
        # several b = 0 terms: one distinct row of |W| for the whole grid
        (B0_TERMS, "TAU_PATCH"),
        (B0_TERMS, "POLE_PATCH"),
        (B0_TERMS, "HUGE_PATCH"),
        (B0_TERMS + (InitialTerm(c=0.5, a=1, b=2, r=2),), "POLE_PATCH"),
    ])
    def test_ring_sweep_equals_full_sweep(self, component, patch, n):
        g = make_gevrey()
        tau_patch = getattr(self, patch)
        with np.errstate(over="ignore", invalid="ignore"):
            fit = admissibility_fit(component, self.EPS_PATCH, tau_patch, g,
                                    n=n)
            delta, passed = self.full_sweep_fit(component, self.EPS_PATCH,
                                                tau_patch, g, n)
        assert fit.delta == delta and fit.passed == passed

    @staticmethod
    def ring_uniform_eps_patch():
        """An eps patch whose argument interval ends at the next float, at
        an angle where both ends give the same ``exp(1j arg)``: every ring
        of its grid holds one eps value, and the rings differ."""
        for k in range(1000):
            a = 0.5 + 1e-3 * k
            b = np.nextafter(a, 1.0)
            if np.exp(1j * a) == np.exp(1j * b):
                return ContinuousBase(mod=(0.1, 0.9), arg=(a, b))
        raise AssertionError("no angle found")

    @pytest.mark.parametrize("n", [9, 16])
    @pytest.mark.parametrize("patch", ["TAU_PATCH", "POLE_PATCH",
                                       "HUGE_PATCH"])
    def test_ring_uniform_b_equals_full_sweep(self, patch, n):
        component = (InitialTerm(c=1.0 + 2.0j, a=1, b=2, r=1),
                     InitialTerm(c=-0.5j, a=2, b=0, r=1))
        eps_patch = self.ring_uniform_eps_patch()
        g = make_gevrey()
        with np.errstate(over="ignore", invalid="ignore"):
            fit = admissibility_fit(component, eps_patch,
                                    getattr(self, patch), g, n=n)
            delta, passed = self.full_sweep_fit(component, eps_patch,
                                                getattr(self, patch), g, n)
        assert fit.delta == delta and fit.passed == passed

    @pytest.mark.parametrize("component,eps_patch,rows", [
        (B0_TERMS, "EPS_PATCH", (1, 1)),
        ((InitialTerm(c=1.0, b=1),), "ring_uniform", (9, 18)),
        ((InitialTerm(c=1.0, b=1),), "EPS_PATCH", (81, 324)),
    ])
    def test_distinct_rows_swept(self, component, eps_patch, rows,
                                 monkeypatch):
        # b = 0 everywhere: one row for both grids; rings of equal eps:
        # one row per ring; otherwise one per point
        seen = []

        def peaks(factors, terms, nn, buffers):
            out = real(factors, terms, nn, buffers)
            seen.append(out.shape[0])
            return out

        real = problem._ring_peaks
        monkeypatch.setattr(problem, "_ring_peaks", peaks)
        patch = (self.ring_uniform_eps_patch() if eps_patch == "ring_uniform"
                 else getattr(self, eps_patch))
        admissibility_fit(component, patch, self.TAU_PATCH, make_gevrey(),
                          n=9)
        assert tuple(seen) == rows

    # ordered b-tuples (0,), (0,) for the empty component, (2,), (1,),
    # (0, 3, 1), (1, 0) and (0, 1); two components share (1,)
    BATCH = (B0_TERMS, (), (InitialTerm(c=1.0 + 2.0j, a=1, b=2, r=1),),
             (InitialTerm(c=1.0, a=1, b=1, r=0),
              InitialTerm(c=-0.5j, a=0, b=1, r=2)),
             (InitialTerm(c=1.0, a=2, b=0, r=1), InitialTerm(c=0.3, b=3, r=0),
              InitialTerm(c=2.0j, a=1, b=1, r=3)),
             (InitialTerm(c=-1.0, b=1), InitialTerm(c=2.0, a=1, r=1)),
             (InitialTerm(c=2.0, a=1, r=1), InitialTerm(c=-1.0, b=1)),
             (InitialTerm(c=0.5, a=1, b=1), InitialTerm(c=-0.25j, b=1, r=1)),
             (InitialTerm(c=1.0, a=0, r=2),))

    @pytest.mark.parametrize("n", [9, 16])
    @pytest.mark.parametrize("patch", ["TAU_PATCH", "POLE_PATCH",
                                       "HUGE_PATCH"])
    def test_batched_fits_equal_full_sweeps(self, patch, n, monkeypatch):
        seen = []

        def peaks(factors, terms, nn, buffers):
            seen.append(terms.shape[:2])
            return real(factors, terms, nn, buffers)

        real = problem._ring_peaks
        monkeypatch.setattr(problem, "_ring_peaks", peaks)
        g = make_gevrey()
        tau_patch = getattr(self, patch)
        with np.errstate(over="ignore", invalid="ignore"):
            fits = admissibility_fits(self.BATCH, self.EPS_PATCH, tau_patch,
                                      g, n=n)
            for component, fit in zip(self.BATCH, fits, strict=True):
                delta, passed = self.full_sweep_fit(component, self.EPS_PATCH,
                                                    tau_patch, g, n)
                assert fit.delta == delta and fit.passed == passed
        # one sweep per ordered b-tuple and grid: (b-values, components)
        assert seen == [(1, 3), (1, 1), (1, 2), (3, 1), (2, 1), (2, 1)] * 2

    def test_ring_peaks_blocks_fit_in_block_buffers(self, monkeypatch):
        # eight eps-dependent components at n = 16: each sweep of the
        # 32 x 32 grid reduces 1,024 rows x 8 components x 1,024 values,
        # which the blocks keep to BLOCK // 8 values of reused buffers (a
        # block larger than a buffer could not be shaped from it)
        sizes = []

        def peaks(factors, terms, nn, buffers):
            sizes.extend(buf.size for buf in buffers)
            return real(factors, terms, nn, buffers)

        real = problem._ring_peaks
        monkeypatch.setattr(problem, "_ring_peaks", peaks)
        batch = [(InitialTerm(c=1.0 + k, a=k % 3, b=1, r=1),)
                 for k in range(8)]
        tracemalloc.start()
        try:
            fits = admissibility_fits(batch, self.EPS_PATCH, self.TAU_PATCH,
                                      make_gevrey(), n=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes and max(sizes) == BLOCK // 8
        # the whole array would take 128 MiB
        assert peak < 16 * 2**20
        for component, fit in zip(batch, fits, strict=True):
            delta, passed = self.full_sweep_fit(component, self.EPS_PATCH,
                                                self.TAU_PATCH,
                                                make_gevrey(), 16)
            assert fit.delta == delta and fit.passed == passed

    def test_m_used_is_nine_tenths_of_m_big(self):
        g = make_gevrey(m_big=1.0)
        tau_patch = ContinuousBase(mod=(1.1, 2.0), arg=(0.2, 0.5))
        fit = admissibility_fit((InitialTerm(c=1.0),), self.EPS_PATCH,
                                tau_patch, g)
        assert abs(fit.m_used - 0.9) < 1e-15


class TestValidation:
    def test_duplicate_k_rejected(self):
        with pytest.raises(ValueError):
            CauchyProblem(s_order=2, terms=(
                ProblemTerm(k=0, m0=1, m1=2, coeffs=((0, (1.0 + 0j,)),)),
                ProblemTerm(k=0, m0=2, m1=2, coeffs=((0, (1.0 + 0j,)),))))

    def test_m_big_positive(self):
        for m_big in (0.0, -0.3, math.nan):
            with pytest.raises(ValueError, match="m_big"):
                make_gevrey(m_big=m_big)

    def test_initial_component_count(self, base2):
        with pytest.raises(ValueError):
            CoefficientEvaluator(
                problem=single_term_problem(s_order=1),
                initial=InitialData(components=(
                    (InitialTerm(c=1.0),), (InitialTerm(c=1.0),))),
                base=base2)
