import cmath
import math

import numpy as np
import pytest

from qgevrey import (CauchyProblem, CoefficientEvaluator, ContinuousBase,
                     DomainError, GevreyParams, InitialData, InitialTerm,
                     ProblemTerm, QBase, admissibility_fit,
                     apply_shift_operator, check_constant_system,
                     check_growth_cap, check_term_exponents,
                     series_norm, shift_bound_constant, weighted_norm)


def make_gevrey(**kw):
    params = dict(m_big=0.5, m_tilde=0.45, a1_type=1.0, c_geom=1.0,
                  delta_theta=0.2, xi=0.9, xi_bar=0.9, a1=9.0, a2=1.0,
                  b1=8.0, b2=1.0, d1=2.0, d2=1.0)
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
        g = make_gevrey(a1_type=2.0, c_geom=1.0, m_big=1.0, m_tilde=0.9)
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
        ok, slack = check_growth_cap(make_gevrey(m_big=1.0, m_tilde=0.9),
                                     base)
        assert ok and abs(slack - 7.0) < 1e-12

    def test_large_log_q_fails(self):
        base = QBase(math.exp(1.0))
        ok, slack = check_growth_cap(make_gevrey(m_big=1.0, m_tilde=0.9),
                                     base)
        assert not ok and slack < 0

    def test_boundary_has_zero_slack(self):
        base = QBase(math.exp(1.0))
        ok, slack = check_growth_cap(make_gevrey(m_big=0.5, m_tilde=0.45),
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
        g = make_gevrey(m_big=1.0, m_tilde=0.9, xi=0.5)
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
                        g = make_gevrey(m_big=1.0, m_tilde=0.9, a1_type=2.0,
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
                m_big=rng.uniform(0.05, 2.0), m_tilde=0.01,
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

    def test_m_tilde_convention(self):
        g = make_gevrey(m_big=1.0, m_tilde=0.5)
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

    def test_r0_range(self):
        with pytest.raises(ValueError):
            CauchyProblem(s_order=1, terms=(), r0=1.5)

    def test_gevrey_ordering(self):
        with pytest.raises(ValueError):
            make_gevrey(m_big=0.3, m_tilde=0.4)

    def test_initial_component_count(self, base2):
        with pytest.raises(ValueError):
            CoefficientEvaluator(
                problem=single_term_problem(s_order=1),
                initial=InitialData(components=(
                    (InitialTerm(c=1.0),), (InitialTerm(c=1.0),))),
                base=base2)
