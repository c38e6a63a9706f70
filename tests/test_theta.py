import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgevrey import (DomainError, QBase, ThetaOverflowError, in_theta_safe,
                     log_theta, pi_q, qpow, theta, theta_lower_ratio)

# deterministic property runs: the same examples on every run, no database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def theta_direct(x, q, n_terms):
    """Independent oracle: plain two-sided summation, no reduction."""
    total = 0j
    for n in range(-n_terms, n_terms + 1):
        total += q ** (-n * (n - 1) / 2.0) * x**n
    return total


class TestThetaValues:
    def test_direct_summation_at_one(self, base2):
        oracle = theta_direct(1.0, 2.0, 64)
        assert abs(theta(1.0, base2) - oracle) <= 1e-14 * abs(oracle)

    def test_reduction_at_q_power_five(self, base2):
        # theta(q^5) = q^15 theta(1): the reduced path must match the
        # direct summation evaluated at q^5 itself
        oracle = theta_direct(2.0**5, 2.0, 64)
        val = theta(2.0**5, base2)
        assert abs(val - oracle) <= 1e-12 * abs(oracle)
        assert abs(val - 2.0**15 * theta(1.0, base2)) <= 1e-12 * abs(val)

    def test_zero_rejected(self, base2):
        with pytest.raises(DomainError):
            theta(0.0, base2)

    def test_vanishes_on_minus_q_spiral(self, base2):
        # zeros sit exactly on -q^Z
        for m in (-2, 0, 3):
            val = theta(-(2.0**m), base2)
            assert abs(val) < 1e-10 * 2.0 ** (m * (m + 1) / 2.0 + 1)


class TestFunctionalEquation:
    def test_single_shift(self, bases, rng):
        for b in bases:
            for _ in range(100):
                x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
                if not 0.1 <= abs(x) <= 10.0:
                    continue
                lhs = theta(b.q * x, b)
                rhs = b.q * x * theta(x, b)
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_general_shift(self, bases, rng):
        for b in bases:
            for m in range(-3, 4):
                for _ in range(10):
                    x = (rng.uniform(0.5, 2.0)
                         * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                    if abs(x + 1.0) < 0.1:
                        continue
                    lhs = theta(qpow(b, float(m)) * x, b)
                    rhs = (qpow(b, m * (m + 1) / 2.0) * x**m) * theta(x, b)
                    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @PROPERTY
    @given(which=st.integers(0, 2), m=st.integers(-5, 5),
           mod=st.floats(0.3, 3.0), arg=st.floats(0.0, 2.0 * math.pi))
    def test_shift_identity_property(self, bases, which, m, mod, arg):
        # theta(q^m x) = q^{m(m+1)/2} x^m theta(x), away from the zeros
        b = bases[which]
        x = mod * cmath.exp(1j * arg)
        assume(in_theta_safe(1.0, x, b, 0.1))
        lhs = theta(qpow(b, float(m)) * x, b)
        rhs = qpow(b, m * (m + 1) / 2.0) * x**m * theta(x, b)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestReductionConsistency:
    def test_annulus_against_200_terms(self, base2, rng):
        # strict relative agreement where the sum is well conditioned:
        # real q = 2, samples clear of the zero spiral
        for _ in range(100):
            x = (rng.uniform(1.0, 1.999)
                 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            if not in_theta_safe(1.0, complex(x), base2, 0.2):
                continue
            oracle = theta_direct(x, 2.0, 200)
            assert abs(theta(x, base2) - oracle) <= 1e-12 * abs(oracle)

    def test_annulus_complex_bases(self, bases, rng):
        # for |q| near 1 the series cancels to a value orders below its
        # term mass, so no summation (oracle included) can certify 1e-12
        # relative to theta itself; agreement is asserted relative to the
        # summation mass instead
        for b in bases[1:]:
            for _ in range(60):
                x = (rng.uniform(1.0, abs(b.q) * 0.999)
                     * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                if not in_theta_safe(1.0, complex(x), b, 0.1):
                    continue
                oracle = theta_direct(x, b.q, 200)
                mass = sum(abs(b.q ** (-n * (n - 1) / 2.0) * x**n)
                           for n in range(-200, 201))
                assert abs(theta(x, b) - oracle) <= 1e-12 * mass


class TestLogTheta:
    def test_matches_scalar(self, bases, rng):
        for b in bases:
            xs = (rng.uniform(0.3, 5.0, 20)
                  * np.exp(1j * rng.uniform(0, 2 * math.pi, 20)))
            vals = np.exp(log_theta(xs, b))
            for x, v in zip(xs, vals):
                if abs(x + 1.0) < 0.1:
                    continue
                ref = theta(complex(x), b)
                assert abs(v - ref) <= 1e-11 * abs(ref)

    def test_scalar_matches_array_element(self, bases, rng):
        # one code path for both; only the rounding of complex products
        # differs (vector loops may fuse multiply-adds), amplified at most
        # by the annulus sum's cancellation on theta-safe points
        for b in bases:
            xs = (rng.uniform(0.2, 5.0, 200)
                  * np.exp(1j * rng.uniform(0, 2 * math.pi, 200)))
            xs = np.array([x for x in xs
                           if in_theta_safe(1.0, complex(x), b, 0.2)])
            vals = log_theta(xs, b)
            for x, v in zip(xs, vals):
                one = log_theta(complex(x), b)
                assert np.ndim(one) == 0
                assert abs(one - v) <= 1e-12

    def test_huge_argument_no_overflow(self, base2):
        lg = log_theta(np.array([2.0**200]), base2)[0]
        assert math.isfinite(lg.real)
        # reciprocal kernel underflows gracefully
        assert np.exp(-lg) == 0.0


class TestDomainContract:
    @pytest.mark.parametrize("bad, membership", [
        (0.0, "nonzero"), (0j, "nonzero"), (math.nan, "finite"),
        (complex(math.inf, 0.0), "finite"), (complex(1.0, math.nan), "finite"),
        (1.5e308 + 1.5e308j, "finite")])
    def test_bad_scalar(self, base2, bad, membership):
        for fn in (log_theta, theta):
            with pytest.raises(DomainError) as err:
                fn(bad, base2)
            assert err.value.membership == membership

    def test_bad_array_entry(self, base2):
        with pytest.raises(DomainError) as err:
            log_theta(np.array([1.0, 0.0, 2.0]), base2)
        assert err.value.membership == "nonzero"
        with pytest.raises(DomainError) as err:
            log_theta(np.array([1.0, np.nan]), base2)
        assert err.value.membership == "finite"

    def test_exact_cancellation_gives_zero(self, rng):
        # for |q| near 1 the annulus sum cancels far below its term mass,
        # and on some points to exactly 0: theta is then 0j, log_theta is
        # -inf, and no floating-point warning is raised
        b = QBase(math.exp(1.0 / 16.0))
        xs = (np.exp(rng.uniform(-3.0, 3.0, 4000) * b.log_abs_q)
              * np.exp(1j * rng.uniform(0, 2 * math.pi, 4000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isneginf(log_theta(xs, b).real).any()
            zeros = [complex(x) for x in xs
                     if np.isneginf(log_theta(complex(x), b).real)]
            assert zeros
            for x in zeros:
                assert theta(x, b) == 0
                assert theta_lower_ratio(x, b, 0.5) == 0.0


class TestOverflow:
    def test_overflow_reports_exponent(self, base2):
        with pytest.raises(ThetaOverflowError) as err:
            theta(2.0**80, base2)
        assert err.value.exponent == 80


class TestPiQ:
    def test_direct_product_oracle(self, base2):
        prod = 1.0
        for n in range(60):
            prod *= 1.0 / (1.0 - 2.0 ** (-n - 1.0))
        oracle = math.log(2.0) * prod
        assert abs(pi_q(base2) - oracle) <= 1e-13 * abs(oracle)

    def test_real_base_gives_real_value(self):
        for q in (1.5, 2.0, 3.0):
            assert abs(pi_q(QBase(q)).imag) < 1e-14

    def test_truncation_stability(self):
        # at the settled truncation point, ten further factors change the
        # value by less than 1e-14 relative, for any |q| >= 1.5
        for q in (1.5, 2.5):
            n_stop = 0
            p1 = 1.0
            while True:
                update = 1.0 / (1.0 - q ** (-n_stop - 1.0))
                p1 *= update
                n_stop += 1
                if abs(update - 1.0) < 1e-15:
                    break
            p2 = p1
            for n in range(n_stop, n_stop + 10):
                p2 *= 1.0 / (1.0 - q ** (-n - 1.0))
            assert abs(p1 - p2) * math.log(q) < 1e-14 * abs(p1)


def mp_theta(x, q):
    """50-digit two-sided direct sum, no reduction to the annulus."""
    with mpmath.workdps(50):
        x, log_q = mpmath.mpc(x), mpmath.log(mpmath.mpc(q))
        total = mpmath.mpc(0)
        for n in range(-80, 81):
            total += mpmath.exp(-n * (n - 1) / 2 * log_q) * x**n
        return complex(total)


def mp_pi_q(q):
    """50-digit ``log q * prod_{n >= 0} (1 - q^{-n-1})^{-1}``."""
    with mpmath.workdps(50):
        q = mpmath.mpc(q)
        prod = mpmath.mpf(1)
        for n in range(400):
            prod /= 1 - q ** (-n - 1)
        return complex(mpmath.log(q) * prod)


class TestMpmathOracle:
    def test_theta_against_direct_sum(self, bases, rng):
        for b in bases:
            count = 0
            while count < 6:
                x = complex(rng.uniform(0.2, 5.0)
                            * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                if not in_theta_safe(1.0, x, b, 0.2):
                    continue
                count += 1
                ref = mp_theta(x, b.q)
                assert abs(theta(x, b) - ref) <= 1e-12 * abs(ref)

    def test_pi_q_against_product(self, bases):
        for b in bases:
            ref = mp_pi_q(b.q)
            assert abs(pi_q(b) - ref) <= 1e-14 * abs(ref)


class TestLowerRatio:
    def test_at_one_equals_theta(self, base2):
        assert abs(theta_lower_ratio(1.0, base2, 0.8)
                   - abs(theta(1.0, base2))) < 1e-12

    def test_shift_changes_by_polynomial_factor(self, base2, rng):
        # ratio at x vs x q^m: both sides computed numerically; the shift
        # relation bounds their quotient by a power of |x| times q-powers
        xi = 0.8
        for _ in range(20):
            x = (rng.uniform(1.0, 1.8)
                 * cmath.exp(1j * rng.uniform(0.5, 5.5)))
            m = int(rng.integers(1, 5))
            r1 = theta_lower_ratio(x, base2, xi)
            r2 = theta_lower_ratio(x * qpow(base2, float(m)), base2, xi)
            shift = abs(qpow(base2, m * (m + 1) / 2.0) * x**m)
            l1 = math.log(abs(x))
            l2 = math.log(abs(x * qpow(base2, float(m))))
            weight = math.exp(xi * (l2 * l2 - l1 * l1)
                              / (2.0 * base2.log_abs_q))
            expected = r1 * shift / weight
            assert abs(r2 - expected) <= 1e-9 * abs(expected)

    def test_fitted_floor_positive_and_stable(self, base2):
        # minimum ratio over theta-safe samples defines a positive floor;
        # the floor moves by under 20% when the sample count grows tenfold
        xi, delta = 0.8, 0.2

        def fitted(n, seed):
            rng = np.random.default_rng(seed)
            best = math.inf
            count = 0
            while count < n:
                x = (rng.uniform(0.2, 5.0)
                     * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                if not in_theta_safe(1.0, complex(x), base2, delta, step=5e-3):
                    continue
                count += 1
                best = min(best, theta_lower_ratio(complex(x), base2, xi))
            return best

        c_small = fitted(1000, 7)
        c_large = fitted(10000, 7)
        assert c_large > 0.0
        assert abs(c_large - c_small) <= 0.2 * c_small

    def test_xi_validation(self, base2):
        with pytest.raises(ValueError):
            theta_lower_ratio(1.0, base2, 1.2)

