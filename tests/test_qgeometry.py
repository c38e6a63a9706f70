import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgevrey import (ChartBase, ContinuousBase, DomainError, QBase,
                     build_covering, in_continuous_spiral, in_discrete_spiral,
                     in_theta_safe, qpow, spiral_coordinates,
                     spiral_min_distance, validate_covering)
from qgevrey.config import load_shipped_config
from qgevrey.covering import seam_probes

# deterministic property runs: the same examples on every run, no database
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
BASES = (2.0, 1.5 * cmath.exp(0.2j), 3.0 * cmath.exp(-0.1j),
         2.0 * cmath.exp(0.1j), math.exp(1.0 / 16.0))


class TestQBase:
    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            QBase(0.5)
        with pytest.raises(ValueError):
            QBase(cmath.exp(0.3j))  # modulus one

    def test_log_branch_consistent(self):
        b = QBase(2.0 * cmath.exp(0.4j))
        assert abs(cmath.exp(b.log_q) - b.q) < 1e-14 * abs(b.q)


class TestQpow:
    def test_identity_cases(self, base2):
        assert qpow(base2, 0.0) == 1.0
        assert qpow(base2, 1.0) == 2.0
        assert abs(qpow(base2, 0.5) - math.sqrt(2.0)) < 1e-15

    def test_additivity(self, bases, rng):
        for b in bases:
            for _ in range(50):
                s, t = rng.uniform(-5, 5, 2)
                lhs = qpow(b, s + t)
                rhs = qpow(b, s) * qpow(b, t)
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_array_argument(self, base2):
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(qpow(base2, t), [1.0, 2.0, 4.0])


class TestSpiralCoordinates:
    def test_roundtrip(self, bases, rng):
        for b in bases:
            for _ in range(30):
                u = rng.uniform(0, 1)
                v = rng.uniform(-4, 2)
                pt = cmath.exp(2j * math.pi * u) * qpow(b, v)
                uu, vv = spiral_coordinates(pt, b)
                assert abs(vv - v) < 1e-10
                assert min(abs(uu - u), 1 - abs(uu - u)) < 1e-10

    def test_origin_rejected(self, base2):
        with pytest.raises(DomainError):
            spiral_coordinates(0.0, base2)


class TestDiscreteSpiral:
    CHART = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))

    def _point(self, b, u, v):
        return cmath.exp(2j * math.pi * u) * qpow(b, v)

    def test_direct_membership(self, base2):
        pt = self._point(base2, 0.2, -0.3)
        assert in_discrete_spiral(pt, self.CHART, base2)

    def test_depth_three(self, base2):
        pt = self._point(base2, 0.2, -0.3) * qpow(base2, -3.0)
        assert in_discrete_spiral(pt, self.CHART, base2)

    def test_large_modulus_excluded(self, base2):
        # |eps| above every chart point: eps q^n only grows
        pt = self._point(base2, 0.2, 0.5)
        assert not in_discrete_spiral(pt, self.CHART, base2)

    def test_wrong_angle_excluded(self, base2):
        pt = self._point(base2, 0.6, -0.3)
        assert not in_discrete_spiral(pt, self.CHART, base2)

    def test_monotone_under_division(self, bases, rng):
        chart = self.CHART
        for b in bases:
            for _ in range(20):
                pt = self._point(b, rng.uniform(0.1, 0.3),
                                 rng.uniform(-0.4, -0.2))
                pt *= qpow(b, -float(rng.integers(0, 4)))
                if in_discrete_spiral(pt, chart, b):
                    assert in_discrete_spiral(pt / b.q, chart, b)

    def test_u_wraps_modulo_one(self, base2):
        chart = ChartBase(i1=(0.95, 1.15), i2=(-0.4, -0.2))
        pt = self._point(base2, 0.05, -0.3)
        assert in_discrete_spiral(pt, chart, base2)


class TestContinuousSpiral:
    VSET = ContinuousBase(mod=(1.1, 1.4), arg=(0.1, 0.3))

    def test_base_membership(self, base2):
        assert in_continuous_spiral(1.2 * cmath.exp(0.2j), self.VSET, base2)

    def test_level_five_point_seven(self, base2):
        pt = 1.2 * cmath.exp(0.2j) * qpow(base2, 5.7)
        assert in_continuous_spiral(pt, self.VSET, base2)

    def test_below_dist0_excluded(self, base2):
        assert self.VSET.dist0 == 1.1
        assert not in_continuous_spiral(0.9 * cmath.exp(0.2j), self.VSET,
                                        base2)

    def test_monotone_under_growth(self, bases, rng):
        for b in bases:
            for _ in range(20):
                pt = (rng.uniform(1.1, 1.4)
                      * cmath.exp(1j * rng.uniform(0.1, 0.3))
                      * qpow(b, rng.uniform(0, 3)))
                if in_continuous_spiral(pt, self.VSET, b):
                    assert in_continuous_spiral(pt * qpow(b, 2.5),
                                                self.VSET, b)

    def test_two_sided_flag(self, base2):
        pt = 1.2 * cmath.exp(0.2j) * qpow(base2, -2.0)
        assert not in_continuous_spiral(pt, self.VSET, base2)
        assert in_continuous_spiral(pt, self.VSET, base2, two_sided=True)

    def test_complex_base_argument_drift(self):
        # with complex q the argument rotates along the spiral
        b = QBase(1.5 * cmath.exp(0.5j))
        pt = 1.2 * cmath.exp(0.2j) * qpow(b, 3.3)
        assert in_continuous_spiral(pt, self.VSET, b)
        assert not in_continuous_spiral(1.2 * cmath.exp(1.2j), self.VSET,
                                        QBase(2.0))


def brute_force_min_distance(w, base, k_lo=-80.0, k_hi=80.0, step=1e-4):
    ks = np.arange(k_lo, k_hi, step)
    return float(np.min(np.abs(1.0 + w * np.exp(-ks * base.log_q))))


class TestThetaSafe:
    def test_positive_ray_safe(self, base2):
        # lam/z positive real: |1 + positive| >= 1
        assert in_theta_safe(2.0, 1.0, base2, 0.5)

    def test_ratio_minus_one_unsafe(self, base2):
        assert not in_theta_safe(-1.0, 1.0, base2, 0.5)

    def test_against_brute_force_scan(self, rng):
        b = QBase(2.0 * cmath.exp(0.1j))
        # includes the near-critical spiral point -q^0.31
        ws = [-qpow(b, 0.31)]
        for _ in range(25):
            ws.append(rng.uniform(0.3, 3.0)
                      * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        for w in ws:
            oracle = brute_force_min_distance(w, b)
            fast = spiral_min_distance(w, b, 0.5)
            # both must land on the same side of delta = 0.5
            assert (oracle > 0.5) == (fast > 0.5)
            # the scan is a certified lower bound, exact below the
            # outside-band floor (0.75 at delta = 0.5)
            assert fast <= oracle + 1e-6
            if 0.05 < oracle < 0.7:
                assert abs(oracle - fast) < 1e-6

    def test_invariant_under_q_shift(self, bases, rng):
        for b in bases:
            for _ in range(10):
                z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 6))
                lam = rng.uniform(1.0, 1.5) * cmath.exp(1j * rng.uniform(0, 6))
                s = rng.uniform(-3, 3)
                assert in_theta_safe(z, lam, b, 0.3) == \
                    in_theta_safe(z * qpow(b, s), lam, b, 0.3)

    def test_preconditions(self, base2):
        with pytest.raises(DomainError):
            in_theta_safe(0.0, 1.0, base2, 0.3)
        with pytest.raises(ValueError):
            in_theta_safe(1.0, 1.0, base2, 1.5)


class TestChartBase:
    def test_interval_length_cap(self):
        with pytest.raises(ValueError):
            ChartBase(i1=(0.0, 0.3), i2=(0.0, 0.1))
        with pytest.raises(ValueError):
            ChartBase(i1=(0.0, 0.1), i2=(0.0, 0.25))

    def test_continuous_base_validation(self):
        with pytest.raises(ValueError):
            ContinuousBase(mod=(0.0, 1.0), arg=(0.0, 0.1))
        with pytest.raises(ValueError):
            ContinuousBase(mod=(1.0, 2.0), arg=(0.0, 7.0))


class TestDomainContract:
    CHART = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))

    @pytest.mark.parametrize("bad,tag", [(0.0, "nonzero"),
                                         (math.nan, "finite"),
                                         (complex(math.inf, 0.0), "finite"),
                                         (complex(0.3, math.nan), "finite")])
    def test_membership_batch_entry(self, base2, bad, tag):
        pts = np.array([0.3 + 0.1j, bad, 0.2j])
        with pytest.raises(DomainError) as exc:
            in_discrete_spiral(pts, self.CHART, base2)
        assert exc.value.membership == tag
        with pytest.raises(DomainError) as exc:
            spiral_coordinates(pts, base2)
        assert exc.value.membership == tag

    @pytest.mark.parametrize("bad,tag", [(0.0, "nonzero"),
                                         (math.nan, "finite"),
                                         (complex(0.0, -math.inf), "finite")])
    def test_min_distance_batch_entry(self, base2, bad, tag):
        with pytest.raises(DomainError) as exc:
            spiral_min_distance(np.array([0.5, bad]), base2, 0.2)
        assert exc.value.membership == tag
        with pytest.raises(DomainError) as exc:
            spiral_min_distance(bad, base2, 0.2)
        assert exc.value.membership == tag

    def test_theta_safe_non_finite(self, base2):
        with pytest.raises(DomainError):
            in_theta_safe(complex(math.nan, 0.0), 1.0, base2, 0.3)


def reference_in_discrete_spiral(u, v, chart):
    """Scalar membership in spiral coordinates, the ``math`` formula."""
    if not 0.0 < (u - chart.i1[0]) % 1.0 < (chart.i1[1] - chart.i1[0]):
        return False
    lo, hi = chart.i2
    n = math.ceil(lo - v)
    if lo - v == n:
        n += 1
    return n >= 0 and v + n < hi


def reference_coordinates(eps, base):
    v = math.log(abs(eps)) / base.log_abs_q
    u = ((cmath.phase(eps) - v * base.log_q.imag) / (2.0 * math.pi)) % 1.0
    return u, v


def compare_with_reference(points, charts, base, tie=1e-9):
    """Assert array membership equals the scalar reference; return ties.

    A (point, chart) pair whose reference decision changes when u or v
    moves by ``tie`` sits on the chart's (open) boundary, where rounding
    of the coordinates decides; such pairs are counted, not compared.
    """
    coords = [reference_coordinates(complex(p), base) for p in points]
    ties = 0
    for chart in charts:
        got = in_discrete_spiral(points, chart, base)
        for k, (u, v) in enumerate(coords):
            near = {reference_in_discrete_spiral(u + du, v + dv, chart)
                    for du, dv in ((0, 0), (tie, 0), (-tie, 0), (0, tie),
                                   (0, -tie))}
            if len(near) > 1:
                ties += 1
            else:
                assert got[k] == near.pop(), (chart, points[k])
    return ties


grids = st.tuples(st.integers(5, 8), st.integers(5, 8),
                  st.floats(0.0, 0.95))


def feasible_overlap(n_u, n_v, frac):
    return frac * min(1.0 / n_v, 0.25 * n_u - 1.0, 0.25 * n_v - 1.0)


class TestArrayMembership:
    @PROPERTY
    @given(q=st.sampled_from(BASES), grid=grids,
           seed=st.integers(0, 2**32 - 1))
    def test_random_points_match_scalar_reference(self, q, grid, seed):
        base = QBase(q)
        n_u, n_v, frac = grid
        covering = build_covering(n_u, n_v, feasible_overlap(n_u, n_v, frac))
        rng = np.random.default_rng(seed)
        pts = (np.exp(rng.uniform(-5.0, 1.0, 100) * base.log_abs_q)
               * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 100)))
        assert compare_with_reference(pts, covering.charts, base) == 0

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    def test_seam_probes_match_scalar_reference(self, name):
        cfg = load_shipped_config(name)
        probes = seam_probes(cfg.covering, cfg.base)
        ties = compare_with_reference(probes, cfg.covering.charts, cfg.base)
        # each probe sits on the boundary of the chart it was built from
        assert 0 < ties <= len(probes)

    def test_scalar_in_scalar_out(self, base2):
        chart = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))
        pt = cmath.exp(0.4j * math.pi) * qpow(base2, -0.3)
        assert in_discrete_spiral(pt, chart, base2) is True
        assert in_discrete_spiral(np.array([pt, -pt]), chart,
                                  base2).tolist() == [True, False]
        u, v = spiral_coordinates(pt, base2)
        assert isinstance(u, float) and isinstance(v, float)

    def test_empty_batch(self, base2):
        chart = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))
        empty = np.array([], dtype=complex)
        assert in_discrete_spiral(empty, chart, base2).shape == (0,)
        assert spiral_min_distance(empty, base2, 0.2).shape == (0,)

    @PROPERTY
    @given(q=st.sampled_from(BASES), grid=grids,
           seed=st.integers(0, 2**32 - 1))
    def test_membership_survives_division_by_q(self, q, grid, seed):
        base = QBase(q)
        n_u, n_v, frac = grid
        covering = build_covering(n_u, n_v, feasible_overlap(n_u, n_v, frac))
        rng = np.random.default_rng(seed)
        pts = (np.exp(rng.uniform(-4.0, 0.0, 300) * base.log_abs_q)
               * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 300)))
        for chart in covering.charts:
            inside = in_discrete_spiral(pts, chart, base)
            assert in_discrete_spiral(pts[inside] / base.q, chart, base).all()

    @PROPERTY
    @given(q=st.sampled_from(BASES), grid=grids,
           seed=st.integers(0, 2**32 - 1))
    def test_grids_have_no_quadruple_points(self, q, grid, seed):
        n_u, n_v, frac = grid
        covering = build_covering(n_u, n_v, feasible_overlap(n_u, n_v, frac))
        rep = validate_covering(covering, QBase(q), 1500, seed=seed)
        assert rep.n_quadruple == 0
        assert rep.max_multiplicity <= 3


class TestBatchedMinDistance:
    NEAR_CRITICAL = (0.31, -0.7, 1.9)

    def batch(self, base, rng, n=12):
        ws = [-qpow(base, s) for s in self.NEAR_CRITICAL]
        ws += list(rng.uniform(0.3, 3.0, n)
                   * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))
        return np.array(ws, dtype=complex)

    @pytest.mark.parametrize("q", [2.0 * cmath.exp(0.1j), math.exp(1.0 / 16.0)])
    def test_against_brute_force(self, q, rng):
        b = QBase(q)
        delta = 0.2
        ws = self.batch(b, rng)
        fast = spiral_min_distance(ws, b, delta)
        assert fast.shape == ws.shape
        outside = min(1.0 - max(1.0 - 3.0 * delta, 0.5 * (1.0 - delta)),
                      3.0 * delta)
        for w, f in zip(ws, fast):
            centre = math.log(abs(w)) / b.log_abs_q
            oracle = min(brute_force_min_distance(
                w, b, centre - 2.0 / b.log_abs_q, centre + 2.0 / b.log_abs_q),
                outside)
            if oracle > 0.05:
                # smooth minimum: the oracle's 1e-4 grid overshoots it by
                # O(1e-9), the refined value is exact to rounding
                assert -1e-12 <= oracle - f < 1e-8
            else:
                # V-shaped minimum near -1: the result is a lower bound
                # even where the oracle hits the minimum exactly
                assert f <= oracle
        assert fast[:len(self.NEAR_CRITICAL)].max() < 1e-6

    @pytest.mark.parametrize("q", [2.0, 2.0 * cmath.exp(0.1j),
                                   math.exp(1.0 / 16.0)])
    def test_spiral_through_minus_one_is_never_clear(self, q):
        # w q^-k = -1 at k = s: no delta, however small, is cleared, though
        # the last nested grid spaces k ~1.5e-8 apart
        b = QBase(q)
        s = np.linspace(-0.7, 0.9, 41) + 1.23e-4
        ws = -np.exp(s * b.log_q)
        for delta in (1e-9, 1e-6, 0.2):
            assert spiral_min_distance(ws, b, delta).max() <= 1e-12
        lam = 1.25 * cmath.exp(0.3j)
        for w in ws[::8]:
            assert not in_theta_safe(lam / w, lam, b, 1e-9)

    @pytest.mark.parametrize("q", [2.0 * cmath.exp(0.1j), math.exp(1.0 / 16.0),
                                   2.0])
    def test_batch_equals_elementwise(self, q, rng):
        b = QBase(q)
        ws = self.batch(b, rng, n=37)
        batch = spiral_min_distance(ws, b, 0.2)
        single = np.array([spiral_min_distance(complex(w), b, 0.2)
                           for w in ws])
        np.testing.assert_array_equal(batch, single)
        grid = spiral_min_distance(ws.reshape(5, -1), b, 0.2)
        np.testing.assert_array_equal(grid.ravel(), single)
