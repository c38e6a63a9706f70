import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covering_reference import seam_probes
from qgevrey import (ChartBase, ContinuousBase, DomainError, QBase,
                     build_covering, covering_report, in_discrete_spiral,
                     in_theta_safe, qpow, spiral_coordinates,
                     spiral_min_distance)
from qgevrey import qgeometry
from qgevrey.config import load_shipped_config
from qgevrey.qgeometry import _scan_candidates, _scan_cells, _scan_tables

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


class TestFrac:
    """``_frac`` stands for numpy's float ``% 1.0`` in the spiral
    coordinates and the interval test: equal bit for bit, compared as
    int64."""

    @staticmethod
    def values() -> np.ndarray:
        sub = np.array([5e-324, 1e-310, np.finfo(float).tiny / 3.0])
        ints = np.concatenate([np.arange(-6.0, 7.0), [2.0**52, -2.0**52,
                                                      1e6, -1e6]])
        rng = np.random.default_rng(11)
        return np.concatenate([
            [0.0, -0.0, 0.5, -0.5, 1e300, -1e300, 1e-300, -1e-300], sub,
            -sub, ints, np.nextafter(ints, -np.inf),
            np.nextafter(ints, np.inf), rng.uniform(-10.0, 10.0, 2000),
            rng.standard_normal(2000) * 1e-17,
            rng.standard_normal(2000) * 1e6])

    def test_array_bitwise_equal_to_modulo(self):
        x = self.values()
        assert np.array_equal(qgeometry._frac(x).view(np.int64),
                              (x % 1.0).view(np.int64))

    def test_scalar_bitwise_equal_to_modulo(self):
        for x in self.values().tolist():
            got = np.array([qgeometry._frac(x),
                            qgeometry._frac(np.float64(x))])
            assert np.array_equal(got.view(np.int64),
                                  np.array([x % 1.0] * 2).view(np.int64)), x


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

    @pytest.mark.parametrize("lam", [1.25 * cmath.exp(0.3j),
                                     np.complex128(0.8 - 0.6j)])
    def test_array_equals_scalar_elementwise(self, bases, rng, lam):
        for b in bases:
            # half the z put lam / z on or near the spiral through -1
            zs = rng.uniform(0.5, 2.0, 24) * np.exp(
                1j * rng.uniform(0.0, 2.0 * math.pi, 24))
            zs[::2] = -lam / np.exp(rng.uniform(-2.0, 2.0, 12) * b.log_q) \
                * np.exp(1j * rng.uniform(-0.2, 0.2, 12))
            single = [in_theta_safe(complex(z), lam, b, 0.3) for z in zs]
            assert all(type(s) is bool for s in single)
            batch = in_theta_safe(zs.reshape(4, 6), lam, b, 0.3)
            assert batch.shape == (4, 6)
            assert batch.ravel().tolist() == single
            assert 0 < sum(single) < len(single)

    def test_preconditions(self, base2):
        with pytest.raises(DomainError):
            in_theta_safe(0.0, 1.0, base2, 0.3)
        with pytest.raises(DomainError):
            in_theta_safe(np.array([1.0, 0.0]), 1.0, base2, 0.3)
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
        # lam / inf is 0: the tag must name the infinite z, not the zero
        for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0),
                    complex(-math.inf, 0.0), complex(0.0, math.inf),
                    complex(1.0, -math.inf)):
            for z in (bad, np.array([0.5 + 0.2j, bad])):
                with pytest.raises(DomainError) as exc:
                    in_theta_safe(z, 1.0, base2, 0.3)
                assert exc.value.membership == "finite", z

    @pytest.mark.parametrize("delta", [1.0, 1.5, 0.0, -0.1])
    def test_min_distance_rejects_delta(self, base2, delta):
        # checked before any work: a zero w does not get its DomainError
        for w in (0.5 + 0.1j, np.array([0.5, -1.0]), 0.0):
            with pytest.raises(ValueError, match=r"delta must lie in"):
                spiral_min_distance(w, base2, delta)


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
    @given(q=st.sampled_from(BASES), grid=grids)
    def test_grids_have_no_quadruple_points(self, q, grid):
        n_u, n_v, frac = grid
        covering = build_covering(n_u, n_v, feasible_overlap(n_u, n_v, frac))
        rep = covering_report(covering, QBase(q))
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


def full_scan_values(cos_w, sin_w, A, B, C):
    """Every grid value ``A + cos_w B + sin_w C``, one row per ``w``: the
    sweep of the whole grid that the pruned scan replaced."""
    sq = cos_w[:, None] * B
    sq += sin_w[:, None] * C
    sq += A
    return sq


def full_scan_candidates(cos_w, sin_w, cells, A, B, C):
    """Per row, the candidates of a sweep of the whole grid.

    Every window of ``cells`` is swept: its least value and the first
    index holding it.  The windows whose least value lies within ``tie``
    of the row's least value are the candidates, in (row, index) order
    and each pair once.  Also returns each row's least index of its
    least grid value.
    """
    starts, window, tie = cells[3], cells[4].shape[1], cells[-1]
    rows, found, argmin = [], [], []
    for r in range(cos_w.size):
        sq = full_scan_values(cos_w[r:r + 1], sin_w[r:r + 1], A, B, C)[0]
        f = sq[starts[:, None] + np.arange(window)]
        least = f.min(axis=1)
        near = least <= least.min() + tie
        at = np.unique(starts[near] + f.argmin(axis=1)[near])
        rows.append(np.full(at.size, r))
        found.append(at)
        argmin.append(sq.argmin())
    return np.concatenate(rows), np.concatenate(found), np.array(argmin)


def k_step(base, step):
    """The k-grid spacing of spiral_min_distance at spacing ``step`` along
    ``log(w q^-k)``."""
    return step / abs(base.log_q)


def scan_inputs(w, base, delta, step):
    """``cos(phi), sin(phi)`` of each ``w`` as spiral_min_distance has
    them (``step`` along the spiral)."""
    m_hi = _scan_tables(base, delta, k_step(base, step))[1]
    flat = np.asarray(w, dtype=complex).ravel()
    k1 = (np.log(np.abs(flat)) - math.log(m_hi)) / base.log_abs_q
    phi = np.angle(flat) - k1 * base.log_q.imag
    return np.cos(phi), np.sin(phi)


def assert_scan_matches_full(w, base, delta=0.2, step=1e-3):
    """The pruned scan's candidates and spiral_min_distance equal those of
    a sweep of the whole grid, bit for bit; each candidate's grid value
    lies within ``tie`` of its row's least value, and the least index of
    that value is a candidate.  Returns the candidates' rows and indices
    and each row's least index."""
    cells = _scan_cells(base, delta, k_step(base, step))
    A, B, C = _scan_tables(base, delta, k_step(base, step))[2:]
    cos_w, sin_w = scan_inputs(w, base, delta, step)
    row, at, argmin = full_scan_candidates(cos_w, sin_w, cells, A, B, C)
    got = _scan_candidates(cos_w, sin_w, cells)
    assert np.array_equal(got[0], row) and np.array_equal(got[1], at)
    sq = full_scan_values(cos_w, sin_w, A, B, C)
    assert (sq[row, at] <= sq.min(axis=1)[row] + cells[-1]).all()
    assert set(zip(range(argmin.size), argmin)) <= set(zip(row, at))

    def full(c, s, cells):
        return full_scan_candidates(c, s, cells, A, B, C)[:2]

    with mock.patch.object(qgeometry, "_scan_candidates", full):
        reference = spiral_min_distance(w, base, delta, step)
    pruned = spiral_min_distance(w, base, delta, step)
    assert type(pruned) is type(reference)
    assert np.array_equal(pruned, reference)
    return row, at, argmin


SCAN_BASES = (2.0, math.exp(1.0 / 16.0), 1.0645 * cmath.exp(0.05j),
              1.5 * cmath.exp(0.2j), 3.0 * cmath.exp(-0.1j),
              cmath.exp(1.0 / 16.0 + 0.3j))


def on_circle(angles):
    """``e^{i a}``: the scan depends on ``w`` through ``phi`` only, and
    ``phi`` runs over every angle with ``a`` at modulus one."""
    return np.exp(1j * np.asarray(angles))


class TestPrunedScan:
    @pytest.mark.parametrize("q", SCAN_BASES)
    def test_random_and_critical_w(self, q, rng):
        b = QBase(q)
        ws = rng.uniform(0.3, 3.0, 400) * np.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi, 400))
        # spirals through -1: w q^-k = -1 at k = s
        ws[::10] = -np.exp(rng.uniform(-2.0, 2.0, 40) * b.log_q)
        assert_scan_matches_full(ws, b)

    @pytest.mark.parametrize("q", [1.0645 * cmath.exp(0.05j),
                                   1.5 * cmath.exp(0.2j),
                                   cmath.exp(1.0 / 16.0 + 0.3j)])
    def test_equal_depth_basins(self, q):
        # where the deepest basin jumps to another one far along the grid,
        # the two are equally deep; next to that angle the coarse values
        # rank them by how near a cell end each minimum falls, so only the
        # curvature bound keeps the deeper one's cell; at the angle both
        # basins are candidates, since the deeper one need not hold the
        # least grid value
        b = QBase(q)
        A, B, C = _scan_tables(b, 0.2, k_step(b, 1e-3))[2:]

        def index(a):
            return full_scan_values(*scan_inputs(on_circle(a), b, 0.2, 1e-3),
                                    A, B, C).argmin(axis=1)

        angles = np.linspace(0.0, 2.0 * math.pi, 2001)
        i = index(angles)
        j = np.flatnonzero(np.abs(np.diff(i)) > 3 * qgeometry.STRIDE)[0]
        lo, hi = angles[j], angles[j + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(int(index([mid])[0]) - i[j]) <= 3 * qgeometry.STRIDE:
                lo = mid
            else:
                hi = mid
        d = np.logspace(-14.0, -3.0, 45)
        ws = on_circle(lo + np.concatenate([-d, [0.0], d]))
        row, at, argmin = assert_scan_matches_full(ws, b)
        assert np.ptp(argmin) > 3 * qgeometry.STRIDE
        assert np.ptp(at[row == d.size]) > 3 * qgeometry.STRIDE

    def test_minimum_at_grid_ends(self):
        # positive w: |1 + w q^-k| falls with |w q^-k|, least at the last
        # grid index; a fast-turning base over a short band: the spiral
        # turns away from -1 along the grid, least at the first index
        b = QBase(2.0)
        n = _scan_tables(b, 0.2, k_step(b, 1e-3))[2].size
        assert (assert_scan_matches_full(np.array([1.0, 2.5, 0.7]), b)[2]
                == n - 1).all()
        b = QBase(cmath.exp(1.0 / 16.0 + 0.3j))
        ws = on_circle(np.linspace(0.0, 2.0 * math.pi, 720))
        found = assert_scan_matches_full(ws, b, delta=0.01)[2]
        n = _scan_tables(b, 0.01, k_step(b, 1e-3))[2].size
        assert (found == 0).any() and (found == n - 1).any()

    @pytest.mark.parametrize("delta,step,cells", [
        (0.2, 1e-3, "partial"),         # 2001 grid values
        (0.2, 2.0 / 1023.5, "whole"),   # 1025
        (0.005, 1e-3, "one"),           # 45
        (1e-6, 1e-3, "one")])           # 2
    def test_grid_lengths(self, delta, step, cells, rng):
        # step is the spacing in k here; spiral_min_distance takes it
        # along the spiral, log(2) times as long
        b = QBase(2.0)
        n = _scan_tables(b, delta, step)[2].size
        kind = ("one" if n <= qgeometry.STRIDE + 1 else
                "whole" if (n - 1) % qgeometry.STRIDE == 0 else "partial")
        assert kind == cells
        ws = rng.uniform(0.3, 3.0, 50) * np.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi, 50))
        ws[::5] = -np.exp(rng.uniform(-2.0, 2.0, 10) * b.log_q)
        step = step * abs(b.log_q)
        assert _scan_tables(b, delta, k_step(b, step))[2].size == n
        assert_scan_matches_full(ws, b, delta, step)

    @pytest.mark.parametrize("q", [2.0, math.exp(1.0 / 16.0)])
    def test_shapes(self, q, rng):
        b = QBase(q)
        ws = rng.uniform(0.3, 3.0, 1200) * np.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi, 1200))
        assert_scan_matches_full(complex(ws[0]), b)
        assert_scan_matches_full(ws[:1], b)
        # more rows than one coarse block (712 at both bases); one block's
        # kept windows also fill more than one fine-pass chunk
        rows = qgeometry._SCAN_VALUES // _scan_cells(
            b, 0.2, k_step(b, 1e-3))[0].size
        assert ws.size > rows
        assert_scan_matches_full(ws.reshape(8, 150), b)

    @pytest.mark.parametrize("q", [2.0, cmath.exp(1.0 / 16.0 + 0.3j)],
                             ids=["2", "e^(1/16+0.3i)"])
    def test_values_independent_of_chunk_cap(self, q, rng, monkeypatch):
        # a row's value is the same in any chunk of the passes, alone too
        b = QBase(q)
        ws = rng.uniform(0.3, 3.0, 1500) * np.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi, 1500))
        ws[::10] = -np.exp(rng.uniform(-2.0, 2.0, 150) * b.log_q)
        found = []
        for cap in (qgeometry.BLOCK // 8, qgeometry.BLOCK // 2,
                    qgeometry.BLOCK):
            monkeypatch.setattr(qgeometry, "_SCAN_VALUES", cap)
            found.append(spiral_min_distance(ws, b, 0.2))
        found.append(np.array([spiral_min_distance(w, b, 0.2)
                               for w in ws[:40]]))
        for got in found[1:3]:
            assert np.array_equal(got, found[0])
        assert np.array_equal(found[3], found[0][:40])

    @PROPERTY
    @given(q=st.sampled_from(SCAN_BASES), level=st.floats(-3.0, 3.0),
           angle=st.floats(0.0, 2.0 * math.pi))
    def test_any_w(self, q, level, angle):
        b = QBase(q)
        w = cmath.exp(level * b.log_q + 1j * angle)
        assert_scan_matches_full(np.array([w, -w, -qpow(b, level)]), b)


def closed_form_real(w, delta):
    """The clearance of ``w`` at a real base: ``w q^-k`` runs over the ray
    through ``w``, nearest to -1 at ``|sin arg w|`` when ``cos arg w < 0``;
    capped at the band floor ``min(1 - m_lo, m_hi - 1)``."""
    m_lo = max(1.0 - 3.0 * delta, 0.5 * (1.0 - delta))
    a = np.angle(w)
    near = np.where(np.cos(a) < 0.0, np.abs(np.sin(a)), 1.0)
    return np.minimum(near, min(1.0 - m_lo, 3.0 * delta))


def golden_min(f, lo, hi, iters=120):
    """Least value of ``f`` found by golden-section search on each
    bracket ``[lo, hi]`` (arrays), ``f`` vectorized."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    best = np.minimum(np.minimum(f(a), f(b)), np.minimum(fc, fd))
    for _ in range(iters):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c, d = b - g * (b - a), a + g * (b - a)
        fc, fd = f(c), f(d)
        best = np.minimum(best, np.minimum(fc, fd))
    return best


def band_grid(w, base, delta, n=4001):
    """``f(k) = |1 + w q^-k|``, a grid of ``n`` values of k over the band
    where ``|w q^-k|`` lies in ``[m_lo, m_hi]``, and ``f`` on it."""
    m_lo = max(1.0 - 3.0 * delta, 0.5 * (1.0 - delta))
    m_hi = 1.0 + 3.0 * delta
    L = base.log_abs_q
    k = np.linspace((math.log(abs(w)) - math.log(m_hi)) / L,
                    (math.log(abs(w)) - math.log(m_lo)) / L, n)

    def f(kk):
        return np.abs(1.0 + w * np.exp(-kk * base.log_q))

    return f, k, f(k)


def true_min_distance(w, base, delta):
    """Min over real k of ``|1 + w q^-k|``, capped at the band floor
    ``min(1 - m_lo, m_hi - 1)`` (outside the band no value lies below
    it): every local minimum of a fine grid over the band is polished by
    golden-section search on its two neighbouring cells, and the least is
    taken.  Uses no qgevrey numerics."""
    f, k, v = band_grid(w, base, delta)
    pad = np.concatenate([[np.inf], v, [np.inf]])
    basins = np.flatnonzero((v <= pad[:-2]) & (v <= pad[2:]))
    lo = k[np.maximum(basins - 1, 0)]
    hi = k[np.minimum(basins + 1, k.size - 1)]
    return min(float(golden_min(f, lo, hi).min()), 3.0 * delta,
               1.0 - max(1.0 - 3.0 * delta, 0.5 * (1.0 - delta)))


def mp_ray_min_distance(w, base, delta):
    """Capped min over real k of ``|1 + w q^-k|`` at a real base, at 50
    digits: the distance from -1 to the ray ``{t u : t > 0}``,
    ``u = w / |w|``, is ``|1 + t* u|`` with ``t* = max(-Re u, 0)``, and
    the spiral reaches ``t* u`` at ``k* = log(|w| / t*) / log q``, where
    its value is checked to be that distance.  The cap is ``min(1 - m_lo,
    m_hi - 1)`` taken exactly on the float band ends.  Returns an mpf."""
    with mpmath.workdps(50):
        wm = mpmath.mpc(w)
        u = wm / abs(wm)
        t = max(-u.real, mpmath.mpf(0))
        near = abs(1 + t * u)
        if t > 0:
            k = mpmath.log(abs(wm) / t) / mpmath.log(mpmath.mpf(base.q.real))
            assert abs(abs(1 + wm * mpmath.mpf(base.q.real) ** -k) - near) \
                <= mpmath.mpf(10) ** -45
        m_lo = max(1.0 - 3.0 * delta, 0.5 * (1.0 - delta))
        m_hi = 1.0 + 3.0 * delta
        return min(near, 1 - mpmath.mpf(m_lo), mpmath.mpf(m_hi) - 1)


class TestClearanceOracle:
    """spiral_min_distance against references that use none of its code."""

    @pytest.mark.parametrize("q", [2.0, 1.5, math.exp(1.0 / 16.0)],
                             ids=["2", "1.5", "e^(1/16)"])
    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
    def test_real_base_against_mpmath(self, q, delta, rng):
        b = QBase(q)
        offsets = np.logspace(-16.0, -12.0, 9)
        angles = np.concatenate([
            rng.uniform(0.0, 2.0 * math.pi, 60),
            math.pi + offsets, math.pi - offsets,   # arg w within 1e-12 of pi
            [0.5 * math.pi, -0.5 * math.pi]])
        ws = rng.uniform(0.05, 20.0, angles.size) * np.exp(1j * angles)
        ws = np.concatenate([
            ws, [3.0j, -0.25j, 1e-3j],              # Re w = 0
            [-1.0, -0.3, -7.5, complex(-2.0, -0.0)],  # negative real w
            [1.0, 0.2 + 0.0j]])
        # the closed form: no scan
        with mock.patch.object(qgeometry, "_scan_candidates",
                               side_effect=AssertionError("scanned")):
            got = spiral_min_distance(ws, b, delta)
            single = [spiral_min_distance(complex(w), b, delta) for w in ws]
        assert got.tolist() == single
        with mpmath.workdps(50):
            # the stated margin is three machine epsilons (relative); with
            # the rounding it covers, a result lies within six below
            low = 1 - 6 * mpmath.mpf(2) ** -52
            for w, g in zip(ws, got):
                want = mp_ray_min_distance(complex(w), b, delta)
                assert want * low <= mpmath.mpf(g) <= want, (w, g)
        assert (got[-6:-2] == 0.0).all()

    def test_real_q_on_a_spiral_branch_is_scanned(self, rng):
        # q = 2 with log q = log 2 + 2 pi i: w q^-k turns once per level,
        # a true spiral, so the result comes from the scan
        b = QBase(2.0, log_q=complex(math.log(2.0), 2.0 * math.pi))
        ws = rng.uniform(0.3, 3.0, 40) * np.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi, 40))
        with mock.patch.object(qgeometry, "_scan_candidates",
                               wraps=qgeometry._scan_candidates) as scan:
            got = spiral_min_distance(ws, b, 0.2)
        assert scan.call_count == 1
        want = np.array([true_min_distance(w, b, 0.2) for w in ws])
        assert (got <= want + 1e-15).all()
        assert (want - got).max() <= 1e-12
        # and not the ray's value: the spiral comes nearer to -1
        assert (got < closed_form_real(ws, 0.2) - 1e-3).any()

    @pytest.mark.parametrize("q", [2.0, math.exp(1.0 / 16.0)])
    @pytest.mark.parametrize("delta", [0.2, 0.05])
    def test_real_base_closed_form(self, q, delta, rng):
        b = QBase(q)
        angles = np.concatenate([
            np.linspace(0.0, 2.0 * math.pi, 1441),
            math.pi + np.logspace(-12.0, -1.0, 45) * rng.choice([-1, 1], 45)])
        ws = rng.uniform(0.05, 20.0, angles.size) * np.exp(1j * angles)
        got = spiral_min_distance(ws, b, delta)
        want = closed_form_real(ws, delta)
        # a certified lower bound: never above the minimum, and exact to
        # rounding (the closed form, lowered by a few ulp)
        assert (got <= want + 1e-15).all()
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("q", [1.0645 * cmath.exp(0.05j),
                                   1.5 * cmath.exp(0.2j),
                                   cmath.exp(1.0 / 16.0 + 0.3j)])
    def test_equal_depth_basins_lower_bound(self, q):
        # where the deepest basin jumps along the spiral, two basins are
        # equally deep; on either side of that angle the deeper one may
        # not hold the least grid value (at e^{1/16+0.3i}, refining only
        # the least grid value's bracket overshoots the minimum by 2.4e-8
        # at an offset of 1.5e-6 rad), and the result must stay below the
        # true minimum anyway
        b = QBase(q)

        def where(a):
            # the k of the deepest basin, to a fine grid's spacing
            f, k, v = band_grid(cmath.exp(1j * a), b, 0.2)
            return k[np.argmin(v)]

        angles = np.linspace(0.0, 2.0 * math.pi, 721)
        ks = np.array([where(a) for a in angles])
        jump = 10.0 * k_step(b, 1e-3)
        ties = []
        for j in np.flatnonzero(np.abs(np.diff(ks)) > jump):
            lo, hi = angles[j], angles[j + 1]
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if abs(where(mid) - ks[j]) <= jump:
                    lo = mid
                else:
                    hi = mid
            # a jump that survives the bisection, not a fast slide
            if abs(where(hi) - where(lo)) > jump:
                ties.append(lo)
        assert ties
        d = np.logspace(-13.0, -3.0, 61)
        for tie in ties:
            ws = on_circle(tie + np.concatenate([-d, [0.0], d]))
            got = spiral_min_distance(ws, b, 0.2)
            want = np.array([true_min_distance(w, b, 0.2) for w in ws])
            assert (got <= want + 1e-15).all(), (tie, np.max(got - want))
            assert (want - got).max() <= 1e-12
