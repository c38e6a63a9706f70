import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from qgevrey import (ConvergenceError, DomainError, QBase, QuadSettings,
                     log_theta, pi_q, q_laplace, truncation_window)
from qgevrey.qlaplace import q_laplace_batch
from qgevrey.qlaplace import _negligible

TIGHT = QuadSettings(abs_tol=1e-12)


def reference_transform(F, lam, z, base, s_lo=-45.0, s_hi=45.0, step=1e-4):
    """Independent oracle: one-shot fine-step Simpson over a padded window."""
    n = int(round((s_hi - s_lo) / step))
    if n % 2 == 1:
        n += 1
    s = np.linspace(s_lo, s_hi, n + 1)
    pts = np.exp(s * base.log_q) * lam
    vals = F(pts) * np.exp(-log_theta(pts / z, base))
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = s[1] - s[0]
    return base.log_q / pi_q(base) * (h / 3.0) * complex(np.dot(w, vals))


class TestTruncationWindow:
    def test_halving_tolerance_grows_window_slightly(self, base2):
        w1 = truncation_window(1.0, 2.0, base2, 1e-8)
        w2 = truncation_window(1.0, 2.0, base2, 5e-9)
        assert w2[0] <= w1[0] and w2[1] >= w1[1]
        assert (w1[0] - w2[0]) + (w2[1] - w1[1]) < 2.0

    @pytest.mark.parametrize("q", [2.0, 1.5 * cmath.exp(0.2j)],
                             ids=["2", "1.5e^0.2i"])
    def test_bounded_numerator_negligible_at_first_window_ends(self, q):
        # the kernel's Gaussian alone closes the window for a bounded
        # numerator: at both ends of the first window the integrand, with
        # 1/theta from the mpmath series, is below the probe's threshold
        base = QBase(q)
        pref = abs(base.log_q / pi_q(base))
        tol = 1e-10
        lam = cmath.exp(0.3j)
        for z in (2.0 * lam, 0.05 * lam, 40.0 * lam * cmath.exp(0.4j)):
            s_lo, s_hi = truncation_window(lam, z, base, tol)
            for F in (lambda x: 1.0, lambda x: 1.0 / (1.0 + x)):
                for s in (s_lo, s_hi):
                    x = lam * cmath.exp(s * base.log_q)
                    with mp.workdps(30):
                        inv = complex(mp_inv_theta(mp.mpc(x / z),
                                                   mp.mpc(base.q)))
                    assert pref * abs(F(x) * inv) < _negligible(tol, s_lo,
                                                                s_hi), (q, z)

    def test_growth_past_kernel_limit_raises_before_halving(self, base2):
        # F = exp(log^2 x) outgrows the kernel's exp(-log^2|x| / (2 log 2)):
        # the coarse pass widens the window every round, then reports the
        # block instead of handing a window it could not close to the
        # halvings.  Clipped at exp(700) F would stay finite but decay
        # again with the kernel by s ~ 50, where the window closes;
        # unclipped it overflows, and the overflowing (NaN) ends count as
        # not negligible.
        from qgevrey.qlaplace import PROBE_ROUNDS
        calls = []

        def F(x):
            calls.append(x.copy())
            return np.exp(np.log(np.abs(x)) ** 2)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError) as err:
                q_laplace(F, 1.0, 2.0, base2, TIGHT)
        assert err.value.block == 0
        message = str(err.value)
        assert message.startswith("integrand of block 0 is not negligible at "
                                  "the ends of its window [")
        assert ("after %d probe rounds (largest end value nan, threshold "
                % PROBE_ROUNDS) in message
        assert message.endswith("): it grows as fast as the kernel decays "
                                "or is not finite there")
        # the whole first window, then the new cells on each side of every
        # widening round, each node once: no halving
        assert len(calls) == 1 + 2 * (PROBE_ROUNDS - 1)
        units = 2.0 * np.log2(np.concatenate(calls).real)  # s / h0
        assert np.max(np.abs(units - np.rint(units))) < 1e-9
        assert np.array_equal(np.sort(np.rint(units)),
                              np.arange(units.min().round(),
                                        units.max().round() + 1))


class TestQLaplace:
    def test_zero_function(self, base2):
        val = q_laplace(lambda x: np.zeros_like(x), 1.0, 2.0, base2,
                        TIGHT)
        assert val == 0.0

    def test_linearity(self, base2):
        F = lambda x: 1.0 / (1.0 + x)
        G = lambda x: x / (1.0 + x) ** 2
        a, b = 2.0 - 1.0j, 0.5 + 0.25j
        sab = q_laplace(lambda x: a * F(x) + b * G(x), 1.0, 2.0, base2,
                        TIGHT)
        s1 = q_laplace(F, 1.0, 2.0, base2, TIGHT)
        s2 = q_laplace(G, 1.0, 2.0, base2, TIGHT)
        assert abs(sab - (a * s1 + b * s2)) <= 2.0 * TIGHT.abs_tol * (
            1.0 + abs(a) + abs(b))

    def test_constant_against_fine_oracle(self, base2):
        oracle = reference_transform(lambda x: np.ones_like(x), 1.0, 2.0,
                                     base2)
        val = q_laplace(lambda x: np.ones_like(x), 1.0, 2.0, base2,
                        TIGHT)
        assert abs(val - oracle) < 1e-11

    def test_unsafe_point_rejected(self, base2):
        # lam/z on the negative ray meets the kernel zero spiral: the
        # stated domain precondition fails and must be reported before
        # any integration happens
        with pytest.raises(DomainError) as err:
            q_laplace(lambda x: np.ones_like(x), 1.0, -2.0, base2,
                      TIGHT)
        assert err.value.membership == "theta_safe"


def mp_halves(r, lam, z, q, num=None):
    """Independent oracle: the outward (s >= 0) and inward (s <= 0) halves
    of the transform of ``F(x) = x / (1 + x)^r`` (or of ``num(x)``, an
    mpmath function) by ``mpmath.quad`` (Gauss-Legendre, 20 digits) on
    half-lines split around the integrand's peak; ``1/theta`` is the series
    summed around its largest term and ``log q / pi_q`` the product
    ``prod_{n>=1} (1 - q^{-n})``."""
    if num is None:
        num = lambda x: x / (1 + x) ** r
    with mp.workdps(20):
        q, lam, z = mp.mpf(q), mp.mpc(lam), mp.mpc(z)
        log_q = mp.log(q)

        def inv_theta(x):
            c = int(mp.nint(mp.log(abs(x)) / log_q + 0.5))
            peak = q ** (-mp.mpf(c) * (c - 1) / 2) * x**c
            total, up, down = peak, peak, peak
            for j in range(1, 16):
                up = up * x / q ** (c + j - 1)
                down = down * q ** (c - j) / x
                total += up + down
            return 1 / total

        def f(s):
            x = lam * q**s
            return num(x) * inv_theta(x / z)

        s0 = float(mp.log(abs(z / lam)) / log_q)
        marks = [s0 + d for d in range(-12, 13, 3)]
        outward = [0.0] + [m for m in marks if m > 0] + [mp.inf]
        inward = [-mp.inf] + [m for m in marks if m < 0] + [0.0]
        pref = mp.nprod(lambda n: 1 - q ** (-n), [1, mp.inf])
        return (complex(pref * mp.quad(f, outward, method="gauss-legendre")),
                complex(pref * mp.quad(f, inward, method="gauss-legendre")))


@pytest.fixture(scope="module")
def demo_points(demo_cfg):
    """(lam, z, F, outward and inward oracle halves) at the middle of demo
    charts 20, 21 and 0, t = 0.7, for ``F(x) = x / (1 + x)^r``, r = 1, 2."""
    assert demo_cfg.base.q == 2.0
    out = []
    for idx in (20, 21, 0):
        sc = demo_cfg.chart_solution(idx)
        eps = (np.exp(2j * math.pi * sc.chart.u_mid)
               * demo_cfg.base.q ** sc.chart.v_mid)
        z = complex(eps * 0.7)
        for r in (1, 2):
            F = (lambda rr: lambda x: x / (1.0 + x) ** rr)(r)
            out.append((sc.lam, z, F, *mp_halves(r, sc.lam, z, 2.0)))
    return out


class TestMpmathOracle:
    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-12])
    def test_full_line(self, demo_cfg, demo_points, abs_tol):
        settings = QuadSettings(abs_tol=abs_tol)
        for lam, z, F, p_ref, m_ref in demo_points:
            val = q_laplace(F, lam, z, demo_cfg.base, settings)
            assert abs(val - (p_ref + m_ref)) <= abs_tol, (lam, z)


def trapezoid_changes(levels, h0):
    """The changes ``d_l = |T(h0 2^-l) - T(h0 2^-(l-1))|`` of a one-block
    :func:`path_integral` from its recorded calls, one per level: the
    coarse grid, then each halving's midpoints."""
    (_, coarse), *halvings = levels
    acc = coarse.sum() - 0.5 * (coarse[0] + coarse[-1])
    trap, changes = h0 * acc, []
    for level, (_, mid) in enumerate(halvings, 1):
        acc += mid.sum()
        changes.append(abs(h0 * 2.0 ** -level * acc - trap))
        trap = h0 * 2.0 ** -level * acc
    return changes


def record_levels(monkeypatch):
    """The nodes and values of every integrand call :func:`qlaplace._sweep`
    makes, one row per node: a list of ``(s, values)``."""
    from qgevrey import qlaplace
    levels = []
    original = qlaplace._sweep

    def recorded(rows, *args):
        def counted(s, block):
            vals = rows(s, block)
            levels.append((s.copy(), np.array(vals).reshape(-1)))
            return vals
        return original(counted, *args)

    monkeypatch.setattr(qlaplace, "_sweep", recorded)
    return levels


class TestPredictedStop:
    @pytest.mark.parametrize("abs_tol", [1e-8, 1e-10, 1e-12])
    def test_predicted_stop_meets_tolerance(self, demo_cfg, demo_points,
                                            abs_tol, monkeypatch):
        # on the coarse lattice h0 = 1 some blocks settle by d_l^2 < abs_tol
        # d_{l-1} while their last change d_l is still above abs_tol (up
        # to 4.9e-7 at abs_tol 1e-8): the mpmath oracle puts their true
        # error below abs_tol all the same
        from qgevrey.qlaplace import _coarse_step
        settings = QuadSettings(abs_tol=abs_tol, initial_step=0.5)
        h0 = _coarse_step(settings)
        levels = record_levels(monkeypatch)
        predicted = 0
        for lam, z, F, p_ref, m_ref in demo_points:
            levels.clear()
            value = q_laplace(F, lam, z, demo_cfg.base, settings)
            # one coarse call (no window widens), then one per halving
            assert np.all(levels[0][0] % h0 == 0)
            assert not np.any(levels[1][0] % h0 == 0)
            *_, d_prev, d = trapezoid_changes(levels, h0)
            if d >= abs_tol:
                assert d < d_prev and d * d < abs_tol * d_prev
                predicted += 1
            assert abs(value - (p_ref + m_ref)) <= abs_tol, (lam, z)
        assert predicted >= 2


class TestWindowWidening:
    def test_widened_window_against_mpmath(self, base2, monkeypatch):
        # F = exp(0.3 log^2|x| / (2 log 2)) grows at 0.3 of the kernel's
        # limit; at z = 2^8 its amplitude keeps the first window's ends
        # above the threshold, and the coarse pass widens it once, 16 new
        # cells on each side.  It evaluates each node of the final window
        # once, 89 node-columns, where a separate probe of both ends per
        # round before a coarse pass over the final window took 2 + 2 +
        # 89; the value agrees with mpmath within abs_tol.
        from qgevrey.qlaplace import _coarse_step
        settings = QuadSettings(abs_tol=1e-10)
        h0 = _coarse_step(settings)
        log_q = base2.log_abs_q
        levels = record_levels(monkeypatch)
        value = q_laplace(lambda x: np.exp(0.3 * np.log(np.abs(x)) ** 2
                                           / (2.0 * log_q)),
                          1.0, 256.0, base2, settings)
        coarse = [s for s, _ in levels if np.all(s % h0 == 0)]
        assert [s.size for s in coarse] == [57, 16, 16]
        nodes = np.sort(np.concatenate(coarse))
        assert np.all(np.diff(nodes) == h0)
        probe_and_coarse = 2 * 2 + nodes.size
        assert sum(s.size for s in coarse) < probe_and_coarse
        num = lambda x: mp.exp(0.3 * mp.log(abs(x)) ** 2 / (2 * mp.log(2)))
        ref = sum(mp_halves(None, 1.0, 256.0, 2.0, num=num))
        assert abs(value - ref) <= settings.abs_tol


class TestBatch:
    def test_batch_equals_one_block_calls(self, base2):
        # two blocks of two rows in one batch: each entry agrees with its
        # one-block, one-row call within abs_tol (a block's rows settle
        # together, and its support is the union of its rows')
        settings = QuadSettings(abs_tol=1e-10)
        lams = [1.0, cmath.exp(0.3j)]
        zs = [2.0, 0.7 * cmath.exp(0.3j)]
        fs = [lambda x: 1.0 / (1.0 + x), lambda x: x / (1.0 + x) ** 2]
        got = q_laplace_batch(lambda x, block: np.stack([f(x) for f in fs]),
                              lams, zs, base2, settings, 2)
        assert got.shape == (2, 2)
        for b, (lam, z) in enumerate(zip(lams, zs)):
            for r, f in enumerate(fs):
                want = q_laplace(f, lam, z, base2, settings)
                assert abs(got[b, r] - want) <= settings.abs_tol, (b, r)

    def test_unsafe_point_named(self, base2):
        with pytest.raises(DomainError) as err:
            q_laplace_batch(lambda x, block: x, [1.0, 1.0], [2.0, -2.0],
                            base2, TIGHT)
        assert err.value.membership == "theta_safe"
        assert str(err.value).startswith("z = (-2+0j) is not theta-safe")


class TestCommutation:
    def test_polynomial_family(self, base2):
        # multiplication by the integration variable trades for a dilation
        # of the evaluation point: T(tau phi)(t) = t T(phi)(q t)
        settings = QuadSettings(abs_tol=1e-10)
        t0 = 1.7
        for j, r in ((0, 1), (1, 2), (2, 3), (0, 2), (3, 4)):
            phi = (lambda jj, rr: lambda x: x**jj / (1.0 + x) ** rr)(j, r)
            mphi = (lambda jj, rr: lambda x: x ** (jj + 1)
                    / (1.0 + x) ** rr)(j, r)
            lhs = q_laplace(mphi, 1.0, t0, base2, settings)
            rhs = t0 * q_laplace(phi, 1.0, 2.0 * t0, base2, settings)
            assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1e-12)


class TestDirectionRobustness:
    def test_same_ray_reparameterization(self, base2):
        # directions on one q-ray parameterize the same path
        F = lambda x: 1.0 / (1.0 + x)
        lam = 1.2 * cmath.exp(0.3j)
        v1 = q_laplace(F, lam, 2.0 * cmath.exp(0.3j), base2, TIGHT)
        v2 = q_laplace(F, lam * qpow_half(base2), 2.0 * cmath.exp(0.3j),
                       base2, TIGHT)
        assert abs(v1 - v2) <= 20.0 * TIGHT.abs_tol


def qpow_half(base: QBase) -> complex:
    return cmath.exp(0.5 * base.log_q)


class TestStepHalvingConvergence:
    def test_tightening_tolerance_is_cauchy(self, base2):
        F = lambda x: x / (1.0 + x) ** 2
        vals = [q_laplace(F, 1.0, 2.0, base2,
                          QuadSettings(abs_tol=tol))
                for tol in (1e-6, 1e-8, 1e-10, 1e-12)]
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert diffs[0] <= 1e-6
        assert diffs[-1] <= 1e-8

    def test_non_convergence_reported(self, base2):
        from qgevrey import ConvergenceError

        def jump(x):
            # a discontinuity on the path caps the trapezoid sums at
            # first order: they do not settle in three halvings
            return (np.abs(x) > 1.1).astype(float)

        with pytest.raises(ConvergenceError) as err:
            q_laplace(jump, 1.0, 2.0, base2,
                      QuadSettings(abs_tol=1e-10, max_halvings=3))
        assert err.value.last is not None
        assert err.value.previous is not None
        # the two most recent levels, not one level reported twice
        assert abs(err.value.last - err.value.previous) >= 1e-10


class TestQuadSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadSettings(initial_step=0.75)
        with pytest.raises(ValueError):
            QuadSettings(max_halvings=2)
        for bad in ({"initial_step": 0.0}, {"initial_step": -1.0},
                    {"initial_step": math.nan}, {"abs_tol": math.inf},
                    {"max_halvings": math.inf}):
            with pytest.raises(ValueError):
                QuadSettings(**bad)


def mp_inv_theta(x, q):
    """``1 / theta(x)`` in mpmath: the two-sided series summed around its
    largest term until the terms fall below 1e-40 of it."""
    log_q = mp.log(q)
    c = int(mp.nint(mp.re(mp.log(x) / log_q) + 0.5))
    peak = q ** (-mp.mpf(c) * (c - 1) / 2) * x**c
    total, up, down = peak, peak, peak
    for j in range(1, 60):
        up = up * x / q ** (c + j - 1)
        down = down * q ** (c - j) / x
        total += up + down
        if abs(up) + abs(down) < 1e-40 * abs(peak):
            break
    return 1 / total


class TestLatticeKernel:
    """:func:`qlaplace.kernel`: theta summed once per residue class of
    ``s mod 1`` and each node assembled by the shift relation."""

    @pytest.mark.parametrize("n", [0, 20, 30])
    def test_against_mpmath_near_peak(self, demo_cfg, n):
        # along eps0 q^-n, |z| shrinks like 2^-n: the anchor keeps the
        # shift m small near the kernel's peak, where a residue summed at
        # |y| ~ 2^n would lose digits to the shift
        from qgevrey.qlaplace import kernel
        base = demo_cfg.base
        assert base.q == 2.0
        sc = demo_cfg.chart_solution(20)
        eps = (np.exp(2j * math.pi * sc.chart.u_mid)
               * base.q ** (sc.chart.v_mid - n))
        z = complex(eps * 0.7)
        peak = math.log(abs(z / sc.lam)) / base.log_abs_q
        s = np.floor(peak) + np.arange(-48, 49) / 16.0
        got = kernel(base, [sc.lam], [z])(s, np.zeros(s.size, dtype=int))
        with mp.workdps(40):
            q, lam, zz = mp.mpf(2), mp.mpc(sc.lam), mp.mpc(z)
            want = [complex(mp_inv_theta(q ** mp.mpf(si) * lam / zz, q))
                    for si in s]
        assert np.max(np.abs(got / want - 1.0)) <= 2e-14

    def test_agrees_with_log_theta_per_node(self, bases, rng):
        from qgevrey.qlaplace import kernel
        for base in bases:
            lam = complex(1.3 * np.exp(0.4j))
            for _ in range(3):
                z = complex(rng.uniform(0.01, 50.0)
                            * np.exp(1j * (0.4 + rng.uniform(-0.3, 0.3))))
                anchor = math.floor(math.log(abs(z / lam)) / base.log_abs_q)
                # two blocks of one call: coarse grid and midpoints
                s0 = anchor - 25 + np.arange(0.0, 50.0, 0.5)
                s1 = anchor - 25 + 0.125 + np.arange(0.0, 50.0, 0.25)
                s = np.concatenate([s0, s1])
                block = np.repeat([0, 1], [s0.size, s1.size])
                got = kernel(base, [lam, lam], [z, z])(s, block)
                want = np.exp(-log_theta(np.exp(s * base.log_q) * lam / z,
                                         base))
                near = np.abs(np.floor(s) - anchor) <= 25
                assert near.sum() > 200
                rel = np.abs(got[near] / want[near] - 1.0)
                assert np.max(rel) <= 2e-13, base

    def test_nodes_on_nested_dyadic_lattice(self, base2, monkeypatch):
        # every node reaching the integrand is a multiple of h0 2^-l: the
        # coarse grid's nodes (and so the window's ends) are multiples of
        # h0, and halving l adds the odd multiples of h0 2^-l.  A
        # discontinuous F keeps the block open through every level: the
        # coarse grid and max_halvings = 4 halvings.
        from qgevrey import ConvergenceError
        settings = QuadSettings(abs_tol=1e-10, initial_step=0.2,
                                max_halvings=4)
        h0 = 0.25  # the largest power of two at most 2 * 0.2
        F = lambda x: (np.abs(x) > 1.1).astype(float)
        levels = record_levels(monkeypatch)
        with pytest.raises(ConvergenceError):
            q_laplace(F, 1.0, 2.0, base2, settings)
        seen = [s for s, _ in levels]
        assert len(seen) == 5
        assert np.all(np.diff(seen[0]) == h0)
        for level, s in enumerate(seen):
            units = s / (h0 * 2.0 ** -level)
            assert np.array_equal(units, np.round(units))
            if level:
                assert np.all(units % 2 == 1)
        assert np.unique(np.concatenate(seen)).size == sum(map(len, seen))


def record_sweep_calls(monkeypatch):
    """The node count of every integrand call :func:`qlaplace._sweep` makes."""
    from qgevrey import qlaplace
    sizes = []
    original = qlaplace._sweep

    def recorded(rows, *args):
        def counted(s, block):
            sizes.append(s.size)
            return rows(s, block)
        return original(counted, *args)

    monkeypatch.setattr(qlaplace, "_sweep", recorded)
    return sizes


class TestSweepCap:
    def test_large_block_split_across_calls(self, demo_cfg, monkeypatch):
        # with a small BLOCK (a cap of 4 BLOCK = 1024 values, 39 nodes of
        # 26 orders) a block's levels exceed the cap: they are split
        # across calls, none above the cap, and the pieces' sums (the
        # coarse grid's ends half-weighted once) give the block
        from qgevrey import qlaplace
        from qgevrey.solution import _transform_blocks
        chart = demo_cfg.covering.charts[20]
        eps = (np.exp(2j * math.pi * chart.u_mid)
               * demo_cfg.base.q ** chart.v_mid)
        keys = [(eps, 0.7), (eps, 0.6 - 0.2j)]
        whole = demo_cfg.chart_solution(20)
        cap = (1 << 10) // (whole.beta_max + 1)
        sizes = record_sweep_calls(monkeypatch)
        wants = _transform_blocks([(whole, key) for key in keys])
        assert max(sizes) > cap
        sizes.clear()
        monkeypatch.setattr(qlaplace, "BLOCK", 1 << 8)
        split = demo_cfg.chart_solution(20)
        gots = _transform_blocks([(split, key) for key in keys])
        assert max(sizes) <= cap
        for got, want in zip(gots, wants):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_unsettled_block_stays_under_cap(self, demo_cfg, monkeypatch):
        # a block near the kernel's pole spiral that has not settled after
        # its 4 halvings: with a cap of 4 BLOCK = 8192 values (315 nodes
        # of 26 orders) its last level (336 nodes, the midpoints of its
        # support) is split, not one call
        from qgevrey import ConvergenceError, qlaplace
        from qgevrey.solution import _transform_blocks
        monkeypatch.setattr(qlaplace, "BLOCK", 1 << 11)
        sc = demo_cfg.chart_solution(20, quad=QuadSettings(abs_tol=1e-10,
                                                           max_halvings=4),
                                     delta=0.02)
        eps = (np.exp(2j * math.pi * sc.chart.u_mid)
               * demo_cfg.base.q ** sc.chart.v_mid)
        sizes = record_sweep_calls(monkeypatch)
        with pytest.raises(ConvergenceError):
            _transform_blocks([(sc, (eps, complex(0.7 * np.exp(1.01j))))])
        cap = (1 << 13) // (sc.beta_max + 1)
        assert max(sizes) == cap and sizes[-2:] == [cap, 336 - cap]
