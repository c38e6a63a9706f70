import json
import math
import struct
import warnings

import numpy as np
import pytest

from qgevrey import (CoefficientEvaluator, DomainError,
                     InitialData, InitialTerm, QBase, QuadSettings,
                     equation_residual, equation_residuals, evaluate_solution,
                     extract_coefficients, fit_log_decay, flatness_fit,
                     flatness_from_null_expansion,
                     initial_condition, log_theta, null_expansion_envelope,
                     pi_q, qpow, transform_decay_fit, young_conjugate)
from qgevrey.config import load_shipped_config
from qgevrey.covering import overlap_point
from qgevrey.problem import CauchyProblem, ProblemTerm
from qgevrey.solution import _residual_keys, _solution_samples, \
    _transform_blocks, check_point, eps_sequence, extract_from_samples, \
    extraction_levels

TIGHT = QuadSettings(abs_tol=1e-12, max_halvings=16)


@pytest.fixture(scope="module")
def demo():
    return load_shipped_config("demo")


@pytest.fixture(scope="module")
def chart20(demo):
    return demo.chart_solution(20, quad=TIGHT)


@pytest.fixture(scope="module")
def eps20(demo):
    return overlap_point(demo.covering.charts[20], demo.covering.charts[21],
                         demo.base)


def zero_problem_chart(demo):
    problem = CauchyProblem(
        s_order=1,
        terms=(ProblemTerm(k=0, m0=1, m1=2, coeffs=((0, (0j,)),)),))
    ev = CoefficientEvaluator(problem=problem, initial=demo.initial,
                              base=demo.base)
    return demo.chart_solution(20, evaluator=ev, quad=TIGHT)


class TestEvaluateSolution:
    def test_z_zero_is_order_zero_transform(self, demo, chart20, eps20):
        val = evaluate_solution(chart20, eps20, 0.7, 0.0)
        phi0 = initial_condition(chart20, 0, eps20, 0.7)
        assert val.value == phi0  # the same transform block

    def test_zero_data_gives_zero(self, demo, eps20):
        problem = demo.problem
        zero_data = InitialData(components=((InitialTerm(c=0j),),))
        ev = CoefficientEvaluator(problem=problem, initial=zero_data,
                                  base=demo.base)
        sc = demo.chart_solution(20, evaluator=ev, quad=TIGHT)
        val = evaluate_solution(sc, eps20, 0.7, 0.3)
        assert abs(val.value) < 1e-12

    def test_end_to_end_closed_form_oracle(self, demo, chart20, eps20):
        # independent pipeline: closed-form coefficients summed through a
        # one-shot fine-step Simpson rule on a generous window
        base = demo.base
        t, z = 0.7, 0.3
        lam = chart20.lam
        zz = eps20 * t
        s = np.linspace(-45.0, 45.0, 360001)
        tau = np.exp(s * base.log_q) * lam
        kern = np.exp(-log_theta(tau / zz, base))
        w = np.ones(len(s))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        h = s[1] - s[0]
        pref = base.log_q / pi_q(base)
        ratio = tau / ((tau + 1.0) * eps20)
        oracle = 0j
        work = np.ones_like(tau)
        for beta in range(26):
            c_beta = pref * (h / 3.0) * complex(np.dot(w, work * kern))
            oracle += c_beta * z**beta / math.factorial(beta)
            work = work * ratio * 2.0 ** (-2.0 * beta)
        got = evaluate_solution(chart20, eps20, t, z)
        assert abs(got.value - oracle) < 5e-11

    def test_outside_spiral_rejected(self, chart20):
        with pytest.raises(DomainError) as err:
            evaluate_solution(chart20, 0.9, 0.7, 0.3)
        assert err.value.membership == "discrete_spiral"

    @pytest.mark.parametrize("call", ["evaluate_solution",
                                      "equation_residual",
                                      "initial_condition"])
    def test_off_spiral_eps_names_the_chart(self, demo, monkeypatch, call):
        # the spiral test runs once, in the transform batch every caller
        # reads, before any block is computed
        sc = demo.chart_solution(20, quad=TIGHT)
        calls = count_calls(monkeypatch, CoefficientEvaluator, "table")
        fn = {"evaluate_solution": evaluate_solution,
              "equation_residual": equation_residual,
              "initial_condition": lambda sc, eps, t, z:
                  initial_condition(sc, 0, eps, t)}[call]
        with pytest.raises(DomainError) as err:
            fn(sc, 0.9, 0.7, 0.3)
        assert err.value.membership == "discrete_spiral"
        assert "discrete spiral of chart 20" in str(err.value)
        assert calls == []

    def test_verify_residual_tests_each_chart_once(self, tmp_path,
                                                   monkeypatch):
        # one array test per chart of the batch, one entry per distinct
        # (eps, t) key; the points are not tested again one by one
        from qgevrey import solution
        from qgevrey.cli import main
        from qgevrey.config import shipped_config_text
        cfg = tmp_path / "demo.json"
        cfg.write_text(shipped_config_text("demo"))
        calls = count_calls(monkeypatch, solution, "in_discrete_spiral")
        assert main(["verify", "residual", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 0
        charts = [chart for eps, chart, base in calls]
        assert len(charts) == len(set(charts))
        n_points = json.loads(shipped_config_text("demo"))[
            "sampling"]["residual"]["n_points"]
        assert sum(np.size(eps) for eps, chart, base in calls) \
            == 2 * n_points  # keys t and q t: the demo's one term has m0 = 1

    def test_unsafe_kernel_point_rejected(self, demo, chart20, eps20):
        # rotate t so that eps*t aligns with the direction's pole spiral
        bad_t = -0.7 * chart20.lam / abs(chart20.lam) \
            / (eps20 / abs(eps20))
        with pytest.raises(DomainError) as err:
            evaluate_solution(chart20, eps20, bad_t, 0.3)
        assert err.value.membership == "theta_safe"

    def test_tail_estimate_bounds_truncation_change(self, demo, eps20):
        sc25 = demo.chart_solution(20, quad=TIGHT, beta_max=25)
        sc32 = demo.chart_solution(20, quad=TIGHT, beta_max=32)
        v25 = evaluate_solution(sc25, eps20, 0.7, 0.45)
        v32 = evaluate_solution(sc32, eps20, 0.7, 0.45)
        assert abs(v32.value - v25.value) <= v25.tail_estimate + 8e-12

    def test_t_patch_warning(self, demo, chart20, eps20):
        val = evaluate_solution(chart20, eps20, 0.2, 0.3)  # |t| below patch
        assert any("patch" in w for w in val.warnings)

    # the README's solve point: demo chart 20 with its shipped quadrature
    README_EPS = -0.58249 + 0.70411j

    def test_z_beyond_double_powers_raises(self, demo):
        # |z|^26 = 1e338 at beta_max = 25: summed, the powers z^beta would
        # overflow to nan+nanj with numpy RuntimeWarnings
        sc = demo.chart_solution(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1e13, 1e30j):
                with pytest.raises(DomainError, match="beta_max = 25") as err:
                    evaluate_solution(sc, self.README_EPS, 0.7, z)
                assert err.value.membership == "z_range"
                assert "z = %s" % (z,) in str(err.value)

    def test_value_at_readme_point_pinned(self, demo):
        value = evaluate_solution(demo.chart_solution(20), self.README_EPS,
                                  0.7, 0.3).value
        assert (value.real.hex(), value.imag.hex()) == (
            "0x1.496a7691e1826p-2", "-0x1.6052edb4f866cp-5")


def oracle_block(demo, lam, eps, t, step=1.0 / 32.0, s_max=30.0):
    """Transforms of the demo's closed-form coefficients
    ``W_h = (tau / ((tau + 1) eps))^h q^{-h(h-1)}``, h <= beta_max, by the
    trapezoid rule on ``[-s_max, s_max]``.  ``1/theta`` sums the two-sided
    series term by term around its largest term and ``log q / pi_q`` is
    the product ``prod_{n>=1} (1 - q^{-n})``; no qgevrey numerics."""
    term = demo.problem.terms[0]
    assert (demo.problem.s_order, len(demo.problem.terms)) == (1, 1)
    assert (term.k, term.m0, term.m1, term.coeffs) == (0, 1, 2,
                                                      ((0, (1.0,)),))
    q, log_q = demo.base.q, demo.base.log_q
    s = np.arange(-s_max, s_max + step / 2, step)
    tau = lam * np.exp(s * log_q)
    log_x = np.log(tau / (eps * t))
    c = np.rint(log_x.real / log_q.real + 0.5)
    n = c[:, None] + np.arange(-20, 21)
    log_terms = -0.5 * n * (n - 1) * log_q + n * log_x[:, None]
    peak = log_terms.real.max(axis=1)
    inv_theta = np.exp(-peak) / np.exp(log_terms - peak[:, None]).sum(axis=1)
    pref = np.prod(1.0 - q ** -np.arange(1.0, 80.0))
    ratio = tau / ((tau + 1.0) * eps)
    w = np.ones_like(tau)
    out = []
    for h in range(demo.beta_max + 1):
        f = w * inv_theta
        out.append(pref * step * (f.sum() - 0.5 * (f[0] + f[-1])))
        w = w * ratio * q ** (-2.0 * h)
    return np.array(out)


class TestTransformBlockOracle:
    @pytest.mark.parametrize("abs_tol", [1e-8, 1e-12])
    def test_block_within_abs_tol(self, demo, abs_tol):
        # blocks whose halvings run on the measured support only, at t and
        # at the residual's dilated key q t
        from qgevrey.solution import _transform_block
        quad = QuadSettings(abs_tol=abs_tol, max_halvings=16)
        for idx in (20, 21, 0):
            sc = demo.chart_solution(idx, quad=quad)
            for level in (0, 2):
                eps = (np.exp(2j * math.pi * sc.chart.u_mid)
                       * demo.base.q ** (sc.chart.v_mid - level))
                for t in (0.7, demo.base.q * 0.7):
                    got = _transform_block(sc, eps, t)
                    want = oracle_block(demo, sc.lam, eps, t)
                    assert np.max(np.abs(got - want)) <= abs_tol, \
                        (idx, level, t)

    def test_node_columns_pinned(self, demo, eps20, monkeypatch):
        # node-columns of one chart-20 block at abs_tol = 1e-8, counted by
        # wrapping the integrand rows: the coarse grid on the h0 = 1/2
        # lattice (57), whose end nodes show the window closed, and two
        # halvings of the 38 coarse cells of its support (38, 76; 56, 112
        # over the whole window).  A separate window probe took 2 more
        # before the coarse grid.  The change between halvings falls
        # 5.1e-4 -> 2.4e-7, whose square is below abs_tol times 5.1e-4: the
        # predicted stop settles the block there.  Waiting for a change
        # below abs_tol took a third halving (152 nodes; its change is
        # 5.5e-14).  The growth-certificate windows took a coarse grid of
        # 62.
        import qgevrey.qlaplace as qlaplace
        import qgevrey.solution as solution
        columns = []

        def counting(fn):
            def wrapped(rows, *args, **kwargs):
                def counted(s, block):
                    columns.append(np.size(s))
                    return rows(s, block)
                return fn(counted, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(qlaplace, "path_integral",
                            counting(qlaplace.path_integral))
        sc = demo.chart_solution(20, quad=QuadSettings(abs_tol=1e-8))
        solution._transform_block(sc, eps20, 0.7)
        assert columns == [57, 38, 76]

    def test_kernel_points_pinned(self, demo, eps20, monkeypatch):
        # the same block's theta series points, one per residue of s mod 1
        # and call, not one per node: the coarse grid's residues 0 and
        # 1/2, then 2 and 4 new ones per halving (a third halving, before
        # the predicted stop, added 8; a separate window probe 2 for its
        # two ends before the coarse grid)
        from qgevrey import qlaplace
        from qgevrey.solution import _transform_block
        calls = count_calls(monkeypatch, qlaplace, "log_theta")
        sc = demo.chart_solution(20, quad=QuadSettings(abs_tol=1e-8))
        _transform_block(sc, eps20, 0.7)
        assert [np.size(x) for x, base in calls] == [2, 2, 4]


def mid_eps(demo, sc, level):
    return (np.exp(2j * math.pi * sc.chart.u_mid)
            * demo.base.q ** (sc.chart.v_mid - level))


def count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call of ``owner.name``."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestTransformBatch:
    @pytest.mark.parametrize("abs_tol", [1e-8, 1e-12])
    def test_batch_equals_one_block_calls_bitwise(self, demo, abs_tol):
        from qgevrey.solution import _transform_block, _transform_blocks
        quad = QuadSettings(abs_tol=abs_tol, max_halvings=16)
        for idx in (20, 21, 0):
            batch = demo.chart_solution(idx, quad=quad)
            keys = [(mid_eps(demo, batch, level), t)
                    for level in (0, 2) for t in (0.7, 0.6 - 0.2j)]
            blocks = _transform_blocks([(batch, key) for key in keys])
            assert blocks.shape == (len(keys), batch.beta_max + 1)
            for (eps, t), got in zip(keys, blocks):
                one = demo.chart_solution(idx, quad=quad)
                want = _transform_block(one, eps, t)
                assert np.array_equal(got, want), (idx, eps, t)

    @pytest.mark.parametrize("abs_tol", [1e-8, 1e-12])
    def test_batch_across_charts_equals_one_chart_batches_bitwise(
            self, demo, abs_tol):
        from qgevrey.solution import _transform_blocks
        quad = QuadSettings(abs_tol=abs_tol, max_halvings=16)
        charts = [demo.chart_solution(idx, quad=quad) for idx in (20, 21, 0)]
        items = [(sc, (mid_eps(demo, sc, level), t)) for sc in charts
                 for level in (0, 2) for t in (0.7, 0.6 - 0.2j)]
        blocks = _transform_blocks(items)
        for sc in charts:
            mine = [i for i, (owner, _) in enumerate(items) if owner is sc]
            one = demo.chart_solution(sc.chart_index, quad=quad)
            wants = _transform_blocks([(one, items[i][1]) for i in mine])
            assert len(wants) == 4
            for i, want in zip(mine, wants):
                assert np.array_equal(blocks[i], want), \
                    (sc.chart_index, items[i][1])

    def test_split_and_mixed_halvings_equal_one_block_calls_bitwise(
            self, demo, monkeypatch):
        # with the small cap of test_large_block_split_across_calls every
        # coarse grid is split across calls, and the blocks, some with z
        # close to the kernel's pole spiral, settle after 2, 3, 4 and 5
        # halvings: each still equals its one-block call bit for bit
        from qgevrey import qlaplace
        from qgevrey.solution import _transform_block, _transform_blocks
        monkeypatch.setattr(qlaplace, "BLOCK", 1 << 8)
        quad = QuadSettings(abs_tol=1e-12, max_halvings=16)
        batch = demo.chart_solution(20, quad=quad, delta=0.02)
        keys = [(mid_eps(demo, batch, level), 0.7 * np.exp(1j * angle))
                for level in (0, 2) for angle in (0.0, 0.8, 0.95)]
        sweeps, sizes = {}, []
        sweep = qlaplace._sweep

        def recorded(rows, blocks, *args):
            for b in blocks.tolist():
                sweeps[b] = sweeps.get(b, 0) + 1

            def counted(s, block):
                sizes.append(s.size)
                return rows(s, block)
            return sweep(counted, blocks, *args)

        monkeypatch.setattr(qlaplace, "_sweep", recorded)
        blocks = _transform_blocks([(batch, key) for key in keys])
        cap = (1 << 10) // (batch.beta_max + 1)
        assert max(sizes) == cap
        # the coarse pass, then the halvings (a separate window probe
        # took one sweep more)
        assert sorted(set(sweeps.values())) == [3, 4, 5, 6]
        monkeypatch.setattr(qlaplace, "_sweep", sweep)
        for (eps, t), got in zip(keys, blocks):
            one = demo.chart_solution(20, quad=quad, delta=0.02)
            want = _transform_block(one, eps, t)
            assert np.array_equal(got, want), (eps, t)

    def test_calls_shrinking_after_a_large_one_equal_one_block_calls_bitwise(
            self, demo, monkeypatch):
        # eight blocks settle after 2 halvings and one, z close to the
        # kernel's pole spiral, goes on alone: the first halving (the
        # midpoints of the supports) and the straggler's halvings are
        # smaller than an earlier call and read the batch's buffer, which
        # still holds that call's values.  Each block equals its one-block
        # call bit for bit: table zero-fills what it reuses.
        from qgevrey import qlaplace
        from qgevrey.solution import _transform_block, _transform_blocks
        quad = QuadSettings(abs_tol=1e-12, max_halvings=16)
        batch = demo.chart_solution(20, quad=quad, delta=0.02)
        keys = [(mid_eps(demo, batch, level), 0.7 * np.exp(1j * angle))
                for level in range(4) for angle in (0.0, 0.4)]
        keys.append((mid_eps(demo, batch, 0), 0.7 * np.exp(1.01j)))
        sizes, data = [], []
        sweep = qlaplace._sweep

        def recorded(rows, *args):
            def counted(s, block):
                vals = rows(s, block)
                sizes.append(s.size)
                data.append(vals.__array_interface__["data"][0])
                return vals
            return sweep(counted, *args)

        monkeypatch.setattr(qlaplace, "_sweep", recorded)
        blocks = _transform_blocks([(batch, key) for key in keys])
        monkeypatch.setattr(qlaplace, "_sweep", sweep)
        shrunk = [i for i in range(1, len(sizes))
                  if sizes[i] < max(sizes[:i])]
        assert len(shrunk) >= 2
        for i in shrunk:
            grown = max(j for j in range(i) if sizes[j] == max(sizes[:i]))
            assert data[i] == data[grown]
        for (eps, t), got in zip(keys, blocks):
            one = demo.chart_solution(20, quad=quad, delta=0.02)
            want = _transform_block(one, eps, t)
            assert np.array_equal(got, want), (eps, t)

    def test_batch_rejects_charts_that_differ(self, demo, monkeypatch):
        from qgevrey.solution import _transform_blocks
        sc20 = demo.chart_solution(20, quad=TIGHT)
        sc21 = demo.chart_solution(21, quad=QuadSettings(abs_tol=1e-8))
        calls = count_calls(monkeypatch, CoefficientEvaluator, "table")
        with pytest.raises(ValueError, match="charts 20 and 21 differ"):
            _transform_blocks([(sc20, (mid_eps(demo, sc20, 0), 0.7)),
                               (sc21, (mid_eps(demo, sc21, 0), 0.7))])
        assert calls == []

    def test_repeated_key_computed_once(self, demo, monkeypatch):
        # a key listed three times, once as a Python complex, and a second
        # key twice: one batch of the two distinct blocks, and the rows of
        # one key are equal, in item order
        from qgevrey import qlaplace
        sc = demo.chart_solution(20, quad=TIGHT)
        eps = mid_eps(demo, sc, 0)
        keys = [(eps, 0.7), (eps, 0.6), (complex(eps), 0.7 + 0j), (eps, 0.6),
                (eps, 0.7)]
        windows = count_calls(monkeypatch, qlaplace, "truncation_window")
        blocks = _transform_blocks([(sc, key) for key in keys])
        assert [np.size(lam) for lam, *_ in windows] == [2]
        assert blocks.shape == (5, sc.beta_max + 1)
        for i, j in ((0, 2), (0, 4), (1, 3)):
            assert np.array_equal(blocks[i], blocks[j])
        assert not np.array_equal(blocks[0], blocks[1])
        assert np.array_equal(blocks[1], _transform_blocks([(sc, keys[1])])[0])

    def test_flatness_batch_integrand_calls_pinned(self, demo, monkeypatch):
        # both charts' 26 flatness blocks each (13 eps levels, 2 grid
        # points) at the demo's flatness settings: one batch, each coarse
        # round and halving level packed into calls of at most 4 BLOCK
        # values, each halving only on its block's support, with the
        # predicted stop: one call each for the coarse pass and 3
        # halvings.  One block at a time took 260 calls, one batch per
        # chart 50, one batch for both charts over whole windows 46, the
        # growth-certificate windows 33, stopping only on a change below
        # abs_tol 32, calls of at most BLOCK // 2 values 28, and a separate
        # window probe round 5.
        from qgevrey import qlaplace
        from qgevrey.qgeometry import BLOCK
        cfg = demo.sampling["flatness"]
        quad = QuadSettings(abs_tol=cfg["abs_tol"], max_halvings=16)
        sc1 = demo.chart_solution(cfg["pair"][0], quad=quad)
        sc2 = demo.chart_solution(cfg["pair"][1], quad=quad)
        eps0 = overlap_point(sc1.chart, sc2.chart, demo.base)
        calls = count_calls(monkeypatch, CoefficientEvaluator, "table")
        windows = count_calls(monkeypatch, qlaplace, "truncation_window")
        flatness_fit(sc1, sc2, eps0, cfg["n_points"], cfg["grid"],
                     demo.gevrey)
        assert [np.size(lam) for lam, *_ in windows] == [2 * 26]
        columns = [np.size(tau) for ev, eps, tau, beta_max in calls]
        assert len(columns) == 4
        assert max(columns) * (sc1.beta_max + 1) <= 4 * BLOCK

    def test_unclosed_window_names_chart_and_key(self, demo, monkeypatch):
        # NaN integrand values are never negligible: the coarse pass gives
        # up before any halving, and the error reaches the caller with the
        # chart and key, carrying no quadrature levels.  Its calls: the
        # first window, then each of the 11 widening rounds' two sides
        from qgevrey import ConvergenceError
        from qgevrey.solution import _transform_blocks
        table = CoefficientEvaluator.table
        calls = []

        def nan_table(self, *args, **kwargs):
            calls.append(args)
            return np.full_like(table(self, *args, **kwargs), np.nan)

        monkeypatch.setattr(CoefficientEvaluator, "table", nan_table)
        sc = demo.chart_solution(20, quad=TIGHT)
        eps = mid_eps(demo, sc, 0)
        with pytest.raises(ConvergenceError) as err:
            _transform_blocks([(sc, (eps, 0.7))])
        message = str(err.value)
        assert "chart 20," in message and str(complex(eps)) in message
        assert "not negligible at the ends of its window [" in message
        assert err.value.block == 0
        assert err.value.last is None and err.value.previous is None
        assert len(calls) == 1 + 2 * 11

    def test_failure_names_block_and_its_levels(self, demo):
        # a small delta admits t close to the kernel's pole spiral, where
        # the trapezoid sums converge slowly: that block cannot settle in
        # 3 halvings, the ones at t = 0.7 and 0.6 do
        from qgevrey import ConvergenceError
        quad = QuadSettings(abs_tol=1e-10, max_halvings=3)
        sc = demo.chart_solution(20, quad=quad, delta=0.02)
        eps = mid_eps(demo, sc, 0)
        slow = complex(0.7 * np.exp(1.01j))
        keys = [(eps, 0.7), (eps, slow), (eps, 0.6)]
        with pytest.raises(ConvergenceError) as err:
            _transform_blocks([(sc, key) for key in keys])
        assert err.value.block == 1
        message = str(err.value)
        assert str(complex(slow)) in message and str(complex(eps)) in message
        assert "chart 20," in message and "block 1 on [" in message
        assert "within 3 halvings" in message
        assert err.value.last is not None and err.value.previous is not None
        assert np.max(np.abs(err.value.last - err.value.previous)) >= 1e-10

    @pytest.mark.parametrize("bad", ["discrete_spiral", "theta_safe"])
    def test_bad_input_raises_before_any_integrand_call(self, demo, chart20,
                                                        eps20, monkeypatch,
                                                        bad):
        # the batch tests every eps for the spiral, then every z for
        # theta-safety, and raises what the one-at-a-time path raises
        from qgevrey.solution import _transform_blocks
        bad_t = -0.7 * chart20.lam / abs(chart20.lam) / (eps20 / abs(eps20))
        bad_key = (0.9, 0.7) if bad == "discrete_spiral" else (eps20, bad_t)
        with pytest.raises(DomainError) as one:
            evaluate_solution(demo.chart_solution(20, quad=TIGHT), *bad_key,
                              0.3)
        assert one.value.membership == bad
        calls = count_calls(monkeypatch, CoefficientEvaluator, "table")
        sc = demo.chart_solution(20, quad=TIGHT)
        with pytest.raises(DomainError) as err:
            _transform_blocks([(sc, key) for key in
                               [(eps20, 0.7), bad_key, (eps20, 0.6)]])
        assert err.value.membership == bad
        assert calls == []

    def test_first_unsafe_z_in_key_order_named(self, demo, chart20, eps20,
                                               monkeypatch):
        # two unsafe z behind a safe key: one array test raises for the
        # first of them in key order, before any integrand call
        from qgevrey import qlaplace
        from qgevrey.solution import _transform_blocks
        unit = -chart20.lam / abs(chart20.lam) / (eps20 / abs(eps20))
        keys = [(eps20, 0.7), (eps20, 0.65 * unit), (eps20, 0.6),
                (eps20, 0.7 * unit)]
        tests = count_calls(monkeypatch, qlaplace, "in_theta_safe")
        calls = count_calls(monkeypatch, CoefficientEvaluator, "table")
        sc = demo.chart_solution(20, quad=TIGHT)
        with pytest.raises(DomainError) as err:
            _transform_blocks([(sc, key) for key in keys])
        assert err.value.membership == "theta_safe"
        z = complex(eps20) * complex(0.65 * unit)
        assert str(err.value).startswith("z = %s is not theta-safe" % z)
        assert len(tests) == 1 and calls == []

    def test_first_unsafe_key_in_item_order_across_charts(self, demo, eps20,
                                                          monkeypatch):
        # chart 20's unsafe key comes after chart 21's in item order: the
        # error names chart 21's z, although chart 20 comes first
        from qgevrey.solution import _transform_blocks
        c20, c21 = (demo.chart_solution(i, quad=TIGHT) for i in (20, 21))

        def unsafe_t(sc, r):
            return -r * sc.lam / abs(sc.lam) / (eps20 / abs(eps20))

        items = [(c20, (eps20, 0.7)), (c21, (eps20, unsafe_t(c21, 0.65))),
                 (c20, (eps20, unsafe_t(c20, 0.7)))]
        calls = count_calls(monkeypatch, CoefficientEvaluator, "table")
        with pytest.raises(DomainError) as err:
            _transform_blocks(items)
        assert err.value.membership == "theta_safe"
        z = complex(eps20) * complex(unsafe_t(c21, 0.65))
        assert str(err.value).startswith("z = %s is not theta-safe for "
                                         "direction %s" % (z, c21.lam))
        assert calls == []


class TestInitialCondition:
    def test_matches_series_coefficient_bitwise(self, demo, chart20, eps20):
        from qgevrey.solution import _transform_block
        block = _transform_block(chart20, eps20, 0.7)
        assert initial_condition(chart20, 0, eps20, 0.7) == block[0]

    def test_zero_data_zero_value(self, demo, eps20):
        sc = zero_problem_chart(demo)
        zero_data = InitialData(components=((InitialTerm(c=0j),),))
        ev = CoefficientEvaluator(problem=sc.evaluator.problem,
                                  initial=zero_data, base=demo.base)
        sc0 = demo.chart_solution(20, evaluator=ev, quad=TIGHT)
        assert abs(initial_condition(sc0, 0, eps20, 0.7)) < 1e-12

    def test_closed_form_oracle(self, demo, chart20, eps20):
        # order 0 is the transform of the constant 1: the normalization
        # product itself, independent of the evaluation point
        prod = 1.0
        for n in range(200):
            prod *= 1.0 - 2.0 ** (-n - 1.0)
        got = initial_condition(chart20, 0, eps20, 0.7)
        assert abs(got - prod) < 1e-10

    def test_index_range(self, chart20, eps20):
        with pytest.raises(ValueError):
            initial_condition(chart20, 1, eps20, 0.7)


class TestEquationResidual:
    def test_zero_problem_zero_residual(self, demo, eps20):
        sc = zero_problem_chart(demo)
        res = equation_residual(sc, eps20, 0.7, 0.3)
        assert abs(res.value) < 1e-11

    def test_demo_residual_small(self, demo, chart20, eps20):
        for t, z in ((0.7, 0.3), (0.55, 0.2j), (0.85, -0.4)):
            res = equation_residual(chart20, eps20, t, z)
            assert abs(res.value) <= 1e-8

    def test_truncation_refinement(self, demo, eps20):
        # doubling beta_max leaves the residual at the quadrature floor
        sc1 = demo.chart_solution(20, quad=TIGHT, beta_max=12)
        sc2 = demo.chart_solution(20, quad=TIGHT, beta_max=25)
        r1 = abs(equation_residual(sc1, eps20, 0.7, 0.45).value)
        r2 = abs(equation_residual(sc2, eps20, 0.7, 0.45).value)
        assert r2 <= max(r1, 50.0 * TIGHT.abs_tol)

    def test_t_dilation_warning(self, demo, chart20, eps20):
        res = equation_residual(chart20, eps20, 0.9, 0.3)
        assert any("patch" in w for w in res.warnings)

    def test_one_batch_reads_every_residual_block(self, demo, eps20,
                                                  monkeypatch):
        # the demo's one term has m0 = 1: its dilated key q^1 t is the left
        # side's q t, so each point reads two distinct blocks, all of them
        # computed in one batch
        import qgevrey.qlaplace as qlaplace
        sc = demo.chart_solution(20, quad=TIGHT)
        points = [(eps20, 0.7), (eps20 / demo.base.q, 0.55), (eps20, 0.85)]
        windows = count_calls(monkeypatch, qlaplace, "truncation_window")
        equation_residuals([(sc, eps, t, 0.3) for eps, t in points])
        assert [np.size(lam) for lam, *_ in windows] == [2 * len(points)]


def per_point_residual(sc, eps, t, z):
    """The residual of one point as scalar loops over the orders, from its
    own batch of blocks: the per-point form the array sums replace."""
    q = sc.base.q
    S = sc.evaluator.problem.s_order
    n_z = sc.beta_max - S
    warns = list(check_point(sc, eps, t))
    c_t, c_qt, *c_dils = _transform_blocks(
        [(sc, key) for key in _residual_keys(sc, eps, t)])
    if sc.t_set is not None and abs(q * t) > sc.t_set.mod[1]:
        warns.append("q*t leaves the validated evaluation patch")
    lhs = 0j
    zp = 1.0 + 0j
    for n in range(n_z + 1):
        lhs += (eps * t * c_qt[n + S] + c_t[n + S]) * zp / math.factorial(n)
        zp *= z
    rhs = 0j
    for term, c_dil in zip(sc.evaluator.problem.terms, c_dils):
        if sc.t_set is not None and abs(q**term.m0 * t) > sc.t_set.mod[1]:
            warns.append("q^%d*t leaves the validated evaluation patch"
                         % term.m0)
        op_factor = t ** term.m0 * q ** (term.m0 * (term.m0 - 1) // 2)
        for s in term.z_powers:
            b = term.b_value(s, eps)
            if b == 0:
                continue
            inner = 0j
            zp = 1.0 + 0j
            for m in range(n_z - s + 1):
                inner += (c_dil[m + term.k] * q ** (-term.m1 * m)
                          * zp / math.factorial(m))
                zp *= z
            rhs += b * op_factor * z**s * inner
    return lhs - rhs, lhs, rhs, tuple(warns)


def bits(value: complex) -> bytes:
    """The bit pattern of a complex value (tells -0.0 from 0.0)."""
    return struct.pack("<dd", value.real, value.imag)


@pytest.fixture(scope="module")
def demo_residual_points(demo):
    """100 points over all 25 charts, drawn as ``verify residual`` draws
    them, with their residuals as one batch."""
    rng = np.random.default_rng(7)
    charts = [demo.chart_solution(i) for i in range(len(demo.covering.charts))]
    points = []
    for i in range(100):
        sc = charts[i % len(charts)]
        u = rng.uniform(*sc.chart.i1)
        v = rng.uniform(*sc.chart.i2) - rng.integers(0, 3)
        eps = complex(np.exp(2j * math.pi * u) * qpow(demo.base, v))
        t = complex(demo.family.t_set.sample(rng, 1)[0])
        z = complex(rng.uniform(0.0, 0.5)
                    * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        points.append((sc, eps, t, z))
    return points, equation_residuals(points)


def two_term_points(demo):
    """An S = 2 problem with two terms, eps-dependent b and a z-power 1,
    on demo charts 20 and 21, at points some of whose t-dilations (and one
    t) leave the evaluation patch."""
    problem = CauchyProblem(s_order=2, terms=(
        ProblemTerm(k=0, m0=1, m1=3,
                    coeffs=((0, (1.0 + 0j, 0.5 - 0.25j)), (1, (0.2j,)))),
        ProblemTerm(k=1, m0=2, m1=4, coeffs=((0, (0.3 + 0j, -0.1 + 0.2j)),))))
    initial = InitialData(components=((InitialTerm(c=1.0),),
                                      (InitialTerm(c=0.5, a=1, r=1),)))
    ev = CoefficientEvaluator(problem=problem, initial=initial,
                              base=demo.base)
    quad = QuadSettings(abs_tol=1e-10, max_halvings=16)
    sc20 = demo.chart_solution(20, evaluator=ev, quad=quad)
    sc21 = demo.chart_solution(21, evaluator=ev, quad=quad)
    eps = overlap_point(demo.covering.charts[20], demo.covering.charts[21],
                        demo.base)
    return [(sc, e, t, z) for sc in (sc20, sc21)
            for e in (eps, eps / demo.base.q)
            for t, z in ((0.7, 0.3), (0.3, 0.2j), (0.45, -0.4 + 0.1j))]


class TestEquationResiduals:
    def assert_matches_per_point_loop(self, points, results):
        assert len(results) == len(points)
        for (sc, eps, t, z), got in zip(points, results):
            value, lhs, rhs, warns = per_point_residual(
                sc, complex(eps), complex(t), complex(z))
            scale = max(abs(lhs), abs(rhs))
            assert abs(got.lhs - lhs) <= 1e-14 * scale
            assert abs(got.rhs - rhs) <= 1e-14 * scale
            assert abs(got.value - value) <= 2e-14 * scale
            assert got.warnings == warns

    def test_demo_matches_per_point_loop(self, demo_residual_points):
        points, results = demo_residual_points
        self.assert_matches_per_point_loop(points, results)
        # the t-dilations leave the patch at some points, not at all
        assert 0 < sum(bool(r.warnings) for r in results) < len(results)

    def test_two_term_problem_matches_per_point_loop(self, demo):
        points = two_term_points(demo)
        results = equation_residuals(points)
        self.assert_matches_per_point_loop(points, results)
        assert all(abs(r.value) < 1e-8 for r in results)
        assert {len(r.warnings) for r in results} == {1, 2, 3}

    def test_one_point_equals_its_batch_value_bitwise(self,
                                                      demo_residual_points):
        points, results = demo_residual_points
        for point, batch in zip(points, results):
            alone = equation_residual(*point)
            assert [bits(v) for v in (alone.value, alone.lhs, alone.rhs)] \
                == [bits(v) for v in (batch.value, batch.lhs, batch.rhs)]
            assert alone.warnings == batch.warnings

    def test_empty_batch(self):
        assert equation_residuals([]) == []


class TestSeriesValues:
    def test_one_point_equals_its_batch_value_bitwise(self, demo, chart20,
                                                      eps20):
        # 10 levels x 10 grid points: one 100-row array sum
        eps_values = eps_sequence(eps20, demo.base.q, 10)
        grid = [(complex(t), complex(z))
                for t in (0.45, 0.6, 0.75, 0.9, 0.62 + 0.003j)
                for z in (0.3, -0.45j)]
        chart21 = demo.chart_solution(21, quad=TIGHT)
        values = _solution_samples((chart20, chart21), eps_values, grid)
        assert values.shape == (2, 10, 10)
        for c, sc in enumerate((chart20, chart21)):
            for i, eps in enumerate(eps_values):
                for g, (t, z) in enumerate(grid):
                    alone = evaluate_solution(sc, eps, t, z).value
                    assert bits(alone) == bits(complex(values[c, i, g]))


class TestCommutationAtSolutionLevel:
    def test_dilation_identity_on_order_zero(self, demo, chart20, eps20):
        # T(tau W)(eps t) = eps t T(W)(q eps t) with W the constant initial
        # data, using the same machinery the residual relies on
        from qgevrey import q_laplace
        base = demo.base
        t = 0.7
        lhs = q_laplace(lambda x: x.copy(), chart20.lam, eps20 * t, base,
                        TIGHT)
        rhs = eps20 * t * q_laplace(lambda x: np.ones_like(x), chart20.lam,
                                    base.q * eps20 * t, base, TIGHT)
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1e-12)


class TestDecayFit:
    def test_demo_slope_matches_weight(self, demo, chart20, eps20):
        slope, intercept, mags = transform_decay_fit(chart20, eps20, 0.6)
        assert slope <= -0.9 * demo.gevrey.a1_type * demo.base.log_abs_q
        assert mags[0] > 0

    def test_closed_form_matches_lstsq(self, rng):
        # the centred two-parameter formula against numpy's least squares
        # on log-magnitudes offset - c beta^2 + noise, some entries at 0
        from qgevrey.solution import _decay_fit
        for _ in range(500):
            n = int(rng.integers(3, 27))
            beta = np.arange(n)
            mags = np.exp(rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 40.0)
                          - rng.uniform(0.01, 1.0) * beta**2
                          + rng.uniform(-5.0, 5.0, n))
            mags[rng.random(n) < 0.15] = 0.0
            good = mags > 1e-300
            slope, intercept = _decay_fit(mags)
            if good.sum() < 3:
                assert (slope, intercept) == (0.0, -math.inf)
                continue
            A = np.vstack([beta[good] ** 2.0, np.ones(good.sum())]).T
            want = np.linalg.lstsq(A, np.log(mags[good]), rcond=None)[0]
            assert abs(slope / want[0] - 1.0) <= 1e-12
            assert abs(intercept / want[1] - 1.0) <= 1e-12

    def test_tail_estimate_finite_up_to_the_z_range(self):
        # every z that require_z_in_range admits (|z|^26 <= e^700 at
        # beta_max = 25) has |z|^26 a double: a finite estimate, never an
        # OverflowError
        from qgevrey.solution import _tail_estimate, require_z_in_range
        coeffs = np.exp(-0.3 * np.arange(26.0) ** 2)
        z_top = math.exp(700.0 / 26) * (1.0 - 1e-9)
        for z in (z_top, 1j * z_top):
            require_z_in_range(z, 25, "z")
            assert math.isfinite(_tail_estimate(coeffs, z))
        with pytest.raises(DomainError):
            require_z_in_range(z_top * (1.0 + 2e-9), 25, "z")
        assert _tail_estimate(coeffs, 0.0) == 0.0


class TestFlatness:
    def test_identical_charts_degenerate(self, demo, chart20, eps20):
        # a zero difference: no fit, which no slope threshold passes
        grid = [(0.7, 0.3)]
        fit = flatness_fit(chart20, chart20, eps20, 8, grid, demo.gevrey)
        assert fit.d_sup == (0.0,) * 8 and fit.n_used == 0
        assert all(math.isnan(x) for x in (fit.slope, fit.intercept, fit.r2))

    def test_same_ray_direction_at_quadrature_floor(self, demo, eps20):
        sc1 = demo.chart_solution(20, quad=TIGHT)
        lam2 = sc1.lam * complex(qpow(demo.base, 0.5))
        sc2 = demo.chart_solution(20, quad=TIGHT, lam=lam2)
        for n in (0, 3):
            eps = eps20 * demo.base.q ** (-n)
            v1 = evaluate_solution(sc1, eps, 0.7, 0.3).value
            v2 = evaluate_solution(sc2, eps, 0.7, 0.3).value
            assert abs(v1 - v2) <= 100.0 * TIGHT.abs_tol

    def test_nonpositive_exponent_rejected(self, demo, chart20):
        bad = demo.gevrey.__class__(
            **{**demo.gevrey.__dict__, "m_big": 5.0})
        with pytest.raises(ValueError):
            flatness_fit(chart20, chart20, 0.5, 8, [(0.7, 0.3)], bad)

    def test_straddling_pair_decay(self, demo):
        # the designated overlapping pair with the kernel pole spiral
        # between their directions: genuinely nonzero, rapidly flat
        sc1 = demo.chart_solution(20, quad=TIGHT)
        sc2 = demo.chart_solution(21, quad=TIGHT)
        eps0 = overlap_point(sc1.chart, sc2.chart, demo.base)
        fit = flatness_fit(sc1, sc2, eps0, 9, [(0.7, 0.3)], demo.gevrey)
        assert fit.slope <= -0.9 * demo.gevrey.one_over_a(demo.base)
        assert fit.r2 > 0.9


class TestFitLogDecay:
    def test_synthetic_decay_recovered(self):
        c = 0.73
        l2 = [0.2 * n for n in range(12)]
        d = [math.exp(-c * x + 0.4) for x in l2]
        slope, intercept, r2, n_used = fit_log_decay(l2, d)
        assert abs(slope + c) < 1e-12
        assert abs(intercept - 0.4) < 1e-12
        assert n_used == 12

    def test_floored_points_excluded(self):
        l2 = [0.0, 1.0, 2.0, 3.0, 4.0]
        d = [1e-2, 1e-4, 1e-6, 1e-16, 1e-16]
        slope, _, _, n_used = fit_log_decay(l2, d)
        assert n_used == 3  # floored tail excluded
        with pytest.raises(ValueError):
            fit_log_decay([0.0, 1.0], [1e-16, 1e-16])


class TestExtraction:
    def test_constant_function(self):
        q = 2.0
        eps = [0.8 * q ** (-n) for n in range(12)]
        samples = np.array([[2.5 - 1.0j] for _ in eps])
        s = extract_from_samples(samples, eps, q, 1, 1e-8)
        assert abs(s.coeffs[0][0] - (2.5 - 1.0j)) < 1e-14
        assert abs(s.coeffs[1][0]) < 1e-12

    def test_affine_recovery(self):
        q = 2.0
        c0, c1 = 1.3 - 0.2j, -0.7 + 0.4j
        eps = [0.8 * q ** (-n) for n in range(16)]
        samples = np.array([[c0 + c1 * e] for e in eps])
        s = extract_from_samples(samples, eps, q, 2, 1e-9)
        assert abs(s.coeffs[0][0] - c0) < 1e-10
        assert abs(s.coeffs[1][0] - c1) < 1e-10
        assert abs(s.coeffs[2][0]) < 1e-8

    def test_noisy_order_aborts(self, rng):
        # strong genuine curvature plus injected noise: the successive
        # changes of the high orders never dip below the threshold
        q = 2.0
        eps = [0.4 * q ** (-n) for n in range(22)]
        samples = np.array(
            [[1.0 / (1.0 - 3.0 * e)
              + complex(rng.normal(), rng.normal()) * 1e-5]
             for e in eps])
        s = extract_from_samples(samples, eps, q, 4, 5e-3)
        # the deepest orders drown in amplified noise: not reported
        assert 0 <= s.k_max < 4

    def test_zero_problem_chart(self, demo, eps20):
        sc = zero_problem_chart(demo)
        series = extract_coefficients(sc, eps20, 1, 1e-6, [(0.7, 0.3)],
                                      depth=10)
        prod = 1.0
        for n in range(200):
            prod *= 1.0 - 2.0 ** (-n - 1.0)
        assert abs(series.coeffs[0][0] - prod) < 1e-9
        assert abs(series.coeffs[1][0]) < 1e-6

    def test_depth_schedule_reads_no_deeper_level(self):
        q = 2.0
        eps = [0.6 * q ** (-n) for n in range(31)]
        samples = np.array([[np.exp(e) / (1.0 - 0.5 * e),
                             2.0 + 1j * np.sin(3.0 * e)] for e in eps])
        schedule = (20, 10, 7, 4)
        want = extract_from_samples(samples, eps, q, 3, 1e-3,
                                    depth_override=schedule)
        cut = samples.copy()
        cut[22:] = np.nan  # past max(schedule) + 1
        got = extract_from_samples(cut, eps, q, 3, 1e-3,
                                   depth_override=schedule)
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.coeffs, want.coeffs))
        assert got.stab == want.stab and got.depths == want.depths
        # level max(schedule) + 1 itself is read
        cut[21] = np.nan
        assert np.isnan(extract_from_samples(
            cut, eps, q, 3, 1e-3, depth_override=schedule).coeffs[0]).all()

    def test_extraction_levels(self):
        assert extraction_levels(30) == 31
        assert extraction_levels(30, (20, 10, 7, 4)) == 22
        assert extraction_levels(15, (20, 10, 7, 4)) == 16
        # depth 0 reads its stabilization residual at levels 0 to 2
        assert extraction_levels(30, (0, 0)) == 3

    def test_schedule_samples_only_its_levels(self, demo, chart20, eps20):
        schedule, grid = (20, 10, 7, 4), [(0.7, 0.3), (0.55, 0.4j)]
        series = extract_coefficients(chart20, eps20, 3, 0.05, grid,
                                      depth=30, depth_override=schedule)
        assert len(series.eps_values) == series.samples.shape[0] == 22
        eps_values = eps_sequence(eps20, demo.base.q, 31)
        full = extract_from_samples(
            _solution_samples((chart20,), eps_values, grid)[0], eps_values,
            demo.base.q, 3, 0.05, grid=grid, depth_override=schedule)
        assert all(np.array_equal(a, b)
                   for a, b in zip(series.coeffs, full.coeffs))
        assert series.stab == full.stab and series.depths == full.depths

    def test_depth_cap(self, demo, chart20, eps20):
        with pytest.raises(ValueError):
            extract_coefficients(chart20, eps20, 5, 1e-3, [(0.7, 0.3)])


class TestClosedForms:
    def test_young_conjugate_values(self, base2, rng):
        yc = young_conjugate(0.0, base2)
        assert yc.numeric == 0.0 and yc.closed_form == 0.0
        b16 = QBase(math.exp(1.0 / 16.0))
        yc = young_conjugate(2.0, b16)
        assert abs(yc.closed_form - 0.25) < 1e-14
        assert abs(yc.numeric - 0.25) < 1e-9
        for _ in range(100):
            y = rng.uniform(0.0, 50.0)
            yc = young_conjugate(y, base2)
            assert abs(yc.numeric - yc.closed_form) <= 1e-9 * max(
                yc.closed_form, 1.0)

    def test_golden_section_stops_when_bracket_collapses(self, bases, rng):
        from qgevrey.solution import _golden_max
        for base in bases:
            L = base.log_abs_q
            for y in rng.uniform(0.0, 50.0, 20):
                xs = []

                def f(x):
                    xs.append(x)
                    return x * y - x * x / (4.0 * L)

                best = _golden_max(f, 0.0, 4.0 * L * y + 1.0)
                assert len(xs) < 100  # 200 steps without the stop
                assert abs(best - L * y * y) <= 1e-15 * max(L * y * y, 1.0)

    def test_envelope_minimizer_closed_form(self, base2, rng):
        # golden section localizes a smooth minimum only to sqrt(ulp); a
        # parabolic vertex through the bracket recovers machine accuracy
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        checked = 0
        for _ in range(50):
            c1 = rng.uniform(0.5, 3.0)
            h = rng.uniform(0.5, 5.0)
            a = rng.uniform(0.5, 3.0)
            abs_eps = rng.uniform(0.005, 0.2)
            G, x0 = null_expansion_envelope(c1, h, a, abs_eps, base2)
            if x0 <= 0.1:
                continue
            checked += 1
            f = lambda x: math.log(G(x))
            lo, hi = 0.0, x0 * 3.0 + 10.0
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
            assert abs(vertex - x0) <= 1e-8 * max(x0, 1.0)
        assert checked >= 20

    def test_flatness_coefficient_limit(self, base2):
        # coefficient decreases to zero as the admitted type grows
        vals = [flatness_from_null_expansion(1.0, base2, a_tilde)
                for a_tilde in (1.5, 3.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01
        with pytest.raises(ValueError):
            flatness_from_null_expansion(2.0, base2, 1.0)

    def test_roundtrip_synthetic_flat_function(self, base2):
        # a function exactly of the predicted flat shape regresses back to
        # the coefficient implied by its expansion type
        a_tilde = 1.7
        c = flatness_from_null_expansion(1.0, base2, a_tilde)
        eps = [0.8 * 2.0 ** (-n) for n in range(12)]
        l2 = [math.log(e) ** 2 for e in eps]
        d = [math.exp(-c * x) for x in l2]
        slope, _, _, _ = fit_log_decay(l2, d)
        assert abs(slope + c) < 1e-10
