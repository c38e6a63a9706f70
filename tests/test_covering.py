import cmath
import itertools
import math

import numpy as np
import pytest

from covering_reference import (cell_multiplicity, full_covering_report,
                                grid_family_clearances, intersecting_pairs,
                                seam_probes)
from qgevrey import (AssociatedFamily, ChartBase, ContinuousBase, GoodCovering,
                     QBase, build_covering, covering_report,
                     in_discrete_spiral, overlap_point, pick_lambda,
                     spiral_coordinates, validate_family)
from qgevrey.covering import direction_clearances
from qgevrey.config import load_shipped_config
from qgevrey.covering import _arc_classes
from qgevrey import covering
from qgevrey.qgeometry import spiral_min_distance

TWO_PI = 2.0 * math.pi

class TestBuildCovering:
    def test_default_grid(self, base2):
        c = build_covering(5, 5, 0.1)
        assert len(c.charts) == 25
        for ch in c.charts:
            assert ch.i1[1] - ch.i1[0] < 0.25
            assert ch.i2[1] - ch.i2[0] < 0.25
        assert covering_report(c, base2).ok

    def test_four_angular_charts_rejected(self):
        # four open intervals of length < 1/4 cannot tile the circle
        with pytest.raises(ValueError):
            build_covering(4, 5, 0.1)

    def test_infeasible_overlap_rejected(self):
        with pytest.raises(ValueError):
            build_covering(5, 5, 0.3)  # interval length would reach 1/4

    def test_zero_overlap_leaves_seams(self, base2):
        # disjoint open charts miss their shared boundaries: cells on the
        # cuts there are in no chart
        c = build_covering(5, 5, 0.0)
        rep = covering_report(c, base2)
        assert not rep.covered and rep.n_uncovered > 0


def exact_multiplicity(c):
    """The product ``covering_report`` counts: multiplicity per cell."""
    in_u = _arc_classes(np.array([ch.i1 for ch in c.charts]))
    in_v = _arc_classes(np.array([ch.i2 for ch in c.charts]))
    return in_u.T.astype(np.int64) @ in_v.astype(np.int64)


def assert_matches_oracle(c, base):
    mult = cell_multiplicity(c, base)
    np.testing.assert_array_equal(exact_multiplicity(c), mult)
    rep = covering_report(c, base)
    assert (rep.n_cells, rep.n_uncovered, rep.max_multiplicity,
            rep.n_quadruple) == (mult.size, np.count_nonzero(mult == 0),
                                 mult.max(), np.count_nonzero(mult >= 4))
    assert rep.covered == (rep.n_uncovered == 0)


class TestValidateCovering:
    @pytest.mark.parametrize("n_u", [5, 6, 7])
    @pytest.mark.parametrize("n_v", [5, 6, 7])
    def test_grid_family_passes(self, base2, n_u, n_v):
        c = build_covering(n_u, n_v, 0.1)
        rep = covering_report(c, base2)
        assert rep.covered
        assert rep.max_multiplicity <= 3

    def test_single_chart_fails_coverage(self, base2):
        c = GoodCovering(charts=(ChartBase(i1=(0.1, 0.3),
                                           i2=(-0.4, -0.2)),))
        rep = covering_report(c, base2)
        assert not rep.covered

    def test_duplicated_charts_fail_multiplicity(self, base2):
        # two cuts per circle: 4 x 4 cells, the open rectangle is one
        ch = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))
        c = GoodCovering(charts=(ch, ch, ch, ch))
        rep = covering_report(c, base2)
        assert (rep.n_cells, rep.max_multiplicity, rep.n_quadruple,
                rep.n_uncovered) == (16, 4, 1, 15)

    def test_four_fold_square_of_side_1e_6(self):
        # four charts meet only in the open square (0.3 - 1e-6, 0.3) x
        # (-0.3 - 1e-6, -0.3): a 1e-12 share of the torus, which 10,000
        # samples miss
        w = 1e-6
        c = GoodCovering(charts=tuple(
            ChartBase(i1=i1, i2=i2)
            for i1 in ((0.1, 0.3), (0.3 - w, 0.5))
            for i2 in ((-0.5, -0.3), (-0.3 - w, -0.1))))
        for base in (QBase(2.0), QBase(1.5 * cmath.exp(0.2j))):
            rep = covering_report(c, base)
            assert (rep.max_multiplicity, rep.n_quadruple) == (4, 1)
            assert_matches_oracle(c, base)
            assert full_covering_report(c, base, 10000,
                                        seed=1).max_multiplicity < 4

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    def test_no_probe_counts_for_its_own_chart(self, name):
        # with no random samples the reference counts the seam probes
        # alone: chart idx counts exactly the other charts' probes inside
        # it, and each probe is covered by a neighbour, as every cell is
        cfg = load_shipped_config(name)
        charts = cfg.covering.charts
        probes = seam_probes(cfg.covering, cfg.base).reshape(len(charts), 3)
        rep = full_covering_report(cfg.covering, cfg.base, 0)
        for idx, ch in enumerate(charts):
            others = np.delete(probes, idx, axis=0).ravel()
            inside = in_discrete_spiral(others, ch, cfg.base)
            assert rep.per_chart_counts[idx] == np.count_nonzero(inside)
        assert rep.n_uncovered == 0
        assert rep.max_multiplicity <= 3
        assert covering_report(cfg.covering, cfg.base).ok

    def test_complex_base(self):
        b = QBase(1.8 * cmath.exp(0.15j))
        c = build_covering(5, 5, 0.1)
        assert covering_report(c, b).ok

    @pytest.mark.parametrize("q", [2.0, 1.5 * cmath.exp(0.2j)],
                             ids=["2", "1.5e^0.2i"])
    def test_cells_match_point_oracle(self, q):
        base = QBase(q)
        for name in ("demo", "strict_exponents_fail"):
            assert_matches_oracle(load_shipped_config(name).covering, base)
        rng = np.random.default_rng(11)
        for _ in range(8):
            n_u, n_v = (int(k) for k in rng.integers(5, 9, 2))
            overlap = rng.uniform(0.05, 0.95) * min(
                1.0 / n_v, 0.25 * n_u - 1.0, 0.25 * n_v - 1.0)
            assert_matches_oracle(build_covering(n_u, n_v, overlap), base)


class TestUSlices:
    """The chart endpoints slice each circle into classes; the report on
    their cells must agree with the sampled reference: the same
    ``covered``, a sampled multiplicity no higher than the exact one,
    and bit-equal radii."""

    @staticmethod
    def assert_agrees(c, base, n_samples, seed):
        rep = covering_report(c, base)
        ref = full_covering_report(c, base, n_samples, seed=seed)
        assert rep.covered == ref.covered
        assert ref.max_multiplicity <= rep.max_multiplicity
        assert (rep.r_min, rep.r_max) == (ref.r_min, ref.r_max)
        return rep, ref

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shipped_configs(self, name, seed):
        cfg = load_shipped_config(name)
        rep, ref = self.assert_agrees(cfg.covering, cfg.base, 10000, seed)
        assert (rep.max_multiplicity, rep.n_quadruple) == (3, 0)
        assert ref.max_multiplicity == 3

    def test_random_grids(self):
        rng = np.random.default_rng(7)
        for q in (2.0, math.exp(1.0 / 16.0), 1.5 * cmath.exp(0.2j),
                  1.8 * cmath.exp(-0.4j)):
            base = QBase(q)
            for k in range(6):
                n_u, n_v = (int(k) for k in rng.integers(5, 9, 2))
                # the first grid of each base has no overlap at all
                overlap = rng.uniform(0.0, 0.95) * min(
                    1.0 / n_v, 0.25 * n_u - 1.0, 0.25 * n_v - 1.0) * (k > 0)
                c = build_covering(n_u, n_v, overlap)
                rep, _ = self.assert_agrees(c, base, 3000,
                                            int(rng.integers(2**31)))
                assert rep.covered == (overlap > 0.0)

    def test_charts_wrapping_past_one(self, base2):
        # u-intervals reaching below 0 or past 1 (the first two are one
        # arc: dyadic ends reduce mod 1 exactly), or starting a hair below
        # 0 (whose remainder mod 1 rounds to 1.0, the cut at 0.0)
        c = GoodCovering(charts=(
            ChartBase(i1=(-0.0625, 0.125), i2=(-0.4, -0.2)),
            ChartBase(i1=(0.9375, 1.125), i2=(-0.3, -0.1)),
            ChartBase(i1=(-1e-17, 0.2), i2=(-0.5, -0.3)),
            ChartBase(i1=(0.8, 1.0), i2=(-0.45, -0.25)),
            ChartBase(i1=(0.0, 0.15), i2=(-0.35, -0.15))))
        assert _arc_classes(np.array([[-1e-17, 0.2]])).shape == (1, 4)
        for base in (base2, QBase(1.5 * cmath.exp(0.2j))):
            assert_matches_oracle(c, base)
            for seed in range(4):
                self.assert_agrees(c, base, 5000, seed)


class TestPickLambda:
    def test_centroid_of_feasible_region(self):
        v = ContinuousBase(mod=(1.1, 1.4), arg=(0.1, 0.3))
        lam = pick_lambda(v, 2.0)
        assert abs(abs(lam) - 1.25) < 1e-14
        assert abs(cmath.phase(lam) - 0.2) < 1e-14

    def test_everything_outside_disc_rejected(self):
        v = ContinuousBase(mod=(2.5, 3.0), arg=(0.1, 0.3))
        with pytest.raises(ValueError):
            pick_lambda(v, 2.0)

    def test_small_modulus_rejected(self):
        v = ContinuousBase(mod=(0.5, 0.9), arg=(0.1, 0.3))
        with pytest.raises(ValueError):
            pick_lambda(v, 2.0)


# the bases of the family tests: two real ones (as shipped) and four
# complex ones, one near |q| = 1
FAMILY_BASES = {"2": 2.0, "e^(1/16)": math.exp(1.0 / 16.0),
                "1.5e^0.2i": 1.5 * cmath.exp(0.2j),
                "e^(1/16+0.3i)": cmath.exp(1.0 / 16.0 + 0.3j),
                "1.8e^-0.4i": 1.8 * cmath.exp(-0.4j),
                "1.0645e^0.05i": 1.0645 * cmath.exp(0.05j)}

# grid counts of the dense-grid oracle in the random-family tests, along
# |lam|, arg lam, u, v, |t| and arg t
RANDOM_GRID = (2, 5, 9, 2, 2, 5)


def random_family(rng, base, n_charts=3):
    """A few charts of random position and size, and a random family on
    them: narrow enough that most theta-intervals hold no pi + 2 pi n
    (moduli spread less where ``kappa = Im log q / log|q|`` is larger)."""
    spread = 1.0 + abs(base.log_q.imag / base.log_q.real)
    charts = []
    for u, v in rng.uniform(-1.0, 1.0, (n_charts, 2)):
        charts.append(ChartBase(i1=(u, u + rng.uniform(0.01, 0.08)),
                                i2=(v, v + rng.uniform(0.01, 0.2))))
    rho0 = rng.uniform(1.2, 2.5)
    v_sets = []
    for _ in charts:
        lo = rng.uniform(0.7, 1.15)
        hi = max(lo, 1.0) * math.exp(rng.uniform(0.05, 0.5) / spread)
        a, hw = rng.uniform(-math.pi, math.pi), rng.uniform(0.005, 0.1)
        v_sets.append(ContinuousBase(mod=(lo, hi), arg=(a - hw, a + hw)))
    t_lo = rng.uniform(0.2, 0.8)
    ta, thw = rng.uniform(-0.3, 0.3), rng.uniform(0.005, 0.05)
    t_hi = min(1.0, t_lo * math.exp(rng.uniform(0.05, 1.0) / spread))
    t_set = ContinuousBase(mod=(t_lo, t_hi),
                           arg=(ta - thw, ta + thw))
    return GoodCovering(charts=tuple(charts)), AssociatedFamily(
        v_sets=tuple(v_sets), t_set=t_set, rho0=rho0,
        delta=rng.uniform(0.05, 0.5))


def theta_step(f, c, base, n):
    """Largest step, over every chart, coordinate and clearance, of the
    oracle grid's crossing arguments ``theta = arg w - kappa log|w|``.

    ``theta`` is linear in each grid coordinate, so the grid's theta
    values leave no gap wider than this step; ``f(theta)`` moves by at
    most twice as much as ``theta`` below the cap, so where an interval
    holds some ``pi + 2 pi n`` the oracle reads at most this step."""
    kappa = abs(base.log_q.imag / base.log_q.real)
    steps = [(f.t_set.arg[1] - f.t_set.arg[0]) / (n[5] - 1),
             kappa * math.log(f.t_set.mod[1] / f.t_set.mod[0]) / (n[4] - 1)]
    for ch, vs in zip(c.charts, f.v_sets):
        lam_mod = max(1.0, vs.mod[0]), min(f.rho0, vs.mod[1])
        steps += [(vs.arg[1] - vs.arg[0]) / (n[1] - 1),
                  kappa * math.log(vs.mod[1] / vs.mod[0]) / (n[0] - 1),
                  kappa * math.log(lam_mod[1] / lam_mod[0]) / (n[0] - 1),
                  TWO_PI * (ch.i1[1] - ch.i1[0]) / (n[2] - 1)]
    return max(steps)


def patch_clearances(v_sets, base, delta):
    """:func:`direction_clearances` of the patches ``v_sets``."""
    return direction_clearances([v.mod for v in v_sets],
                                [v.arg for v in v_sets], base, delta)


def exact_clearances(f, c, base):
    """The least direction-patch clearance and the kernel clearance."""
    return (float(patch_clearances(f.v_sets, base, f.delta).min()),
            validate_family(f, c, base))


def assert_against_grid(f, c, base, n=(2, 3, 17, 2, 2, 3)):
    """The exact clearances are never above the dense-grid oracle's; they
    match it within 1e-12 (the grid holds every box corner) or are 0 with
    the oracle within :func:`theta_step`.  Returns the exact clearances."""
    exact = exact_clearances(f, c, base)
    grid = grid_family_clearances(f, c, base, n)
    for e, g in zip(exact, grid):
        assert e <= g
        assert g - e <= (1e-12 if e > 0.0 else theta_step(f, c, base, n))
    return exact


class TestValidateFamily:
    # exact clearances of the shipped families, both at their own real
    # base: the same family on both configs
    EXACT = (0.3803602636695015, 0.29163722925091795)

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    @pytest.mark.parametrize("q", [None, 1.5 * cmath.exp(0.2j)],
                             ids=["config_base", "1.5e^0.2i"])
    def test_never_above_dense_grid(self, name, q):
        cfg = load_shipped_config(name)
        base = cfg.base if q is None else QBase(q)
        exact = assert_against_grid(cfg.family, cfg.covering, base)
        if q is None:
            assert exact == self.EXACT

    @pytest.mark.parametrize("q", list(FAMILY_BASES.values()),
                             ids=list(FAMILY_BASES))
    def test_random_families_against_dense_grid(self, q):
        rng = np.random.default_rng(7)
        zeros = 0
        base = QBase(q)
        for _ in range(6):
            c, f = random_family(rng, base)
            _, kernel = assert_against_grid(f, c, base, RANDOM_GRID)
            zeros += kernel == 0.0
        assert zeros < 6  # most kernel minima sit at an interval end

    @pytest.mark.parametrize("q", [1.5 * cmath.exp(0.2j),
                                   1.8 * cmath.exp(-0.4j)],
                             ids=["1.5e^0.2i", "1.8e^-0.4i"])
    def test_interval_holding_minus_one_reads_zero(self, q):
        # one chart's direction patch and kernel box straddle the spiral
        # through -1: arg w - kappa log|w| runs across pi on both
        base = QBase(q)
        kappa = base.log_q.imag / base.log_q.real
        c = GoodCovering(charts=(ChartBase(i1=(0.0, 0.05),
                                           i2=(-0.3, -0.2)),))
        center = math.pi + kappa * math.log(1.25)
        f = AssociatedFamily(
            v_sets=(ContinuousBase(mod=(1.1, 1.4),
                                   arg=(center - 0.3, center + 0.3)),),
            t_set=ContinuousBase(mod=(0.5, 0.9), arg=(-0.05, 0.05)),
            rho0=2.0, delta=0.2)
        exact = assert_against_grid(f, c, base, (2, 17, 9, 2, 2, 5))
        assert exact == (0.0, 0.0)

    def test_one_clearance_call(self, demo_cfg, monkeypatch):
        calls = []

        def scan(w, *args, **kwargs):
            calls.append(np.shape(w))
            return spiral_min_distance(w, *args, **kwargs)

        monkeypatch.setattr(covering, "spiral_min_distance", scan)
        validate_family(demo_cfg.family, demo_cfg.covering, demo_cfg.base)
        # the kernel interval's ends, per chart
        assert calls == [(len(demo_cfg.covering.charts), 2)]

    def test_demo_family_passes(self, demo_cfg):
        exact = exact_clearances(demo_cfg.family, demo_cfg.covering,
                                 demo_cfg.base)
        assert min(exact) > demo_cfg.family.delta

    def test_huge_delta_fails_kernel_clearance(self, demo_cfg):
        fam = AssociatedFamily(v_sets=demo_cfg.family.v_sets,
                               t_set=demo_cfg.family.t_set,
                               rho0=demo_cfg.family.rho0, delta=0.999)
        assert not validate_family(fam, demo_cfg.covering,
                                   demo_cfg.base) > fam.delta

    def test_patch_on_negative_axis_fails(self, base2, demo_cfg):
        # direction patches straddling -1's ray violate the distance bound
        bad_sets = tuple(
            ContinuousBase(mod=(1.1, 1.4), arg=(math.pi - 0.02,
                                                math.pi + 0.02))
            for _ in demo_cfg.covering.charts)
        assert not patch_clearances(bad_sets, base2, 0.2).any()

    @pytest.mark.parametrize("mod", [(0.5, 0.9), (2.5, 3.0)])
    def test_direction_patch_needs_a_modulus_in_1_rho0(self, demo_cfg, mod):
        # no direction lam of the patch has 1 < |lam| < rho0 = 2
        with pytest.raises(ValueError, match="no modulus in"):
            AssociatedFamily(v_sets=(ContinuousBase(mod=mod,
                                                    arg=(0.1, 0.3)),),
                             t_set=demo_cfg.family.t_set, rho0=2.0,
                             delta=0.2)

    def test_t_patch_modulus_cap(self, demo_cfg):
        with pytest.raises(ValueError):
            AssociatedFamily(v_sets=demo_cfg.family.v_sets,
                             t_set=ContinuousBase(mod=(0.5, 1.2),
                                                  arg=(-0.1, 0.1)),
                             rho0=2.0, delta=0.2)


class TestOverlapPoint:
    # the points of the demo's flatness and asympt pairs, within a row
    WITHIN_ROW = {
        ("demo", 20, 21): -0.5824980889630557 + 0.7041192340667576j,
        ("demo", 24, 20): 0.48965537712742796 + 0.7715734126306878j,
        ("strict_exponents_fail", 20, 21):
            -0.6322659029358214 + 0.7642781868936454j,
        ("strict_exponents_fail", 24, 20):
            0.5314908409364566 + 0.8374955551985607j,
    }

    def test_point_in_both_spirals(self, demo_cfg):
        base = demo_cfg.base
        for i, j in ((20, 21), (24, 20), (0, 1)):
            c1 = demo_cfg.covering.charts[i]
            c2 = demo_cfg.covering.charts[j]
            pt = overlap_point(c1, c2, base)
            assert in_discrete_spiral(pt, c1, base)
            assert in_discrete_spiral(pt, c2, base)

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    def test_every_intersecting_pair_and_no_other(self, name):
        # the pairs that share a cell of the point oracle get a point on
        # both discrete spirals (75 unordered pairs: 25 within a row, 50
        # across adjacent rows); every other pair raises
        cfg = load_shipped_config(name)
        charts, base = cfg.covering.charts, cfg.base
        pairs = intersecting_pairs(cfg.covering, base)
        assert len(pairs) == 150
        for i, j in itertools.permutations(range(len(charts)), 2):
            if (i, j) in pairs:
                pt = overlap_point(charts[i], charts[j], base)
                assert in_discrete_spiral(pt, charts[i], base)
                assert in_discrete_spiral(pt, charts[j], base)
            else:
                with pytest.raises(ValueError, match="do not overlap"):
                    overlap_point(charts[i], charts[j], base)

    @pytest.mark.parametrize("key", sorted(WITHIN_ROW))
    def test_within_row_points_pinned(self, key):
        cfg = load_shipped_config(key[0])
        c1, c2 = (cfg.covering.charts[i] for i in key[1:])
        assert overlap_point(c1, c2, cfg.base) == self.WITHIN_ROW[key]

    @pytest.mark.parametrize("q", [2.0, 1.5 * cmath.exp(0.2j)],
                             ids=["2", "1.5e^0.2i"])
    def test_cross_row_point_level(self, q):
        # c2 lies a level below c1: v is the middle of the overlap of
        # c1.i2 and c2.i2 + 1, less one, in c2.i2 and one step below c1.i2
        base = QBase(q)
        c1 = ChartBase(i1=(0.1, 0.3), i2=(-0.45, -0.25))
        c2 = ChartBase(i1=(0.2, 0.4), i2=(-1.3, -1.1))
        pt = overlap_point(c1, c2, base)
        u, v = spiral_coordinates(pt, base)
        assert abs(u - 0.25) < 1e-12 and abs(v + 1.275) < 1e-12
        for a, b in ((c1, c2), (c2, c1)):
            assert in_discrete_spiral(overlap_point(a, b, base), a, base)
            assert in_discrete_spiral(overlap_point(a, b, base), b, base)

    def test_charts_turns_and_levels_apart(self, base2):
        # i1 two turns apart and i2 three levels apart: the charts share
        # a torus cell, and the point lies on both spirals
        c = GoodCovering(charts=(ChartBase(i1=(2.1, 2.2), i2=(-0.4, -0.2)),
                                 ChartBase(i1=(0.12, 0.22),
                                           i2=(-3.35, -3.15))))
        assert intersecting_pairs(c, base2) == {(0, 1), (1, 0)}
        for a, b in ((0, 1), (1, 0)):
            pt = overlap_point(c.charts[a], c.charts[b], base2)
            assert all(in_discrete_spiral(pt, ch, base2) for ch in c.charts)

    def test_disjoint_charts_rejected(self, base2):
        c1 = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))
        c2 = ChartBase(i1=(0.5, 0.7), i2=(-0.4, -0.2))
        with pytest.raises(ValueError, match="in u"):
            overlap_point(c1, c2, base2)
        c3 = ChartBase(i1=(0.2, 0.4), i2=(-0.7, -0.5))
        with pytest.raises(ValueError, match="in v"):
            overlap_point(c1, c3, base2)
