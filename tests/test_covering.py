import cmath
import math

import numpy as np
import pytest

from qgevrey import (AssociatedFamily, ChartBase, ContinuousBase, GoodCovering,
                     QBase, build_covering, in_discrete_spiral, overlap_point,
                     pick_lambda, validate_covering, validate_family)
from qgevrey.config import load_shipped_config
from qgevrey.covering import seam_probes

class TestBuildCovering:
    def test_default_grid(self, base2):
        c = build_covering(5, 5, 0.1)
        assert len(c.charts) == 25
        for ch in c.charts:
            assert ch.i1[1] - ch.i1[0] < 0.25
            assert ch.i2[1] - ch.i2[0] < 0.25
        rep = validate_covering(c, base2, 2000, seed=11)
        assert rep.ok

    def test_four_angular_charts_rejected(self):
        # four open intervals of length < 1/4 cannot tile the circle
        with pytest.raises(ValueError):
            build_covering(4, 5, 0.1)

    def test_infeasible_overlap_rejected(self):
        with pytest.raises(ValueError):
            build_covering(5, 5, 0.3)  # interval length would reach 1/4

    def test_zero_overlap_leaves_seams(self, base2):
        # disjoint open charts miss their shared boundaries: the seam
        # probes of the validator land exactly there
        c = build_covering(5, 5, 0.0)
        rep = validate_covering(c, base2, 500, seed=3)
        assert not rep.covered and rep.n_uncovered > 0


class TestValidateCovering:
    @pytest.mark.parametrize("n_u", [5, 6, 7])
    @pytest.mark.parametrize("n_v", [5, 6, 7])
    def test_grid_family_passes(self, base2, n_u, n_v):
        c = build_covering(n_u, n_v, 0.1)
        rep = validate_covering(c, base2, 10000, seed=n_u * 10 + n_v)
        assert rep.covered
        assert rep.max_multiplicity <= 3

    def test_single_chart_fails_coverage(self, base2):
        c = GoodCovering(charts=(ChartBase(i1=(0.1, 0.3),
                                           i2=(-0.4, -0.2)),))
        rep = validate_covering(c, base2, 400, seed=5)
        assert not rep.covered

    def test_duplicated_charts_fail_multiplicity(self, base2):
        ch = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))
        c = GoodCovering(charts=(ch, ch, ch, ch))
        rep = validate_covering(c, base2, 400, seed=5)
        assert rep.max_multiplicity >= 4
        assert rep.n_quadruple > 0

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    def test_no_probe_counts_for_its_own_chart(self, name):
        # with no random samples the counts come from the probes alone:
        # chart idx counts exactly the other charts' probes inside it, and
        # each probe is covered by a neighbour
        cfg = load_shipped_config(name)
        charts = cfg.covering.charts
        probes = seam_probes(cfg.covering, cfg.base).reshape(len(charts), 3)
        rep = validate_covering(cfg.covering, cfg.base, 0)
        for idx, ch in enumerate(charts):
            others = np.delete(probes, idx, axis=0).ravel()
            inside = in_discrete_spiral(others, ch, cfg.base)
            assert rep.per_chart_counts[idx] == np.count_nonzero(inside)
        assert rep.n_uncovered == 0
        assert rep.max_multiplicity <= 3

    def test_complex_base(self):
        b = QBase(1.8 * cmath.exp(0.15j))
        c = build_covering(5, 5, 0.1)
        rep = validate_covering(c, b, 3000, seed=9)
        assert rep.ok


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


class TestValidateFamily:
    def test_demo_family_passes(self, demo_cfg):
        rep = validate_family(demo_cfg.family, demo_cfg.covering,
                              demo_cfg.base, demo_cfg.lambdas, 250, seed=2)
        assert rep.ok
        assert rep.v_clearance > demo_cfg.family.delta
        assert rep.kernel_clearance > demo_cfg.family.delta

    def test_huge_delta_fails_kernel_clearance(self, demo_cfg):
        fam = AssociatedFamily(v_sets=demo_cfg.family.v_sets,
                               t_set=demo_cfg.family.t_set,
                               rho0=demo_cfg.family.rho0, delta=0.999)
        rep = validate_family(fam, demo_cfg.covering, demo_cfg.base,
                              demo_cfg.lambdas, 250, seed=2)
        assert not rep.kernel_clearance_ok

    def test_patch_on_negative_axis_fails(self, base2, demo_cfg):
        # direction patches straddling -1's ray violate the distance bound
        bad_sets = tuple(
            ContinuousBase(mod=(1.1, 1.4), arg=(math.pi - 0.02,
                                                math.pi + 0.02))
            for _ in demo_cfg.covering.charts)
        fam = AssociatedFamily(v_sets=bad_sets, t_set=demo_cfg.family.t_set,
                               rho0=2.0, delta=0.2)
        lams = tuple(pick_lambda(v, 2.0) for v in bad_sets)
        rep = validate_family(fam, demo_cfg.covering, base2, lams, 100,
                              seed=2)
        assert not rep.v_clearance_ok

    def test_t_patch_modulus_cap(self, demo_cfg):
        with pytest.raises(ValueError):
            AssociatedFamily(v_sets=demo_cfg.family.v_sets,
                             t_set=ContinuousBase(mod=(0.5, 1.2),
                                                  arg=(-0.1, 0.1)),
                             rho0=2.0, delta=0.2)


class TestOverlapPoint:
    def test_point_in_both_spirals(self, demo_cfg):
        base = demo_cfg.base
        for i, j in ((20, 21), (24, 20), (0, 1)):
            c1 = demo_cfg.covering.charts[i]
            c2 = demo_cfg.covering.charts[j]
            pt = overlap_point(c1, c2, base)
            assert in_discrete_spiral(pt, c1, base)
            assert in_discrete_spiral(pt, c2, base)

    def test_disjoint_charts_rejected(self, base2):
        c1 = ChartBase(i1=(0.1, 0.3), i2=(-0.4, -0.2))
        c2 = ChartBase(i1=(0.5, 0.7), i2=(-0.4, -0.2))
        with pytest.raises(ValueError):
            overlap_point(c1, c2, base2)
