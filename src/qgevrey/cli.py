"""Command-line surface: check, solve, verify, demo.

Exit codes: 0 when everything requested passed, 1 when a check or
verification failed (the report is still emitted), 2 for configuration
errors (nothing is computed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import covering as cov
from . import problem as pb
from . import qgeometry as qg
from . import solution as sol
from . import qlaplace as ql
from .theta import theta as theta_fn
from .config import RunConfig, load_config, shipped_config_text
from .errors import ConfigError, DomainError, QGevreyError
from .report import Report, write_csv

TWO_PI = 2.0 * math.pi


def _parse_complex(text: str) -> complex:
    """``re`` or ``re,im`` as a complex number with finite components."""
    parts = text.split(",")
    try:
        if len(parts) > 2:
            raise ValueError
        comps = [float(p) for p in parts] + [0.0]
    except ValueError:
        raise ConfigError("cannot parse complex value %r (use re or re,im)"
                          % text) from None
    if not all(math.isfinite(c) for c in comps):
        raise ConfigError("complex value %r must have finite components"
                          % text)
    return complex(comps[0], comps[1])


def _grid_from_config(entries) -> list:
    grid = []
    for e in entries:
        grid.append((complex(e["t"][0], e["t"][1]),
                     complex(e["z"][0], e["z"][1])))
    return grid


def _seed(cfg: RunConfig, args) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.sampling.get("seed", 0))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def run_check(cfg: RunConfig, seed: int, report: Report,
              quick: bool = False) -> None:
    exp = pb.check_term_exponents(cfg.problem, cfg.gevrey)
    for row in exp.rows:
        report.add("term_exponents[k=%d,s=%d]" % (row.k, row.s),
                   "pass" if (row.low_ok and row.high_ok) else "fail",
                   "exact inequality",
                   low_slack=row.low_slack, high_slack=row.high_slack)

    cap_ok, cap_slack = pb.check_growth_cap(cfg.gevrey, cfg.base)
    report.add("growth_cap", "pass" if cap_ok else "fail",
               "exact inequality", slack=cap_slack)

    cs = pb.check_constant_system(cfg.gevrey, cfg.base)
    for name in ("c1", "c2", "c3", "c4"):
        report.add("constant_system_%s" % name,
                   "pass" if getattr(cs, name + "_ok") else "fail",
                   "exact strict inequality",
                   slack=getattr(cs, name + "_slack"))
    report.add("flatness_exponent", "pass" if cs.one_over_a_positive else "fail",
               "positivity of (1-xi_bar)(xi/(2 log|q|) - M)",
               one_over_a=cs.one_over_a)

    n_cov = int(cfg.sampling.get("n_cover_samples", 10000))
    n_fam = int(cfg.sampling.get("n_family_samples", 600))
    if quick:
        n_cov, n_fam = min(n_cov, 1500), min(n_fam, 200)
    cov_rep = cov.validate_covering(cfg.covering, cfg.base, n_cov, seed=seed)
    report.add("covering_coverage", "pass" if cov_rep.covered else "fail",
               "config.sampling.n_cover_samples",
               n_uncovered=cov_rep.n_uncovered, n_samples=n_cov)
    report.add("covering_multiplicity",
               "pass" if cov_rep.max_multiplicity <= 3 else "fail",
               "no four-fold overlaps",
               max_multiplicity=cov_rep.max_multiplicity,
               n_quadruple=cov_rep.n_quadruple)

    fam_rep = cov.validate_family(cfg.family, cfg.covering, cfg.base,
                                  cfg.lambdas, n_fam, seed=seed)
    report.add("family_directions", "pass" if fam_rep.lambda_feasible else "fail",
               "membership in V_I and the rho0 disc")
    report.add("family_minus_one_clearance",
               "pass" if fam_rep.v_clearance_ok else "fail",
               "config.family.delta",
               clearance=fam_rep.v_clearance, delta=cfg.family.delta)
    report.add("family_kernel_clearance",
               "pass" if fam_rep.kernel_clearance_ok else "fail",
               "config.family.delta",
               clearance=fam_rep.kernel_clearance, delta=cfg.family.delta)
    report.add("family_t_bounded", "pass" if fam_rep.t_bounded else "fail",
               "|t| <= 1 on the evaluation patch")

    eps_patch = qg.ContinuousBase(
        mod=(cov_rep.r_min, cov_rep.r_max), arg=(0.0, TWO_PI))
    spiral_patch = qg.ContinuousBase(
        mod=(cfg.family.v_sets[0].mod[0],
             cfg.family.v_sets[0].mod[1] * abs(cfg.base.q) ** 3),
        arg=cfg.family.v_sets[0].arg)
    disc_patch = qg.ContinuousBase(
        mod=(0.05, cfg.family.rho0),
        arg=(-math.pi + 0.25, math.pi - 0.25))
    for j, component in enumerate(cfg.initial.components):
        for pname, patch in (("spiral", spiral_patch), ("disc", disc_patch)):
            fit = pb.admissibility_fit(component, eps_patch, patch,
                                       cfg.gevrey, n=16)
            report.add("admissibility[j=%d,%s]" % (j, pname),
                       "pass" if fit.passed else "fail",
                       "10%% stability under grid refinement",
                       envelope=fit.delta, m_used=fit.m_used)


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    report = Report(command="check", config=os.path.basename(args.config),
                    seed=seed)
    run_check(cfg, seed, report)
    report.print_summary()
    report.write(args.out_dir, "check_report.json")
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    report = Report(command="solve", config=os.path.basename(args.config),
                    seed=seed)
    eps = _parse_complex(args.eps)
    t = _parse_complex(args.t)
    z = _parse_complex(args.z)
    if not args.force:
        pre = Report(command="check", config=report.config, seed=seed)
        run_check(cfg, seed, pre, quick=True)
        if not pre.all_pass:
            pre.print_summary()
            print("hypothesis checks failed; rerun with --force to solve "
                  "anyway", file=sys.stderr)
            return 1
    sc = cfg.chart_solution(args.chart)
    try:
        value = sol.evaluate_solution(sc, eps, t, z)
        phis = [sol.initial_condition(sc, j, eps, t)
                for j in range(cfg.problem.s_order)]
    except DomainError as exc:
        print("domain error (%s): %s" % (exc.membership, exc), file=sys.stderr)
        return 1
    print("X(eps=%s, t=%s, z=%s) = %.17g %+.17gj"
          % (eps, t, z, value.value.real, value.value.imag))
    print("series tail estimate: %.3e" % value.tail_estimate)
    print("quadrature: abs_tol=%g, initial_step=%g, max_halvings=%d"
          % (cfg.quad.abs_tol, cfg.quad.initial_step,
             cfg.quad.max_halvings))
    for j, phi in enumerate(phis):
        print("initial condition phi_%d(eps, t) = %.17g %+.17gj"
              % (j, phi.real, phi.imag))
    for w in value.warnings:
        print("warning: %s" % w)
    report.add("solve", "pass", "config.quad.abs_tol",
               value=value.value, tail_estimate=value.tail_estimate,
               chart=args.chart)
    report.write(args.out_dir, "solve_report.json")
    return 0


# ---------------------------------------------------------------------------
# verify modes
# ---------------------------------------------------------------------------

def _verify_residual(cfg: RunConfig, seed: int, report: Report,
                     out_dir: str) -> None:
    scfg = cfg.sampling.get("residual", {})
    n_points = int(scfg.get("n_points", 100))
    z_max = float(scfg.get("z_max", 0.5))
    bound = float(scfg.get("max_abs", 1e-6))
    quad = replace(cfg.quad,
                   abs_tol=float(scfg.get("abs_tol", cfg.quad.abs_tol)))
    rng = np.random.default_rng(seed)
    charts = {}
    rows = []
    worst = 0.0
    for i in range(n_points):
        idx = i % len(cfg.covering.charts)
        if idx not in charts:
            charts[idx] = cfg.chart_solution(idx, quad=quad)
        sc = charts[idx]
        ch = sc.chart
        u = rng.uniform(*ch.i1)
        v = rng.uniform(*ch.i2) - rng.integers(0, 3)
        eps = complex(np.exp(2j * math.pi * u) * qg.qpow(cfg.base, v))
        t = complex(cfg.family.t_set.sample(rng, 1)[0])
        z = complex(rng.uniform(0.0, z_max)
                    * np.exp(1j * rng.uniform(0.0, TWO_PI)))
        res = sol.equation_residual(sc, eps, t, z)
        worst = max(worst, abs(res.value))
        rows.append((i, idx, eps.real, eps.imag, t.real, t.imag,
                     z.real, z.imag, abs(res.value), abs(res.lhs),
                     abs(res.rhs), ";".join(res.warnings)))
    write_csv(out_dir, "residual.csv",
              ["index", "chart", "eps_re", "eps_im", "t_re", "t_im",
               "z_re", "z_im", "residual_abs", "lhs_abs", "rhs_abs",
               "warnings"], rows)
    report.add("residual_max", "pass" if worst <= bound else "fail",
               "config.sampling.residual.max_abs",
               max_residual=worst, bound=bound, n_points=n_points)


def _verify_flatness(cfg: RunConfig, seed: int, report: Report,
                     out_dir: str) -> None:
    scfg = cfg.sampling.get("flatness", {})
    pair = scfg.get("pair", [0, 1])
    n_points = int(scfg.get("n_points", 13))
    grid = _grid_from_config(scfg.get("grid", [{"t": [0.7, 0.0],
                                                "z": [0.3, 0.0]}]))
    one_over_a = cfg.gevrey.one_over_a(cfg.base)
    if one_over_a <= 0:
        report.add("flatness_exponent", "fail",
                   "constant-system hypothesis",
                   one_over_a=one_over_a,
                   note="nonpositive flatness exponent; run `check`")
        return
    quad = replace(cfg.quad, abs_tol=float(scfg.get("abs_tol", 1e-12)),
                   max_halvings=max(cfg.quad.max_halvings, 16))
    sc1 = cfg.chart_solution(int(pair[0]), quad=quad)
    sc2 = cfg.chart_solution(int(pair[1]), quad=quad)
    eps0 = cov.overlap_point(sc1.chart, sc2.chart, cfg.base)
    fit = sol.flatness_fit(sc1, sc2, eps0, n_points, grid, cfg.gevrey)
    rows = []
    for n, (l2, d) in enumerate(zip(fit.log2_eps, fit.d_sup)):
        rows.append((n, abs(eps0) * abs(cfg.base.q) ** (-n), l2, d,
                     math.exp(fit.intercept + fit.slope * l2)))
    write_csv(out_dir, "flatness.csv",
              ["n", "abs_eps", "log2_abs_eps", "d_sup", "fit_value"], rows)
    threshold = -0.9 * one_over_a
    report.add("flatness_slope", "pass" if fit.slope <= threshold else "fail",
               "slope <= -0.9/A (10% margin on the guaranteed exponent)",
               slope=fit.slope, threshold=threshold, r2=fit.r2,
               n_used=fit.n_used, predicted=fit.predicted)


def _verify_asympt(cfg: RunConfig, seed: int, report: Report,
                   out_dir: str) -> None:
    scfg = cfg.sampling.get("asympt", {})
    pair = scfg.get("pair", [0, 1])
    k_max = int(scfg.get("k_max", 3))
    tol = float(scfg.get("tol", 2e-3))
    depth = int(scfg.get("depth", 30))
    rel_match = float(scfg.get("rel_match", 1e-4))
    grid = _grid_from_config(scfg.get("grid", [{"t": [0.7, 0.0],
                                                "z": [0.3, 0.0]}]))
    quad = replace(cfg.quad, abs_tol=float(scfg.get("abs_tol", 1e-12)),
                   max_halvings=max(cfg.quad.max_halvings, 16))
    sc1 = cfg.chart_solution(int(pair[0]), quad=quad)
    sc2 = cfg.chart_solution(int(pair[1]), quad=quad)
    eps0 = cov.overlap_point(sc1.chart, sc2.chart, cfg.base)
    schedule = scfg.get("depths")
    schedule = tuple(schedule) if schedule else None
    series1 = sol.extract_coefficients(sc1, eps0, k_max, tol, grid,
                                       depth=depth, depth_override=schedule)
    series2 = sol.extract_coefficients(sc2, eps0, min(k_max, series1.k_max),
                                       tol, grid, depth=depth,
                                       depth_override=schedule or series1.depths)
    rows = []
    worst_rel = 0.0
    for k in range(min(series1.k_max, series2.k_max) + 1):
        for gi, (t, z) in enumerate(series1.grid):
            a = series1.coeffs[k][gi]
            b = series2.coeffs[k][gi]
            scale = max(abs(a), abs(b), 1e-10)
            rel = abs(a - b) / scale
            worst_rel = max(worst_rel, rel)
            rows.append((k, gi, t.real, t.imag, z.real, z.imag,
                         a.real, a.imag, b.real, b.imag, rel,
                         series1.stab[k]))
    write_csv(out_dir, "asympt_coeffs.csv",
              ["k", "grid_index", "t_re", "t_im", "z_re", "z_im",
               "chart1_re", "chart1_im", "chart2_re", "chart2_im",
               "rel_difference", "stabilization"], rows)
    gf = sol.gevrey_fit(series1, cfg.base)
    report.add("asympt_orders", "pass" if series1.k_max >= k_max else "fail",
               "stabilization within config.sampling.asympt.depth",
               extracted=series1.k_max, requested=k_max,
               depths=list(series1.depths))
    report.add("asympt_agreement",
               "pass" if worst_rel <= rel_match else "fail",
               "config.sampling.asympt.rel_match",
               worst_rel=worst_rel, rel_match=rel_match)
    report.add("gevrey_type",
               "pass" if (gf.degenerate or gf.b_type > 0) else "warn",
               "least squares on remainder growth",
               b_type=gf.b_type, c1=gf.c1, h=gf.h, r2=gf.r2,
               degenerate=gf.degenerate)


def _verify_properties(cfg: RunConfig, seed: int, report: Report,
                       out_dir: str) -> None:
    rng = np.random.default_rng(seed)
    base = cfg.base
    n = int(cfg.sampling.get("properties", {}).get("n_points", 200))

    worst = 0.0
    for _ in range(n):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(x) < 0.05:
            continue
        lhs = theta_fn(base.q * x, base)
        rhs = base.q * x * theta_fn(x, base)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    report.add("theta_functional_equation", "pass" if worst < 1e-10 else "fail",
               "relative 1e-10", worst_rel=worst, n=n)

    worst = 0.0
    for _ in range(n):
        mod = rng.uniform(1.0, abs(base.q) * 0.999)
        x = mod * complex(np.exp(1j * rng.uniform(0, TWO_PI)))
        direct = sum((base.q ** (-k * (k - 1) / 2.0)) * x**k
                     for k in range(-100, 101))
        worst = max(worst, abs(theta_fn(x, base) - direct)
                    / abs(direct))
    report.add("theta_reduction_vs_direct", "pass" if worst < 1e-12 else "fail",
               "relative 1e-12 on the fundamental annulus", worst_rel=worst)

    lam = cfg.lambdas[0]
    cert = cfg.cert
    settings = replace(cfg.quad, abs_tol=1e-10)
    t0 = 1.3 * lam / abs(lam)  # on the direction ray, hence theta-safe
    worst = 0.0
    for r in range(1, 4):
        phi = (lambda rr: (lambda x: x / (1.0 + x) ** rr))(r)
        mphi = (lambda rr: (lambda x: x * x / (1.0 + x) ** rr))(r)
        lhs = ql.q_laplace(mphi, lam, t0, base, cert, settings)
        rhs = t0 * ql.q_laplace(phi, lam, base.q * t0, base, cert, settings)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    report.add("transform_commutation", "pass" if worst < 1e-6 else "fail",
               "relative 1e-6 at default quadrature", worst_rel=worst)

    ev = pb.CoefficientEvaluator(problem=cfg.problem, initial=cfg.initial,
                                 base=base)
    term = cfg.problem.terms[0]
    closed_ok = True
    if (cfg.problem.s_order == 1 and len(cfg.problem.terms) == 1
            and term.z_powers == (0,)):
        for _ in range(20):
            eps = complex(rng.uniform(0.3, 0.9)
                          * np.exp(1j * rng.uniform(0, TWO_PI)))
            tau = complex(rng.uniform(1.0, 3.0)
                          * np.exp(1j * rng.uniform(-1.0, 1.0)))
            w0 = ev.coefficient(0, eps, tau)
            b0 = term.b_value(0, eps)
            ratio = b0 * tau**term.m0 / ((tau + 1.0) * eps**term.m0)
            for h in (3, 7, 11):
                closed = w0 * ratio**h \
                    * base.q ** (-term.m1 / 2.0 * h * (h - 1.0))
                it = ev.coefficient(h, eps, tau)
                if abs(closed - it) > 1e-11 * max(abs(closed), 1e-300):
                    closed_ok = False
        report.add("recursion_closed_form", "pass" if closed_ok else "fail",
                   "relative 1e-11", note="first-order single-term problem")

    ok = True
    for _ in range(20):
        k = int(rng.integers(0, 3))
        s = int(rng.integers(0, 3))
        if k + s == 0:
            s = 1
        m1 = int(rng.integers(0, max(int(cfg.gevrey.c_geom * (k + s)), 1) + 1))
        m2 = int(math.ceil(2 * (k + s) * cfg.gevrey.a1_type)
                 + rng.integers(0, 3))
        cu, cv = 0.9, 1.1
        const = pb.shift_bound_constant(s, k, m1, m2, cfg.gevrey, cu, cv, base)
        ok = ok and const > 0
    report.add("shift_bound_constant_defined", "pass" if ok else "fail",
               "hypothesis-checked evaluation")

    worst = 0.0
    for _ in range(50):
        y = rng.uniform(0.0, 50.0)
        yc = sol.young_conjugate(y, base)
        worst = max(worst, abs(yc.numeric - yc.closed_form)
                    / max(yc.closed_form, 1.0))
    report.add("young_conjugate_closed_form", "pass" if worst < 1e-9 else "fail",
               "relative 1e-9", worst_rel=worst)

    cov_rep = cov.validate_covering(cfg.covering, base, 2000, seed=seed)
    report.add("covering_quick", "pass" if cov_rep.ok else "fail",
               "2000 samples", max_multiplicity=cov_rep.max_multiplicity)


_VERIFY_MODES = {"residual": _verify_residual, "flatness": _verify_flatness,
                 "asympt": _verify_asympt, "properties": _verify_properties}


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    if not args.force:
        pre = Report(command="check", config=os.path.basename(args.config),
                     seed=seed)
        run_check(cfg, seed, pre, quick=True)
        if not pre.all_pass:
            pre.print_summary()
            print("hypothesis checks failed; rerun with --force to verify "
                  "anyway", file=sys.stderr)
            return 1
    report = Report(command="verify " + args.mode,
                    config=os.path.basename(args.config), seed=seed)
    _VERIFY_MODES[args.mode](cfg, seed, report, args.out_dir)
    report.print_summary()
    report.write(args.out_dir, "verify_%s_report.json" % args.mode)
    return 0 if report.all_pass else 1


def cmd_demo(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for name in ("demo", "strict_exponents_fail"):
        path = os.path.join(args.out_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(shipped_config_text(name))
        print("wrote %s" % path)
    demo_path = os.path.join(args.out_dir, "demo.json")
    ns = argparse.Namespace(config=demo_path, out_dir=args.out_dir, seed=None)
    code = cmd_check(ns)
    print("demo config check exit code: %d" % code)
    print("next: qgevrey verify residual --config %s --out-dir %s"
          % (demo_path, args.out_dir))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgevrey",
        description="Kernel-summed solutions of a singularly perturbed "
                    "q-difference-differential Cauchy problem, and the "
                    "quantitative verification suite around them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="path to a JSON run configuration")
        p.add_argument("--out-dir", default="out",
                       help="directory for reports and CSV datasets")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured sampling seed")

    p_check = sub.add_parser("check", help="run all hypothesis checks")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_solve = sub.add_parser("solve", help="evaluate one chart solution")
    common(p_solve)
    p_solve.add_argument("--chart", type=int, required=True)
    p_solve.add_argument("--eps", required=True, help="re,im")
    p_solve.add_argument("--t", required=True, help="re,im")
    p_solve.add_argument("--z", required=True, help="re,im")
    p_solve.add_argument("--force", action="store_true",
                         help="skip the hypothesis pre-check")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="quantitative verification modes")
    p_verify.add_argument("mode", choices=sorted(_VERIFY_MODES))
    common(p_verify)
    p_verify.add_argument("--force", action="store_true",
                          help="skip the hypothesis pre-check")
    p_verify.set_defaults(fn=cmd_verify)

    p_demo = sub.add_parser("demo", help="write the shipped configs and "
                                         "check the primary one")
    common(p_demo, needs_config=False)
    p_demo.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except QGevreyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
