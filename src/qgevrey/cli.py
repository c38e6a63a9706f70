"""Command-line surface: check, solve, verify, demo.

Exit codes: 0 when everything requested passed, 1 when a check or
verification failed (the report is still emitted), 2 for configuration
errors (nothing is computed).
"""

from __future__ import annotations

import argparse
import functools
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
from .theta import log_theta
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


def _seed(cfg: RunConfig, args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed %d must be nonnegative" % args.seed)
    return cfg.sampling["seed"] if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def run_check(cfg: RunConfig, report: Report) -> None:
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

    cov_rep = cov.covering_report(cfg.covering, cfg.base)
    report.add("covering_coverage", "pass" if cov_rep.covered else "fail",
               "exact on the torus cells of the chart endpoints",
               n_uncovered=cov_rep.n_uncovered, n_cells=cov_rep.n_cells)
    report.add("covering_multiplicity",
               "pass" if cov_rep.max_multiplicity <= 3 else "fail",
               "no four-fold overlaps",
               max_multiplicity=cov_rep.max_multiplicity,
               n_quadruple=cov_rep.n_quadruple)

    fam_rep = cov.validate_family(cfg.family, cfg.covering, cfg.base)
    report.add("family_minus_one_clearance",
               "pass" if fam_rep.v_clearance_ok else "fail",
               "config.family.delta",
               clearance=fam_rep.v_clearance, delta=cfg.family.delta)
    report.add("family_kernel_clearance",
               "pass" if fam_rep.kernel_clearance_ok else "fail",
               "config.family.delta",
               clearance=fam_rep.kernel_clearance, delta=cfg.family.delta)

    eps_patch = qg.ContinuousBase(
        mod=(cov_rep.r_min, cov_rep.r_max), arg=(0.0, TWO_PI))
    spiral_patch = qg.ContinuousBase(
        mod=(cfg.family.v_sets[0].mod[0],
             cfg.family.v_sets[0].mod[1] * abs(cfg.base.q) ** 3),
        arg=cfg.family.v_sets[0].arg)
    disc_patch = qg.ContinuousBase(
        mod=(0.05, cfg.family.rho0),
        arg=(-math.pi + 0.25, math.pi - 0.25))
    fits = {pname: pb.admissibility_fits(cfg.initial.components, eps_patch,
                                         patch, cfg.gevrey, n=16)
            for pname, patch in (("spiral", spiral_patch),
                                 ("disc", disc_patch))}
    for j in range(len(cfg.initial.components)):
        for pname, pfits in fits.items():
            fit = pfits[j]
            report.add("admissibility[j=%d,%s]" % (j, pname),
                       "pass" if fit.passed else "fail",
                       "10%% stability under grid refinement",
                       envelope=fit.delta, m_used=fit.m_used)


def cmd_check(args) -> int:
    # no check draws a sample: the report carries no seed, and --seed,
    # accepted by every command, changes nothing here
    cfg = load_config(args.config)
    report = Report(command="check", config=os.path.basename(args.config),
                    seed=None)
    run_check(cfg, report)
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
    n_charts = len(cfg.covering.charts)
    if not 0 <= args.chart < n_charts:
        raise ConfigError("--chart %d is not a chart index in [0, %d)"
                          % (args.chart, n_charts))
    # the series sums z^beta / beta!, beta <= beta_max, and its tail
    # estimate |z|^(beta_max + 1): beyond e^700 they are no doubles
    if abs(z) > 1.0 and (cfg.beta_max + 1) * math.log(abs(z)) > 700.0:
        raise ConfigError("--z %s is too large for beta_max = %d: |z|^%d "
                          "exceeds e^700, near the largest double"
                          % (args.z, cfg.beta_max, cfg.beta_max + 1))
    if not args.force:
        pre = Report(command="check", config=report.config, seed=None)
        run_check(cfg, pre)
        if not pre.all_pass:
            pre.print_summary()
            print("hypothesis checks failed; rerun with --force to solve "
                  "anyway", file=sys.stderr)
            return 1
    sc = cfg.chart_solution(args.chart)
    try:
        value = sol.evaluate_solution(sc, eps, t, z)
    except DomainError as exc:
        print("domain error (%s): %s" % (exc.membership, exc), file=sys.stderr)
        return 1
    print("X(eps=%s, t=%s, z=%s) = %.17g %+.17gj"
          % (eps, t, z, value.value.real, value.value.imag))
    print("series tail estimate: %.3e" % value.tail_estimate)
    print("quadrature: abs_tol=%g, initial_step=%g, max_halvings=%d"
          % (cfg.quad.abs_tol, cfg.quad.initial_step,
             cfg.quad.max_halvings))
    # the initial conditions: the first S transforms of the summed block
    for j, phi in enumerate(value.block[:cfg.problem.s_order].tolist()):
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

def _residual_draws(cfg: RunConfig, rng, n: int, z_max: float):
    """``(chart, eps, t, z)`` of ``n`` points, one rng call per coordinate:
    point i on chart i mod n_charts, eps in its ``(u, v)`` box less a shift
    of v in {0, 1, 2}, t in ``t_set``, ``|z| <= z_max``."""
    idx = np.arange(n) % len(cfg.covering.charts)
    box = np.array([(*ch.i1, *ch.i2) for ch in cfg.covering.charts])[idx]
    u = rng.uniform(box[:, 0], box[:, 1])
    v = rng.uniform(box[:, 2], box[:, 3]) - rng.integers(0, 3, size=n)
    eps = np.exp(2j * math.pi * u) * qg.qpow(cfg.base, v)
    t = cfg.family.t_set.sample(rng, n)
    z = rng.uniform(0.0, z_max, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
    return idx, eps, t, z


def _verify_residual(cfg: RunConfig, seed: int, report: Report,
                     out_dir: str) -> None:
    scfg = cfg.sampling["residual"]
    n_points, z_max, bound = scfg["n_points"], scfg["z_max"], scfg["max_abs"]
    quad = replace(cfg.quad, abs_tol=scfg["abs_tol"])
    points = list(zip(range(n_points), *(a.tolist() for a in _residual_draws(
        cfg, np.random.default_rng(seed), n_points, z_max))))
    charts = {idx: cfg.chart_solution(idx, quad=quad)
              for idx in dict.fromkeys(p[1] for p in points)}
    # every transform block the residuals read, of all charts, as one
    # batch, and both sides summed over all points at once
    results = sol.equation_residuals([(charts[idx], eps, t, z)
                                      for _, idx, eps, t, z in points])
    rows = []
    worst = 0.0
    for (i, idx, eps, t, z), res in zip(points, results):
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


def _chart_pair(cfg: RunConfig, scfg: dict):
    """The two charts of a sampling block's ``pair``, solved at its
    ``abs_tol`` with at least 16 halvings, and a point of their overlap."""
    quad = replace(cfg.quad, abs_tol=scfg["abs_tol"],
                   max_halvings=max(cfg.quad.max_halvings, 16))
    sc1, sc2 = (cfg.chart_solution(i, quad=quad) for i in scfg["pair"])
    return sc1, sc2, cov.overlap_point(sc1.chart, sc2.chart, cfg.base)


def _verify_flatness(cfg: RunConfig, seed: int, report: Report,
                     out_dir: str) -> None:
    scfg = cfg.sampling["flatness"]
    one_over_a = cfg.gevrey.one_over_a(cfg.base)
    if one_over_a <= 0:
        report.add("flatness_exponent", "fail",
                   "constant-system hypothesis",
                   one_over_a=one_over_a,
                   note="nonpositive flatness exponent; run `check`")
        return
    sc1, sc2, eps0 = _chart_pair(cfg, scfg)
    fit = sol.flatness_fit(sc1, sc2, eps0, scfg["n_points"], scfg["grid"],
                           cfg.gevrey)
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
    scfg = cfg.sampling["asympt"]
    k_max, tol, depth = scfg["k_max"], scfg["tol"], scfg["depth"]
    rel_match, grid = scfg["rel_match"], scfg["grid"]
    sc1, sc2, eps0 = _chart_pair(cfg, scfg)
    schedule = scfg["depths"] or None
    q = cfg.base.q
    # both charts' samples as one batch, on the levels the schedule reads
    # (depth caps them); chart 2 replays chart 1's depths, all among them
    eps_values = sol.eps_sequence(eps0, q,
                                  sol.extraction_levels(depth, schedule))
    samples1, samples2 = sol._solution_samples((sc1, sc2), eps_values, grid)
    series1 = sol.extract_from_samples(samples1, eps_values, q, k_max, tol,
                                       grid=grid, depth_override=schedule)
    series2 = sol.extract_from_samples(samples2, eps_values, q,
                                       series1.k_max, tol, grid=grid,
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
    report.add("asympt_orders", "pass" if series1.k_max >= k_max else "fail",
               "stabilization within config.sampling.asympt.depth",
               extracted=series1.k_max, requested=k_max,
               depths=list(series1.depths))
    report.add("asympt_agreement",
               "pass" if worst_rel <= rel_match else "fail",
               "config.sampling.asympt.rel_match",
               worst_rel=worst_rel, rel_match=rel_match)


def _theta_direct(x: np.ndarray, base: qg.QBase) -> np.ndarray:
    """theta on the annulus ``1 <= |x| < |q|`` summed directly over k =
    -100..100, the terms above double underflow (``|q^{-k(k-1)/2}|
    |q|^{max(k, 0)} > e^{-690}``, 91 of 201 at q = 2), as one product."""
    k = np.arange(-100.0, 101.0)
    k = k[(np.maximum(k, 0) - k * (k - 1) / 2) * base.log_abs_q > -690]
    return (np.power(base.q, -k * (k - 1.0) / 2.0)
            * x[:, None] ** k).sum(axis=1)


def _commutation_rows(x: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``x phi_r`` on block 0 and ``phi_r = x / (1 + x)^r`` on block 1, r =
    1..3: the numerators of the commutation row."""
    w = np.where(block == 0, x, 1.0)
    return np.stack([w * x / (1.0 + x) ** r for r in (1, 2, 3)])


def _verify_properties(cfg: RunConfig, seed: int, report: Report,
                       out_dir: str) -> None:
    rng = np.random.default_rng(seed)
    base = cfg.base
    n = cfg.sampling["properties"]["n_points"]

    # (re, im) per point: the stream of one uniform call per value, so
    # the later rows see the same samples
    xy = rng.uniform(-3, 3, size=(n, 2))
    x = xy[:, 0] + 1j * xy[:, 1]
    x = x[np.abs(x) >= 0.05]
    # theta beyond double range is inf, its relative error inf or NaN, and
    # np.max keeps either, so the row fails: no silent pass
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.exp(log_theta(base.q * x, base))
        rhs = base.q * x * np.exp(log_theta(x, base))
        worst = float(np.max(np.abs(lhs - rhs)
                             / np.maximum(np.abs(lhs), 1e-300), initial=0.0))
    report.add("theta_functional_equation", "pass" if worst < 1e-10 else "fail",
               "relative 1e-10", worst_rel=worst, n=n)

    polar = rng.uniform((1.0, 0.0), (abs(base.q) * 0.999, TWO_PI),
                        size=(n, 2))
    x = polar[:, 0] * np.exp(1j * polar[:, 1])
    # only theta-safe samples, as criterion 02 takes them: next to theta's
    # zeros at -q^Z any summation, the direct one too, loses its digits
    x = x[qg.in_theta_safe(1.0, x, base, 0.2)]
    direct = _theta_direct(x, base)
    # a direct sum of 0 fails the row with inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        worst = float(np.max(np.abs(np.exp(log_theta(x, base)) - direct)
                             / np.abs(direct), initial=0.0))
    report.add("theta_reduction_vs_direct",
               "pass" if x.size and worst < 1e-12 else "fail",
               "relative 1e-12 on the theta-safe fundamental annulus",
               worst_rel=worst, n_samples=int(x.size))

    # T(x phi)(t0) = t0 T(phi)(q t0) for phi_r = x / (1 + x)^r, r = 1..3:
    # both sides as one batch of two blocks
    lam = cfg.lambdas[0]
    t0 = 1.3 * lam / abs(lam)  # on the direction ray, hence theta-safe
    lhs, rhs = ql.q_laplace_batch(_commutation_rows, [lam, lam],
                                  [t0, base.q * t0], base,
                                  replace(cfg.quad, abs_tol=1e-10), 3)
    worst = max(abs(a - t0 * b) / max(abs(a), 1e-300)
                for a, b in zip(lhs.tolist(), rhs.tolist()))
    report.add("transform_commutation", "pass" if worst < 1e-6 else "fail",
               "relative 1e-6 at default quadrature", worst_rel=worst)


_VERIFY_MODES = {"residual": _verify_residual, "flatness": _verify_flatness,
                 "asympt": _verify_asympt, "properties": _verify_properties}


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    if not args.force:
        pre = Report(command="check", config=os.path.basename(args.config),
                     seed=None)
        run_check(cfg, pre)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: ``main``
    runs once per command, and argparse takes about a millisecond to
    build it."""
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
