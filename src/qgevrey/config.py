"""Run configuration: strict JSON schema, domain builders, demo shipping.

All angular quantities in config files are given in turns (the chart
parameterization is ``exp(2*pi*i*u) q^v``); they are converted to radians
once, here.  Complex numbers are ``[re, im]`` pairs.  Unknown fields are
rejected so silent typos cannot weaken a verification run.

Environment overrides (tolerances only):

* ``QGEVREY_ABS_TOL``  - quadrature absolute tolerance,
* ``QGEVREY_THETA_TOL`` - theta truncation tolerance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources

from .covering import AssociatedFamily, GoodCovering, build_covering, pick_lambda
from .errors import ConfigError
from .problem import (CauchyProblem, CoefficientEvaluator, GevreyParams,
                      InitialData, InitialTerm, ProblemTerm)
from .qgeometry import ContinuousBase, QBase
from .qlaplace import GrowthCertificate, QuadSettings
from .solution import BETA_MAX_LIMIT, SolutionChart
from .theta import ThetaSettings

TWO_PI = 2.0 * math.pi


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_keys(obj: dict, allowed: set, required: set, where: str):
    _require(isinstance(obj, dict), "%s must be an object" % where)
    unknown = set(obj) - allowed
    _require(not unknown, "%s has unknown field(s): %s"
             % (where, ", ".join(sorted(unknown))))
    missing = required - set(obj)
    _require(not missing, "%s is missing field(s): %s"
             % (where, ", ".join(sorted(missing))))


def _complex(v, where: str) -> complex:
    _require(isinstance(v, list) and len(v) == 2
             and all(isinstance(x, (int, float)) for x in v),
             "%s must be a [re, im] pair" % where)
    return complex(v[0], v[1])


def _interval(v, where: str) -> tuple[float, float]:
    _require(isinstance(v, list) and len(v) == 2
             and all(isinstance(x, (int, float)) for x in v),
             "%s must be a [lo, hi] pair" % where)
    return float(v[0]), float(v[1])


def _patch(obj: dict, where: str) -> ContinuousBase:
    _check_keys(obj, {"mod", "arg_turns"}, {"mod", "arg_turns"}, where)
    mod = _interval(obj["mod"], where + ".mod")
    arg = _interval(obj["arg_turns"], where + ".arg_turns")
    return ContinuousBase(mod=mod, arg=(arg[0] * TWO_PI, arg[1] * TWO_PI))


@dataclass
class RunConfig:
    description: str
    base: QBase
    problem: CauchyProblem
    gevrey: GevreyParams
    initial: InitialData
    covering: GoodCovering
    family: AssociatedFamily
    lambdas: tuple[complex, ...]
    quad: QuadSettings
    theta: ThetaSettings
    cert: GrowthCertificate
    beta_max: int
    sampling: dict
    raw: dict

    def chart_solution(self, index: int, **overrides) -> SolutionChart:
        ev = CoefficientEvaluator(problem=self.problem, initial=self.initial,
                                  base=self.base)
        kw = dict(chart_index=index, chart=self.covering.charts[index],
                  lam=self.lambdas[index], evaluator=ev,
                  beta_max=self.beta_max, quad=self.quad, cert=self.cert,
                  delta=self.family.delta, t_set=self.family.t_set)
        kw.update(overrides)
        return SolutionChart(**kw)


_TOP_KEYS = {"description", "base", "problem", "gevrey", "initial",
             "covering", "family", "solution", "quad", "theta", "sampling"}
_SAMPLING_BLOCKS = {
    "residual": {"n_points", "z_max", "max_abs", "abs_tol"},
    "flatness": {"pair", "n_points", "abs_tol", "grid"},
    "asympt": {"pair", "k_max", "tol", "abs_tol", "depth", "depths",
               "rel_match", "grid"},
    "properties": {"n_points"},
}
_SAMPLING_KEYS = {"seed", "n_cover_samples", "n_family_samples"} \
    | set(_SAMPLING_BLOCKS)


def _build_directions(covering: GoodCovering, fam_cfg: dict, base: QBase
                      ) -> tuple[tuple[ContinuousBase, ...], tuple[complex, ...]]:
    """Per-chart direction patches offset from the chart's angular center.

    The offset alternates sign with the chart's angular index, so the
    sector between adjacent directions straddles the kernel's pole spiral
    (giving the flatness experiment a genuinely nonzero difference), while
    each direction keeps a guarded angular distance from the pole spiral
    of its own chart (and its patch's two-sided spiral avoids ``-1``).
    """
    psi = fam_cfg["lambda_offset_turns"] * TWO_PI
    hw = fam_cfg["v_arg_halfwidth_turns"] * TWO_PI
    mod = _interval(fam_cfg["v_mod"], "family.v_mod")
    delta = float(fam_cfg["delta"])
    rho0 = float(fam_cfg["rho0"])
    guard = math.asin(min(1.5 * delta, 0.99)) + hw + 0.05
    n_u = covering.n_u
    v_sets, lams = [], []
    for idx, chart in enumerate(covering.charts):
        i = idx % n_u
        sign = 1.0 if i % 2 == 0 else -1.0
        center = None
        for attempt in (sign, -sign):
            cand = math.pi + TWO_PI * chart.u_mid + attempt * psi
            dd = (cand - math.pi) % TWO_PI
            if min(dd, TWO_PI - dd) > guard:
                center = cand
                break
        if center is None:
            raise ConfigError(
                "chart %d: no direction offset clears the -1 spiral; "
                "adjust lambda_offset_turns or delta" % idx)
        patch = ContinuousBase(mod=mod, arg=(center - hw, center + hw))
        v_sets.append(patch)
        lams.append(pick_lambda(patch, rho0))
    return tuple(v_sets), tuple(lams)


def parse_config(doc: dict, source: str = "<config>") -> RunConfig:
    _check_keys(doc, _TOP_KEYS, _TOP_KEYS - {"description"}, source)

    b = doc["base"]
    _check_keys(b, {"q"}, {"q"}, "base")
    base = QBase(_complex(b["q"], "base.q"))

    p = doc["problem"]
    _check_keys(p, {"s_order", "r0", "terms"}, {"s_order", "terms"}, "problem")
    terms = []
    for ti, t in enumerate(p["terms"]):
        where = "problem.terms[%d]" % ti
        _check_keys(t, {"k", "m0", "m1", "coeffs"},
                    {"k", "m0", "m1", "coeffs"}, where)
        coeffs = []
        for ci, c in enumerate(t["coeffs"]):
            cw = "%s.coeffs[%d]" % (where, ci)
            _check_keys(c, {"s", "poly"}, {"s", "poly"}, cw)
            poly = tuple(_complex(v, cw + ".poly") for v in c["poly"])
            coeffs.append((int(c["s"]), poly))
        terms.append(ProblemTerm(k=int(t["k"]), m0=int(t["m0"]),
                                 m1=int(t["m1"]), coeffs=tuple(coeffs)))
    problem = CauchyProblem(s_order=int(p["s_order"]), terms=tuple(terms),
                            r0=float(p.get("r0", 1.0)))

    g = doc["gevrey"]
    gk = {"m_big", "m_tilde", "a1_type", "c_geom", "delta_theta", "xi",
          "xi_bar", "a1", "a2", "b1", "b2", "d1", "d2"}
    _check_keys(g, gk, gk, "gevrey")
    gevrey = GevreyParams(**{k: float(v) for k, v in g.items()})

    init = doc["initial"]
    _require(isinstance(init, list) and len(init) == problem.s_order,
             "initial must list exactly S = %d components" % problem.s_order)
    components = []
    for j, comp in enumerate(init):
        terms_j = []
        for wi, w in enumerate(comp):
            ww = "initial[%d][%d]" % (j, wi)
            _check_keys(w, {"c", "a", "b", "r"}, {"c"}, ww)
            terms_j.append(InitialTerm(c=_complex(w["c"], ww + ".c"),
                                       a=int(w.get("a", 0)),
                                       b=int(w.get("b", 0)),
                                       r=int(w.get("r", 0))))
        components.append(tuple(terms_j))
    initial = InitialData(components=tuple(components))

    cov = doc["covering"]
    _check_keys(cov, {"n_u", "n_v", "overlap", "v_top"},
                {"n_u", "n_v", "overlap"}, "covering")
    covering = build_covering(int(cov["n_u"]), int(cov["n_v"]),
                              float(cov["overlap"]),
                              v_top=float(cov.get("v_top", -0.02)))

    fam = doc["family"]
    fk = {"rho0", "delta", "t_set", "v_mod", "v_arg_halfwidth_turns",
          "lambda_offset_turns"}
    _check_keys(fam, fk, fk, "family")
    t_set = _patch(fam["t_set"], "family.t_set")
    v_sets, lambdas = _build_directions(covering, fam, base)
    family = AssociatedFamily(v_sets=v_sets, t_set=t_set,
                              rho0=float(fam["rho0"]),
                              delta=float(fam["delta"]))

    sol = doc["solution"]
    _check_keys(sol, {"beta_max", "cert_c1", "cert_mbar"},
                {"beta_max", "cert_c1", "cert_mbar"}, "solution")
    cert = GrowthCertificate(c1=float(sol["cert_c1"]),
                             mbar=float(sol["cert_mbar"]))
    beta_max = int(sol["beta_max"])
    _require(problem.s_order <= beta_max <= BETA_MAX_LIMIT,
             "solution.beta_max = %d is unsupported: it must lie between "
             "the equation order %d and %d"
             % (beta_max, problem.s_order, BETA_MAX_LIMIT))

    qd = doc.get("quad", {})
    _check_keys(qd, {"abs_tol", "initial_step", "max_halvings", "s_pad"},
                set(), "quad")
    abs_tol = float(os.environ.get("QGEVREY_ABS_TOL",
                                   qd.get("abs_tol", 1e-10)))
    quad = QuadSettings(abs_tol=abs_tol,
                        initial_step=float(qd.get("initial_step", 0.25)),
                        max_halvings=int(qd.get("max_halvings", 14)),
                        s_pad=float(qd.get("s_pad", 2.0)))

    th = doc.get("theta", {})
    _check_keys(th, {"tol", "max_terms"}, set(), "theta")
    theta = ThetaSettings(
        tol=float(os.environ.get("QGEVREY_THETA_TOL", th.get("tol", 1e-14))),
        max_terms=int(th.get("max_terms", 256)))

    samp = doc.get("sampling", {})
    _check_keys(samp, _SAMPLING_KEYS, set(), "sampling")
    for name, keys in _SAMPLING_BLOCKS.items():
        where = "sampling." + name
        block = samp.get(name, {})
        _check_keys(block, keys, set(), where)
        grid = block.get("grid", [])
        _require(isinstance(grid, list), where + ".grid must be a list")
        for gi, entry in enumerate(grid):
            gw = "%s.grid[%d]" % (where, gi)
            _check_keys(entry, {"t", "z"}, {"t", "z"}, gw)
            _complex(entry["t"], gw + ".t")
            _complex(entry["z"], gw + ".z")

    return RunConfig(description=str(doc.get("description", "")), base=base,
                     problem=problem, gevrey=gevrey, initial=initial,
                     covering=covering, family=family, lambdas=lambdas,
                     quad=quad, theta=theta, cert=cert,
                     beta_max=beta_max, sampling=dict(samp),
                     raw=doc)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    return parse_config(doc, source=path)


def shipped_config_text(name: str) -> str:
    """Text of a packaged configuration (``demo`` or ``strict_exponents_fail``)."""
    return resources.files("qgevrey.configs").joinpath(name + ".json").read_text()


def load_shipped_config(name: str) -> RunConfig:
    return parse_config(json.loads(shipped_config_text(name)),
                        source="<shipped:%s>" % name)
