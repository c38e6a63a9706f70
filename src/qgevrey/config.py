"""Run configuration: strict JSON schema, domain builders, demo shipping.

All angular quantities in config files are given in turns (the chart
parameterization is ``exp(2*pi*i*u) q^v``); they are converted to radians
once, here.  Complex numbers are ``[re, im]`` pairs.  Unknown fields are
rejected so silent typos cannot weaken a verification run.  A sampling
key a config omits takes its default here (:func:`_sampling_defaults`).

Environment override (tolerance only):

* ``QGEVREY_ABS_TOL`` - quadrature absolute tolerance.

The theta series has no settings: it is summed to a fixed uniform
truncation order (see :mod:`qgevrey.theta`).
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources

from .covering import (AssociatedFamily, GoodCovering, build_covering,
                       overlap_point, pick_lambda)
from .errors import ConfigError
from .problem import (CauchyProblem, CoefficientEvaluator, GevreyParams,
                      InitialData, InitialTerm, ProblemTerm)
from .qgeometry import ContinuousBase, QBase, in_discrete_spiral
from .qlaplace import QuadSettings
from .solution import BETA_MAX_LIMIT, SolutionChart

TWO_PI = 2.0 * math.pi


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


@contextmanager
def _field(where: str):
    """A ValueError or TypeError raised in the block, as a
    :class:`ConfigError` that names the field ``where``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (where, exc)) from None


def _check_keys(obj: dict, allowed: set, required: set, where: str):
    _require(isinstance(obj, dict), "%s must be an object" % where)
    unknown = set(obj) - set(allowed)
    _require(not unknown, "%s has unknown field(s): %s"
             % (where, ", ".join(sorted(unknown))))
    missing = required - set(obj)
    _require(not missing, "%s is missing field(s): %s"
             % (where, ", ".join(sorted(missing))))


def _fields(obj: dict, kinds: dict, required: set, where: str, build=dict):
    """``build(**values)`` of ``obj``, checked as by :func:`_check_keys`
    against the keys of ``kinds``, each value converted by its entry
    there."""
    _check_keys(obj, kinds, required, where)
    values = {}
    try:
        for key, value in obj.items():
            values[key] = kinds[key](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s.%s: %s" % (where, key, exc)) from None
    with _field(where):
        return build(**values)


def _is_number(v) -> bool:
    """A finite JSON number: ``true`` and ``false`` are not, though
    Python's ``bool`` is an ``int``, nor are ``NaN``, ``Infinity``, a
    literal beyond double range such as ``1e400`` (parsed as infinity) and
    an integer too large for a double."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def _int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError("%r is not an integer" % (v,))
    return v


def _float(v) -> float:
    if not _is_number(v):
        raise TypeError("%r is not a finite number" % (v,))
    return float(v)


def _ints(v) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise TypeError("%r is not a list of integers" % (v,))
    return tuple(_int(i) for i in v)


def _complex(v, where: str) -> complex:
    _require(isinstance(v, list) and len(v) == 2
             and all(_is_number(x) for x in v),
             "%s must be a [re, im] pair of finite numbers" % where)
    return complex(v[0], v[1])


def _interval(v, where: str) -> tuple[float, float]:
    _require(isinstance(v, list) and len(v) == 2
             and all(_is_number(x) for x in v),
             "%s must be a [lo, hi] pair of finite numbers" % where)
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
    beta_max: int
    sampling: dict  # every key, converted; grid entries as (t, z) pairs

    def chart_solution(self, index: int, **overrides) -> SolutionChart:
        ev = CoefficientEvaluator(problem=self.problem, initial=self.initial,
                                  base=self.base)
        kw = dict(chart_index=index, chart=self.covering.charts[index],
                  lam=self.lambdas[index], evaluator=ev,
                  beta_max=self.beta_max, quad=self.quad,
                  delta=self.family.delta, t_set=self.family.t_set)
        kw.update(overrides)
        return SolutionChart(**kw)


_TOP_KEYS = {"description", "base", "problem", "gevrey", "initial",
             "covering", "family", "solution", "quad", "sampling"}
_SAMPLING_BLOCKS = {
    "residual": {"n_points": _int, "z_max": _float, "max_abs": _float,
                 "abs_tol": _float},
    "flatness": {"pair": _ints, "n_points": _int, "abs_tol": _float,
                 "grid": list},
    "asympt": {"pair": _ints, "k_max": _int, "tol": _float,
               "abs_tol": _float, "depth": _int, "depths": _ints,
               "rel_match": _float, "grid": list},
    "properties": {"n_points": _int},
}
_SAMPLING_KEYS = dict(seed=_int, **dict.fromkeys(_SAMPLING_BLOCKS, dict))


def _sampling_defaults(quad: QuadSettings) -> dict:
    """Every sampling key's default, in the config's form."""
    grid = [{"t": [0.7, 0.0], "z": [0.3, 0.0]}]
    return {"seed": 0,
            "residual": {"n_points": 100, "z_max": 0.5, "max_abs": 1e-6,
                         "abs_tol": quad.abs_tol},
            "flatness": {"pair": [0, 1], "n_points": 13, "abs_tol": 1e-12,
                         "grid": grid},
            "asympt": {"pair": [0, 1], "k_max": 3, "tol": 2e-3,
                       "abs_tol": 1e-12, "depth": 30, "depths": [],
                       "rel_match": 1e-4, "grid": grid},
            "properties": {"n_points": 200}}


# the range of each sampling count, by its block and key under "sampling":
# a verification on fewer points checks nothing or fails inside a fit
# (the flatness fit takes 8 levels, an extraction step 3 levels), and
# extraction stops at order 4
_SAMPLING_RANGES = {("residual", "n_points"): (1, math.inf),
                    ("flatness", "n_points"): (8, math.inf),
                    ("asympt", "k_max"): (2, 4),
                    ("asympt", "depth"): (2, math.inf),
                    ("properties", "n_points"): (1, math.inf)}


def _check_pair(pair: tuple[int, ...], covering: GoodCovering, base: QBase,
                where: str) -> None:
    """Require two distinct charts of ``covering`` whose
    :func:`~qgevrey.covering.overlap_point`, the point the chart-pair
    diagnostics start from, lies on both discrete spirals."""
    n = len(covering.charts)
    _require(len(pair) == 2 and all(0 <= i < n for i in pair),
             "%s must be two chart indices below %d" % (where, n))
    _require(pair[0] != pair[1], "%s names chart %d twice" % (where, pair[0]))
    charts = [covering.charts[i] for i in pair]
    try:
        eps = overlap_point(*charts, base)
        ok = all(in_discrete_spiral(eps, ch, base) for ch in charts)
    except ValueError:  # no u-overlap
        ok = False
    _require(ok, "%s: charts %d and %d have no overlap point on both "
             "discrete spirals" % ((where,) + tuple(pair)))


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
    mod, delta, rho0 = fam_cfg["v_mod"], fam_cfg["delta"], fam_cfg["rho0"]
    _require(0.0 < delta < 1.0, "family.delta must lie in (0, 1)")
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
    """The run configuration of ``doc``; a malformed field, or a value the
    domain types reject, raises :class:`ConfigError` naming the field."""
    _check_keys(doc, _TOP_KEYS, _TOP_KEYS - {"description"}, source)

    base = _fields(doc["base"], {"q": lambda v: QBase(_complex(v, "base.q"))},
                   {"q"}, "base")["q"]

    p = _fields(doc["problem"], {"s_order": _int, "terms": list},
                {"s_order", "terms"}, "problem")
    terms = []
    for ti, t in enumerate(p["terms"]):
        where = "problem.terms[%d]" % ti
        t = _fields(t, {"k": _int, "m0": _int, "m1": _int, "coeffs": list},
                    {"k", "m0", "m1", "coeffs"}, where)
        coeffs = []
        for ci, c in enumerate(t["coeffs"]):
            cw = "%s.coeffs[%d]" % (where, ci)
            c = _fields(c, {"s": _int, "poly": list}, {"s", "poly"}, cw)
            poly = tuple(_complex(v, cw + ".poly") for v in c["poly"])
            coeffs.append((c["s"], poly))
        with _field(where):
            terms.append(ProblemTerm(**dict(t, coeffs=tuple(coeffs))))
    with _field("problem"):
        problem = CauchyProblem(**dict(p, terms=tuple(terms)))

    gk = dict.fromkeys("m_big a1_type c_geom xi xi_bar a1 a2 b1 b2 d1 d2"
                       .split(), _float)
    gevrey = _fields(doc["gevrey"], gk, set(gk), "gevrey", GevreyParams)

    init = doc["initial"]
    _require(isinstance(init, list) and len(init) == problem.s_order,
             "initial must list exactly S = %d components" % problem.s_order)
    components = []
    for j, comp in enumerate(init):
        _require(isinstance(comp, list), "initial[%d] must be a list" % j)
        terms_j = []
        for wi, w in enumerate(comp):
            ww = "initial[%d][%d]" % (j, wi)
            terms_j.append(_fields(w, {"c": lambda v: _complex(v, ww + ".c"),
                                       "a": _int, "b": _int, "r": _int},
                                   {"c"}, ww, InitialTerm))
        components.append(tuple(terms_j))
    initial = InitialData(components=tuple(components))

    covering = _fields(doc["covering"], {"n_u": _int, "n_v": _int,
                                         "overlap": _float, "v_top": _float},
                       {"n_u", "n_v", "overlap"}, "covering", build_covering)

    fk = {"rho0": _float, "delta": _float,
          "t_set": lambda v: _patch(v, "family.t_set"),
          "v_mod": lambda v: _interval(v, "family.v_mod"),
          "v_arg_halfwidth_turns": _float, "lambda_offset_turns": _float}
    fam = _fields(doc["family"], fk, set(fk), "family")
    with _field("family"):
        v_sets, lambdas = _build_directions(covering, fam, base)
        family = AssociatedFamily(v_sets=v_sets, t_set=fam["t_set"],
                                  rho0=fam["rho0"], delta=fam["delta"])

    beta_max = _fields(doc["solution"], {"beta_max": _int}, {"beta_max"},
                       "solution")["beta_max"]
    _require(problem.s_order <= beta_max <= BETA_MAX_LIMIT,
             "solution.beta_max = %d is unsupported: it must lie between "
             "the equation order %d and %d"
             % (beta_max, problem.s_order, BETA_MAX_LIMIT))

    qk = {"abs_tol": _float, "initial_step": _float, "max_halvings": _int}
    quad = _fields(doc["quad"], qk, set(), "quad", QuadSettings)
    if "QGEVREY_ABS_TOL" in os.environ:
        with _field("QGEVREY_ABS_TOL"):
            quad = replace(quad, abs_tol=float(os.environ["QGEVREY_ABS_TOL"]))

    defaults = _sampling_defaults(quad)
    samp = {**defaults, **_fields(doc["sampling"], _SAMPLING_KEYS, set(),
                                  "sampling")}
    _require(samp["seed"] >= 0, "sampling.seed = %d must be nonnegative"
             % samp["seed"])
    for name, kinds in _SAMPLING_BLOCKS.items():
        where = "sampling." + name
        block = samp[name] = _fields({**defaults[name], **samp[name]}, kinds,
                                     set(), where)
        # a tolerance of 0 or below stops no quadrature, a z_max below 0
        # leaves no z to draw
        for key in ("abs_tol", "z_max"):
            if key in block:
                _require(block[key] > 0, "%s.%s = %g must be positive"
                         % (where, key, block[key]))
        if "pair" in block:
            _check_pair(block["pair"], covering, base, where + ".pair")
        grid = block.get("grid", [])
        _require(grid or "grid" not in block,
                 "%s.grid must list at least one (t, z) point" % where)
        for gi, entry in enumerate(grid):
            gw = "%s.grid[%d]" % (where, gi)
            _check_keys(entry, {"t", "z"}, {"t", "z"}, gw)
            grid[gi] = (_complex(entry["t"], gw + ".t"),
                        _complex(entry["z"], gw + ".z"))
    for path, (lo, hi) in _SAMPLING_RANGES.items():
        value = samp[path[0]][path[1]]
        _require(lo <= value <= hi, "sampling.%s = %d must be %s"
                 % (".".join(path), value, "at least %d" % lo
                    if hi == math.inf else "between %d and %d" % (lo, hi)))
    # a depth schedule names one depth per extracted order
    asympt = samp["asympt"]
    depths, k_max = asympt["depths"], asympt["k_max"]
    _require(not depths or len(depths) > k_max,
             "sampling.asympt.depths lists %d depths; k_max = %d needs %d"
             % (len(depths), k_max, k_max + 1))
    # a depth is a level index along eps0 q^-n
    _require(all(d >= 0 for d in depths),
             "sampling.asympt.depths %s must be nonnegative" % list(depths))

    return RunConfig(description=str(doc.get("description", "")), base=base,
                     problem=problem, gevrey=gevrey, initial=initial,
                     covering=covering, family=family, lambdas=lambdas,
                     quad=quad, beta_max=beta_max, sampling=samp)


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
