import cmath
import copy
import json
import math

import numpy as np
import pytest

from qgevrey.cli import main
from qgevrey.config import (load_config, load_shipped_config, parse_config,
                            shipped_config_text)
from qgevrey.errors import ConfigError
from qgevrey.qgeometry import in_theta_safe


@pytest.fixture(scope="module")
def demo_doc():
    return json.loads(shipped_config_text("demo"))


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def trimmed(demo_doc, **sampling):
    """Demo config with drastically reduced sample counts for CLI tests."""
    doc = copy.deepcopy(demo_doc)
    doc["sampling"]["residual"] = {"n_points": 6, "z_max": 0.5,
                                   "max_abs": 1e-6, "abs_tol": 1e-8}
    doc["sampling"]["flatness"] = {
        "pair": [20, 21], "n_points": 8, "abs_tol": 1e-11,
        "grid": [{"t": [0.7, 0.0], "z": [0.3, 0.0]}]}
    doc["sampling"]["asympt"] = {
        "pair": [24, 20], "k_max": 2, "tol": 0.05, "abs_tol": 1e-11,
        "depth": 16, "depths": [14, 8, 5], "rel_match": 1e-4,
        "grid": [{"t": [0.7, 0.0], "z": [0.3, 0.0]}]}
    doc["sampling"]["properties"] = {"n_points": 40}
    doc["sampling"].update(sampling)
    return doc


# numbers of the wrong JSON type: an integer field takes no fraction and
# no bool, a number field no bool and no string
WRONG_TYPES = [
    (("covering", "n_u"), 5.7, "check"),
    (("solution", "beta_max"), 25.9, "check"),
    (("sampling", "seed"), 1.5, "check"),
    (("quad", "max_halvings"), 14.5, "check"),
    (("sampling", "asympt", "depths"), [20.5, 10, 7, 4], "verify asympt"),
    (("problem", "s_order"), True, "check"),
    (("quad", "abs_tol"), "1e-8", "check"),
    (("covering", "overlap"), "0.1", "check"),
    (("base", "q"), [True, False], "check"),
    (("family", "v_mod"), [True, 1.4], "check"),
]

# field path (or environment variable), bad value, command: each must end
# in a configuration error, not a traceback
BAD_VALUES = [
    (("problem", "terms"), 5, "check"),
    (("problem", "terms", 0, "k"), "abc", "check"),
    (("problem", "s_order"), 0, "check"),
    (("gevrey", "xi"), "x", "check"),
    (("covering", "n_u"), "five", "check"),
    (("covering", "n_u"), 0, "check"),
    (("covering", "overlap"), 5, "check"),
    (("solution", "beta_max"), None, "check"),
    (("quad", "initial_step"), 2.0, "check"),
    (("quad", "initial_step"), -1, "check"),
    (("quad", "initial_step"), 0, "check"),
    (("quad", "initial_step"), math.nan, "check"),
    (("quad", "abs_tol"), math.inf, "check"),
    (("quad", "abs_tol"), "a", "check"),
    (("base", "q"), [1, 0], "check"),
    (("base", "q"), [0.5, 0], "check"),
    (("family", "delta"), -1, "check"),
    # what check's family_directions and family_t_bounded rows tested: a
    # direction patch with no modulus in (1, rho0), and |t| > 1
    (("family", "t_set", "mod"), [0.4, 1.2], "check"),
    (("family", "rho0"), 1.05, "check"),
    (("family", "v_mod"), [3, 4], "check"),
    (("sampling", "seed"), "x", "check"),
    # a deleted key is an unknown field, whatever its value
    (("sampling", "n_cover_samples"), -5, "check"),
    (("sampling", "n_cover_samples"), 0, "check"),
    (("sampling", "n_family_samples"), 0, "check"),
    (("sampling", "n_family_samples"), -3, "check"),
    (("sampling", "residual", "n_points"), "x", "verify residual"),
    (("sampling", "flatness", "pair"), [99, 100], "verify flatness"),
    (("sampling", "residual", "n_points"), -5, "verify residual"),
    (("sampling", "properties", "n_points"), 0, "verify properties"),
    (("sampling", "flatness", "n_points"), 0, "verify flatness"),
    (("sampling", "asympt", "k_max"), 5, "verify asympt"),
    (("sampling", "asympt", "k_max"), -1, "verify asympt"),
    (("sampling", "asympt", "k_max"), 1, "verify asympt"),
    (("sampling", "asympt", "depth"), 0, "verify asympt"),
    (("sampling", "asympt", "depth"), 1, "verify asympt"),
    (("sampling", "asympt", "depths"), [14, 8], "verify asympt"),
    (("sampling", "asympt", "depths"), [14, -1, 5], "verify asympt"),
    ("QGEVREY_ABS_TOL", "abc", "check"),
]

# bad values whose message begins with the field's name: field path, bad
# value, command, that name
NAMED_BAD_VALUES = [
    # numbers JSON accepts that no field can take
    (("initial", 0, 0, "c"), [math.nan, 0.0], "check", "initial[0][0].c"),
    (("base", "q"), [math.inf, 0], "check", "base.q"),
    (("family", "rho0"), math.inf, "check", "family.rho0"),
    (("sampling", "asympt", "rel_match"), math.inf, "verify asympt",
     "sampling.asympt.rel_match"),
    # sampling blocks verify cannot run: charts with no common point, one
    # chart twice, an overlap point off one chart's spiral, no grid point,
    # no z range, a tolerance that stops no quadrature
    (("sampling", "flatness", "pair"), [0, 12], "verify flatness",
     "sampling.flatness.pair"),
    (("sampling", "flatness", "pair"), [20, 20], "verify flatness",
     "sampling.flatness.pair"),
    (("sampling", "flatness", "pair"), [20, 15], "verify flatness",
     "sampling.flatness.pair"),
    (("sampling", "flatness", "grid"), [], "verify flatness",
     "sampling.flatness.grid"),
    (("sampling", "asympt", "grid"), [], "verify asympt",
     "sampling.asympt.grid"),
    (("sampling", "residual", "z_max"), -1, "verify residual",
     "sampling.residual.z_max"),
    (("sampling", "residual", "abs_tol"), -1, "verify residual",
     "sampling.residual.abs_tol"),
    (("sampling", "flatness", "abs_tol"), 0, "verify flatness",
     "sampling.flatness.abs_tol"),
    # numpy's generators take no negative seed
    (("sampling", "seed"), -5, "verify residual", "sampling.seed"),
    # 100,000 x 5 charts: the covering decision would ask for 931 GiB
    (("covering", "n_u"), 100000, "check", "covering: n_u * n_v"),
]
BAD_VALUES = ([entry + (None,) for entry in BAD_VALUES + WRONG_TYPES]
              + NAMED_BAD_VALUES)


class TestConfigSchema:
    @pytest.mark.parametrize(
        "path,value,command,name", BAD_VALUES,
        ids=["%s=%r" % (p if isinstance(p, str) else ".".join(map(str, p)), v)
             for p, v, _, _ in BAD_VALUES])
    def test_bad_value_exit_two(self, demo_doc, tmp_path, capsys, monkeypatch,
                                path, value, command, name):
        doc = trimmed(demo_doc)
        if isinstance(path, str):
            monkeypatch.setenv(path, value)
        else:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        cfg = write_config(tmp_path, doc)
        assert main(command.split() + ["--config", cfg,
                                       "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: %s" % (name or "") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path,value", [(p, v) for p, v, _ in WRONG_TYPES],
                             ids=["%s=%r" % (".".join(p), v)
                                  for p, v, _ in WRONG_TYPES])
    def test_wrong_number_type_names_field(self, demo_doc, path, value):
        doc = copy.deepcopy(demo_doc)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match="^%s[: ]" % ".".join(path)):
            parse_config(doc)

    @pytest.mark.parametrize("literal", ["NaN", "1e400", "1" + "0" * 400],
                             ids=["NaN", "1e400", "10**400"])
    def test_non_finite_literal_names_field(self, literal):
        # 1e400 parses as infinity; an integer beyond double range stays
        # an int, which float() cannot convert
        text = shipped_config_text("demo").replace(
            '"rho0": 2.0', '"rho0": ' + literal)
        assert literal in text
        with pytest.raises(ConfigError, match="^family.rho0: "):
            parse_config(json.loads(text))

    def test_removed_key_names_field(self, demo_doc):
        # the sample counts of the covering and the family, both decided
        # exactly now
        for key in ("n_cover_samples", "n_family_samples"):
            doc = copy.deepcopy(demo_doc)
            doc["sampling"][key] = 600
            with pytest.raises(ConfigError, match="sampling has unknown "
                               r"field\(s\): %s" % key):
                parse_config(doc)

    def test_shipped_configs_load(self):
        demo = load_shipped_config("demo")
        assert len(demo.covering.charts) == 25
        assert demo.problem.s_order == 1
        strict = load_shipped_config("strict_exponents_fail")
        assert strict.problem.s_order == 4

    def test_unknown_top_level_field_rejected(self, demo_doc):
        doc = copy.deepcopy(demo_doc)
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(doc)

    def test_unknown_nested_field_rejected(self, demo_doc, tmp_path, capsys):
        # these keys were settings once, which nothing read or which no
        # config varied: configs carrying them now fail
        for block, key in (("gevrey", "bogus"), ("solution", "cert_c1"),
                           ("problem", "r0"), ("gevrey", "m_tilde"),
                           ("gevrey", "delta_theta"), ("quad", "s_pad")):
            doc = copy.deepcopy(demo_doc)
            doc[block][key] = 2.0
            message = "%s has unknown field(s): %s" % (block, key)
            with pytest.raises(ConfigError) as err:
                parse_config(doc)
            assert message in str(err.value)
            assert main(["check", "--config", write_config(tmp_path, doc),
                         "--out-dir", str(tmp_path / "out")]) == 2
            assert message in capsys.readouterr().err

    def test_missing_required_field_rejected(self, demo_doc):
        doc = copy.deepcopy(demo_doc)
        del doc["problem"]
        with pytest.raises(ConfigError, match="missing"):
            parse_config(doc)

    def test_initial_component_count_enforced(self, demo_doc):
        doc = copy.deepcopy(demo_doc)
        doc["initial"].append([{"c": [1.0, 0.0]}])
        with pytest.raises(ConfigError, match="exactly S"):
            parse_config(doc)

    def test_complex_pairs_enforced(self, demo_doc):
        doc = copy.deepcopy(demo_doc)
        doc["base"]["q"] = 2.0
        with pytest.raises(ConfigError, match="re, im"):
            parse_config(doc)

    def test_angles_in_turns(self, demo_doc):
        cfg = parse_config(copy.deepcopy(demo_doc))
        hw = demo_doc["family"]["v_arg_halfwidth_turns"] * 2 * math.pi
        for v in cfg.family.v_sets:
            assert abs((v.arg[1] - v.arg[0]) - 2 * hw) < 1e-12

    def test_env_override_abs_tol(self, demo_doc, monkeypatch):
        monkeypatch.setenv("QGEVREY_ABS_TOL", "1e-7")
        cfg = parse_config(copy.deepcopy(demo_doc))
        assert cfg.quad.abs_tol == 1e-7

    def test_sampling_defaults_filled(self, demo_doc, monkeypatch):
        # every sampling key a config omits gets its default here, so the
        # commands read each value with no fallback; residuals default to
        # the effective quadrature tolerance
        monkeypatch.setenv("QGEVREY_ABS_TOL", "1e-7")
        doc = copy.deepcopy(demo_doc)
        doc["sampling"] = {}
        samp = parse_config(doc).sampling
        grid = [(0.7 + 0j, 0.3 + 0j)]
        assert samp == {
            "seed": 0,
            "residual": {"n_points": 100, "z_max": 0.5, "max_abs": 1e-6,
                         "abs_tol": 1e-7},
            "flatness": {"pair": (0, 1), "n_points": 13, "abs_tol": 1e-12,
                         "grid": grid},
            "asympt": {"pair": (0, 1), "k_max": 3, "tol": 2e-3,
                       "abs_tol": 1e-12, "depth": 30, "depths": (),
                       "rel_match": 1e-4, "grid": grid},
            "properties": {"n_points": 200}}
        doc["sampling"] = {"residual": {"n_points": 6}, "asympt": {"tol": 0.1}}
        partial = parse_config(doc).sampling
        assert partial["residual"] == dict(samp["residual"], n_points=6)
        assert partial["asympt"] == dict(samp["asympt"], tol=0.1)
        # the depth schedule is checked against the default k_max = 3
        doc["sampling"] = {"asympt": {"depths": [14, 8, 5]}}
        with pytest.raises(ConfigError, match="k_max = 3 needs 4"):
            parse_config(doc)

    def test_sampling_sub_block_typos_exit_two(self, demo_doc, tmp_path):
        typos = {"residual": ("max_abz", 1e-6), "flatness": ("n_pionts", 8),
                 "asympt": ("rel_macth", 1e-4), "properties": ("npoints", 9)}
        for block, (key, value) in typos.items():
            doc = trimmed(demo_doc)
            doc["sampling"][block][key] = value
            cfg = write_config(tmp_path, doc, name=block + ".json")
            assert main(["check", "--config", cfg,
                         "--out-dir", str(tmp_path / "out")]) == 2, block
        for block in ("flatness", "asympt"):
            doc = trimmed(demo_doc)
            doc["sampling"][block]["grid"][0]["zz"] = [0.3, 0.0]
            cfg = write_config(tmp_path, doc, name=block + "_grid.json")
            assert main(["check", "--config", cfg,
                         "--out-dir", str(tmp_path / "out")]) == 2, block

    def test_beta_max_limit(self, demo_doc, tmp_path, capsys):
        doc = copy.deepcopy(demo_doc)
        doc["solution"]["beta_max"] = 169
        assert parse_config(doc).beta_max == 169
        doc["solution"]["beta_max"] = 170
        with pytest.raises(ConfigError, match="169"):
            parse_config(doc)
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "beta_max" in capsys.readouterr().err

    def test_theta_block_exit_two(self, demo_doc, tmp_path, capsys):
        # the theta series has no settings; an old config's block is a typo
        doc = trimmed(demo_doc)
        doc["theta"] = {"tol": 1e-14, "max_terms": 256}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "theta" in capsys.readouterr().err

    def test_unreadable_path_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(bad))


class TestCheckCommand:
    def test_demo_passes_exit_zero(self, demo_doc, tmp_path, capsys):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        code = main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "check_report.json")
                            .read_text())
        assert report["all_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert any(n.startswith("term_exponents") for n in names)
        assert "growth_cap" in names

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    def test_report_bytes_equal_json_dump(self, name, tmp_path):
        # Report.write emits the report in one write: the same bytes as
        # json.dump into the file followed by a newline
        cfg = write_config(tmp_path, json.loads(shipped_config_text(name)))
        out = tmp_path / "out"
        main(["check", "--config", cfg, "--out-dir", str(out)])
        data = (out / "check_report.json").read_bytes()
        with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(json.loads(data), fh, indent=2)
            fh.write("\n")
        assert data == (tmp_path / "dumped.json").read_bytes()

    def test_strict_config_fails_exit_one(self, tmp_path):
        doc = json.loads(shipped_config_text("strict_exponents_fail"))
        cfg = write_config(tmp_path, doc)
        code = main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "check_report.json")
                            .read_text())
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert len(failing) == 1
        assert failing[0]["name"] == "term_exponents[k=0,s=1]"

    def test_growth_cap_violation_fails(self, demo_doc, tmp_path):
        doc = trimmed(demo_doc)
        doc["gevrey"]["m_big"] = 2.0  # above 1/(2 log 2)
        cfg = write_config(tmp_path, doc)
        code = main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1

    # exact clearances of the shipped configs (the same family on both),
    # as the theta-interval decision computes them
    PINNED_CLEARANCES = {
        "demo": (0.3803602636695015, 0.29163722925091795),
        "strict_exponents_fail": (0.3803602636695015, 0.29163722925091795),
    }

    # admissibility envelopes of the shipped configs, as the sweep over
    # every eps point of the grid computed them: (spiral, disc) per
    # component, the same for every component of the strict config
    PINNED_ENVELOPES = {
        "demo": (0.9531688947466005, 0.9999998913688011),
        "strict_exponents_fail": (0.9771360162354387, 0.9999954641727012),
    }

    def test_family_clearance_below_delta_fails(self, demo_doc, tmp_path):
        # delta between the exact kernel clearance 0.29164 and the least
        # that 600 sampled points found, 0.30091: only the kernel row fails
        doc = copy.deepcopy(demo_doc)
        doc["family"]["delta"] = 0.296
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "check_report.json")
                            .read_text())
        rows = {c["name"]: c for c in report["checks"]}
        failing = {n for n, c in rows.items() if c["status"] == "fail"}
        assert failing == {"family_kernel_clearance"}
        row = rows["family_kernel_clearance"]
        assert row["clearance"] < row["delta"] == 0.296

    @pytest.mark.parametrize("name", ["demo", "strict_exponents_fail"])
    def test_check_report_does_not_depend_on_seed(self, name, tmp_path):
        cfg = tmp_path / (name + ".json")
        cfg.write_text(shipped_config_text(name))
        reports = []
        for seed in ([], ["--seed", "0"], ["--seed", "1"], ["--seed", "2"]):
            out = tmp_path / ("out%d" % len(reports))
            main(["check", "--config", str(cfg), "--out-dir", str(out)]
                 + seed)
            reports.append((out / "check_report.json").read_bytes())
        assert len(set(reports)) == 1
        assert json.loads(reports[0])["seed"] is None

    @pytest.mark.parametrize("name", sorted(PINNED_CLEARANCES))
    def test_shipped_config_results_pinned(self, name, tmp_path):
        cfg = tmp_path / (name + ".json")
        cfg.write_text(shipped_config_text(name))
        code = main(["check", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "check_report.json")
                            .read_text())
        rows = {c["name"]: c for c in report["checks"]}
        assert rows["covering_coverage"]["n_uncovered"] == 0
        assert rows["covering_coverage"]["n_cells"] == 2000
        assert rows["covering_multiplicity"]["max_multiplicity"] == 3
        assert rows["covering_multiplicity"]["n_quadruple"] == 0
        v_clear, k_clear = self.PINNED_CLEARANCES[name]
        assert abs(rows["family_minus_one_clearance"]["clearance"]
                   - v_clear) <= 1e-12
        assert abs(rows["family_kernel_clearance"]["clearance"]
                   - k_clear) <= 1e-12
        envelopes = {n: c["envelope"] for n, c in rows.items()
                     if n.startswith("admissibility[")}
        spiral, disc = self.PINNED_ENVELOPES[name]
        assert envelopes == {
            n: spiral if n.endswith(",spiral]") else disc for n in envelopes}
        assert len(envelopes) == (2 if name == "demo" else 8)
        failing = {n for n, c in rows.items() if c["status"] == "fail"}
        if name == "demo":
            assert code == 0 and failing == set()
        else:
            assert code == 1 and failing == {"term_exponents[k=0,s=1]"}

    def test_malformed_config_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, {"nonsense": True})
        assert main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2


class TestSolveCommand:
    def test_solve_at_z_zero_equals_initial_condition(self, demo_doc,
                                                      tmp_path, capsys):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        code = main(["solve", "--config", cfg,
                     "--out-dir", str(tmp_path / "out"),
                     "--chart", "20", "--eps=-0.58249,0.70411",
                     "--t", "0.7", "--z", "0.0", "--force"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("X(", "initial"))]
        x_val = lines[0].split("=")[-1].strip()
        phi_val = lines[1].split("=")[-1].strip()
        assert x_val == phi_val  # series at z = 0 is the order-0 transform

    @pytest.mark.parametrize("flag,value", [
        ("--z", "nan,0"), ("--z", "inf"), ("--t", "0.7,-inf"),
        ("--eps", "nan"), ("--t", "abc"), ("--z", "1,2,3")])
    def test_bad_complex_value_exit_two(self, demo_doc, tmp_path, capsys,
                                        flag, value):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        values = {"--eps": "-0.58249,0.70411", "--t": "0.7", "--z": "0.3"}
        values[flag] = value
        argv = ["solve", "--config", cfg, "--out-dir", str(tmp_path / "out"),
                "--chart", "20", "--force"]
        for f, v in values.items():
            argv.append("%s=%s" % (f, v))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "X(" not in captured.out

    @pytest.mark.parametrize("chart", ["25", "-1"])
    def test_chart_outside_covering_exit_two(self, demo_doc, tmp_path,
                                             capsys, monkeypatch, chart):
        # refused before the pre-check: the demo has charts 0 to 24
        import qgevrey.cli as cli
        checks = []
        monkeypatch.setattr(cli, "run_check",
                            lambda *args: checks.append(args))
        cfg = write_config(tmp_path, trimmed(demo_doc))
        code = main(["solve", "--config", cfg,
                     "--out-dir", str(tmp_path / "out"),
                     "--chart", chart, "--eps=-0.58249,0.70411",
                     "--t", "0.7", "--z", "0.3"])
        captured = capsys.readouterr()
        assert code == 2 and checks == []
        assert ("configuration error: --chart %s is not a chart index in "
                "[0, 25)" % chart) in captured.err
        assert "X(" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_solve_builds_one_transform_block(self, demo_doc, tmp_path,
                                              monkeypatch):
        # the value and the initial condition read one block, counted from
        # the directions of the batch's windows
        from qgevrey import qlaplace
        sizes = []
        window = qlaplace.truncation_window

        def counted(lams, *args):
            sizes.append(np.size(lams))
            return window(lams, *args)

        monkeypatch.setattr(qlaplace, "truncation_window", counted)
        cfg = write_config(tmp_path, trimmed(demo_doc))
        assert main(["solve", "--config", cfg,
                     "--out-dir", str(tmp_path / "out"),
                     "--chart", "20", "--eps=-0.58249,0.70411",
                     "--t", "0.7", "--z", "0.3", "--force"]) == 0
        assert sizes == [1]

    @pytest.mark.parametrize("z", ["1e30", "1e300", "0,1e12"])
    def test_z_beyond_double_range_exit_two(self, demo_doc, tmp_path,
                                            capsys, z):
        # |z|^26 would overflow in the series and its tail estimate: the
        # --z is refused before anything is computed, with no traceback
        cfg = write_config(tmp_path, trimmed(demo_doc))
        code = main(["solve", "--config", cfg,
                     "--out-dir", str(tmp_path / "out"),
                     "--chart", "20", "--eps=-0.58249,0.70411",
                     "--t", "0.7", "--z=" + z, "--force"])
        captured = capsys.readouterr()
        assert code == 2 and "Traceback" not in captured.err
        assert ("configuration error: --z %s is too large for beta_max = 25"
                % z) in captured.err
        assert "X(" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_domain_violation_named(self, demo_doc, tmp_path, capsys):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        code = main(["solve", "--config", cfg,
                     "--out-dir", str(tmp_path / "out"),
                     "--chart", "20", "--eps", "0.9", "--t", "0.7",
                     "--z", "0.3", "--force"])
        assert code == 1
        assert "discrete_spiral" in capsys.readouterr().err


class TestVerifyCommands:
    def test_residual_mode(self, demo_doc, tmp_path):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out = str(tmp_path / "out")
        assert main(["verify", "residual", "--config", cfg,
                     "--out-dir", out]) == 0
        rows = (tmp_path / "out" / "residual.csv").read_text().splitlines()
        assert rows[0].startswith("index,chart,eps_re")
        assert len(rows) == 7  # header + 6 samples

    def test_flatness_mode(self, demo_doc, tmp_path):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out = str(tmp_path / "out")
        assert main(["verify", "flatness", "--config", cfg,
                     "--out-dir", out]) == 0
        report = json.loads((tmp_path / "out" /
                             "verify_flatness_report.json").read_text())
        slope = report["checks"][0]["slope"]
        assert slope <= report["checks"][0]["threshold"]

    def test_asympt_mode(self, demo_doc, tmp_path):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out = str(tmp_path / "out")
        assert main(["verify", "asympt", "--config", cfg,
                     "--out-dir", out]) == 0
        rows = (tmp_path / "out" / "asympt_coeffs.csv").read_text()
        assert "rel_difference" in rows

    @staticmethod
    def verify_rows(tmp_path, doc, mode, *flags):
        """Exit code and report rows by name of one verify run on doc."""
        out = tmp_path / "out"
        code = main(["verify", mode, "--config", write_config(tmp_path, doc),
                     "--out-dir", str(out)] + list(flags))
        report = json.loads((out / ("verify_%s_report.json" % mode))
                            .read_text())
        return code, {c["name"]: c for c in report["checks"]}

    def test_residual_above_its_bound_fails(self, demo_doc, tmp_path):
        # the residuals are quadrature error, ~2e-13 on these points
        doc = trimmed(demo_doc)
        doc["sampling"]["residual"]["max_abs"] = 1e-20
        code, rows = self.verify_rows(tmp_path, doc, "residual")
        row = rows["residual_max"]
        assert code == 1 and row["status"] == "fail"
        assert row["max_residual"] > row["bound"] == 1e-20

    def test_asympt_disagreement_fails(self, demo_doc, tmp_path):
        # the two charts' coefficients agree to ~3e-9, not to 1e-12
        doc = trimmed(demo_doc)
        doc["sampling"]["asympt"]["rel_match"] = 1e-12
        code, rows = self.verify_rows(tmp_path, doc, "asympt")
        row = rows["asympt_agreement"]
        assert code == 1 and row["status"] == "fail"
        assert row["worst_rel"] > row["rel_match"] == 1e-12
        assert rows["asympt_orders"]["status"] == "pass"

    def test_flatness_slope_above_threshold_fails(self, demo_doc, tmp_path):
        # these constants promise decay at 1/A = 0.63; the charts differ
        # with slope -0.52, above the threshold -0.9/A = -0.57
        doc = trimmed(demo_doc)
        doc["gevrey"].update(xi=0.99, xi_bar=0.1, m_big=0.01)
        code, rows = self.verify_rows(tmp_path, doc, "flatness", "--force")
        row = rows["flatness_slope"]
        assert code == 1 and row["status"] == "fail"
        assert row["slope"] > row["threshold"]

    def test_asympt_too_few_orders_for_the_type_fit(self, demo_doc, tmp_path,
                                                    capsys):
        # an extraction that stops before order 2 fails asympt_orders, with
        # a report and no traceback; the report has no type-fit row
        doc = trimmed(demo_doc)
        doc["sampling"]["asympt"].update(depths=[], tol=1e-5)
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "asympt", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" /
                             "verify_asympt_report.json").read_text())
        rows = {c["name"]: c for c in report["checks"]}
        assert rows["asympt_orders"]["status"] == "fail"
        assert rows["asympt_orders"]["extracted"] < 2
        assert list(rows) == ["asympt_orders", "asympt_agreement"]

    def test_properties_mode(self, demo_doc, tmp_path):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out = str(tmp_path / "out")
        assert main(["verify", "properties", "--config", cfg,
                     "--out-dir", out]) == 0

    # the demo's other properties rows at its shipped seed: filtering the
    # reduction row's samples must not move them
    PINNED_PROPERTIES = [
        {"name": "theta_functional_equation", "status": "pass", "n": 200,
         "worst_rel": 1.2483840166623445e-15,
         "tolerance_provenance": "relative 1e-10"},
        {"name": "transform_commutation", "status": "pass",
         "worst_rel": 1.9428664582655954e-16,
         "tolerance_provenance": "relative 1e-6 at default quadrature"},
    ]

    def test_properties_theta_reduction_on_theta_safe_samples(
            self, tmp_path, monkeypatch):
        # next to theta's zeros at -q^Z any summation, the direct one too,
        # loses all relative digits, so the reduction row compares only
        # theta-safe samples: every point of its log_theta call (the
        # third) is theta-safe, and the other rows, which draw from the
        # same rng stream after it, are unchanged
        from qgevrey import cli
        seen = []
        log_theta = cli.log_theta

        def spy(x, base):
            seen.append(np.array(x))
            return log_theta(x, base)

        monkeypatch.setattr(cli, "log_theta", spy)
        cfg = tmp_path / "demo.json"
        cfg.write_text(shipped_config_text("demo"))
        assert main(["verify", "properties", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_properties_report.json")
                            .read_text())
        row = report["checks"].pop(1)
        assert row["name"] == "theta_reduction_vs_direct"
        assert row["status"] == "pass"
        x = seen[2]
        assert in_theta_safe(1.0, x, load_config(str(cfg)).base, 0.2).all()
        assert row["n_samples"] == x.size == 183  # of 200 drawn
        assert report["checks"] == self.PINNED_PROPERTIES

    def test_properties_theta_overflow_fails_its_rows(self, demo_doc,
                                                      tmp_path, monkeypatch):
        # the theta rows evaluate all sample points in one log_theta call
        # each: values beyond double range (inf) fail both rows, as
        # theta() would raise, instead of passing on the other points
        from qgevrey import cli
        log_theta = cli.log_theta
        monkeypatch.setattr(cli, "log_theta",
                            lambda x, base: log_theta(x, base) + 800.0)
        cfg = write_config(tmp_path, trimmed(demo_doc))
        assert main(["verify", "properties", "--config", cfg, "--out-dir",
                     str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_properties_report.json")
                            .read_text())
        rows = {c["name"]: c for c in report["checks"]}
        for name in ("theta_functional_equation", "theta_reduction_vs_direct"):
            assert rows[name]["status"] == "fail"
            assert not rows[name]["worst_rel"] < 1e-10  # inf or NaN

    @pytest.mark.parametrize("q", [2.0, 1.5 * cmath.exp(0.2j),
                                   math.exp(1.0 / 16.0)],
                             ids=["2", "1.5e^0.2i", "e^1/16"])
    def test_properties_direct_sum_keeps_terms_above_underflow(self, q):
        # the direct sum keeps the terms above e^-690 on the annulus (91 of
        # 201 at q = 2, all 201 at e^1/16): within 4 ulp of the 201-term
        # sum, relative to the sum of the terms' magnitudes (the reordered
        # pairwise sum moves the last bit at the complex base, where the
        # terms cancel to 1/4000 of that), and bit for bit at q = 2
        from qgevrey import QBase
        from qgevrey.cli import _theta_direct
        base = QBase(q)
        rng = np.random.default_rng(3)
        polar = rng.uniform((1.0, 0.0), (abs(q) * 0.999, 2.0 * math.pi),
                            size=(300, 2))
        x = polar[:, 0] * np.exp(1j * polar[:, 1])
        x = x[in_theta_safe(1.0, x, base, 0.2)]
        k = np.arange(-100.0, 101.0)
        terms = np.power(base.q, -k * (k - 1.0) / 2.0) * x[:, None] ** k
        full = terms.sum(axis=1)
        got = _theta_direct(x, base)
        ulp = np.finfo(float).eps * np.abs(terms).sum(axis=1)
        assert np.all(np.abs(got - full) <= 4.0 * ulp)
        if q == 2.0:
            assert np.array_equal(got, full)

    def test_commutation_batch_against_one_row_calls(self, demo_doc):
        # verify properties' one batch of two blocks and three rows against
        # each transform's own one-block, one-row call: the rows of a block
        # share its nodes, and its halvings run on the union of the rows'
        # supports.  phi_1's is the widest (32 midpoints; phi_2's 30,
        # phi_3's 28), so its rows agree bit for bit and the others take a
        # few more negligible midpoints, within 2e-13.  The report's
        # worst_rel stays bit for bit (PINNED_PROPERTIES).
        from dataclasses import replace
        from qgevrey import q_laplace
        from qgevrey.cli import _commutation_rows
        from qgevrey.qlaplace import q_laplace_batch
        cfg = parse_config(demo_doc)
        settings = replace(cfg.quad, abs_tol=1e-10)
        lam, base = cfg.lambdas[0], cfg.base
        t0 = 1.3 * lam / abs(lam)
        got = q_laplace_batch(_commutation_rows, [lam, lam],
                              [t0, base.q * t0], base, settings, 3)
        for r in (1, 2, 3):
            lhs = q_laplace(lambda x: x * x / (1.0 + x) ** r, lam, t0, base,
                            settings)
            rhs = q_laplace(lambda x: x / (1.0 + x) ** r, lam, base.q * t0,
                            base, settings)
            if r == 1:
                assert got[0, 0] == lhs and got[1, 0] == rhs
            assert abs(got[0, r - 1] - lhs) <= 2e-13, r
            assert abs(got[1, r - 1] - rhs) <= 2e-13, r

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_residual_draws_lie_in_their_boxes(self, demo_doc, seed):
        # point i is chart i mod n_charts, its eps in that chart's (u, v)
        # box with v less a shift in {0, 1, 2}, t in t_set, |z| <= z_max
        from qgevrey.cli import _residual_draws
        cfg = parse_config(demo_doc)
        n, z_max = 250, 0.5
        idx, eps, t, z = _residual_draws(cfg, np.random.default_rng(seed),
                                         n, z_max)
        charts = cfg.covering.charts
        assert np.array_equal(idx, np.arange(n) % len(charts))
        log_q = cfg.base.log_q
        assert log_q.imag == 0.0  # the demo's real base: |q^v| = q^v
        v = np.log(np.abs(eps)) / log_q.real
        u = np.angle(eps) / (2.0 * math.pi)
        shifts = set()
        for i, ch in zip(idx.tolist(), (charts[i] for i in idx)):
            lo, hi = ch.i2
            shift = math.ceil(lo - v[i] - 1e-9)
            assert lo - 1e-9 <= v[i] + shift <= hi + 1e-9, i
            shifts.add(shift)
            turns = (u[i] - ch.i1[0]) % 1.0
            assert turns <= ch.i1[1] - ch.i1[0] + 1e-9, i
        assert shifts == {0, 1, 2}
        ts = cfg.family.t_set
        assert np.all((ts.mod[0] <= np.abs(t)) & (np.abs(t) <= ts.mod[1]))
        assert np.all((ts.arg[0] <= np.angle(t)) & (np.angle(t) <= ts.arg[1]))
        assert np.all(np.abs(z) <= z_max)

    def test_properties_zero_direct_sum_fails_without_warning(self,
                                                              tmp_path):
        # near |q| = 1 a theta-safe sample's direct sum can be 0: its
        # relative error is inf and the row fails, with no divide warning
        # (an error under this suite's warning filter)
        cfg = tmp_path / "strict.json"
        cfg.write_text(shipped_config_text("strict_exponents_fail"))
        assert main(["verify", "properties", "--force", "--config",
                     str(cfg), "--out-dir", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_properties_report.json")
                            .read_text())
        rows = {c["name"]: c for c in report["checks"]}
        row = rows["theta_reduction_vs_direct"]
        assert row["status"] == "fail" and row["worst_rel"] == math.inf
        # near |q| = 1 the two sides of the commutation identity differ by
        # 0.2 relative at this seed
        row = rows["transform_commutation"]
        assert row["status"] == "fail" and row["worst_rel"] > 1e-6

    def test_residual_non_finite_integrand_fails_without_warning(
            self, tmp_path, capsys):
        # near |q| = 1 a transform integrand is not finite at the ends of
        # its window: the error names the block, and numpy does not warn
        # about the product (an error under this suite's warning filter)
        cfg = tmp_path / "strict.json"
        cfg.write_text(shipped_config_text("strict_exponents_fail"))
        assert main(["verify", "residual", "--force", "--config",
                     str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not finite there" in err
        assert "Warning" not in err

    def test_flatness_refused_without_decay_exponent(self, demo_doc,
                                                     tmp_path):
        doc = trimmed(demo_doc)
        # xi/(2 log q) below m_big: no guaranteed flatness decay
        doc["gevrey"]["m_big"] = 0.7
        doc["gevrey"]["xi"] = 0.2
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        code = main(["verify", "flatness", "--config", cfg,
                     "--out-dir", out, "--force"])
        assert code == 1
        report = json.loads((tmp_path / "out" /
                             "verify_flatness_report.json").read_text())
        assert report["checks"][0]["status"] == "fail"
        assert report["checks"][0]["one_over_a"] <= 0

    def test_determinism_byte_identical(self, demo_doc, tmp_path):
        # the modes whose transform blocks are computed in batches
        cfg = write_config(tmp_path, trimmed(demo_doc))
        for mode, csv in (("residual", "residual.csv"),
                          ("flatness", "flatness.csv"),
                          ("asympt", "asympt_coeffs.csv")):
            runs = [tmp_path / mode / "a", tmp_path / mode / "b"]
            for out in runs:
                assert main(["verify", mode, "--config", cfg,
                             "--out-dir", str(out)]) == 0
            for name in (csv, "verify_%s_report.json" % mode):
                assert (runs[0] / name).read_bytes() == \
                    (runs[1] / name).read_bytes(), (mode, name)

    def test_demo_integrand_calls_pinned(self, tmp_path, monkeypatch):
        # CoefficientEvaluator.table calls and integrand calls (the rows
        # qlaplace._sweep evaluates) of each verify mode on the shipped
        # demo.json: the transform modes make one batch of all the blocks
        # they read (across charts), so a change that splits the batches
        # again, or halves beyond each block's support, shows here.  One
        # batch per chart over whole windows took 126, 50 and 58 table
        # calls, the growth-certificate windows 57, 33 and 41, stopping
        # only on a change below abs_tol (no predicted stop) 56, 32 and 36,
        # and calls of at most BLOCK // 2 values 50, 28 and 34; verify
        # properties took 80 one-column calls, then one while it compared
        # the recursion with its closed form, and now solves nothing.
        # verify asympt took 7 while it sampled all depth + 1 levels, not
        # only the 22 its depth schedule reads.  A separate window probe
        # took one call more per batch (residual 10 with its array draws,
        # flatness 5, asympt 6), and verify properties' six one-row
        # transforms 18 integrand calls, against one batch's 2.
        from qgevrey import qlaplace
        from qgevrey.problem import CoefficientEvaluator
        table, sweep = CoefficientEvaluator.table, qlaplace._sweep
        calls, integrand = [], []

        def counted(self, eps, tau, beta_max, out=None):
            calls.append(np.size(tau))
            return table(self, eps, tau, beta_max, out=out)

        def counted_sweep(rows, *args):
            def counted_rows(s, block):
                integrand.append(s.size)
                return rows(s, block)
            return sweep(counted_rows, *args)

        monkeypatch.setattr(CoefficientEvaluator, "table", counted)
        monkeypatch.setattr(qlaplace, "_sweep", counted_sweep)
        cfg = write_config(tmp_path, json.loads(shipped_config_text("demo")))
        counts = {}
        for mode in ("residual", "flatness", "asympt", "properties"):
            calls.clear()
            integrand.clear()
            assert main(["verify", mode, "--config", cfg, "--out-dir",
                         str(tmp_path / mode)]) == 0
            counts[mode] = len(calls), len(integrand)
        assert counts == {"residual": (9, 9), "flatness": (4, 4),
                          "asympt": (5, 5), "properties": (0, 2)}

    def test_seed_override_changes_samples(self, demo_doc, tmp_path):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["verify", "residual", "--config", cfg,
                     "--out-dir", out1]) == 0
        assert main(["verify", "residual", "--config", cfg,
                     "--out-dir", out2, "--seed", "7"]) == 0
        assert (tmp_path / "a" / "residual.csv").read_text() != \
            (tmp_path / "b" / "residual.csv").read_text()

    def test_negative_seed_exit_two(self, demo_doc, tmp_path, capsys,
                                    monkeypatch):
        # refused before the pre-check: numpy's generators take no
        # negative seed
        import qgevrey.cli as cli
        checks = []
        monkeypatch.setattr(cli, "run_check",
                            lambda *args: checks.append(args))
        cfg = write_config(tmp_path, trimmed(demo_doc))
        assert main(["verify", "residual", "--config", cfg,
                     "--out-dir", str(tmp_path / "out"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: --seed -1 must be nonnegative" in err
        assert checks == [] and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestDemoCommand:
    def test_demo_writes_configs_and_checks(self, tmp_path, capsys):
        code = main(["demo", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "demo.json").exists()
        assert (tmp_path / "strict_exponents_fail.json").exists()
        assert (tmp_path / "check_report.json").exists()
