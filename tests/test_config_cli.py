import copy
import json
import math

import pytest

from qgevrey.cli import main
from qgevrey.config import (load_config, load_shipped_config, parse_config,
                            shipped_config_text)
from qgevrey.errors import ConfigError


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
    doc["sampling"]["n_cover_samples"] = 400
    doc["sampling"]["n_family_samples"] = 120
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


class TestConfigSchema:
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

    def test_unknown_nested_field_rejected(self, demo_doc):
        doc = copy.deepcopy(demo_doc)
        doc["gevrey"]["bogus"] = 2.0
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(doc)

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

    def test_strict_config_fails_exit_one(self, tmp_path):
        doc = json.loads(shipped_config_text("strict_exponents_fail"))
        doc["sampling"]["n_cover_samples"] = 400
        doc["sampling"]["n_family_samples"] = 100
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
        doc["gevrey"]["m_tilde"] = 1.8
        cfg = write_config(tmp_path, doc)
        code = main(["check", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1

    # clearances of the shipped configs at their shipped seeds, as the
    # scalar scan-and-golden-section implementation computed them
    PINNED_CLEARANCES = {
        "demo": (0.38181056448490486, 0.3009119648402555),
        "strict_exponents_fail": (0.3811578594569783, 0.3210619620615746),
    }

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
        assert rows["covering_multiplicity"]["max_multiplicity"] == 3
        assert rows["covering_multiplicity"]["n_quadruple"] == 0
        v_clear, k_clear = self.PINNED_CLEARANCES[name]
        assert abs(rows["family_minus_one_clearance"]["clearance"]
                   - v_clear) <= 1e-12
        assert abs(rows["family_kernel_clearance"]["clearance"]
                   - k_clear) <= 1e-12
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

    def test_properties_mode(self, demo_doc, tmp_path):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out = str(tmp_path / "out")
        assert main(["verify", "properties", "--config", cfg,
                     "--out-dir", out]) == 0

    def test_flatness_refused_without_decay_exponent(self, demo_doc,
                                                     tmp_path):
        doc = trimmed(demo_doc)
        # xi/(2 log q) below m_big: no guaranteed flatness decay
        doc["gevrey"]["m_big"] = 0.7
        doc["gevrey"]["m_tilde"] = 0.6
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
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["verify", "residual", "--config", cfg,
                         "--out-dir", out]) == 0
        csv1 = (tmp_path / "a" / "residual.csv").read_bytes()
        csv2 = (tmp_path / "b" / "residual.csv").read_bytes()
        assert csv1 == csv2
        rep1 = (tmp_path / "a" / "verify_residual_report.json").read_bytes()
        rep2 = (tmp_path / "b" / "verify_residual_report.json").read_bytes()
        assert rep1 == rep2

    def test_seed_override_changes_samples(self, demo_doc, tmp_path):
        cfg = write_config(tmp_path, trimmed(demo_doc))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["verify", "residual", "--config", cfg,
                     "--out-dir", out1]) == 0
        assert main(["verify", "residual", "--config", cfg,
                     "--out-dir", out2, "--seed", "7"]) == 0
        assert (tmp_path / "a" / "residual.csv").read_text() != \
            (tmp_path / "b" / "residual.csv").read_text()


class TestDemoCommand:
    def test_demo_writes_configs_and_checks(self, tmp_path, capsys):
        code = main(["demo", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "demo.json").exists()
        assert (tmp_path / "strict_exponents_fail.json").exists()
        assert (tmp_path / "check_report.json").exists()
