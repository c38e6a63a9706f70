import copy
import json
import math

import numpy as np
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
    (("quad", "s_pad"), math.nan, "check"),
    (("quad", "s_pad"), math.inf, "check"),
    (("quad", "abs_tol"), math.inf, "check"),
    (("quad", "abs_tol"), "a", "check"),
    (("base", "q"), [1, 0], "check"),
    (("base", "q"), [0.5, 0], "check"),
    (("family", "delta"), -1, "check"),
    (("sampling", "seed"), "x", "check"),
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
    ("QGEVREY_ABS_TOL", "abc", "check"),
]


class TestConfigSchema:
    @pytest.mark.parametrize(
        "path,value,command", BAD_VALUES,
        ids=["%s=%r" % (p if isinstance(p, str) else ".".join(map(str, p)), v)
             for p, v, _ in BAD_VALUES])
    def test_bad_value_exit_two(self, demo_doc, tmp_path, capsys, monkeypatch,
                                path, value, command):
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
        assert "configuration error" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
        # solution.cert_c1 was a setting once: configs carrying it now fail
        for block, key in (("gevrey", "bogus"), ("solution", "cert_c1")):
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

    # admissibility envelopes of the shipped configs, as the sweep over
    # every eps point of the grid computed them: (spiral, disc) per
    # component, the same for every component of the strict config
    PINNED_ENVELOPES = {
        "demo": (0.9531688947466005, 0.9999998913688011),
        "strict_exponents_fail": (0.9771360162354387, 0.9999954641727012),
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

    def test_asympt_too_few_orders_for_the_type_fit(self, demo_doc, tmp_path,
                                                    capsys):
        # an extraction that stops before order 2 leaves the type fit too
        # few orders: a failed row with a note and a report, no traceback
        doc = trimmed(demo_doc)
        doc["sampling"]["asympt"].update(depths=[], tol=1e-5)
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "asympt", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" /
                             "verify_asympt_report.json").read_text())
        rows = {c["name"]: c for c in report["checks"]}
        assert rows["asympt_orders"]["extracted"] < 2
        assert rows["gevrey_type"]["status"] == "fail"
        assert "needs 3 extracted orders" in rows["gevrey_type"]["note"]

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
        # CoefficientEvaluator.table calls of each verify mode on the
        # shipped demo.json: the transform modes make one batch of all the
        # blocks they read (across charts), so a change that splits the
        # batches again, or halves beyond each block's support, shows here.
        # One batch per chart over whole windows took 126, 50 and 58, the
        # growth-certificate windows 57, 33 and 41, and stopping only on a
        # change below abs_tol (no predicted stop) 56, 32 and 36; verify
        # properties took 80 one-column calls.
        from qgevrey.problem import CoefficientEvaluator
        table = CoefficientEvaluator.table
        calls = []

        def counted(self, eps, tau, beta_max):
            calls.append(np.size(tau))
            return table(self, eps, tau, beta_max)

        monkeypatch.setattr(CoefficientEvaluator, "table", counted)
        cfg = write_config(tmp_path, json.loads(shipped_config_text("demo")))
        counts = {}
        for mode in ("residual", "flatness", "asympt", "properties"):
            calls.clear()
            assert main(["verify", mode, "--config", cfg, "--out-dir",
                         str(tmp_path / mode)]) == 0
            counts[mode] = len(calls)
        assert counts == {"residual": 50, "flatness": 28, "asympt": 34,
                          "properties": 1}

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
