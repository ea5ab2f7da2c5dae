import argparse
import json
import subprocess
import sys
import warnings

import pytest

from hypersymplectic.cli import main

BAD_SECTION = {
    "scenario": "custom-section",
    "suites": ["sections"],
    "sections": [{"name": "skew", "form": "sigma", "p": [[[[1, 0], 1.0]]], "q": [[]]}],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hypersymplectic", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "paper-n1" in out and "suites:" in out


def test_repeated_calls_build_no_new_parser(monkeypatch, capsys):
    """The parser is built once, at import: further calls construct no
    ArgumentParser."""
    assert main(["--list"]) == 0
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert main(["--list"]) == 0
        assert main(["--scenario", "paper-n1", "--seed", "3"]) == 0
    capsys.readouterr()
    assert built == []


def test_missing_config_exits_2_without_writing(tmp_path):
    report = tmp_path / "report.json"
    proc = run_cli("--config", str(tmp_path / "absent.json"), "--output", str(report))
    assert proc.returncode == 2
    assert not report.exists()
    assert "configuration error" in proc.stderr


def test_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg)]) == 2


def test_unknown_scenario_exits_2():
    proc = run_cli("--scenario", "warp")
    assert proc.returncode == 2
    assert "unknown scenario" in proc.stderr


def test_report_written_on_success(tmp_path):
    report = tmp_path / "out.json"
    proc = run_cli(
        "--scenario", "paper-n1", "--output", str(report), "--seed", "7"
    )
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout
    document = json.loads(report.read_text())
    assert document["schema_version"] == "3"
    body = document["report"]
    assert body["verdict"] == "pass"
    assert body["config"]["sampling"]["seed"] == 7
    assert body["scenario"] == "paper-n1"
    assert document["timing"]["duration_seconds"] > 0
    names = [c["identity"] for c in body["checks"]]
    assert names == sorted(names)


def test_stdout_json_when_no_output_path():
    proc = run_cli("--scenario", "paper-n1", "--tolerance-fd", "1e-5")
    assert proc.returncode == 0
    document = json.loads(proc.stdout)
    assert document["report"]["config"]["tolerances"]["fd"] == 1e-5
    assert "verdict: pass" in proc.stderr


def test_failing_checks_exit_1_but_still_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_SECTION))
    report = tmp_path / "report.json"
    proc = run_cli("--config", str(cfg), "--output", str(report))
    assert proc.returncode == 1
    assert report.exists()
    assert json.loads(report.read_text())["report"]["verdict"] == "fail"


def test_cli_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "paper-n", "suites": ["lagrangian-fibres"]}))
    proc = run_cli("--config", str(cfg), "--scenario", "paper-n1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["scenario"] == "paper-n1"


def test_config_output_field_is_honoured(tmp_path):
    report = tmp_path / "from_config.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"suites": ["lagrangian-fibres"], "output": str(report)})
    )
    assert main(["--config", str(cfg)]) == 0
    assert report.exists()


def section_with_p_coefficient(coeff):
    return {"name": "s", "form": "sigma", "p": [[[[0, 1], coeff]]], "q": [[[[1, 0], -1.0]]]}


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "oscillators", "frequencies": [float("inf"), 1.0]},
        {"scenario": "oscillators", "frequencies": [1e-310, 1.0]},
        {"scenario": "oscillators", "frequencies": [1.0, 10**400]},
        {"scenario": "paper-n1", "sampling": {"fd_step": float("inf")}},
        # x + h == x on the box [-1, 1]: no central difference can be taken
        {"scenario": "paper-n1", "sampling": {"fd_step": 1e-17}},
        {"scenario": "paper-n1", "sampling": {"fd_step": 1e-320}},
        {"scenario": "custom-section", "sections": [section_with_p_coefficient(float("inf"))]},
        {"scenario": "custom-section", "sections": [section_with_p_coefficient(float("nan"))]},
    ],
    ids=[
        "infinite-frequency",
        "overflowing-action-window",
        "integer-frequency-beyond-float",
        "infinite-fd-step",
        "fd-step-below-rounding",
        "subnormal-fd-step",
        "infinite-section-coefficient",
        "nan-section-coefficient",
    ],
)
def test_non_finite_config_numbers_exit_2_without_writing(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # writes Infinity/NaN, which json.loads reads back
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"scenario": "paper-n1", "sampling": {"n_points": True}}, []),
        ({"scenario": "paper-n1", "sampling": {"seed": True}}, []),
        ({"scenario": "paper-n", "n": True}, []),
        (
            {
                "scenario": "custom-section",
                "sections": [{"name": "b", "p": [[[[True, False], 1.0]]], "q": [[]]}],
            },
            [],
        ),
        # values of another JSON type than their key takes
        ({"scenario": ["x"]}, []),
        ({"scenario": {}}, []),
        ({"suites": [["a"]]}, []),
        ({"sampling": 5}, []),
        ({"sampling": []}, []),
        ({"tolerances": []}, []),
        ({"sampling": 5}, ["--seed", "3"]),
        ({"tolerances": "fd"}, ["--tolerance-fd", "1e-6"]),
    ],
    ids=[
        "n_points",
        "seed",
        "n",
        "exponent",
        "scenario-list",
        "scenario-object",
        "suite-list",
        "sampling-number",
        "sampling-list",
        "tolerances-list",
        "sampling-number-with-seed-flag",
        "tolerances-string-with-fd-flag",
    ],
)
def test_json_booleans_are_not_integers_exit_2_without_writing(tmp_path, capsys, config, flags):
    """A JSON value of a type its key does not take, such as true or false
    (which json.loads reads as bools) for an integer, is a configuration
    error, also when a CLI flag overrides a key inside it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report), *flags]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not report.exists()


def test_null_sampling_and_tolerances_mean_absent(tmp_path):
    cfg = tmp_path / "cfg.json"
    raw = {"suites": ["lagrangian-fibres"], "sampling": None, "tolerances": None}
    cfg.write_text(json.dumps(raw))
    report = tmp_path / "report.json"
    flags = ["--seed", "3", "--tolerance-fd", "1e-5", "--output", str(report)]
    assert main(["--config", str(cfg), *flags]) == 0
    config = json.loads(report.read_text())["report"]["config"]
    assert config["sampling"]["seed"] == 3
    assert config["tolerances"]["fd"] == 1e-5


ROTATION = {"name": "turn", "form": "sigma", "p": [[[[0, 1], 1.0]]], "q": [[[[1, 0], -1.0]]]}


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "paper-n1"},
        {"scenario": "paper-n", "n": 2},
        {"scenario": "oscillators"},
        {"scenario": "custom-section", "sections": [ROTATION]},
    ],
    ids=["paper-n1", "paper-n2", "oscillators", "custom-section"],
)
def test_a_single_sample_point_passes(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "sampling": {"n_points": 1}}))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 0
    body = json.loads(report.read_text())["report"]
    assert body["verdict"] == "pass"
    assert {c["n_points"] for c in body["checks"] if not c["identity"].startswith("action_angle")} == {1}


# the gradient of V = Re (x + iy)^9 = x^9 - 36x^7y^2 + 126x^5y^4 - 84x^3y^6 + 9xy^8:
# omega-Lagrangian (a gradient) and J_chi-invariant (V is harmonic), at degree 8
HARMONIC_DEGREE_8 = {
    "name": "re_z9",
    "form": "omega",
    "p": [[[[8, 0], 9.0], [[6, 2], -252.0], [[4, 4], 630.0], [[2, 6], -252.0], [[0, 8], 9.0]]],
    "q": [[[[7, 1], -72.0], [[5, 3], 504.0], [[3, 5], -504.0], [[1, 7], 72.0]]],
}


def test_degree_eight_harmonic_gradient_section_passes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "custom-section", "sections": [HARMONIC_DEGREE_8]}))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 0
    checks = {c["identity"]: c for c in json.loads(report.read_text())["report"]["checks"]}
    assert checks["sections.pullback_vanishes.re_z9.omega"]["passed"]
    assert checks["sections.graph_invariant.re_z9.J_chi"]["passed"]


# p = 1e15 x^2: steep, yet its graph frame [I; D] has full rank, so the checks
# reach a verdict; V = 1e15 x^3 / 3 is not harmonic, so the graph is
# omega-Lagrangian (a gradient) but not J_chi-invariant
STEEP = {"name": "big", "form": "omega", "p": [[[[2, 0], 1e15]]], "q": [[]]}


def test_steep_section_reaches_a_verdict(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "custom-section", "sections": [STEEP]}))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 1
    checks = {c["identity"]: c for c in json.loads(report.read_text())["report"]["checks"]}
    pullback = checks["sections.pullback_vanishes.big.omega"]
    assert pullback["passed"] and pullback["max_residual"] == 0.0
    invariance = checks["sections.graph_invariant.big.J_chi"]
    assert not invariance["passed"] and invariance["max_residual"] > 1e15
    assert [c for c in checks.values() if not c["passed"]] == [invariance]


# p = 1.7e308 x: the frame is finite, but the squares of its defect entries
# (about 1.7e308) overflow inside a plain column norm
NEAR_MAXIMAL = {"name": "lin", "form": "omega", "p": [[[[1, 0], 1.7e308]]], "q": [[]]}


def test_near_maximal_slope_reports_a_finite_distance_without_warnings(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"scenario": "custom-section", "suites": ["sections"], "sections": [NEAR_MAXIMAL]})
    )
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "--output", str(report)]) == 1
    assert capsys.readouterr().err == ""
    assert "Infinity" not in report.read_text()
    checks = {c["identity"]: c for c in json.loads(report.read_text())["report"]["checks"]}
    invariance = checks["sections.graph_invariant.lin.J_chi"]
    assert not invariance["passed"]
    assert invariance["max_residual"] == pytest.approx(1.7e308, rel=1e-9)
    assert checks["sections.pullback_vanishes.lin.omega"]["passed"]


# p = 1e308 x^8: the derivatives of p overflow, so the tangent frame of the
# graph is not finite and no verdict can be read from it
OVERFLOWING = {"name": "huge", "form": "omega", "p": [[[[8, 0], 1e308]]], "q": [[]]}


def test_unevaluable_geometry_exits_2_without_writing(tmp_path, capsys):
    """One stderr line and no report: the overflow is caught before any
    product reads it, so numpy warns about nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "custom-section", "sections": [OVERFLOWING]}))
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "--output", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == "geometry error: tangent frame of the graph is not finite\n"
    assert not report.exists()


# rank-2 power vectors on the default rank-1 model
MISMATCHED = {"name": "s", "p": [[[[1, 0, 0], 1.0]]], "q": [[]]}


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "custom-section", "sections": [MISMATCHED]},
        {"scenario": "custom-section", "n": 2, "sections": [ROTATION]},
        {"scenario": "custom-section", "sections": [{**MISMATCHED, "p": [[[[9, 0], 1.0]]]}]},
    ],
    ids=["power-vector-length", "component-count", "degree-above-bound"],
)
def test_sections_that_do_not_fit_the_model_exit_2_without_writing(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 2
    assert "configuration error: section '" in capsys.readouterr().err
    assert not report.exists()
