import argparse
import gc
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hypersymplectic import calculus, cli, fibration
from hypersymplectic.cli import main
from hypersymplectic.polynomials import Polynomial
from hypersymplectic.scenarios import SUITES, ScenarioConfig, run_scenario

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

BAD_SECTION = {
    "scenario": "custom-section",
    "suites": ["sections"],
    "sections": [{"name": "skew", "form": "sigma", "p": [[[[1, 0], 1.0]]], "q": [[]]}],
}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "hypersymplectic", *args],
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
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
    # the second is JSON, but its integer has more digits than int() reads by default
    for text in ("{not json", '{"sampling": {"seed": 1' + "0" * 5000 + "}}"):
        cfg.write_text(text)
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
    assert document["schema_version"] == "4"
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


# p = y, q = 0 for sigma: the metric diag(0, 1) leaves the signature undefined
SHEAR_SECTION = {
    "scenario": "custom-section",
    "sections": [{"name": "shear", "form": "sigma", "p": [[[[0, 1], 1.0]]], "q": [[]]}],
}


def _strict_json(text: str):
    """``json.loads`` that refuses Infinity and NaN, which strict JSON lacks."""

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def test_failing_checks_exit_1_but_still_report(tmp_path):
    """A skew section and one whose signature is undefined: each run fails,
    and its report is written, in strict JSON."""
    for name, config in [("skew", BAD_SECTION), ("shear", SHEAR_SECTION)]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        report = tmp_path / f"{name}-report.json"
        proc = run_cli("--config", str(cfg), "--output", str(report))
        assert proc.returncode == 1, name
        assert report.exists()
        assert _strict_json(report.read_text())["report"]["verdict"] == "fail"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_unwritable_report_path_exits_2(tmp_path, capsys, source, target):
    """A report path in a missing directory, or naming a directory, is a
    usage error (exit 2) with one line on stderr, whether it comes from
    ``--output`` or from the config's ``output`` key."""
    path = tmp_path / "absent" / "report.json" if target == "missing-directory" else tmp_path
    cfg = tmp_path / "cfg.json"
    config = {"suites": ["lagrangian-fibres"]}
    args = ["--config", str(cfg)]
    if source == "flag":
        args += ["--output", str(path)]
    else:
        config["output"] = str(path)
    cfg.write_text(json.dumps(config))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write {path}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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
        # a frequency whose square overflows
        {"scenario": "oscillators", "frequencies": [1, 1e300]},
        {"scenario": "custom-section", "sections": [section_with_p_coefficient(float("inf"))]},
        {"scenario": "custom-section", "sections": [section_with_p_coefficient(float("nan"))]},
        # integers beyond the float range, which json.loads reads as Python ints
        {"scenario": "paper-n1", "tolerances": {"fd": 10**400}},
        {"scenario": "custom-section", "sections": [section_with_p_coefficient(10**400)]},
        # more points than numpy can allocate, past structures.MAX_TABLE_ENTRIES
        {"scenario": "paper-n1", "sampling": {"n_points": 10**30}},
        # a rank whose default frequency list cannot be built, past structures.MAX_RANK
        {"scenario": "paper-n", "n": 10**30},
        # the rank in range, the sample past structures.MAX_TABLE_ENTRIES at that rank
        {"scenario": "paper-n", "n": 16, "sampling": {"n_points": 10**6}},
        # no run takes a central difference on a chart, so no step is configured
        {"scenario": "paper-n1", "sampling": {"fd_step": 1e-3}},
    ],
    ids=[
        "infinite-frequency",
        "overflowing-action-window",
        "integer-frequency-beyond-float",
        "frequency-square-overflows",
        "infinite-section-coefficient",
        "nan-section-coefficient",
        "integer-tolerance-beyond-float",
        "integer-section-coefficient-beyond-float",
        "n-points-beyond-bound",
        "rank-beyond-bound",
        "table-entries-beyond-budget",
        "fd-step-key-removed",
    ],
)
def test_non_finite_config_numbers_exit_2_without_writing(tmp_path, capsys, monkeypatch, config):
    # each is refused while the configuration is read: no run allocates for it
    monkeypatch.setattr(cli, "run_scenario", lambda config: pytest.fail("the configuration ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # writes Infinity/NaN, which json.loads reads back
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not report.exists()


def test_a_sample_past_the_budget_exits_2_under_a_memory_limit(tmp_path):
    """n = 16 with 10**6 points, which a run would need about 900 GB for, is
    refused while the configuration is read: a fresh process, alone limited
    to 4 GB of address space, exits 2 with no report."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "paper-n", "n": 16, "sampling": {"n_points": 10**6}}))
    report = tmp_path / "report.json"
    limit = 4_000_000 * 1024
    proc = run_cli(
        "--config", str(cfg), "--output", str(report),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
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
        # an empty list where a key takes a non-empty one: no defaults are read in its place
        ({"scenario": "paper-n1", "sections": []}, []),
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
        "empty-section-list",
    ],
)
def test_json_booleans_are_not_integers_exit_2_without_writing(tmp_path, capsys, config, flags):
    """A JSON value of a type its key does not take, such as true or false
    (which json.loads reads as bools) for an integer, or an empty list of
    sections, is a configuration error, also when a CLI flag overrides a key
    inside it."""
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
# p = 1e307 x^8: the frame is finite, but the second derivative 5.6e308 x^6,
# which d_nabla I reads, overflows
STEEP_SECOND_DERIVATIVE = {"name": "steep", "form": "sigma", "p": [[[[8, 0], 1e307]]], "q": [[]]}
# p = 1.7e308 x, q = 1.7e308 y: the frame is finite, but J_chi moves it off
# the graph by 2 * 1.7e308, beyond the float range
TWO_SLOPES = {"name": "lin", "form": "omega", "p": [[[[1, 0], 1.7e308]]], "q": [[[[0, 1], 1.7e308]]]}
# p = q = 1.5e308 x: the defect (1.5e308, -1.5e308) is finite, its distance
# 2.1e308 from the tangent plane is not
TWO_EQUAL_SLOPES = {
    "name": "lin",
    "form": "omega",
    "p": [[[[1, 0], 1.5e308]]],
    "q": [[[[1, 0], 1.5e308]]],
}
# p = 1.7e308 (x + y), q = 1.7e308 x: the derivatives are finite, the values
# of p overflow where x + y > 1.06
OVERFLOWING_VALUE = {
    "name": "lin",
    "form": "omega",
    "p": [[[[1, 0], 1.7e308], [[0, 1], 1.7e308]]],
    "q": [[[[1, 0], 1.7e308]]],
}
# p and q with coefficients up to 1.86e250 and 6.86e133: values and frames
# are finite, but the pullback of chi multiplies them beyond the float range
OVERFLOWING_PULLBACK = {
    "name": "big",
    "form": "chi",
    "p": [[[[1, 1], -2.87e57], [[4, 1], 3.25e-40], [[4, 4], -1.86e250]]],
    "q": [[[[3, 4], -4.81e132], [[4, 3], -6.86e133], [[4, 0], 9.28e-193]]],
}


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"scenario": "custom-section", "sections": [OVERFLOWING]},
            "tangent frame of the graph is not finite",
        ),
        (
            {
                "scenario": "custom-section",
                "suites": ["special-kahler"],
                "sections": [STEEP_SECOND_DERIVATIVE],
            },
            "second derivative of the section is not finite",
        ),
        (
            {"scenario": "custom-section", "suites": ["sections"], "sections": [TWO_SLOPES]},
            "defect of J_chi on the tangent frame of the graph is not finite",
        ),
        (
            {"scenario": "custom-section", "suites": ["sections"], "sections": [TWO_EQUAL_SLOPES]},
            "distance from the tangent plane of the graph is not finite",
        ),
        (
            {"scenario": "custom-section", "suites": ["sections"], "sections": [OVERFLOWING_VALUE]},
            "value of the section is not finite",
        ),
        (
            {
                "scenario": "custom-section",
                "suites": ["hypersymplectic", "sections", "special-kahler"],
                "sections": [OVERFLOWING_PULLBACK],
            },
            "pullback of the form to the graph is not finite",
        ),
        # the family reads every member's frame before any defect, so the
        # second member's frame is reported, not the first member's defect
        (
            {
                "scenario": "custom-section",
                "suites": ["sections"],
                "sections": [TWO_SLOPES, OVERFLOWING],
            },
            "tangent frame of the graph is not finite",
        ),
        # special-kahler alone still reads the run's family, so the omega
        # member's defect is formed next to the Kähler member's, and refused
        (
            {
                "scenario": "custom-section",
                "suites": ["special-kahler"],
                "sections": [ROTATION, TWO_SLOPES],
            },
            "defect of J_chi on the tangent frame of the graph is not finite",
        ),
    ],
    ids=[
        "overflowing-frame",
        "overflowing-second-derivative",
        "two-near-maximal-slopes",
        "overflowing-distance",
        "overflowing-value",
        "overflowing-pullback",
        "two-failing-members-in-read-order",
        "special-kahler-reads-the-whole-family",
    ],
)
def test_unevaluable_geometry_exits_2_without_writing(tmp_path, capsys, config, message):
    """One stderr line and no report: the overflow is caught before any
    product reads it, so numpy warns about nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 2
    assert capsys.readouterr().err == f"geometry error: {message}\n"
    assert not report.exists()


# p = (y1 + 0.3 x1^2 x2, y2), q = (-x1, -x2 + 0.2 y1^3): I varies and is not
# almost complex
CURVED_N2 = {
    "scenario": "custom-section",
    "n": 2,
    "suites": ["special-kahler"],
    "sections": [
        {
            "name": "c",
            "p": [[[[0, 0, 1, 0], 1.0], [[2, 1, 0, 0], 0.3]], [[[0, 0, 0, 1], 1.0]]],
            "q": [[[[1, 0, 0, 0], -1.0]], [[[0, 1, 0, 0], -1.0], [[0, 0, 3, 0], 0.2]]],
        }
    ],
}


def count_central_differences(monkeypatch) -> list:
    """The evaluators of every central difference on a chart from here on:
    each ``stencil`` call, under every name a module holds it by, and each
    ``vector_jacobian`` call."""
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        return wrapper

    stencil = counting(calculus.stencil)
    monkeypatch.setattr(calculus, "stencil", stencil)
    monkeypatch.setattr(fibration, "stencil", stencil)
    monkeypatch.setattr(calculus, "vector_jacobian", counting(calculus.vector_jacobian))
    return calls


@pytest.mark.parametrize(
    "config, code",
    [
        ({"scenario": "paper-n1"}, 0),
        ({"scenario": "paper-n", "n": 4}, 0),
        ({"scenario": "oscillators"}, 0),
        ({"scenario": "oscillators", "frequencies": [1, 0.5, 2, 3]}, 0),
        # the sample's stream takes any non-negative integer seed
        ({"sampling": {"seed": 0}}, 0),
        ({"sampling": {"seed": 10**30}}, 0),
        (CURVED_N2, 1),
    ],
    ids=["paper-n1", "paper-n4", "oscillators", "oscillators-four", "seed-zero", "seed-huge",
         "curved-n2"],
)
def test_no_run_takes_a_central_difference_on_a_chart(tmp_path, capsys, monkeypatch, config, code):
    """Every field a suite reads carries its exact derivative and the graph
    checks read the section's exact frame, so no run calls ``stencil``; each
    run exits with its code and writes a schema-4 report, which holds none
    of the identities earlier schemas dropped.  On the curved rank-2 section,
    d_nabla I reads the exact second derivatives, so the parallel check
    reads exactly 0.0 although I is not almost complex."""
    calls = count_central_differences(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == code
    assert calls == []
    document = json.loads(report.read_text())
    assert document["schema_version"] == "4"
    checks = {c["identity"]: c for c in document["report"]["checks"]}
    dropped = [
        name
        for name in checks
        if "squares_to_minus_identity.J_" in name or name == "action_angle.cycle_matrix_identity"
    ]
    assert dropped == []
    if config is CURVED_N2:
        assert checks["special_kahler.complex_structure_parallel"]["max_residual"] == 0.0
        assert not checks["special_kahler.squares_to_minus_identity"]["passed"]


def test_a_default_run_reads_each_section_once_per_sample(capsys, monkeypatch):
    """paper-n1: the family of the zero and rotation sections is read once
    for its values and once for its exact fibre block (2 polynomial calls),
    and the rotation member for its second derivatives (1); the run takes
    no central difference."""
    calls = count_central_differences(monkeypatch)
    polynomial_calls = []
    call = Polynomial.__call__

    def counting_call(poly, coords):
        polynomial_calls.append(poly)
        return call(poly, coords)

    monkeypatch.setattr(Polynomial, "__call__", counting_call)
    assert main([]) == 0
    capsys.readouterr()
    assert (len(polynomial_calls), calls) == (3, [])


@pytest.mark.parametrize(
    "suites, second_derivatives",
    [(["sections"], False), (["special-kahler"], True)],
    ids=["sections", "special-kahler"],
)
def test_second_derivatives_are_built_only_for_the_special_kahler_suite(
    tmp_path, capsys, monkeypatch, memos, suites, second_derivatives
):
    """With the memos cleared, a section family's exact Jacobian is built
    with the family; second derivatives, the Jacobian of that Jacobian, only
    when a suite reads I's derivative.  A second identical run builds no
    Jacobian at all: both are memoized."""
    for memo in memos.values():
        memo.cache_clear()
    derived, second = [], []
    jacobian = Polynomial.jacobian

    def recording_jacobian(poly):
        second.append(any(poly is d for d in derived))
        derived.append(jacobian(poly))
        return derived[-1]

    monkeypatch.setattr(Polynomial, "jacobian", recording_jacobian)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "paper-n1", "suites": suites}))
    assert main(["--config", str(cfg), "--output", str(tmp_path / "report.json")]) == 0
    assert any(second) == second_derivatives
    assert not all(second)  # the exact Jacobian of the sections
    derived.clear()
    assert main(["--config", str(cfg), "--output", str(tmp_path / "report.json")]) == 0
    assert derived == []


# rank-2 power vectors on the default rank-1 model
MISMATCHED = {"name": "s", "p": [[[[1, 0, 0], 1.0]]], "q": [[]]}


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "custom-section", "sections": [MISMATCHED]},
        {"scenario": "custom-section", "n": 2, "sections": [ROTATION]},
        {"scenario": "custom-section", "sections": [{**MISMATCHED, "p": [[[[9, 0], 1.0]]]}]},
        # x^5 y^4: no power above 8, total degree 9
        {"scenario": "custom-section", "sections": [{**MISMATCHED, "p": [[[[5, 4], 1.0]]]}]},
    ],
    ids=["power-vector-length", "component-count", "degree-above-bound", "mixed-degree-above-bound"],
)
def test_sections_that_do_not_fit_the_model_exit_2_without_writing(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--output", str(report)]) == 2
    assert "configuration error: section '" in capsys.readouterr().err
    assert not report.exists()


def test_a_warm_call_leaves_no_reference_cycles_and_writes_one_line(tmp_path, capsys):
    """After a first call, a second ``main`` call with ``--output`` leaves no
    object for the cycle collector, and the report it writes is one line of
    compact JSON whose ``report`` is the run's ``stable_dict()``."""
    report = tmp_path / "report.json"
    args = ["--scenario", "paper-n1", "--output", str(report)]
    assert main(args) == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(args) == 0
        gc.collect()
        cycles = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert cycles == 0
    text = report.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    expected = run_scenario(ScenarioConfig.from_dict({"scenario": "paper-n1"})).stable_dict()
    assert json.loads(text)["report"] == expected


# Run in a fresh process: the numpy submodules a run loads, beyond those
# that ``import numpy`` loads by itself, printed as the last line.
LOADED_BY_A_RUN = """
import json, sys
import numpy

def loaded():
    return {m for m in sys.modules if m.startswith(("numpy.random", "numpy.polynomial"))}

before = loaded()
from hypersymplectic import cli
status = cli.main(sys.argv[1:])
print(json.dumps(sorted(loaded() - before)))
sys.exit(status)
"""


def test_a_run_loads_neither_numpy_random_nor_numpy_polynomial(tmp_path):
    """Draws come from the standard library's ``random``, and the quadrature
    is the periodic trapezoidal rule on equally spaced angles, which needs no
    nodes from ``numpy.polynomial``: a fresh process running paper-n1 with every
    suite loads no ``numpy.random`` or ``numpy.polynomial`` module that
    ``import numpy`` did not load already (numpy < 2 loads both itself)."""
    cfg = tmp_path / "all-suites.json"
    cfg.write_text(json.dumps({"scenario": "paper-n1", "suites": list(SUITES)}))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY_A_RUN, "--config", str(cfg), "--output", str(report)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["report"]["config"]["suites"] == list(SUITES)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# per workload, each read at seed 1: the most polynomial calls, the
# nijenhuis calls and the most linalg calls of a traced call
TRACED_BOUNDS = {
    # all five suites: the family's values and exact Jacobian once per
    # sample, its second derivatives once, for the Kähler member; one
    # nijenhuis call for the battery
    "paper-n3": (3, 1, 5),
    "paper-n1-dense": (3, 1, 5),
    # the sections suite alone: the eight sections' values and Jacobian,
    # no battery
    "harmonic-deg8": (2, 0, 2),
}


@pytest.mark.parametrize(
    "workload, polynomial_calls, nijenhuis_calls, linalg_calls",
    [(name, *bounds) for name, bounds in TRACED_BOUNDS.items()],
    ids=TRACED_BOUNDS.keys(),
)
def test_a_traced_workload_call_stays_within_its_call_counts(
    tmp_path, monkeypatch, workload, polynomial_calls, nijenhuis_calls, linalg_calls
):
    """The benchmark's traced call, in process: after one untraced warm-up
    call, one ``cli.main`` call under ``benchmarks/shims.py``'s tracer on the
    workload's seed-1 config makes the counted calls of ``TRACED_BOUNDS``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import shims
    import workloads

    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.make_config(workload, 1)))
    argv = ["--config", str(path), "--output", str(tmp_path / "report.json")]
    assert main(argv) == 0
    tracer = shims.Tracer()
    with tracer:
        assert main(argv) == 0
    counts = tracer.metrics(*tracer.take())
    # every field and the graph frame are exact: no FD graph frame is taken
    assert counts.get("fibration.jacobian_fd.count", 0) == 0
    assert counts["polynomials.call.count"] <= polynomial_calls
    # one recursion_operator call, for the complex structures (the battery
    # solves with its own determinants); no QR for the section family, whose
    # defects are all zero
    assert counts["fibration.recursion_operator.count"] == 1
    assert counts.get("structures.nijenhuis.count", 0) == nijenhuis_calls
    assert counts["linalg.call.count"] <= linalg_calls
