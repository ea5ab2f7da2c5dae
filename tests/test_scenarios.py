import json
from collections import Counter

import pytest

from hypersymplectic import action_angle, fibration, scenarios, special_kahler
from hypersymplectic.charts import Chart
from hypersymplectic.errors import ConfigError
from hypersymplectic.scenarios import (
    DEFAULT_SUITE_ORDER,
    ScenarioConfig,
    SectionSpec,
    list_scenarios,
    run_scenario,
)
from hypersymplectic.structures import PARALLEL_TOL, QUADRATURE_TOL, SECTION_PULLBACK_TOL

ROTATION_SECTION = {
    "name": "turn",
    "form": "sigma",
    "p": [[[[0, 1], 1.0]]],
    "q": [[[[1, 0], -1.0]]],
}


def test_empty_config_resolves_to_defaults():
    cfg = ScenarioConfig.from_dict({})
    assert cfg.scenario == "paper-n1"
    assert cfg.n == 1
    assert cfg.frequencies == (1.0, 2.0)
    assert cfg.sections is None
    assert cfg.suites == DEFAULT_SUITE_ORDER
    assert cfg.sampling.n_points == 100 and cfg.sampling.seed == 42
    assert cfg.tolerances.fd == 1e-6


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenrio": "paper-n1"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"sampling": {"points": 5}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"tolerances": {"fd": -1.0}})


def test_scenario_constraints():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "nope"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "paper-n1", "n": 2})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "custom-section"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"suites": ["hypersymplectic", "unknown"]})
    assert ScenarioConfig.from_dict({"scenario": "paper-n"}).n == 2


def test_oscillator_frequency_resolution():
    cfg = ScenarioConfig.from_dict(
        {"scenario": "oscillators", "frequencies": [1.0, 0.5, 2.0, 3.0]}
    )
    assert cfg.n == 2
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "oscillators", "frequencies": [1.0, 2.0, 3.0]})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(
            {"scenario": "oscillators", "frequencies": [1.0, 2.0], "n": 3}
        )
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"frequencies": [1.0, -2.0]})


def test_section_spec_parsing():
    spec = SectionSpec.from_dict(ROTATION_SECTION, "sections[0]")
    assert spec.form == "sigma"
    assert SectionSpec.from_dict(spec.echo(), "echo") == spec
    assert SectionSpec.from_dict({"name": "z", "p": [[]], "q": [[]]}, "x").form == "sigma"
    with pytest.raises(ConfigError):
        SectionSpec.from_dict({"name": "bad", "form": "tau", "p": [[]], "q": [[]]}, "x")
    with pytest.raises(ConfigError):
        SectionSpec.from_dict({"name": "bad", "p": [[["powers", 1.0]]], "q": [[]]}, "x")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(
            {"sections": [ROTATION_SECTION, ROTATION_SECTION]}
        )  # duplicate names


def test_section_arity_is_checked_against_the_model():
    cfg = ScenarioConfig.from_dict(
        {
            "scenario": "custom-section",
            "n": 2,
            "suites": ["sections"],
            "sections": [ROTATION_SECTION],  # rank-1 data on a rank-2 model
        }
    )
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_run_scenario_is_deterministic():
    cfg = ScenarioConfig.from_dict(
        {"scenario": "paper-n1", "suites": ["sections", "lagrangian-fibres"]}
    )
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    stable_json = [
        json.dumps(doc.stable_dict(), indent=2, sort_keys=True) for doc in (first, second)
    ]
    assert stable_json[0] == stable_json[1]
    assert first.verdict == "pass"
    names = [r.identity_name for r in first.checks]
    assert names == sorted(names)
    doc = first.document_dict()
    assert doc["schema_version"] == "3"
    assert set(doc) == {"schema_version", "report", "timing"}
    assert "output" not in doc["report"]["config"]


def test_a_run_draws_and_builds_its_shared_inputs_once(monkeypatch):
    """All five suites share one sample per chart, one set of sections and
    one of each triple; the action-angle suite draws its states once."""
    counts = Counter()

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(Chart, "sample", lambda chart, *rest: chart.name)
    counted(fibration.SectionMap, "__post_init__", lambda section: "section")
    for name in ("build_structure_triple", "build_complex_triple"):
        for module in (scenarios, fibration, special_kahler):
            if hasattr(module, name):
                counted(module, name, lambda model, name=name: name)
    counted(action_angle, "sample_states", lambda *args: "sample_states")
    run_scenario(ScenarioConfig.from_dict({"scenario": "paper-n", "n": 2}))
    assert counts == {
        "paper-n-total": 1,
        "paper-n-base": 1,
        "section": 2,
        "build_structure_triple": 1,
        "build_complex_triple": 1,
        "sample_states": 1,
    }


def test_a_run_takes_each_graph_frame_once(monkeypatch):
    """paper-n1 reads the rotation section's FD frame for J_omega in both the
    sections and the special-kahler suite, and the zero section's for J_chi:
    two FD frames per run."""
    calls = []
    original = fibration.SectionMap.jacobian_fd

    def counting(section, *args, **kwargs):
        calls.append(section.name)
        return original(section, *args, **kwargs)

    monkeypatch.setattr(fibration.SectionMap, "jacobian_fd", counting)
    doc = run_scenario(ScenarioConfig.from_dict({"scenario": "paper-n1"}))
    assert doc.verdict == "pass"
    assert sorted(calls) == ["rotation", "zero"]


def test_failing_section_flips_the_verdict():
    cfg = ScenarioConfig.from_dict(
        {
            "scenario": "custom-section",
            "suites": ["sections"],
            "sections": [
                {"name": "skew", "form": "sigma", "p": [[[[1, 0], 1.0]]], "q": [[]]}
            ],
        }
    )
    doc = run_scenario(cfg)
    assert doc.verdict == "fail"
    failed = [r for r in doc.checks if not r.passed]
    assert {r.identity_name for r in failed} == {
        "sections.pullback_vanishes.skew.sigma",
        "sections.graph_invariant.skew.J_omega",
    }


def test_tolerance_overrides_are_wired_through():
    strict = ScenarioConfig.from_dict(
        {"suites": ["action-angle"], "tolerances": {"fd": 1e-18}}
    )
    doc = run_scenario(strict)
    assert doc.verdict == "fail"
    by_name = {r.identity_name: r for r in doc.checks}
    assert not by_name["action_angle.canonical_transform"].passed

    # four distinct values: each check reports the one it is held to
    tolerances = {"algebraic": 2e-12, "fd": 3e-6, "nested_fd": 5e-4, "nondegeneracy": 7e-3}
    doc = run_scenario(ScenarioConfig.from_dict({"tolerances": tolerances}))
    assert doc.config_echo["tolerances"] == tolerances
    algebraic, fd, nested_fd = (tolerances[k] for k in ("algebraic", "fd", "nested_fd"))
    held_to = {  # identity prefix -> tolerance
        "hypersymplectic.recursion_squares.": algebraic,
        "hypersymplectic.anticommute.": algebraic,
        "hypersymplectic.holomorphic_frame.": algebraic,
        "hypersymplectic.composition.": algebraic,
        "lagrangian_fibres(": algebraic,
        "special_kahler.connection_torsion_free": algebraic,
        "special_kahler.squares_to_minus_identity": algebraic,
        "special_kahler.base_form_invariant": algebraic,
        "action_angle.round_trip": algebraic,
        "hypersymplectic.closed.": fd,
        "hypersymplectic.nijenhuis.": fd,
        "sections.graph_invariant.": fd,
        "special_kahler.matches_graph_restriction": fd,
        "action_angle.canonical_transform": fd,
        "special_kahler.connection_flat": nested_fd,
        "sections.pullback_vanishes.": SECTION_PULLBACK_TOL,
        "special_kahler.base_form_parallel": PARALLEL_TOL,
        "special_kahler.complex_structure_parallel": PARALLEL_TOL,
        "action_angle.action_equals_energy_over_frequency": QUADRATURE_TOL,
        "action_angle.angle_normalization": QUADRATURE_TOL,
        # signed slack, and the exact checks
        "hypersymplectic.nondegenerate.": 0.0,
        "special_kahler.metric_symmetric": 0.0,
        "special_kahler.signature_constant": 0.0,
    }
    for r in doc.checks:
        (prefix,) = [p for p in held_to if r.identity_name.startswith(p)]
        assert r.tolerance == held_to[prefix], r.identity_name
        if prefix == "hypersymplectic.nondegenerate.":
            # every form of the model has |det| = 1
            assert r.max_residual == pytest.approx(tolerances["nondegeneracy"] - 1.0)
            assert "stays above 0.007 " in r.statement
    assert len(doc.checks) == 38


CUBIC_SECTION = {
    "name": "cubic",
    "form": "sigma",
    "p": [[[[0, 1], 1.0], [[3, 0], 0.3]]],
    "q": [[[[1, 0], -1.0]]],
}


def test_the_configured_step_is_the_step_of_the_models_charts():
    for raw in ({"scenario": "paper-n", "n": 2}, {"scenario": "oscillators"}):
        model = scenarios.build_scenario_model(
            ScenarioConfig.from_dict({**raw, "sampling": {"fd_step": 1e-3}})
        )
        assert model.base_chart.fd_step() == model.total_chart.fd_step() == 1e-3


def test_the_configured_step_reaches_exactly_the_fd_route_checks():
    """On the section p = y + 0.3 x^3, q = -x, ``sampling.fd_step`` moves
    exactly the two residuals read from the FD graph frame.  Every other
    residual is bit for bit the same: those checks read exact derivatives,
    the one varying entry of I (I_xx, along x) drops out of the differenced
    d^nabla I at any step, and the action-angle transform steps relative to
    the orbit."""

    def residuals(sampling: dict) -> dict[str, str]:
        raw = {"scenario": "custom-section", "sections": [CUBIC_SECTION], "sampling": sampling}
        doc = run_scenario(ScenarioConfig.from_dict(raw))
        assert doc.config_echo["sampling"]["fd_step"] == sampling.get("fd_step")
        return {r.identity_name: r.max_residual.hex() for r in doc.checks}

    default, coarse = residuals({}), residuals({"fd_step": 1e-3})
    assert default.keys() == coarse.keys()
    assert "action_angle.canonical_transform" in default
    changed = {name for name in default if default[name] != coarse[name]}
    assert changed == {
        "sections.graph_invariant.cubic.J_omega",
        "special_kahler.matches_graph_restriction",
    }


def test_summary_lines_cover_every_check():
    cfg = ScenarioConfig.from_dict({"suites": ["lagrangian-fibres"]})
    doc = run_scenario(cfg)
    lines = doc.summary_lines()
    assert len(lines) == len(doc.checks) + 1
    assert lines[-1].startswith("verdict: pass")


def test_catalog_lists_names():
    text = list_scenarios()
    assert "paper-n1" in text
    assert "special-kahler" in text
    assert "custom-section" in text
