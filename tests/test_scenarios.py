import json
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from hypersymplectic import action_angle, fibration, scenarios, special_kahler
from hypersymplectic.charts import Chart
from hypersymplectic.errors import ConfigError
from hypersymplectic.scenarios import (
    SCENARIOS,
    SUITES,
    ReportDocument,
    ScenarioConfig,
    SectionSpec,
    list_scenarios,
    run_scenario,
)
from hypersymplectic.structures import (
    MAX_RANK,
    MAX_TABLE_ENTRIES,
    PARALLEL_TOL,
    QUADRATURE_TOL,
    SECTION_PULLBACK_TOL,
    CheckReport,
    Tolerances,
    entries_per_point,
)

ROTATION_SECTION = {
    "name": "turn",
    "form": "sigma",
    "p": [[[[0, 1], 1.0]]],
    "q": [[[[1, 0], -1.0]]],
}


def test_empty_config_resolves_to_defaults():
    cfg = ScenarioConfig.from_dict({})
    # null means absent under every optional key
    optional = ["n", "frequencies", "sections", "sampling", "tolerances", "suites", "output"]
    assert ScenarioConfig.from_dict(dict.fromkeys(optional)) == cfg
    assert cfg.scenario == "paper-n1"
    assert cfg.n == 1
    assert cfg.frequencies == (1.0, 2.0)
    assert cfg.sections is None
    assert cfg.suites == tuple(SUITES)
    assert cfg.sampling.n_points == 100 and cfg.sampling.seed == 42
    assert cfg.tolerances.fd == 1e-6


def test_sample_size_is_bounded():
    """At every rank the largest sample within MAX_TABLE_ENTRIES passes, and
    one point more is refused, naming the key and the largest sample."""
    for n in range(1, MAX_RANK + 1):
        most = MAX_TABLE_ENTRIES // entries_per_point(n)
        raw = {"scenario": "paper-n", "n": n, "sampling": {"n_points": most}}
        assert ScenarioConfig.from_dict(raw).sampling.n_points == most
        raw["sampling"]["n_points"] += 1
        with pytest.raises(ConfigError, match=f"sampling.n_points must be at most {most} "):
            ScenarioConfig.from_dict(raw)


def test_rank_is_bounded():
    """The resolved rank is bounded, whether set by ``n`` or by the length
    of an oscillator frequency list."""
    assert MAX_RANK == 16
    assert ScenarioConfig.from_dict({"scenario": "paper-n", "n": MAX_RANK}).n == MAX_RANK
    frequencies = [1.0 + k for k in range(2 * MAX_RANK)]
    cfg = ScenarioConfig.from_dict({"scenario": "oscillators", "frequencies": frequencies})
    assert cfg.n == MAX_RANK
    with pytest.raises(ConfigError, match="MAX_RANK"):
        ScenarioConfig.from_dict({"scenario": "paper-n", "n": MAX_RANK + 1})
    with pytest.raises(ConfigError, match="MAX_RANK"):
        ScenarioConfig.from_dict(
            {"scenario": "oscillators", "frequencies": frequencies + [1.0, 2.0]}
        )


def test_table_entries_are_bounded():
    """n_points * entries_per_point(n), with m = 2n entries m^3 + 4 m^2 + 20 m
    a point, is the one bound on the sample: 156250 points at n = 1 and
    266 at n = 16 pass, and so does the default sample at MAX_RANK; 10**6
    points at n = 1, or 125000 at n = 2, which would peak at about 1.5 and
    0.7 GB, are refused, as is a rank set by an oscillator frequency list."""
    assert MAX_TABLE_ENTRIES == 10**7
    assert [entries_per_point(n) for n in (1, 2, 16)] == [64, 208, 37504]
    assert ScenarioConfig.from_dict({"scenario": "paper-n", "n": MAX_RANK}).sampling.n_points == 100
    for n, n_points in ((1, 156250), (16, 266)):
        edge = {"scenario": "paper-n", "n": n, "sampling": {"n_points": n_points}}
        assert ScenarioConfig.from_dict(edge).sampling.n_points == n_points
    for n, n_points in ((16, 267), (16, 10**6), (1, 10**6), (2, 125000), (1, 10**30)):
        with pytest.raises(ConfigError, match="MAX_TABLE_ENTRIES"):
            ScenarioConfig.from_dict(
                {"scenario": "paper-n", "n": n, "sampling": {"n_points": n_points}}
            )
    frequencies = [1.0 + k for k in range(2 * MAX_RANK)]
    with pytest.raises(ConfigError, match="MAX_TABLE_ENTRIES"):
        ScenarioConfig.from_dict(
            {"scenario": "oscillators", "frequencies": frequencies, "sampling": {"n_points": 267}}
        )


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenrio": "paper-n1"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"sampling": {"points": 5}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"tolerances": {"fd": -1.0}})
    # a section's keys are its JSON names; the term tables are p and q, not p_terms
    for key in ("r", "p_terms"):
        section = dict(ROTATION_SECTION, **{key: [[]]})
        with pytest.raises(ConfigError, match=rf"sections\[0\] has unknown keys: \['{key}'\]"):
            ScenarioConfig.from_dict({"scenario": "custom-section", "sections": [section]})


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
    assert doc["schema_version"] == "4"
    assert set(doc) == {"schema_version", "report", "timing"}
    assert "output" not in doc["report"]["config"]


def test_a_run_draws_and_builds_its_shared_inputs_once(monkeypatch):
    """All five suites share one sample per chart, one family of sections and
    one of each triple; the action-angle suite draws its states once."""
    counts = Counter()

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(Chart, "sample", lambda chart, *rest: chart.name)
    counted(fibration.SectionMap, "_build", lambda section, model, members: "family")
    for name in ("build_structure_triple", "build_complex_triple"):
        for module in (scenarios, fibration, special_kahler):
            if hasattr(module, name):
                counted(module, name, lambda model, name=name: name)
    counted(action_angle, "sample_states", lambda *args: "sample_states")
    run_scenario(ScenarioConfig.from_dict({"scenario": "paper-n", "n": 2}))
    assert counts == {
        "paper-n-total": 1,
        "paper-n-base": 1,
        "family": 1,
        "build_structure_triple": 1,
        "build_complex_triple": 1,
        "sample_states": 1,
    }


def test_a_run_takes_each_graph_frame_once(monkeypatch):
    """paper-n1 forms the graph-frame defect of its one family, the zero and
    rotation sections, once and on the exact frame: the sections suite
    judges them under J_chi and J_omega, and the special-kahler suite reads
    the rotation member's restriction under J_omega from the same defect.
    No FD frame is taken."""
    calls = []

    def counting(name, original):
        def wrapper(section, *args, **kwargs):
            calls.append((name, section.names))
            return original(section, *args, **kwargs)

        return wrapper

    for module in (scenarios, special_kahler):
        defect = counting("graph_frame_defect", module.graph_frame_defect)
        monkeypatch.setattr(module, "graph_frame_defect", defect)
    jacobian_fd = counting("jacobian_fd", fibration.SectionMap.jacobian_fd)
    monkeypatch.setattr(fibration.SectionMap, "jacobian_fd", jacobian_fd)
    doc = run_scenario(ScenarioConfig.from_dict({"scenario": "paper-n1"}))
    assert doc.verdict == "pass"
    assert calls == [("graph_frame_defect", ("zero", "rotation"))]


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


def test_no_step_is_configured():
    """No run takes a central difference on a chart, so ``sampling`` has no
    step key, and the report echoes only the sample size and seed."""
    with pytest.raises(ConfigError, match=r"sampling has unknown keys: \['fd_step'\]"):
        ScenarioConfig.from_dict({"sampling": {"fd_step": 1e-3}})
    assert ScenarioConfig.from_dict({}).echo()["sampling"] == {"n_points": 100, "seed": 42}


def test_the_charts_step_reaches_no_check(monkeypatch):
    """On the section p = y + 0.3 x^3, q = -x, a different chart step moves
    no residual, bit for bit: every check reads exact derivatives, and the
    action-angle transform steps relative to the orbit."""

    def residuals() -> dict[str, str]:
        raw = {"scenario": "custom-section", "sections": [CUBIC_SECTION]}
        doc = run_scenario(ScenarioConfig.from_dict(raw))
        return {r.identity_name: r.max_residual.hex() for r in doc.checks}

    default = residuals()
    monkeypatch.setattr(Chart, "fd_step", lambda chart: 1e-3)
    assert residuals() == default
    assert "action_angle.canonical_transform" in default
    assert "sections.graph_invariant.cubic.J_omega" in default


SOFT_OSCILLATORS = {
    "scenario": "oscillators",
    "frequencies": [1.3232948360824925e-06, 0.7770376999480298],
}
# the true sigma section p = 1e6 y, q = -1e-6 x: I = -D squares to -Id exactly
STEEP_ROTATION = {
    "scenario": "custom-section",
    "sections": [
        {"name": "steep", "form": "sigma", "p": [[[[0, 1], 1e6]]], "q": [[[[1, 0], -1e-6]]]}
    ],
}


@pytest.mark.parametrize(
    "raw",
    [{"scenario": "paper-n1"}, SOFT_OSCILLATORS, STEEP_ROTATION],
    ids=["paper-n1", "soft-oscillators", "steep-rotation"],
)
def test_the_graph_restriction_is_exactly_the_induced_structure(raw):
    """The restriction is J_omega applied to the exact frame (Id; D), so on
    a true special Kähler section it equals I = -D bit for bit and every
    check passes, with no numpy warning: also on the soft oscillators, whose
    base box reaches x = 1.5e6, and on the steep rotation, which read
    4.551e-6 through a central difference and failed (ROADMAP defect 3)."""
    doc = run_scenario(ScenarioConfig.from_dict(raw))
    checks = {r.identity_name: r for r in doc.checks}
    assert checks["special_kahler.matches_graph_restriction"].max_residual == 0.0
    assert doc.verdict == "pass"


def test_summary_lines_cover_every_check():
    cfg = ScenarioConfig.from_dict({"suites": ["lagrangian-fibres"]})
    doc = run_scenario(cfg)
    lines = doc.summary_lines()
    assert len(lines) == len(doc.checks) + 1
    assert lines[-1].startswith("verdict: pass")


def test_the_verdict_is_read_from_the_checks():
    """One failing check makes the document's verdict "fail", in the stable
    report and in the summary, which counts it."""
    checks = (
        CheckReport.from_residual("a", 1, 0.0, 1e-6),
        CheckReport.from_residual("b", 1, 2e-6, 1e-6),
    )
    doc = ReportDocument(config_echo={"scenario": "paper-n1"}, checks=checks, duration_seconds=0.0)
    assert doc.verdict == "fail"
    assert doc.stable_dict()["verdict"] == "fail"
    assert doc.stable_dict()["scenario"] == "paper-n1"
    lines = doc.summary_lines()
    assert lines[1].startswith("[FAIL] b:")
    assert lines[-1] == "verdict: fail (1/2 checks passed)"
    passing = ReportDocument(config_echo={"scenario": "x"}, checks=checks[:1], duration_seconds=0.0)
    assert passing.verdict == "pass"


def test_special_kahler_reads_the_run_defect_as_its_own():
    """The sigma section second in its family, after a chi section, and not
    invariant under J_omega: the defect the run forms for the family, each
    member under its FORM_TO_COMPLEX entry, gives the restriction report
    that induced_vs_restriction forms itself from the same entry, and the
    run reports that one."""
    config = ScenarioConfig.from_dict(
        {
            "scenario": "custom-section",
            "sections": [
                {"name": "turn", "form": "chi", "p": [[[[0, 1], 1.0]]], "q": [[[[1, 0], 1.0]]]},
                {"name": "bent", "form": "sigma", "p": [[[[0, 1], 1.0], [[2, 0], 0.1]]],
                 "q": [[[[1, 0], -1.0]]]},
            ],
        }
    )
    run = scenarios._RunInputs(config, scenarios.build_scenario_model(config))
    args = (run.model, run.sections, run.base_pt, config.tolerances.fd, 1)
    handed = special_kahler.induced_vs_restriction(*args, run.frame_defect)
    assert handed == special_kahler.induced_vs_restriction(*args)
    assert handed.max_residual > 0.1 and not handed.passed
    checks = {r.identity_name: r for r in run_scenario(config).checks}
    assert checks[handed.identity_name] == handed


def test_each_suite_has_one_runner_named_for_it():
    """The runner table has the suite table's names, in its order, each
    paired with the runner named after it."""
    assert list(scenarios._SUITE_RUNNERS) == list(SUITES)
    for name, runner in scenarios._SUITE_RUNNERS.items():
        assert runner.__name__ == "_suite_" + name.replace("-", "_")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_table(heading: str) -> list[tuple[str, str]]:
    """The (name, text) rows of the README table under ``### heading``."""
    section = README.read_text().split(f"\n### {heading}\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| (.*) \|$", section, flags=re.M)


def test_the_readme_tables_are_the_catalogue():
    """README's Scenarios and Suites tables say what ``--list`` says, name for
    name and text for text, in the same order."""
    assert _readme_table("Scenarios") == list(SCENARIOS.items())
    assert _readme_table("Suites") == list(SUITES.items())


def _readme_tolerances() -> list[tuple[str, float, list[str]]]:
    """(tolerance, default, identity families) per row of README's tolerance
    table.  The families of a row are the names before the first colon of
    each ';'-separated part of its last column, a name ending in '.' being
    the prefix of the names after it."""
    header = "| tolerance | default | checks held to it |\n|---|---|---|\n"
    table = README.read_text().split(header, 1)[1].split("\n\n", 1)[0]
    rows = []
    row = re.compile(r"^\| `?(\w+)`? \| `([^`]+)`[^|]* \| (.*) \|$", re.M)
    for name, default, checks in row.findall(table):
        families = []
        for part in checks.split(";"):
            names = re.findall(r"`([^`]+)`", part.split(":", 1)[0])
            if names and names[0].endswith("."):
                names = [names[0] + rest for rest in names[1:]]
            families += names
        rows.append((name, float(default), families))
    return rows


def test_the_readme_tolerance_table_is_what_the_reports_hold():
    """Each identity of the default reports of paper-n1, oscillators and a
    custom-section run with a chi and a sigma section is named in exactly
    one row of README's tolerance table, held to that row's default; the
    nondegeneracy row's default is the floor its signed slack is read
    against, so it reports against 0."""
    rows = _readme_tolerances()
    configurable = [f.name for f in fields(Tolerances)]
    assert [name for name, _, _ in rows][: len(configurable)] == configurable
    flip = {"name": "flip", "form": "chi", "p": [[[[0, 1], 1.0]]], "q": [[[[1, 0], 1.0]]]}
    configs = [{}, {"scenario": "oscillators"},
               {"scenario": "custom-section", "sections": [flip, ROTATION_SECTION]}]
    for raw in configs:
        for r in run_scenario(ScenarioConfig.from_dict(raw)).checks:
            identity = r.identity_name
            held = [
                (name, default)
                for name, default, families in rows
                if any(identity == f or identity.startswith((f + ".", f + "(")) for f in families)
            ]
            assert len(held) == 1, (identity, held)
            ((name, default),) = held
            if name == "nondegeneracy":
                assert r.tolerance == 0.0 and f"stays above {default:g} " in r.statement
            else:
                assert r.tolerance == default, identity


def test_catalog_lists_names():
    text = list_scenarios()
    assert "paper-n1" in text
    assert "special-kahler" in text
    assert "custom-section" in text
