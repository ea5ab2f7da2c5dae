"""Scenario configuration and the check-suite runner behind the CLI.

A scenario names a geometric setup (which model fibration, which sections,
which oscillator frequencies); a suite names a family of checks to run on it.
``run_scenario`` produces a ``ReportDocument`` whose ``report`` section is
byte-stable across runs with the same configuration: the echoed config is
canonicalized, check lists are sorted by identity name, and timing lives in a
separate section that is excluded from the stable bytes.

``ScenarioConfig.from_dict`` reads each JSON value with one reader per kind:
``_number`` (a finite float; an integer beyond the float range counts as
infinite), ``_positive``, ``_integer`` (true and false are not integers) and
``_object`` (null reads as absent; a key is a field of the dataclass read).
A rejected value raises ``ConfigError``, which the CLI turns into exit 2.
Rules about a value's meaning stay with the type that uses it:
``ProductSystem`` checks frequencies, ``Chart`` the box,
``SectionMap.family`` a section's fit to the model.  Each suite name is
written once, a key of ``SUITES``; the triples' names are ``fibration``'s.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from ._version import __version__
from .action_angle import (
    ProductSystem,
    model_from_product_system,
    verify_action_angle,
)
from .charts import DEFAULT_POINTS, DEFAULT_SEED, Point
from .errors import ConfigError
from .fibration import (
    FORM_NAMES,
    FORM_TO_COMPLEX,
    FibrationModel,
    SectionMap,
    default_sections,
    graph_distance,
    graph_frame_defect,
    make_model,
    member_worst,
    section_pullback,
    standard_sigma_section,
    verify_hypersymplectic,
    verify_lagrangian_fibres,
)
from .special_kahler import (
    build_special_kahler,
    induced_vs_restriction,
    kahler_reports,
    special_symplectic_check,
)
from .structures import (
    MAX_RANK,
    MAX_TABLE_ENTRIES,
    CheckReport,
    Tolerances,
    entries_per_point,
    report,
)

SCHEMA_VERSION = "4"

SCENARIOS = {
    "paper-n1": "four-dimensional model fibration (rank 1) with the default suites",
    "paper-n": "general-rank model fibration (configurable n, default 2)",
    "oscillators": "fibration built from a product of harmonic oscillators",
    "custom-section": "user-supplied polynomial sections over the model fibration",
}

SUITES = {
    "hypersymplectic": "closedness, nondegeneracy and quaternion algebra of the structure triple",
    "lagrangian-fibres": "fibre directions are isotropic for the first and third forms",
    "sections": "pullback vanishing and graph invariance for each configured section",
    "special-kahler": "flat connection, parallel structures, metric and signature on the base",
    "action-angle": "oscillator quadrature oracles and the canonical transform",
}


# ``where`` names the value in an error message, which is built only when
# the value is rejected


def _number(value, where: str) -> float:
    """A JSON number (not true or false, which load as bools) as a finite
    float; an integer beyond the float range counts as infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {number}")
    return number


def _positive(value, where: str) -> float:
    number = _number(value, where)
    if number <= 0:
        raise ConfigError(f"{where} must be positive, got {number}")
    return number


def _integer(value, where: str, minimum: int, maximum: float = math.inf) -> int:
    """A JSON integer (not true or false) from ``minimum`` to ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        bound = f">= {minimum}" if maximum == math.inf else f"from {minimum} to {maximum}"
        raise ConfigError(f"{where} must be an integer {bound}, got {value!r}")
    return value


def _object(raw, where: str, kind: type) -> dict:
    """A JSON object with no key outside the field names of the dataclass
    ``kind``; null reads as {}."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    unknown = raw.keys() - {f.name for f in fields(kind)}
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    return raw


@dataclass(frozen=True)
class SectionSpec:
    """Raw polynomial data for one section, bound to a model later."""

    name: str
    form: str
    p: tuple  # one term table per component
    q: tuple

    @classmethod
    def from_dict(cls, raw, where: str) -> "SectionSpec":
        raw = _object(raw, where, cls)
        name = raw.get("name", "")
        if not (isinstance(name, str) and name):
            raise ConfigError(f"{where}.name must be a non-empty string")
        form = raw.get("form", "sigma")
        if form not in FORM_NAMES:
            raise ConfigError(f"{where}.form must be one of {FORM_NAMES}, got {form!r}")
        p = cls._component_terms(raw.get("p"), f"{where}.p")
        q = cls._component_terms(raw.get("q"), f"{where}.q")
        return cls(name=name, form=form, p=p, q=q)

    @staticmethod
    def _component_terms(raw, where: str) -> tuple:
        if not (isinstance(raw, list) and raw):
            raise ConfigError(f"{where} must be a non-empty list of components")
        components = []
        for c_idx, comp in enumerate(raw):
            if not isinstance(comp, list):
                raise ConfigError(f"{where}[{c_idx}] must be a list of [powers, coeff] terms")
            terms = []
            for t_idx, term in enumerate(comp):
                try:  # the readers name the part; the term's place is added on failure
                    if not (isinstance(term, (list, tuple)) and len(term) == 2):
                        raise ConfigError("must be a [powers, coeff] pair")
                    powers, coeff = term
                    if not isinstance(powers, (list, tuple)):
                        raise ConfigError("powers must be a list of integers")
                    powers = tuple([_integer(e, "power", 0) for e in powers])
                    terms.append((powers, _number(coeff, "coefficient")))
                except ConfigError as exc:
                    raise ConfigError(f"{where}[{c_idx}][{t_idx}] {exc}") from None
            components.append(tuple(terms))
        return tuple(components)

    def echo(self) -> dict:
        terms = lambda comps: [
            [[list(powers), coeff] for powers, coeff in comp] for comp in comps
        ]
        return {
            "name": self.name,
            "form": self.form,
            "p": terms(self.p),
            "q": terms(self.q),
        }


@dataclass(frozen=True)
class SamplingConfig:
    n_points: int
    seed: int

    @classmethod
    def from_dict(cls, raw) -> "SamplingConfig":
        raw = _object(raw, "sampling", cls)
        return cls(
            n_points=_integer(raw.get("n_points", DEFAULT_POINTS), "sampling.n_points", 1),
            seed=_integer(raw.get("seed", DEFAULT_SEED), "sampling.seed", 0),
        )

    def echo(self) -> dict:
        return {"n_points": self.n_points, "seed": self.seed}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n: int
    frequencies: tuple[float, ...]
    sections: tuple[SectionSpec, ...] | None
    sampling: SamplingConfig
    tolerances: Tolerances
    suites: tuple[str, ...]
    output: str | None

    @classmethod
    def from_dict(cls, raw) -> "ScenarioConfig":
        if raw is None:  # null means absent under a key, not as the whole configuration
            raise ConfigError("configuration must be a JSON object")
        raw = _object(raw, "configuration", cls)

        scenario = raw.get("scenario", "paper-n1")
        if not (isinstance(scenario, str) and scenario in SCENARIOS):
            raise ConfigError(f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}")

        n = raw.get("n")
        if n is not None:
            n = _integer(n, "n", 1)

        frequencies = raw.get("frequencies")
        if frequencies is not None:
            if not isinstance(frequencies, list):
                raise ConfigError("frequencies must be a list of numbers")
            frequencies = [_number(nu, f"frequencies[{k}]") for k, nu in enumerate(frequencies)]
            try:  # the frequency rules are the product system's
                frequencies = ProductSystem.from_frequencies(frequencies).frequencies.tolist()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

        # scenario-specific resolution of n and frequencies
        if scenario == "paper-n1":
            if n not in (None, 1):
                raise ConfigError("scenario paper-n1 fixes n = 1")
            n = 1
        elif scenario == "oscillators" and frequencies is not None:
            if n is not None and n != len(frequencies) // 2:
                raise ConfigError(f"n = {n} contradicts {len(frequencies)} oscillator frequencies")
            n = len(frequencies) // 2
        elif n is None:
            n = 2 if scenario == "paper-n" else 1
        if n > MAX_RANK:
            raise ConfigError(f"rank n = {n} is above MAX_RANK = {MAX_RANK}")
        if frequencies is None:
            frequencies = tuple(1.0 + k for k in range(2 * n))
        if len(frequencies) != 2 * n:
            raise ConfigError(
                f"need {2 * n} frequencies for a rank-{n} model, got {len(frequencies)}"
            )

        sections = raw.get("sections")
        if sections is not None:
            if not (isinstance(sections, list) and sections):
                raise ConfigError("sections must be a non-empty list")
            sections = tuple(
                SectionSpec.from_dict(s, f"sections[{k}]") for k, s in enumerate(sections)
            )
            if len({s.name for s in sections}) != len(sections):
                raise ConfigError("section names must be unique")
        if scenario == "custom-section" and not sections:
            raise ConfigError("scenario custom-section requires a non-empty sections list")

        sampling = SamplingConfig.from_dict(raw.get("sampling"))
        most = MAX_TABLE_ENTRIES // entries_per_point(n)
        if sampling.n_points > most:
            raise ConfigError(
                f"sampling.n_points must be at most {most} at rank n = {n}"
                f" (MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}), got {sampling.n_points}"
            )
        raw_tolerances = _object(raw.get("tolerances"), "tolerances", Tolerances)
        tolerances = Tolerances(
            **{key: _positive(value, f"tolerances.{key}") for key, value in raw_tolerances.items()}
        )

        suites = raw.get("suites")
        if suites is None:
            suites = tuple(SUITES)
        else:
            if not (isinstance(suites, list) and suites):
                raise ConfigError("suites must be a non-empty list of suite names")
            for s in suites:
                if not (isinstance(s, str) and s in SUITES):
                    raise ConfigError(f"unknown suite {s!r}; known: {sorted(SUITES)}")
            suites = tuple(dict.fromkeys(suites))

        output = raw.get("output")
        if not (output is None or (isinstance(output, str) and output)):
            raise ConfigError("output must be a non-empty string path")

        return cls(
            scenario=scenario,
            n=n,
            frequencies=tuple(frequencies),
            sections=sections,
            sampling=sampling,
            tolerances=tolerances,
            suites=suites,
            output=output,
        )

    def echo(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "frequencies": list(self.frequencies),
            "sections": None
            if self.sections is None
            else [s.echo() for s in self.sections],
            "sampling": self.sampling.echo(),
            "tolerances": asdict(self.tolerances),
            "suites": list(self.suites),
        }


@dataclass(frozen=True)
class ReportDocument:
    config_echo: dict
    checks: tuple[CheckReport, ...]
    duration_seconds: float

    @property
    def verdict(self) -> str:
        return "pass" if all(r.passed for r in self.checks) else "fail"

    def stable_dict(self) -> dict:
        return {
            "toolkit_version": __version__,
            "scenario": self.config_echo["scenario"],
            "config": self.config_echo,
            "checks": [r.as_dict() for r in self.checks],
            "verdict": self.verdict,
        }

    def document_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "report": self.stable_dict(),
            "timing": {"duration_seconds": self.duration_seconds},
        }

    def to_json(self) -> str:
        """The document as one line of compact JSON: without ``indent`` the
        C encoder writes it."""
        return json.dumps(self.document_dict(), sort_keys=True) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.checks:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.identity_name}: max residual {r.max_residual:.3e}"
                f" (tolerance {r.tolerance:g}, {r.n_points} points)"
            )
        passed = sum(r.passed for r in self.checks)
        lines.append(f"verdict: {self.verdict} ({passed}/{len(self.checks)} checks passed)")
        return lines


class _RunInputs:
    """What the suites of one run share: the model, the seeded sample of each
    chart, and the run's sections as one ``SectionMap`` family with the
    graph-frame defect of its members, each built on first use and reused.
    The model keeps its two triples, and the family what it read on the base
    sample, so a run builds or reads nothing twice."""

    def __init__(self, config: ScenarioConfig, model: FibrationModel) -> None:
        self.config = config
        self.model = model

    @cached_property
    def total_pt(self) -> Point:
        sampling = self.config.sampling
        return self.model.total_chart.sample(sampling.n_points, sampling.seed)

    @cached_property
    def base_pt(self) -> Point:
        sampling = self.config.sampling
        return self.model.base_chart.sample(sampling.n_points, sampling.seed)

    @cached_property
    def specs(self) -> tuple[SectionSpec, ...]:
        """The configured sections, else ``fibration.default_sections``."""
        return self.config.sections or tuple(
            SectionSpec(*row) for row in default_sections(self.model.n)
        )

    @cached_property
    def sections(self) -> SectionMap:
        """The family of ``specs``; ConfigError when a section does not fit."""
        members = [(spec.name, spec.p, spec.q) for spec in self.specs]
        try:
            return SectionMap.family(self.model, members)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @cached_property
    def frame_defect(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``graph_frame_defect`` of the family, each member under the complex
        structure that should preserve its graph (``FORM_TO_COMPLEX``)."""
        Js = [getattr(self.model.complexes, FORM_TO_COMPLEX[spec.form]) for spec in self.specs]
        return graph_frame_defect(self.sections, Js, self.base_pt)


def _suite_hypersymplectic(run: _RunInputs) -> list[CheckReport]:
    return verify_hypersymplectic(run.model, tolerances=run.config.tolerances, pt=run.total_pt)


def _suite_lagrangian_fibres(run: _RunInputs) -> list[CheckReport]:
    tol, triple = run.config.tolerances, run.model.triple
    return [
        verify_lagrangian_fibres(run.model, triple.omega, run.total_pt, tol),
        verify_lagrangian_fibres(run.model, triple.sigma, run.total_pt, tol),
    ]


def _suite_sections(run: _RunInputs) -> list[CheckReport]:
    model, pt, tol = run.model, run.base_pt, run.config.tolerances
    forms = [getattr(model.triple, spec.form) for spec in run.specs]
    table = section_pullback(model, run.sections, forms, pt)
    pullbacks = member_worst(np.stack(list(table.values()), axis=-1), 1)
    D, _, defect = run.frame_defect
    distances = member_worst(graph_distance(D, defect), 1)
    reports = []
    for spec, pullback, distance in zip(run.specs, pullbacks, distances):
        values = {"section": spec.name, "form": spec.form, "J": FORM_TO_COMPLEX[spec.form]}
        reports += [
            report("sections.pullback_vanishes", pullback, len(pt), tol, **values),
            report("sections.graph_invariant", distance, len(pt), tol, **values),
        ]
    return reports


def _suite_special_kahler(run: _RunInputs) -> list[CheckReport]:
    """The first sigma section as a member of the run's family, its
    graph-frame defect read last; the standard one when none is configured."""
    model, pt, tol = run.model, run.base_pt, run.config.tolerances
    forms = [spec.form for spec in run.specs]
    configured = "sigma" in forms
    section = run.sections if configured else standard_sigma_section(model)
    member = forms.index("sigma") if configured else 0
    data = build_special_kahler(model, section, member)
    reports = special_symplectic_check(data, pt, tol) + kahler_reports(data, pt, tol)
    defect = run.frame_defect if configured else None
    return reports + [induced_vs_restriction(model, section, pt, tol, member, defect)]


def _suite_action_angle(run: _RunInputs) -> list[CheckReport]:
    config = run.config
    sys = ProductSystem.from_frequencies(config.frequencies)
    return verify_action_angle(
        sys, config.sampling.n_points, config.sampling.seed, config.tolerances
    )


# each suite's runner, in the order of SUITES: a count that differs fails the import
_SUITE_RUNNERS = dict(
    zip(
        SUITES,
        (_suite_hypersymplectic, _suite_lagrangian_fibres, _suite_sections,
         _suite_special_kahler, _suite_action_angle),
        strict=True,
    )
)


def build_scenario_model(config: ScenarioConfig) -> FibrationModel:
    """The scenario's model; ConfigError when ``Chart`` rejects one of its
    boxes, whose step the width rule would lose in rounding next to a bound."""
    try:
        if config.scenario == "oscillators":
            sys = ProductSystem.from_frequencies(config.frequencies)
            return model_from_product_system(sys, name="oscillators")
        return make_model(config.n, name=config.scenario)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_scenario(config: ScenarioConfig) -> ReportDocument:
    start = time.perf_counter()
    run = _RunInputs(config, build_scenario_model(config))
    checks: list[CheckReport] = []
    for suite in config.suites:
        checks.extend(_SUITE_RUNNERS[suite](run))
    checks.sort(key=lambda r: r.identity_name)
    return ReportDocument(
        config_echo=config.echo(),
        checks=tuple(checks),
        duration_seconds=time.perf_counter() - start,
    )


def list_scenarios() -> str:
    width = max(map(len, list(SCENARIOS) + list(SUITES))) + 2
    lines = ["scenarios:"]
    for name in sorted(SCENARIOS):
        lines.append(f"  {name:<{width}}{SCENARIOS[name]}")
    lines.append("suites:")
    for name in sorted(SUITES):
        lines.append(f"  {name:<{width}}{SUITES[name]}")
    return "\n".join(lines)
