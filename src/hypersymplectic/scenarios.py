"""Scenario configuration and the check-suite runner behind the CLI.

A scenario names a geometric setup (which model fibration, which sections,
which oscillator frequencies); a suite names a family of checks to run on it.
``run_scenario`` produces a ``ReportDocument`` whose ``report`` section is
byte-stable across runs with the same configuration: the echoed config is
canonicalized, check lists are sorted by identity name, and timing lives in a
separate section that is excluded from the stable bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from ._version import __version__
from .action_angle import (
    ProductSystem,
    model_from_product_system,
    verify_action_angle,
)
from .calculus import EndomorphismField
from .charts import Point
from .errors import ConfigError
from .fibration import (
    FibrationModel,
    HyperComplexTriple,
    HyperSymplecticTriple,
    SectionMap,
    build_complex_triple,
    build_structure_triple,
    complex_submanifold_check,
    graph_frame_defect,
    make_model,
    section_pullback,
    standard_sigma_section,
    verify_hypersymplectic,
    verify_lagrangian_fibres,
    zero_section,
)
from .polynomials import Polynomial
from .special_kahler import (
    build_special_kahler,
    induced_vs_restriction,
    kahler_reports,
    special_symplectic_check,
)
from .structures import (
    DEFAULT_POINTS,
    DEFAULT_SEED,
    SECTION_PULLBACK_TOL,
    CheckReport,
    Tolerances,
)

SCHEMA_VERSION = "3"

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

DEFAULT_SUITE_ORDER = (
    "hypersymplectic",
    "lagrangian-fibres",
    "sections",
    "special-kahler",
    "action-angle",
)

FORM_NAMES = ("omega", "chi", "sigma")

# the suites that read a section's FD graph frame (_RunInputs.frame_defect)
FRAME_SUITES = {"sections", "special-kahler"}

# which complex structure should preserve the graph of a section that is
# Lagrangian for a given form (the remaining two forms vanish on the graph)
FORM_TO_COMPLEX = {"omega": "J_chi", "sigma": "J_omega", "chi": "J_sigma"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """An integer in the JSON sense: ``true`` and ``false`` load as bools,
    which Python counts as ints, and are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _object(raw: dict, key: str) -> dict:
    """The JSON object under ``key``, or {} when it is absent or null."""
    value = raw.get(key)
    if value is None:
        return {}
    _require(isinstance(value, dict), f"{key} must be an object, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_positive_float(value, where: str) -> float:
    _require(_is_number(value), f"{where} must be a number")
    value = float(value)
    _require(math.isfinite(value), f"{where} must be finite, got {value}")
    _require(value > 0, f"{where} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SectionSpec:
    """Raw polynomial data for one section, bound to a model later."""

    name: str
    form: str
    p_terms: tuple  # one term table per component
    q_terms: tuple

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "SectionSpec":
        _require(isinstance(raw, dict), f"{where} must be an object")
        unknown = set(raw) - {"name", "form", "p", "q"}
        _require(not unknown, f"{where} has unknown keys: {sorted(unknown)}")
        name = raw.get("name", "")
        _require(isinstance(name, str) and name, f"{where}.name must be a non-empty string")
        form = raw.get("form", "sigma")
        _require(form in FORM_NAMES, f"{where}.form must be one of {FORM_NAMES}, got {form!r}")
        p_terms = cls._component_terms(raw.get("p"), f"{where}.p")
        q_terms = cls._component_terms(raw.get("q"), f"{where}.q")
        return cls(name=name, form=form, p_terms=p_terms, q_terms=q_terms)

    @staticmethod
    def _component_terms(raw, where: str) -> tuple:
        _require(isinstance(raw, list) and raw, f"{where} must be a non-empty list of components")
        components = []
        for c_idx, comp in enumerate(raw):
            c_where = f"{where}[{c_idx}]"
            _require(isinstance(comp, list), f"{c_where} must be a list of [powers, coeff] terms")
            terms = []
            for t_idx, term in enumerate(comp):
                t_where = f"{c_where}[{t_idx}]"
                _require(
                    isinstance(term, (list, tuple)) and len(term) == 2,
                    f"{t_where} must be a [powers, coeff] pair",
                )
                powers, coeff = term
                _require(
                    isinstance(powers, (list, tuple))
                    and all(_is_int(e) and e >= 0 for e in powers),
                    f"{t_where} powers must be non-negative integers",
                )
                _require(
                    isinstance(coeff, (int, float)) and not isinstance(coeff, bool),
                    f"{t_where} coefficient must be a number",
                )
                _require(math.isfinite(coeff), f"{t_where} coefficient must be finite, got {coeff}")
                terms.append((tuple(powers), float(coeff)))
            components.append(tuple(terms))
        return tuple(components)

    def to_section(self, model: FibrationModel) -> SectionMap:
        """The section on ``model``; ``SectionMap`` and ``Polynomial.from_terms``
        check that its components and power vectors fit the model."""
        n2 = 2 * model.n
        try:
            p = tuple(Polynomial.from_terms(n2, terms) for terms in self.p_terms)
            q = tuple(Polynomial.from_terms(n2, terms) for terms in self.q_terms)
            return SectionMap(model, p, q, name=self.name)
        except ValueError as exc:
            raise ConfigError(f"section {self.name!r}: {exc}") from exc

    def echo(self) -> dict:
        terms = lambda comps: [
            [[list(powers), coeff] for powers, coeff in comp] for comp in comps
        ]
        return {
            "name": self.name,
            "form": self.form,
            "p": terms(self.p_terms),
            "q": terms(self.q_terms),
        }


@dataclass(frozen=True)
class SamplingConfig:
    n_points: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    fd_step: float | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "SamplingConfig":
        unknown = set(raw) - {"n_points", "seed", "fd_step"}
        _require(not unknown, f"sampling has unknown keys: {sorted(unknown)}")
        n_points = raw.get("n_points", DEFAULT_POINTS)
        _require(
            _is_int(n_points) and n_points >= 1,
            f"sampling.n_points must be a positive integer, got {n_points!r}",
        )
        seed = raw.get("seed", DEFAULT_SEED)
        _require(
            _is_int(seed) and seed >= 0,
            f"sampling.seed must be a non-negative integer, got {seed!r}",
        )
        fd_step = raw.get("fd_step")
        if fd_step is not None:
            fd_step = _as_positive_float(fd_step, "sampling.fd_step")
        return cls(n_points=n_points, seed=seed, fd_step=fd_step)

    def echo(self) -> dict:
        return {"n_points": self.n_points, "seed": self.seed, "fd_step": self.fd_step}


def _tolerances_from_dict(raw: dict) -> Tolerances:
    known = {f.name for f in fields(Tolerances)}
    unknown = set(raw) - known
    _require(not unknown, f"tolerances has unknown keys: {sorted(unknown)}")
    return Tolerances(
        **{key: _as_positive_float(value, f"tolerances.{key}") for key, value in raw.items()}
    )


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n: int
    frequencies: tuple[float, ...]
    sections: tuple[SectionSpec, ...] | None
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    tolerances: Tolerances = field(default_factory=Tolerances)
    suites: tuple[str, ...] = DEFAULT_SUITE_ORDER
    output: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        _require(isinstance(raw, dict), "configuration must be a JSON object")
        known = {
            "scenario",
            "n",
            "frequencies",
            "sections",
            "sampling",
            "tolerances",
            "suites",
            "output",
        }
        unknown = set(raw) - known
        _require(not unknown, f"configuration has unknown keys: {sorted(unknown)}")

        scenario = raw.get("scenario", "paper-n1")
        _require(
            isinstance(scenario, str) and scenario in SCENARIOS,
            f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}",
        )

        n = raw.get("n")
        if n is not None:
            _require(_is_int(n) and n >= 1, f"n must be a positive integer, got {n!r}")

        frequencies = raw.get("frequencies")
        if frequencies is not None:
            _require(isinstance(frequencies, list), "frequencies must be a list of numbers")
            for k, nu in enumerate(frequencies):
                _require(_is_number(nu), f"frequencies[{k}] must be a number")
            try:  # the frequency rules are the product system's
                frequencies = tuple(ProductSystem(frequencies).frequencies.tolist())
            except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
                raise ConfigError(str(exc)) from exc

        # scenario-specific resolution of n and frequencies
        if scenario == "paper-n1":
            _require(n in (None, 1), "scenario paper-n1 fixes n = 1")
            n = 1
        elif scenario == "oscillators":
            if frequencies is None:
                frequencies = (1.0, 2.0) if n is None else tuple(
                    1.0 + k for k in range(2 * n)
                )
            _require(
                n is None or n == len(frequencies) // 2,
                f"n = {n} contradicts {len(frequencies)} oscillator frequencies",
            )
            n = len(frequencies) // 2
        elif n is None:
            n = 2 if scenario == "paper-n" else 1
        if frequencies is None:
            frequencies = tuple(1.0 + k for k in range(2 * n))
        _require(
            len(frequencies) == 2 * n,
            f"need {2 * n} frequencies for a rank-{n} model, got {len(frequencies)}",
        )

        raw_sections = raw.get("sections")
        sections: tuple[SectionSpec, ...] | None = None
        if raw_sections is not None:
            _require(isinstance(raw_sections, list), "sections must be a list")
            sections = tuple(
                SectionSpec.from_dict(s, f"sections[{k}]") for k, s in enumerate(raw_sections)
            )
            names = [s.name for s in sections]
            _require(len(set(names)) == len(names), "section names must be unique")
        _require(
            scenario != "custom-section" or bool(sections),
            "scenario custom-section requires a non-empty sections list",
        )

        sampling = SamplingConfig.from_dict(_object(raw, "sampling"))
        tolerances = _tolerances_from_dict(_object(raw, "tolerances"))

        suites_raw = raw.get("suites")
        if suites_raw is None:
            suites = DEFAULT_SUITE_ORDER
        else:
            _require(
                isinstance(suites_raw, list) and suites_raw,
                "suites must be a non-empty list of suite names",
            )
            seen: list[str] = []
            for s in suites_raw:
                _require(
                    isinstance(s, str) and s in SUITES,
                    f"unknown suite {s!r}; known: {sorted(SUITES)}",
                )
                if s not in seen:
                    seen.append(s)
            suites = tuple(seen)

        output = raw.get("output")
        _require(
            output is None or (isinstance(output, str) and output),
            "output must be a non-empty string path",
        )

        return cls(
            scenario=scenario,
            n=n,
            frequencies=frequencies,
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
    scenario: str
    config_echo: dict
    checks: tuple[CheckReport, ...]
    verdict: str
    duration_seconds: float
    schema_version: str = SCHEMA_VERSION
    toolkit_version: str = __version__

    def stable_dict(self) -> dict:
        return {
            "toolkit_version": self.toolkit_version,
            "scenario": self.scenario,
            "config": self.config_echo,
            "checks": [r.as_dict() for r in self.checks],
            "verdict": self.verdict,
        }

    def document_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "report": self.stable_dict(),
            "timing": {"duration_seconds": self.duration_seconds},
        }

    def to_json(self) -> str:
        return json.dumps(self.document_dict(), indent=2, sort_keys=True) + "\n"

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
    """What the suites of one run share: the seeded sample of each chart, the
    resolved sections, the two triples and the FD graph frames.  Each is
    built on first use and then reused, so a run builds none of them twice
    and none that its suites do not read.  ``run_scenario`` drops the frames
    (N * (2n)^2 numbers each) once no later suite reads them."""

    def __init__(self, config: ScenarioConfig, model: FibrationModel) -> None:
        self.config = config
        self.model = model
        self.frames: dict[tuple[int, int], tuple] = {}

    @cached_property
    def total_pt(self) -> Point:
        sampling = self.config.sampling
        return self.model.total_chart.sample(sampling.n_points, sampling.seed)

    @cached_property
    def base_pt(self) -> Point:
        sampling = self.config.sampling
        return self.model.base_chart.sample(sampling.n_points, sampling.seed)

    @cached_property
    def sections(self) -> list[tuple[SectionMap, str]]:
        """(section, form name) pairs: configured ones, or the library defaults."""
        if self.config.sections:
            return [(spec.to_section(self.model), spec.form) for spec in self.config.sections]
        return [(zero_section(self.model), "omega"), (standard_sigma_section(self.model), "sigma")]

    @cached_property
    def kahler_section(self) -> SectionMap:
        """The first sigma section, or the standard one if none is configured."""
        sigma_sections = [section for section, form_name in self.sections if form_name == "sigma"]
        return sigma_sections[0] if sigma_sections else standard_sigma_section(self.model)

    def frame_defect(self, section: SectionMap, J: EndomorphismField) -> tuple:
        """``graph_frame_defect`` of a section of this run on the base sample,
        computed once per (section, J) pair."""
        key = (id(section), id(J))  # both live as long as the run
        if key not in self.frames:
            self.frames[key] = graph_frame_defect(section, J, self.base_pt)
        return self.frames[key]

    @cached_property
    def triple(self) -> HyperSymplecticTriple:
        return build_structure_triple(self.model)

    @cached_property
    def complexes(self) -> HyperComplexTriple:
        return build_complex_triple(self.model, triple=self.triple)


def _suite_hypersymplectic(run: _RunInputs) -> list[CheckReport]:
    config = run.config
    return verify_hypersymplectic(
        run.model,
        n_points=config.sampling.n_points,
        seed=config.sampling.seed,
        tolerances=config.tolerances,
        pt=run.total_pt,
        triple=run.triple,
        complexes=run.complexes,
    )


def _suite_lagrangian_fibres(run: _RunInputs) -> list[CheckReport]:
    tol = run.config.tolerances.algebraic
    return [
        verify_lagrangian_fibres(run.model, run.triple.omega, run.total_pt, tol),
        verify_lagrangian_fibres(run.model, run.triple.sigma, run.total_pt, tol),
    ]


def _suite_sections(run: _RunInputs) -> list[CheckReport]:
    config, model, pt = run.config, run.model, run.base_pt
    triple = run.triple
    named_forms = {"omega": triple.omega, "chi": triple.chi, "sigma": triple.sigma}
    named_endos = {J.name: J for J in run.complexes.endos()}
    reports = []
    for section, form_name in run.sections:
        form = named_forms[form_name]
        table = section_pullback(model, section, form, pt)
        worst = float(np.max(np.abs(list(table.values()))))
        reports.append(
            CheckReport.from_residual(
                f"sections.pullback_vanishes.{section.name}.{form_name}",
                len(pt),
                worst,
                SECTION_PULLBACK_TOL,
                statement=f"the graph of {section.name!r} is Lagrangian for {form_name}",
            )
        )
        J = named_endos[FORM_TO_COMPLEX[form_name]]
        worst = complex_submanifold_check(
            model, section, J, pt, frame_defect=run.frame_defect(section, J)
        )
        reports.append(
            CheckReport.from_residual(
                f"sections.graph_invariant.{section.name}.{J.name}",
                len(pt),
                worst,
                config.tolerances.fd,
                statement=f"{J.name} preserves the tangent spaces of the graph of {section.name!r}",
            )
        )
    return reports


def _suite_special_kahler(run: _RunInputs) -> list[CheckReport]:
    config, model, pt = run.config, run.model, run.base_pt
    section = run.kahler_section
    data = build_special_kahler(model, section)
    reports = special_symplectic_check(data, pt, config.tolerances)
    reports.extend(kahler_reports(data, pt, config.tolerances))
    reports.append(
        induced_vs_restriction(
            model, section, pt, config.tolerances.fd,
            frame_defect=run.frame_defect(section, run.complexes.J_omega),
        )
    )
    return reports


def _suite_action_angle(run: _RunInputs) -> list[CheckReport]:
    config = run.config
    sys = ProductSystem.from_frequencies(config.frequencies)
    return verify_action_angle(
        sys, config.sampling.n_points, config.sampling.seed, config.tolerances
    )


_SUITE_RUNNERS: dict[str, Callable[[_RunInputs], list[CheckReport]]] = {
    "hypersymplectic": _suite_hypersymplectic,
    "lagrangian-fibres": _suite_lagrangian_fibres,
    "sections": _suite_sections,
    "special-kahler": _suite_special_kahler,
    "action-angle": _suite_action_angle,
}


def build_scenario_model(config: ScenarioConfig) -> FibrationModel:
    """The scenario's model, its charts stepping by ``sampling.fd_step``;
    ConfigError when that step is lost in rounding next to a box bound."""
    fd_step = config.sampling.fd_step
    try:
        if config.scenario == "oscillators":
            sys = ProductSystem.from_frequencies(config.frequencies)
            return model_from_product_system(sys, name="oscillators", fd_step=fd_step)
        return make_model(config.n, name=config.scenario, fd_step=fd_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_scenario(config: ScenarioConfig) -> ReportDocument:
    start = time.perf_counter()
    run = _RunInputs(config, build_scenario_model(config))
    checks: list[CheckReport] = []
    for k, suite in enumerate(config.suites):
        checks.extend(_SUITE_RUNNERS[suite](run))
        if FRAME_SUITES.isdisjoint(config.suites[k + 1 :]):
            run.frames.clear()
    checks.sort(key=lambda r: r.identity_name)
    verdict = "pass" if all(r.passed for r in checks) else "fail"
    return ReportDocument(
        scenario=config.scenario,
        config_echo=config.echo(),
        checks=tuple(checks),
        verdict=verdict,
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
