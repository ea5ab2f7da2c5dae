"""The memos of sample-independent objects: a warm run reports what a cold
one does, makes the same traced calls and builds no polynomial or form, and
no memo outgrows its bound, keeps a failed build, hands out a writable
array, lets one chart carry another's signed zero or lets one spec's entry
change another's report."""

import contextlib
import cProfile
import io
import json
import math
import pstats
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypersymplectic import cli
from hypersymplectic.action_angle import ProductSystem
from hypersymplectic.errors import ConfigError
from hypersymplectic.fibration import (
    MEMO_SIZE,
    SectionMap,
    base_symplectic_form,
    default_sections,
    form_matrices,
    make_model,
)
from hypersymplectic.polynomials import Polynomial, merge_terms
from hypersymplectic.scenarios import SUITES, ScenarioConfig, run_scenario

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


def benchmark_module(name: str):
    """A module of ``benchmarks/``, imported from that directory."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


def custom(*sections, suites=tuple(SUITES)) -> dict:
    return {"scenario": "custom-section", "suites": list(suites), "sections": list(sections)}


def section(name: str, form: str, p: list, q: list) -> dict:
    return {"name": name, "form": form, "p": [p], "q": [q]}


ROTATION = section("rotation", "sigma", [[[0, 1], 1.0]], [[[1, 0], -1.0]])
# p = y + x^2, q = -x: I = -D is not constant
CURVED_SIGMA = custom(section("curved", "sigma", [[[0, 1], 1.0], [[2, 0], 1.0]], [[[1, 0], -1.0]]))
# p = 2x + y, q = x + y: a symmetric D of det 1, Lagrangian for chi and omega
UNIMODULAR = section("unimodular", "chi", [[[1, 0], 2.0], [[0, 1], 1.0]], [[[1, 0], 1.0], [[0, 1], 1.0]])
CONFIGS = {
    "paper-n1": {"scenario": "paper-n1"},
    "paper-n2": {"scenario": "paper-n", "n": 2},
    "paper-n3": {"scenario": "paper-n", "n": 3},
    "paper-n4": {"scenario": "paper-n", "n": 4},
    "oscillators": {"scenario": "oscillators"},
    "oscillators-four": {"scenario": "oscillators", "frequencies": [1, 0.5, 2, 3]},
    "paper-n3-16-points": {"scenario": "paper-n", "n": 3, "sampling": {"n_points": 16, "seed": 1}},
    "paper-n1-160-points": {"scenario": "paper-n1", "sampling": {"n_points": 160, "seed": 1}},
    "curved-sigma": CURVED_SIGMA,
    "harmonic-deg8": benchmark_module("workloads").make_config("harmonic-deg8", 1),
    "chi-sigma": custom(UNIMODULAR, ROTATION),
}


def clear(memos: dict) -> None:
    for memo in memos.values():
        memo.cache_clear()


def stable_bytes(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("raw", CONFIGS.values(), ids=CONFIGS.keys())
def test_a_warm_run_equals_a_cold_one_and_a_fresh_process(tmp_path, memos, raw):
    """With every memo cleared a run builds everything anew; run again, it
    reuses the memos, and both stable reports are byte-identical to the one
    a fresh process writes."""
    config = ScenarioConfig.from_dict(raw)
    clear(memos)
    cold = stable_bytes(run_scenario(config).stable_dict())
    hits = memos["fibration._model_build"].cache_info().hits
    warm = stable_bytes(run_scenario(config).stable_dict())
    assert memos["fibration._model_build"].cache_info().hits == hits + 1
    assert warm == cold
    path, report = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "hypersymplectic", "--config", str(path), "--output", str(report)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert stable_bytes(json.loads(report.read_text())["report"]) == cold


def traced_code_objects() -> dict:
    """The code object of every method and function that
    ``benchmarks/shims.py`` traces, by span name, read from its lists."""
    shims = benchmark_module("shims")
    codes = {}
    for module, cls_name, attr, name in shims.METHODS:
        cls = getattr(sys.modules[f"hypersymplectic.{module}"], cls_name)
        codes[name] = cls.__dict__[attr].__code__
    for module, fn_names in shims.FUNCTIONS.items():
        for fn_name in fn_names:
            fn = getattr(sys.modules[f"hypersymplectic.{module}"], fn_name)
            codes[f"{module}.{fn_name}"] = fn.__code__
    return codes


def calls_of(profile: cProfile.Profile, codes: dict) -> dict:
    """How often ``profile`` saw each code object of ``codes`` called."""
    counts = {key[:3]: value[1] for key, value in pstats.Stats(profile).stats.items()}
    return {
        name: counts.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        for name, code in codes.items()
    }


def profiled_calls(argv: list[str], codes: dict) -> dict:
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        assert profile.runcall(cli.main, argv) in (0, 1)
    return calls_of(profile, codes)


TRACED = {"paper-n3": "paper-n3-16-points", "oscillators-four": "oscillators-four",
          "harmonic-deg8": "harmonic-deg8", "chi-sigma": "chi-sigma"}


@pytest.mark.parametrize("raw", [CONFIGS[name] for name in TRACED.values()], ids=TRACED.keys())
def test_a_cold_and_a_warm_call_make_the_same_traced_calls(tmp_path, memos, raw):
    """The benchmark's self-test compares span counts of a cold traced call
    with cProfile counts of a warm call, so no memo may build an object
    with a function the shims trace: ``recursion_operator`` and
    ``form_matrix`` build the complex structures in every run."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    argv = ["--config", str(path), "--output", str(tmp_path / "report.json")]
    codes = traced_code_objects()
    clear(memos)
    cold = profiled_calls(argv, codes)
    assert profiled_calls(argv, codes) == cold
    assert cold["fibration.recursion_operator"] == 1 and cold["calculus.form_matrix"] > 0


BUILDERS = {
    "merge_terms": merge_terms.__code__,
    "Polynomial.stack": Polynomial.stack.__func__.__code__,
    "Polynomial.jacobian": Polynomial.jacobian.__code__,
    "fibration.form_matrices": form_matrices.__code__,
}


@pytest.mark.parametrize("raw", CONFIGS.values(), ids=CONFIGS.keys())
def test_a_second_identical_run_builds_no_polynomial_and_no_form(raw):
    """The memos hold a run's whole sample-independent build: run again, a
    config merges no term table, stacks and differentiates no polynomial
    and forms no matrix of the triple."""
    config = ScenarioConfig.from_dict(raw)
    run_scenario(config)
    profile = cProfile.Profile()
    profile.runcall(run_scenario, config)
    assert calls_of(profile, BUILDERS) == dict.fromkeys(BUILDERS, 0)


def test_no_memo_outgrows_its_bound(memos):
    """A sweep of more distinct frequency sets, then of more distinct
    section specs, than the bound leaves every memo at most ``MEMO_SIZE``
    entries, the product systems' and the families' at exactly that."""
    for k in range(MEMO_SIZE + 3):
        frequencies = [1.0, 2.0 + k]
        raw = {"scenario": "oscillators", "frequencies": frequencies, "sampling": {"n_points": 5}}
        assert run_scenario(ScenarioConfig.from_dict(raw)).verdict == "pass"
    for k in range(MEMO_SIZE + 3):
        # the gradient of the harmonic (2 + k) x y
        gradient = section("xy", "omega", [[[0, 1], 2.0 + k]], [[[1, 0], 2.0 + k]])
        raw = {**custom(gradient, suites=["sections"]), "sampling": {"n_points": 5}}
        assert run_scenario(ScenarioConfig.from_dict(raw)).verdict == "pass"
    for name, memo in memos.items():
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize <= MEMO_SIZE, name
    assert memos["action_angle._product_system"].cache_info().currsize == MEMO_SIZE
    assert memos["fibration._family"].cache_info().currsize == MEMO_SIZE


def zero_term(zero: float) -> dict:
    """The rotation with one more term, ``zero`` times x, in p."""
    return section("rotation", "sigma", [[[0, 1], 1.0], [[1, 0], zero]], [[[1, 0], -1.0]])


@pytest.mark.parametrize(
    "first, second, shared",
    [
        (custom(ROTATION), custom({**ROTATION, "name": "other"}), False),
        (custom(zero_term(0.0)), custom(zero_term(-0.0)), True),
        (custom(zero_term(-0.0)), custom(zero_term(0.0)), True),
    ],
    ids=["other-name", "zero-then-minus-zero", "minus-zero-then-zero"],
)
def test_a_family_entry_leaks_nothing_into_another_report(memos, first, second, shared):
    """A run that follows another, whose tables equal its own, reports the
    bytes it reports with every memo cleared: its own section names, and
    its own echo of a -0.0 coefficient that compares equal to 0.0 and so
    reads the first run's family entry."""
    config = ScenarioConfig.from_dict(second)
    clear(memos)
    alone = stable_bytes(run_scenario(config).stable_dict())
    clear(memos)
    run_scenario(ScenarioConfig.from_dict(first))
    after = run_scenario(config)
    assert stable_bytes(after.stable_dict()) == alone
    assert all(spec["name"] in check.identity_name for spec in second["sections"]
               for check in after.checks if check.identity_name.startswith("sections."))
    assert memos["fibration._family"].cache_info().hits == int(shared)


def test_tables_equal_as_values_read_alike(memos):
    """A coefficient 1 and a 1.0 key one family entry, and the 1.0 family
    read through the entry of the 1 family reads, byte for byte, what a
    fresh build of it reads."""
    model = make_model(1)
    pt = model.base_chart.sample(7, 3)

    def reads(coefficient):
        family = SectionMap.family(model, [("s", [[((0, 2), coefficient)]], [[((1, 1), 1.0)]])])
        values = (family.evaluate(pt).coords, family.jacobian(pt), family.fibre_hessian(pt))
        return repr(family.members), [value.tobytes() for value in values]

    clear(memos)
    fresh = reads(1.0)
    clear(memos)
    reads(1)
    assert reads(1.0) == fresh
    assert memos["fibration._family"].cache_info().hits == 1


FAILING = {
    "degree-nine": custom(section("s", "sigma", [[[5, 4], 1.0]], [])),
    "two-p-components": custom({**section("s", "sigma", [[[1, 0], 1.0]], []), "p": [[], []]}),
}


@pytest.mark.parametrize("raw", FAILING.values(), ids=FAILING.keys())
def test_a_failing_spec_raises_the_same_error_and_leaves_no_family(memos, raw):
    config = ScenarioConfig.from_dict(raw)
    entries = memos["fibration._family"].cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(ConfigError) as raised:
            run_scenario(config)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] and messages[0].startswith("section 's': ")
    assert memos["fibration._family"].cache_info().currsize == entries


# x^5 y^4 at rank 1: one member, (name, p tables, q tables)
DEGREE_NINE = [("s", ((((5, 4), 1.0),),), ((),))]


@pytest.mark.parametrize(
    "build",
    [
        lambda: SectionMap.family(make_model(1), DEGREE_NINE),
        lambda: make_model(1, action_bounds=[(1e12, 1e12 + 1e-3), (0.0, 1.0)]),
        lambda: ProductSystem.from_frequencies([1.0, -1.0]),
    ],
    ids=["degree-nine-section", "step-lost-in-rounding", "negative-frequency"],
)
def test_a_build_that_raises_leaves_no_entry(memos, build):
    make_model(1)  # the entries of a model that builds
    sizes = {name: memo.cache_info().currsize for name, memo in memos.items()}
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as raised:
            build()
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == sizes


def arrays_in(value, seen=None) -> list[np.ndarray]:
    """Every array reachable from ``value`` through containers, object
    attributes and the closures of functions."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (str, bytes, int, float, type)):
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (tuple, list)):
        children = list(value)
    elif callable(value) and hasattr(value, "__closure__"):
        children = [cell.cell_contents for cell in value.__closure__ or ()]
    else:
        children = list(getattr(value, "__dict__", {}).values())
    return [array for child in children for array in arrays_in(child, seen)]


def test_every_cached_array_is_read_only(memos):
    """What each memo holds, reached through the calls that fill it (the
    charts hold only tuples): no array in it can be written."""
    clear(memos)
    model = make_model(1)
    curved = CURVED_SIGMA["sections"][0]
    members = [(row[0], *row[2:]) for row in default_sections(1)]
    members.append(("curved", curved["p"], curved["q"]))
    family = SectionMap.family(model, members)
    held = {
        "connection": model.connection,
        "triple": model.triple,
        "base form": base_symplectic_form(model),
        "frame pairs": model._pairs,
        "stack": family._fibre,
        "jacobian": family._jacobian,
        "second derivatives": family._hessian,
        "product system": ProductSystem.from_frequencies([1.0, 2.0]),
    }
    assert all(memo.cache_info().currsize for memo in memos.values())
    arrays = {name: arrays_in(value) for name, value in held.items()}
    assert [name for name, found in arrays.items() if not found] == []
    for array in (array for found in arrays.values() for array in found):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_bounds_of_minus_zero_and_zero_give_charts_that_keep_their_sign():
    """-0.0 and 0.0 compare equal, but each model's charts, triple, base
    form and connection keep the sign of its own bounds, in either order."""
    signs = [-1.0, 1.0, -1.0, 1.0]
    for sign in signs:
        model = make_model(1, action_bounds=[(math.copysign(0.0, sign), 1.0), (-1.0, 1.0)])
        charts = [
            model.base_chart,
            model.total_chart,
            model.connection.chart,
            model.triple.omega.chart,
            base_symplectic_form(model).chart,
        ]
        assert [math.copysign(1.0, chart.lower[0]) for chart in charts] == [sign] * 5


def test_the_readme_lists_every_memo_and_its_bound(memos):
    section = (ROOT / "README.md").read_text().split("\n### What a run reuses\n", 1)[1]
    section = section.split("\n#", 1)[0]
    assert sorted(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)) == sorted(memos)
    assert f"`fibration.MEMO_SIZE` = {MEMO_SIZE}" in section
