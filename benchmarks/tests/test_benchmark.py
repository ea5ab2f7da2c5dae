"""Self-tests of the benchmark's generator, oracle and shims.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import shims  # noqa: E402
import workloads  # noqa: E402

TINY = {"scenario": "paper-n", "n": 2, "sampling": {"n_points": 2, "seed": 3}}


def test_configs_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 5) == workloads.make_config(name, 5)
        assert workloads.make_config(name, 5) != workloads.make_config(name, 6)


def test_benchmark_lists_every_workload_but_the_diagnostic_ones():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == set(workloads.WORKLOADS) - set(workloads.DIAGNOSTIC)
    assert set(workloads.DIAGNOSTIC) <= set(workloads.WORKLOADS)


def test_harmonic_sections_are_exact_gradients_of_degree_eight():
    for section in workloads.harmonic_sections(11):
        p = {tuple(powers): c for powers, c in section["p"][0]}
        q = {tuple(powers): c for powers, c in section["q"][0]}
        assert workloads.degree(p) == workloads.degree(q) == workloads.MAX_SECTION_DEGREE
        # a gradient has a symmetric Jacobian, dp/dy == dq/dx, and the
        # potential is harmonic, dp/dx == -dq/dy; both exactly
        assert workloads.derivative(p, 1) == workloads.derivative(q, 0)
        assert workloads.derivative(p, 0) == {k: -c for k, c in workloads.derivative(q, 1).items()}


def test_generator_refuses_a_non_harmonic_potential(monkeypatch):
    assert workloads.laplacian_exact({(2, 0): 1.0, (0, 2): -1.0}) == {}
    monkeypatch.setattr(workloads, "harmonic_potential", lambda rng: {(2, 0): 1.0})
    with pytest.raises(workloads.GeneratorError, match="not harmonic"):
        workloads.harmonic_sections(1)


def test_generator_refuses_a_section_above_degree_eight(monkeypatch):
    original = workloads.harmonic_potential
    monkeypatch.setattr(workloads, "harmonic_potential", lambda rng: original(rng, degree=10))
    with pytest.raises(workloads.GeneratorError, match="exceeds degree"):
        workloads.harmonic_sections(1)


def _document(checks: list[bool], verdict: str | None = None) -> str:
    report = {
        "checks": [{"identity": f"c{k}", "passed": ok} for k, ok in enumerate(checks)],
        "verdict": verdict or ("pass" if all(checks) else "fail"),
    }
    return json.dumps({"schema_version": "1", "report": report, "timing": {"duration_seconds": 0.1}})


def test_oracle_flags_one_flipped_check():
    good = oracle.judge(0, _document([True] * 5))
    assert (good.attempted, good.wrong) == (5, 0)
    flipped = oracle.judge(1, _document([True, True, False, True, True]))
    assert (flipped.attempted, flipped.wrong, flipped.wrong_identities) == (5, 1, ("c2",))


def test_oracle_counts_every_check_of_a_broken_call():
    reference = oracle.judge(0, _document([True] * 4)).report_bytes
    assert oracle.judge(0, _document([True, False, True, True])).wrong == 4  # exit code vs verdict
    assert oracle.judge(1, _document([True] * 4, verdict="fail")).wrong == 4
    assert oracle.judge(2, None, reference, expected_checks=4).wrong == 4
    assert oracle.judge(None, None, reference, expected_checks=4).wrong == 4
    other = _document([True] * 4).replace("0.1", "0.2")  # timing is outside the report
    assert oracle.judge(0, other, reference).wrong == 0
    assert oracle.judge(0, _document([True] * 3), reference).wrong == 3


def test_tail_is_p75_with_ten_samples_beyond():
    assert run.tail([float(k) for k in range(40)]) == 29.0
    assert run.tail([float(k) for k in range(100)]) == 74.0
    with pytest.raises(run.BenchmarkError):
        run.tail([1.0] * 39)


def _targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer patches."""
    tracer = shims.Tracer()
    tracer.install()
    patched = [(owner, attr) for owner, attr, _ in tracer._saved]
    tracer.remove()
    return patched


def _read(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_remove_restores_every_patched_attribute():
    import hypersymplectic.cli  # noqa: F401  loads every package module

    targets = _targets()
    assert len(targets) > len(shims.METHODS) + sum(map(len, shims.FUNCTIONS.values()))
    originals = [_read(owner, attr) for owner, attr in targets]
    with shims.Tracer():
        assert all(_read(o, a) is not orig for (o, a), orig in zip(targets, originals))
    assert all(_read(o, a) is orig for (o, a), orig in zip(targets, originals))


def _call_cli(tmp_path: Path) -> None:
    from hypersymplectic import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(config), "--output", str(tmp_path / "r.json")]) == 0


def test_span_counts_match_cprofile(tmp_path):
    import hypersymplectic.cli  # noqa: F401

    tracer = shims.Tracer()
    with tracer:
        _call_cli(tmp_path)
    spans, work = tracer.take()
    counts = tracer.metrics(spans, work)

    codes = {}
    for module, cls_name, attr, name in shims.METHODS:
        cls = getattr(sys.modules[f"hypersymplectic.{module}"], cls_name)
        codes[name] = cls.__dict__[attr].__code__
    for module, fn_names in shims.FUNCTIONS.items():
        for fn_name in fn_names:
            codes[f"{module}.{fn_name}"] = getattr(sys.modules[f"hypersymplectic.{module}"], fn_name).__code__
    for suite, runner in sys.modules["hypersymplectic.scenarios"]._SUITE_RUNNERS.items():
        codes[f"scenarios.suite.{suite}"] = runner.__code__

    profile = cProfile.Profile()
    profile.runcall(_call_cli, tmp_path)
    stats = pstats.Stats(profile).stats
    profiled = {(file, line, fn): nc for (file, line, fn), (_, nc, *_rest) in stats.items()}
    for name, code in codes.items():
        expected = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert counts.get(f"{name}.count", 0) == expected, name
    assert counts["polynomials.call.count"] > 0 and counts["linalg.call.count"] > 0


def test_self_times_partition_the_root_span():
    tracer = shims.Tracer()
    for name in ("cli.main", "calculus.form_matrix", "polynomials.call"):
        tracer._name_id(name)
    # cli.main [0, 10] > form_matrix [1, 5] > call [2, 3]; call [6, 8] under cli.main;
    # a nested form_matrix [3.5, 4] inside the first one counts only once inclusive
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 5.0), (2, 1, 2.0, 3.0), (1, 1, 3.5, 4.0), (2, 0, 6.0, 8.0)]
    m = tracer.metrics(spans, {})
    assert m["cli.self_s"] == 4.0 and m["calculus.self_s"] == 3.0 and m["polynomials.self_s"] == 3.0
    assert m["calculus.form_matrix.s"] == 4.0 and m["calculus.form_matrix.count"] == 2
    assert m["polynomials.call.s"] == 3.0
