"""The measured process of one benchmark run; started by run.py, never by hand.

    worker.py setup CONFIG RESULT
        time ``import hypersymplectic`` + ``ScenarioConfig.from_dict`` +
        ``build_scenario_model`` in this fresh process.
    worker.py calls CONFIG RESULT --seconds S --trace 0|1 [--spans FILE]
        call ``hypersymplectic.cli.main`` once to warm up, then repeatedly for
        S seconds.  With --trace 1, untraced and traced calls alternate and
        the per-layer metrics of every traced call are collected.

Every timed region is bracketed by a fixed pure-Python reference loop, and
its wall time is reported scaled by REFERENCE_NOMINAL_S over the mean of the
two adjacent loop times.  On a shared 2-core VM the speed of a core changes
by up to 2x within seconds while the ratio of a call to the loop stays within
a few percent, so these "reference seconds" are what makes medians repeat.
The loop must stay unchanged for timings to stay comparable.

The package is imported from ``src/`` of the checkout holding this file.
The result is a JSON file; nothing is printed on success.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

MIN_SAMPLES = 40  # run.py's p75 then has at least ten samples beyond it
MIN_TRACED = 3
REFERENCE_NOMINAL_S = 0.02  # reference loop time on an unloaded core of a 2-core Xeon VM


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a, self.b = a, b

    def shifted(self, delta: float) -> "_Pair":
        return _Pair(self.a + delta, self.b)


_TERMS = (((1, 0), 0.5), ((0, 2), -1.25), ((3, 1), 0.125))


def _evaluate(pair: _Pair) -> float:
    total = 0.0
    for (ea, eb), coeff in _TERMS:
        value = coeff
        if ea:
            value *= pair.a**ea
        if eb:
            value *= pair.b**eb
        total += value
    return total


def reference_loop(iterations: int = 12000) -> float:
    """Wall seconds of a fixed interpreter-bound loop: calls, attribute access,
    small-object allocation and float powers, like the package's point code."""
    start = time.perf_counter()
    acc = 0.0
    base = _Pair(0.3, 0.7)
    for i in range(iterations):
        moved = base.shifted(1e-3 * (i % 7))
        acc += _evaluate(moved) - _evaluate(base)
        acc += len({"k": [acc, moved.a]}["k"]) * 1e-9
    return time.perf_counter() - start


class Normaliser:
    """Scales a wall time by the reference loops run just before and after it."""

    def __init__(self) -> None:
        self.before = reference_loop()

    def __call__(self, wall: float) -> float:
        after = reference_loop()
        factor = REFERENCE_NOMINAL_S / (0.5 * (self.before + after))
        self.before = after
        return wall * factor


def setup(config_path: Path) -> dict:
    raw = json.loads(config_path.read_text())
    normalise = Normaliser()
    start = time.perf_counter()
    import hypersymplectic
    from hypersymplectic.scenarios import ScenarioConfig, build_scenario_model

    build_scenario_model(ScenarioConfig.from_dict(raw))
    elapsed = time.perf_counter() - start
    _check_source(hypersymplectic)
    return {"setup_s": normalise(elapsed), "setup_wall_s": elapsed}


def _check_source(module) -> None:
    if Path(module.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported {module.__file__}, not the package under {SRC}")


class Caller:
    """Runs ``cli.main`` on one config and judges each call with the oracle."""

    def __init__(self, config_path: Path, output: Path) -> None:
        from hypersymplectic import cli

        import oracle

        _check_source(cli)
        self.cli, self.oracle = cli, oracle
        self.output = output
        self.argv = ["--config", str(config_path), "--output", str(output)]
        self.reference: bytes | None = None
        self.expected_checks = 1
        self.attempted = 0
        self.wrong = 0
        self.wrong_identities: set[str] = set()

    def __call__(self) -> float:
        self.output.unlink(missing_ok=True)
        exit_code = None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                exit_code = self.cli.main(self.argv)
            except Exception:
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
        text = self.output.read_text() if self.output.exists() else None
        verdict = self.oracle.judge(exit_code, text, self.reference, self.expected_checks)
        if self.reference is None and verdict.report_bytes is not None:
            self.reference = verdict.report_bytes
            self.expected_checks = verdict.attempted
        self.attempted += verdict.attempted
        self.wrong += verdict.wrong
        self.wrong_identities.update(verdict.wrong_identities)
        return elapsed

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.wrong,
            "wrong_identities": sorted(self.wrong_identities),
        }


def calls(config_path: Path, output: Path, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    call = Caller(config_path, output)
    call()  # warm-up: caches, lazy imports, the reference report
    normalise = Normaliser()
    samples: list[float] = []
    walls: list[float] = []

    def timed() -> float:
        wall = call()
        walls.append(wall)
        return normalise(wall)

    if not trace:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(samples) < MIN_SAMPLES:
            samples.append(timed())
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"samples": samples, "walls": walls, "peak_rss_mb": rss_kib / 1024.0, **call.summary()}

    import shims

    tracer = shims.Tracer()
    traced: list[float] = []
    layers: list[dict] = []
    spans: list = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED:
        samples.append(timed())
        with tracer:
            traced.append(timed())
        spans, work = tracer.take()
        scale = traced[-1] / walls[-1]
        layers.append(
            {
                name: value if name.endswith(".count") else value * scale
                for name, value in tracer.metrics(spans, work).items()
            }
        )
    if spans_path is not None:
        tracer.write_spans(spans, spans_path)
    return {"samples": samples, "traced": traced, "layers": layers, **call.summary()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "calls"))
    parser.add_argument("config", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    # The reference loop only describes the core it ran on, and the cores of a
    # shared VM change speed independently: keep the process on one of them.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.mode == "setup":
        result = setup(args.config)
    else:
        output = args.result.with_name(args.result.stem + "-report.json")
        result = calls(args.config, output, args.seconds, bool(args.trace), args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
