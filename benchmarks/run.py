"""Benchmark of the hypersymplectic CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/hypersymplectic``.  Writes a seeded
configuration (workloads.py), then starts fresh worker processes one at a
time (worker.py) with single-threaded BLAS:

* --trace 0: SETUP_PROCESSES processes that each time import + config +
  model build (``setup_s``), then one process that calls
  ``hypersymplectic.cli.main`` for S seconds (``run_s``, ``run_s.tail``,
  ``peak_rss_mb``);
* --trace 1: one process that alternates untraced calls with calls traced by
  shims.py, for the per-layer metrics of BENCHMARK.json.

Every call is judged by oracle.py.  The last line of stdout is one JSON
object with ``correct``, ``attempted`` (checks evaluated), ``failed`` (checks
with a wrong verdict, so failed / attempted is the wrong-verdict share) and
``metrics``.  Exits 2 without a result if the package or an input is
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROCESSES = 7
TAIL_PERCENTILE = 75  # worker.py makes >= 40 calls, so 10 lie beyond it
TAIL_BEYOND = 10
TIME_LIMIT_S = 170  # the whole run, workers included
ADDR_NO_RANDOMIZE = 0x0040000
ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    pass


def tail(samples: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile (nearest rank), which must have at
    least TAIL_BEYOND samples beyond it.  The percentile is fixed rather than
    the highest one the sample count allows, so that runs holding different
    numbers of calls (a faster commit makes more) report the same quantile."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    if len(ordered) - rank < TAIL_BEYOND:
        raise BenchmarkError(f"{len(ordered)} samples leave fewer than {TAIL_BEYOND} beyond p{TAIL_PERCENTILE}")
    return ordered[rank - 1]


def fix_address_layout() -> None:
    """Turn off address-space randomisation for this process and the workers
    it starts (Linux personality flag, inherited across exec).  The median
    call time of a process depends on its random layout by several percent;
    with a fixed layout, repeated runs agree to about 2 %."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # not Linux: layouts stay random and runs spread more


def worker(work: Path, mode: str, config: Path, tag: str, *extra: str, deadline: float) -> dict:
    """Run worker.py in a fresh process, killed if it outlives ``deadline``."""
    result = work / f"{tag}.json"
    command = [sys.executable, str(HERE / "worker.py"), mode, str(config), str(result), *extra]
    env = {**os.environ, **ENV}
    env.pop("PYTHONPATH", None)
    timeout = max(deadline - time.monotonic(), 1.0)
    done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    if done.returncode != 0 or not result.exists():
        raise BenchmarkError(f"worker {mode} exited with {done.returncode}")
    return json.loads(result.read_text())


def end_to_end(work: Path, config: Path, seconds: float, deadline: float) -> tuple[dict, dict, str]:
    setups = [
        worker(work, "setup", config, f"setup{k}", deadline=deadline)
        for k in range(SETUP_PROCESSES)
    ]
    run = worker(
        work, "calls", config, "calls", "--seconds", str(seconds), "--trace", "0",
        deadline=deadline,
    )
    samples = run["samples"]
    values = {
        "run_s": statistics.median(samples),
        "run_s.tail": tail(samples),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    note = (
        f"run_s: median of {len(samples)} warm calls; run_s.tail: p{TAIL_PERCENTILE} of them; "
        f"setup_s: median of {SETUP_PROCESSES} fresh processes; all in reference seconds "
        f"(raw wall medians: call {statistics.median(run['walls']):.4f} s, "
        f"setup {statistics.median(s['setup_wall_s'] for s in setups):.4f} s)"
    )
    return values, run, note


def per_layer(
    work: Path, config: Path, seconds: float, names: list[str], spans: Path, deadline: float
) -> tuple[dict, dict, str]:
    run = worker(
        work, "calls", config, "calls", "--seconds", str(seconds), "--trace", "1",
        "--spans", str(spans), deadline=deadline,
    )
    layers = run["layers"]
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(run["traced"]) / statistics.median(run["samples"])
        elif name.endswith(".count"):
            counts = {layer.get(name, 0) for layer in layers}
            if len(counts) != 1:
                raise BenchmarkError(f"{name} differs between traced calls: {sorted(counts)}")
            values[name] = counts.pop()
        else:
            values[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
    note = (
        f"per-layer times: medians of {len(layers)} traced calls; overhead against "
        f"{len(run['samples'])} untraced calls; spans of the last call in {spans.relative_to(ROOT)}"
    )
    return values, run, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # SIGTERM becomes an exception, so subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "hypersymplectic" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    fix_address_layout()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    outputs = ROOT / ".bench_work"
    work = outputs / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workloads.make_config(args.workload, args.seed)))
        if args.trace:
            spans = outputs / f"spans-{args.workload}.tsv"
            values, run, note = per_layer(work, config, args.seconds, list(units), spans, deadline)
        else:
            values, run, note = end_to_end(work, config, args.seconds, deadline)
    except (BenchmarkError, subprocess.TimeoutExpired, workloads.GeneratorError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = run["attempted"], run["failed"]
    print(f"{args.workload} seed {args.seed}: {note}")
    if args.workload in workloads.DIAGNOSTIC:
        print(f"diagnostic workload, not in BENCHMARK.json: {workloads.DIAGNOSTIC[args.workload]}")
    print(
        f"wrong_verdict_share: {failed}/{attempted} checks"
        + (f" ({', '.join(run['wrong_identities'])})" if failed else "")
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
