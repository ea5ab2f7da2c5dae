"""Seeded config fuzzing against truth oracles.

Each class draws configurations whose truth is known from the construction
and runs them through ``cli.main`` in process, with every warning raised as
an error.  A class of true theorems must exit 0; a known-false class must
exit 1 and fail the named identity.  No configuration may print a warning or
a traceback.  Only ``random`` and numpy draw the configurations, from fixed
seeds.

Every class is asserted.  The section classes (``true_slopes``,
``harmonic_gradients``) are judged on the section's exact Jacobian, which
the pullbacks, I and the graph checks all read, so no verdict rests on a
central difference.  One check is left out on the harmonic gradients:
``sections.pullback_vanishes`` is held to the absolute
``SECTION_PULLBACK_TOL``, which a steep degree-8 draw can exceed by
rounding alone (ROADMAP item 15).  Running this file as a script prints the
outcomes of every class, judged by the rule (``RULES``) its test asserts,
and exits 1 when any verdict is wrong, e.g. for seeds 1 to 3 and 200
configurations each::

    PYTHONPATH=src python tests/test_fuzz.py 200 1 2 3
"""

import contextlib
import io
import json
import math
import random
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from hypersymplectic.cli import main

SEED = 1


def _sampling(rng: random.Random) -> dict:
    return {"n_points": 20, "seed": rng.randrange(2**16)}


def oscillators(rng: random.Random) -> dict:
    """A product of 2, 4 or 6 oscillators with frequencies 10^U(-150, 150),
    the range ``ProductSystem`` admits (nu^2 and nu^-2 normal floats)."""
    frequencies = [10.0 ** rng.uniform(-150, 150) for _ in range(rng.choice((2, 4, 6)))]
    return {"scenario": "oscillators", "frequencies": frequencies, "sampling": _sampling(rng)}


def _slope(a: float, b: float, rng: random.Random) -> dict:
    """The section p = a y, q = -b x, sigma-Lagrangian for every a and b;
    its I squares to -Id exactly when a b = 1."""
    section = {"name": "slope", "form": "sigma", "p": [[[[0, 1], a]]], "q": [[[[1, 0], -b]]]}
    return {"scenario": "custom-section", "sections": [section], "sampling": _sampling(rng)}


def false_slopes(rng: random.Random) -> dict:
    """p = a y, q = -x / (a (1 + 1e-3)), a = 10^U(-2, 2): I^2 + Id is about 1e-3."""
    a = 10.0 ** rng.uniform(-2, 2)
    return _slope(a, 1.0 / (a * (1.0 + 1e-3)), rng)


def true_slopes(rng: random.Random) -> dict:
    """p = a y, q = -x / a, a = 10^U(-8, 8): a special Kähler section."""
    a = 10.0 ** rng.uniform(-8, 8)
    return _slope(a, 1.0 / a, rng)


def harmonic_gradients(rng: random.Random) -> dict:
    """The gradient of V = Re(c z^k), z = x + i y, k from 2 to 8, |c| =
    10^U(-3, 3), form omega: V is harmonic, so the graph is also
    sigma-Lagrangian and hence J_chi-invariant."""
    k, t = rng.randint(2, 8), rng.uniform(0, 2 * math.pi)
    c = 10.0 ** rng.uniform(-3, 3) * complex(math.cos(t), math.sin(t))
    # V = sum_j binom(k, j) Re(c i^j) x^(k - j) y^j
    terms = [(k - j, j, math.comb(k, j) * (c * 1j**j).real) for j in range(k + 1)]
    p = [[[e - 1, f], e * v] for e, f, v in terms if e and v]
    q = [[[e, f - 1], f * v] for e, f, v in terms if f and v]
    section = {"name": "harmonic", "form": "omega", "p": [p], "q": [q]}
    return {
        "scenario": "custom-section",
        "suites": ["sections"],
        "sections": [section],
        "sampling": _sampling(rng),
    }


def run(config: dict, directory: Path) -> tuple[int, list[str], str]:
    """``cli.main`` on ``config`` with every warning raised as an error: the
    exit code, the identities of the failed checks (none without a report)
    and what it wrote to stderr."""
    path, report = directory / "fuzz.json", directory / "fuzz-report.json"
    path.write_text(json.dumps(config))
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(path), "--output", str(report)])
    failed = []
    if report.exists():
        checks = json.loads(report.read_text())["report"]["checks"]
        failed = [c["identity"] for c in checks if not c["passed"]]
    return code, failed, err.getvalue()


def draw(generator, seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [generator(rng) for _ in range(count)]


def passes(code: int, failed: list[str], err: str) -> bool:
    """Exit 0 with no failed check and nothing on stderr."""
    return (code, failed, err) == (0, [], "")


def judged_invariant(code: int, failed: list[str], err: str) -> bool:
    """Nothing on stderr and no failed check but the harmonic section's
    pullback, whose absolute tolerance this rule does not judge."""
    return err == "" and code in (0, 1) and set(failed) <= {"sections.pullback_vanishes.harmonic.omega"}


def fails_squares_to_minus_identity(code: int, failed: list[str], err: str) -> bool:
    """Exit 1, nothing on stderr, with ``squares_to_minus_identity`` failed."""
    return code == 1 and err == "" and "special_kahler.squares_to_minus_identity" in failed


# each class with the rule its test asserts
RULES = {
    oscillators: passes,
    false_slopes: fails_squares_to_minus_identity,
    true_slopes: passes,
    harmonic_gradients: judged_invariant,
}


def test_oscillator_products_pass(tmp_path):
    """Every check of an oscillator product states a true theorem, and every
    draw, with frequencies from 1e-150 to 1e150 (action boxes reaching 2e150),
    exits 0 with no failed check: no refusal either, since no step is
    configured."""
    for config in draw(oscillators, SEED, 150):
        assert passes(*run(config, tmp_path)), config


def test_slopes_on_the_special_kahler_locus_pass(tmp_path):
    """p = a y, q = -x / a, slopes from 1e-8 to 1e8: every draw exits 0 with
    no failed check.  Read through a central difference, the steep draws
    failed ``matches_graph_restriction`` on the rounding of the slope."""
    for config in draw(true_slopes, SEED, 100):
        assert passes(*run(config, tmp_path)), config


def test_harmonic_gradient_graphs_are_judged_invariant(tmp_path):
    """Gradients of Re(c z^k), k up to 8: no draw fails a
    ``sections.graph_invariant`` check, which a central difference at a
    coarse step failed on its truncation.  The only failure allowed
    is the pullback's absolute tolerance (module docstring, ROADMAP item
    15), which this test does not judge."""
    for config in draw(harmonic_gradients, SEED, 100):
        assert judged_invariant(*run(config, tmp_path)), config


def test_slopes_off_the_special_kahler_locus_fail_squares_to_minus_identity(tmp_path):
    """p = a y, q = -x / (a (1 + 1e-3)) is sigma-Lagrangian, but its I
    squares to -Id / (1 + 1e-3): every draw exits 1 and fails
    ``special_kahler.squares_to_minus_identity``."""
    for config in draw(false_slopes, SEED, 100):
        assert fails_squares_to_minus_identity(*run(config, tmp_path)), config


if __name__ == "__main__":
    count, seeds = int(sys.argv[1]), [int(s) for s in sys.argv[2:]] or [SEED]
    wrong = 0
    with tempfile.TemporaryDirectory() as directory:
        for generator, rule in RULES.items():
            outcomes = Counter()
            for seed in seeds:
                for config in draw(generator, seed, count):
                    code, failed, err = run(config, Path(directory))
                    what = " ".join(failed) or err.split(":")[0]
                    outcomes[code, what, rule(code, failed, err)] += 1
            print(f"{generator.__name__}: {count} per seed, seeds {seeds}")
            for (code, what, right), n in sorted(outcomes.items()):
                print(f"  {n:4d}  exit {code}  {what}" + ("" if right else "  WRONG VERDICT"))
            wrong += sum(n for (_, _, right), n in outcomes.items() if not right)
    print(f"wrong verdicts: {wrong}")
    sys.exit(1 if wrong else 0)
