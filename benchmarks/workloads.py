"""Seeded CLI configurations for the benchmark workloads.

Each workload is a JSON configuration for ``hypersymplectic --config``; the
seed argument fixes the sampled points and, for ``harmonic-deg8``, the
generated sections.  Nothing here imports the package or numpy, so a config
can be written before the measured process starts.

Point counts are chosen so one CLI call takes well under a second on a
2-core machine: a run then holds a few dozen samples, enough for a tail
percentile with ten samples beyond it.

``harmonic-deg8`` is a diagnostic workload, runnable with run.py but not
listed in BENCHMARK.json: the benchmark's listed workloads must be ones on
which every check gets its verdict right, and on this one the package's
finite-difference pullback check fails true theorems (see DIAGNOSTIC).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Why each workload exists; BENCHMARK.json carries the one-line form.
WORKLOADS = {
    "paper-n3": (
        "rank-3 model, all five suites; special-kahler dominates through the "
        "vector_jacobian closure chain over 1-2 term polynomials"
    ),
    "paper-n1-dense": (
        "rank-1 model, all suites, ten times the points; per-point Python "
        "overhead in the hypersymplectic suite dominates"
    ),
    "harmonic-deg8": (
        "eight degree-8 gradient sections of harmonic potentials, sections "
        "suite only; ~45-term polynomials dominate; wrong_verdict_share "
        "(failed/attempted) is 0.5 at seed, ROADMAP item 2"
    ),
}

# Workloads left out of BENCHMARK.json, with the reason.  At the seed commit
# every call of harmonic-deg8 reports its eight sections.pullback_vanishes.*
# checks as failed (FD residuals ~1e-9 against SECTION_PULLBACK_TOL = 1e-10),
# so its result reads correct: false.  Add it to BENCHMARK.json once the
# exact-Jacobian route (ROADMAP item 2) gives every verdict right.
DIAGNOSTIC = {"harmonic-deg8": "wrong verdicts at seed: sections.pullback_vanishes.*, ROADMAP item 2"}

PAPER_N3_POINTS = 16
PAPER_N1_DENSE_POINTS = 160
HARMONIC_POINTS = 32
HARMONIC_SECTIONS = 8
HARMONIC_POTENTIAL_DEGREE = 9
MAX_SECTION_DEGREE = 8  # the package's bound on section degree
COEFFICIENT_BITS = 32  # keeps every derived coefficient an exact float

Table = dict[tuple[int, int], float]


class GeneratorError(RuntimeError):
    """A generated input does not have the property its workload promises."""


def _round_bits(value: float, bits: int = COEFFICIENT_BITS) -> float:
    mantissa, exponent = math.frexp(value)
    return math.ldexp(round(mantissa * 2**bits), exponent - bits)


def harmonic_potential(rng: random.Random, degree: int = HARMONIC_POTENTIAL_DEGREE) -> Table:
    """Term table {(a, b): c} of V = Re f(x + iy) with f = sum_k c_k z^k.

    c_k (k = 1..degree) is a standard complex normal divided by k^2, rounded
    to COEFFICIENT_BITS significant bits so that products with the small
    binomial and derivative integers below stay exact.
    """
    table: Table = {}
    scale = math.sqrt(0.5)
    for k in range(1, degree + 1):
        re = _round_bits(rng.gauss(0.0, scale) / k**2)
        im = _round_bits(rng.gauss(0.0, scale) / k**2)
        # Re(c z^k) = sum_j C(k, j) x^(k-j) y^j Re(c i^j)
        for j in range(k + 1):
            unit = (1.0, 0.0, -1.0, 0.0)[j % 4], (0.0, 1.0, 0.0, -1.0)[j % 4]
            coeff = math.comb(k, j) * (re * unit[0] - im * unit[1])
            if coeff != 0.0:
                table[(k - j, j)] = coeff
    return table


def derivative(table: Table, axis: int) -> Table:
    out: Table = {}
    for powers, coeff in table.items():
        e = powers[axis]
        if e:
            lowered = tuple(p - 1 if i == axis else p for i, p in enumerate(powers))
            out[lowered] = coeff * e
    return out


def laplacian_exact(table: Table) -> dict[tuple[int, int], Fraction]:
    """Coefficients of V_xx + V_yy in exact rational arithmetic, zeros dropped."""
    out: dict[tuple[int, int], Fraction] = {}
    for axis in (0, 1):
        for powers, coeff in derivative(derivative(table, axis), axis).items():
            out[powers] = out.get(powers, Fraction(0)) + Fraction(coeff)
    return {powers: c for powers, c in out.items() if c != 0}


def degree(table: Table) -> int:
    return max((sum(powers) for powers in table), default=0)


def _terms(table: Table) -> list:
    """A term table in the config's [powers, coefficient] form."""
    return [[list(powers), coeff] for powers, coeff in sorted(table.items())]


def harmonic_sections(seed: int) -> list[dict]:
    """Gradient sections (dV/dx, dV/dy) of seeded harmonic potentials.

    The gradient of any potential is omega-Lagrangian and the gradient of a
    harmonic one is also J_chi-invariant, so every check of the sections
    suite states a true theorem on these inputs.  Raises GeneratorError if a
    potential is not exactly harmonic or a section exceeds the degree bound,
    so a generator bug cannot pass as a program defect.
    """
    rng = random.Random(seed)
    sections = []
    for index in range(HARMONIC_SECTIONS):
        potential = harmonic_potential(rng)
        residue = laplacian_exact(potential)
        if residue:
            raise GeneratorError(f"potential {index} is not harmonic: {residue}")
        p, q = derivative(potential, 0), derivative(potential, 1)
        if max(degree(p), degree(q)) > MAX_SECTION_DEGREE:
            raise GeneratorError(f"section {index} exceeds degree {MAX_SECTION_DEGREE}")
        sections.append({"name": f"h{index}", "form": "omega", "p": [_terms(p)], "q": [_terms(q)]})
    return sections


def make_config(workload: str, seed: int) -> dict:
    """The CLI configuration of one workload for one seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workload == "paper-n3":
        return {"scenario": "paper-n", "n": 3, "sampling": {"n_points": PAPER_N3_POINTS, "seed": seed}}
    if workload == "paper-n1-dense":
        return {"scenario": "paper-n1", "sampling": {"n_points": PAPER_N1_DENSE_POINTS, "seed": seed}}
    if workload == "harmonic-deg8":
        return {
            "scenario": "custom-section",
            "n": 1,
            "suites": ["sections"],
            "sampling": {"n_points": HARMONIC_POINTS, "seed": seed},
            "sections": harmonic_sections(seed),
        }
    raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
