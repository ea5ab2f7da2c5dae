"""Correctness oracle for one CLI call of a benchmark workload.

On every workload each check states a true theorem for its inputs:

* the default sections: the zero section is omega-Lagrangian and the
  rotation section p = y, q = -x is sigma-Lagrangian and J_omega-invariant;
* the harmonic-deg8 sections are gradients, hence omega-Lagrangian, of
  harmonic potentials, hence J_chi-invariant (see workloads.py);
* the structure, fibre, special-geometry and action-angle checks are the
  identities of the construction itself.

So the verdict the mathematics dictates is ``passed: true`` for every check,
and a check reported as failed is a wrong verdict.  A call counts all its
checks as wrong if it raised, exited with 2, returned an exit code that
disagrees with its verdict, or wrote ``report`` bytes that differ from the
other calls of the same run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Judgement:
    attempted: int  # checks evaluated (or expected, if the call broke)
    wrong: int  # checks whose verdict differs from the mathematics
    report_bytes: bytes | None  # canonical ``report`` section, None if absent
    wrong_identities: tuple[str, ...] = ()


def judge(
    exit_code: int | None,
    document_text: str | None,
    reference: bytes | None = None,
    expected_checks: int = 1,
) -> Judgement:
    """Judge one call.  ``exit_code`` is None if the call raised; ``reference``
    is the ``report`` bytes of an earlier call of the same run;
    ``expected_checks`` is the check count charged when the call produced no
    usable report."""
    if exit_code not in (0, 1) or document_text is None:
        return Judgement(expected_checks, expected_checks, None)
    try:
        report = json.loads(document_text)["report"]
        checks = report["checks"]
        verdict = report["verdict"]
    except (ValueError, KeyError, TypeError):
        return Judgement(expected_checks, expected_checks, None)
    canonical = json.dumps(report, sort_keys=True).encode()
    attempted = max(len(checks), 1)
    consistent = (
        bool(checks)
        and (exit_code == 0) == (verdict == "pass")
        and (verdict == "pass") == all(c.get("passed") is True for c in checks)
        and (reference is None or canonical == reference)
    )
    if not consistent:
        return Judgement(attempted, attempted, canonical)
    wrong = tuple(c.get("identity", "?") for c in checks if c.get("passed") is not True)
    return Judgement(attempted, len(wrong), canonical, wrong)
