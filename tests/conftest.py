import re
import sys

import pytest

import hypersymplectic.cli  # noqa: F401  loads every package module

CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance.py" not in report.nodeid:
                continue
            match = CRITERION.search(report.nodeid)
            if not match:
                continue
            number = int(match.group(1))
            if status == "passed" and getattr(report, "when", "call") != "call":
                continue
            # any failure stage (setup/call/teardown) marks the criterion failed
            if outcomes.get(number) != "FAIL":
                outcomes[number] = "pass" if status == "passed" else "FAIL"
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(outcomes):
            terminalreporter.write_line(f"criterion {number}: {outcomes[number]}")


@pytest.fixture
def memos() -> dict:
    """Every memo of the package, by "module.name": each ``lru_cache`` that a
    package module binds at module level, found by scanning the modules."""
    found = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name.startswith("hypersymplectic."):
            for name, value in vars(module).items():
                if hasattr(value, "cache_clear") and value not in found.values():
                    found[f"{module_name.split('.')[1]}.{name}"] = value
    return found
