"""Static checks on the package source, read with ``ast`` (no linter is a
dependency)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypersymplectic"
# __init__.py re-exports what it imports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names that the module's import statements bind and that no
    expression of the module reads (``import a.b`` binds ``a``)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_scan_sees_an_unread_import():
    source = "import os\nimport numpy.linalg\nfrom math import pi as tau, e\nprint(e, numpy)\n"
    assert unread_imports(source) == ["line 1: os", "line 3: tau"]
    assert "cli.py" in [p.name for p in MODULES], PACKAGE


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_binds_an_import_it_never_reads(path):
    assert unread_imports(path.read_text()) == []
