"""Static checks on the package source, read with ``ast`` (no linter is a
dependency)."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import hypersymplectic

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypersymplectic"
INIT = PACKAGE / "__init__.py"
# __init__.py re-exports what it imports: no expression reads those names
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != INIT)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names that the module's import statements bind, each with the
    line that binds it (``import a.b`` binds ``a``)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def unread_imports(source: str) -> list[str]:
    """The names that the module's import statements bind and that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = imported_names(tree)
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


def test_the_package_exports_each_name_it_imports_and_no_submodule():
    """``__all__`` is read from the names the imports of ``__init__.py``
    bind: each of them is in it, and nothing else, no submodule among them."""
    imported = imported_names(ast.parse(INIT.read_text()))
    assert sorted(hypersymplectic.__all__) == sorted(imported)
    assert not [n for n in imported if isinstance(getattr(hypersymplectic, n), ModuleType)]
    namespace = {}
    exec("from hypersymplectic import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(imported)
