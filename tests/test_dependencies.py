"""Every package that ``src/cao`` imports is declared in ``pyproject.toml``, and used.

The imports are read with ``ast`` from every ``src/cao/*.py``, nested ones
included; standard-library modules and ``cao`` itself need no declaration.
Every name a module imports must occur in its code, but for ``__future__``
imports and the re-exports of ``__init__.py``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_packages():
    names = set()
    for path in sorted((ROOT / "src" / "cao").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"cao"}


def declared_packages():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
            for req in project["dependencies"]}


def test_every_runtime_import_is_declared():
    imported = imported_packages()
    assert {"numpy", "orjson"} <= imported
    assert sorted(imported - declared_packages()) == []


def unused_imports(path):
    """``file:line: name`` of each name the module at ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in (ROOT / "src" / "cao").glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 1
    assert [entry for path in modules for entry in unused_imports(path)] == []
