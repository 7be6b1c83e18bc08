"""Every package that ``src/cao`` imports is declared in ``pyproject.toml``, and used.

The imports are read with ``ast`` from every ``src/cao/*.py``, nested ones
included; standard-library modules and ``cao`` itself need no declaration.
Every name a module imports must occur in its code, but for ``__future__``
imports. The lowest layers import little of ``cao``: ``errors`` nothing,
``runlog`` and ``executor`` only ``errors``.
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
    modules = sorted((ROOT / "src" / "cao").glob("*.py"))
    assert len(modules) > 1
    assert [entry for path in modules for entry in unused_imports(path)] == []


def cao_imports(path):
    """The ``cao`` modules that the module at ``path`` imports, nested imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("cao."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "cao"
                                                   or node.module.startswith("cao.")):
            module = (node.module or "") if node.level else node.module[len("cao."):]
            # "from . import harness" and "from cao import harness" name the modules
            found.update([module.split(".")[0]] if module else
                         [alias.name for alias in node.names])
    return found


def test_low_layers_import_only_errors():
    src = ROOT / "src" / "cao"
    assert cao_imports(src / "cli.py") == {"config", "errors", "executor", "harness", "theory"}
    layers = {name: cao_imports(src / f"{name}.py") for name in ("errors", "executor", "runlog")}
    assert layers == {"errors": set(), "executor": {"errors"}, "runlog": {"errors"}}
