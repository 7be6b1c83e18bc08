"""Every package that ``src/cao`` imports is declared in ``pyproject.toml``.

The imports are read with ``ast`` from every ``src/cao/*.py``, nested ones
included; standard-library modules and ``cao`` itself need no declaration.
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
