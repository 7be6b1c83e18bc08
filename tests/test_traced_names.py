"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` replaces each ``(module, owner, attribute)`` of its
``TRACED`` table at run time; a name missing here would break the traced
benchmark runs. The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = traced_names()


@pytest.mark.parametrize("module_name, owner_name, attr", [t[:3] for t in TRACED],
                         ids=[t[3] for t in TRACED])
def test_traced_name_resolves(module_name, owner_name, attr):
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    assert callable(getattr(owner, attr, None))
