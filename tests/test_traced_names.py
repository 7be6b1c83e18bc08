"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` replaces each ``(module, owner, attribute)`` of its
``TRACED`` table at run time; a name missing here would break the traced
benchmark runs. The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cao import cli, harness  # noqa: F401  (the tracer wraps cli.load_config too)
from cao.config import parse_config

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
TRACED = spans.TRACED


@pytest.mark.parametrize("module_name, owner_name, attr", [t[:3] for t in TRACED],
                         ids=[t[3] for t in TRACED])
def test_traced_name_resolves(module_name, owner_name, attr):
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    assert callable(getattr(owner, attr, None))


def test_each_traced_run_names_its_log(tmp_path):
    # the tracer reads run_single's log path from its arguments before the call, as
    # `perfbench/run.py --trace 1` does
    cfg = parse_config({
        "name": "traced",
        "problem": {"name": "logreg", "n_features": 6, "n_samples": 48, "seed": 5},
        "optimizers": [{"kind": "cao", "alpha": 0.5, "k": 1, "m": 10, "t_pow": 3},
                       {"kind": "sgd", "alpha": 0.5}],
        "seeds": [0, 1], "steps": 15, "batch_size": 12, "threshold": 0.5,
    })
    run_single, tracer = harness.run_single, spans.Tracer()
    with tracer.installed():
        result = harness.run_comparison(cfg, tmp_path, jobs=1)
    assert harness.run_single is run_single
    runs = [i for i, code in enumerate(tracer.code)
            if tracer.names[code] == "harness.run_single"]
    assert len(runs) == 4
    assert sorted(tracer.paths[i] for i in runs) == sorted(result["logs"])
    assert all(Path(tracer.paths[i]).is_file() for i in runs)
