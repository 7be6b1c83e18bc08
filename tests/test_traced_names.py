"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` replaces each ``(module, owner, attribute)`` of its
``TRACED`` table at run time; a name missing here would break the traced
benchmark runs. The file is loaded by path and only read.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
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


# the tracer is installed right after `import cao.cli` and reads each module from
# sys.modules: prints the names that do not resolve there, and the modules resolving
# them imported
RESOLVE_AFTER_CLI = """
import json, sys
import cao.cli
loaded, missing = set(sys.modules), []
for module_name, owner_name, attr in json.loads(sys.argv[1]):
    owner = sys.modules.get(module_name)
    if owner is not None and owner_name is not None:
        owner = getattr(owner, owner_name, None)
    if not callable(getattr(owner, attr, None)):
        missing.append([module_name, owner_name, attr])
print(json.dumps([missing, sorted(set(sys.modules) - loaded)]))
"""


def test_traced_names_resolve_after_importing_the_cli_alone():
    done = subprocess.run([sys.executable, "-c", RESOLVE_AFTER_CLI,
                           json.dumps([t[:3] for t in TRACED])],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]


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


def test_every_step_and_sketch_build_is_traced(tmp_path):
    # make_runner looks each step function up when a run starts, after the tracer
    # has wrapped it: one span per step taken and per sketch built
    cfg = parse_config({
        "name": "steps",
        "problem": {"name": "quadratic", "spectrum": [9.0, 4.0, 1.0, 0.5], "seed": 2},
        "optimizers": [{"kind": "cao", "alpha": 0.1, "k": 2, "m": 4, "t_pow": 3},
                       {"kind": "cao", "label": "cao-k0", "alpha": 0.1, "k": 0},
                       {"kind": "sgd", "alpha": 0.1}, {"kind": "adam", "alpha": 0.1}],
        "seeds": [0, 1], "steps": 11, "threshold": 0.01,
    })
    tracer = spans.Tracer()
    with tracer.installed():
        result = harness.run_comparison(cfg, tmp_path, jobs=1)
    counts = {name: sum(tracer.names[code] == name for code in tracer.code)
              for name in ("optim.cao_step", "optim.sgd_step", "optim.adam_step",
                           "sketch.build")}
    assert not result["diverged"]
    assert counts == {"optim.cao_step": 2 * 2 * 11, "optim.sgd_step": 2 * 11,
                      "optim.adam_step": 2 * 11, "sketch.build": 2 * 3}
