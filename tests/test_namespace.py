"""The package's public names load on first use, and each command loads only what it runs.

The import sets are read in a fresh interpreter, where no earlier test has
imported anything of ``cao``.
"""

import importlib
import json
import subprocess
import sys
import types

import pytest

import cao

# every name the package bound before its names became lazy, with its submodule; the
# function ``precondition`` is left out, ``cao.precondition`` being its module
NAMES = {
    "errors": ["ConfigError", "ContractViolationError", "DegenerateStepError",
               "DivergenceError", "NumericOverflowError", "OracleUnavailableError"],
    "optim": ["AdamState", "CaoConfig", "CaoState", "SgdState", "StepRecord", "adam_step",
              "cao_step", "sgd_step"],
    "precondition": ["DampedPreconditioner", "quadratic_form"],
    "problems": ["FULL_BATCH", "Batch", "Problem", "ProblemMeta", "fd_hvp", "from_config",
                 "logreg", "mlp_synthetic", "quadratic", "rosenbrock"],
    "sketch": ["Sketch", "block_lanczos", "sketch_residual"],
    "theory": ["TheoryReport", "check_descent_lemma", "check_pl_contraction",
               "check_stationarity_rate", "check_sufficient_descent", "sufficient_stepsize"],
}
PUBLIC = [(module, name) for module, names in NAMES.items() for name in names]

# prints the cao modules loaded after the import, after cli.main(["theory"]) with the
# suite patched as soon as it is imported, and the command's exit code
THEORY_ON_DEMAND = """
import builtins, sys
from cao import cli
def loaded():
    return sorted(m for m in sys.modules if m == "cao" or m.startswith("cao."))
print(loaded())
real_import = builtins.__import__
def patching_import(*args, **kwargs):
    module = real_import(*args, **kwargs)
    if "cao.theory" in sys.modules:
        sys.modules["cao.theory"].run_theory_suite = lambda seed: []
    return module
builtins.__import__ = patching_import
rc = cli.main(["--out", sys.argv[1], "theory"])
print(loaded())
print(rc)
"""


def fresh(code, *argv):
    """The stdout lines of ``code`` run in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_importing_the_run_log_loads_only_it_and_errors():
    code = ("import json, sys, cao.runlog\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cao'))))")
    assert json.loads(fresh(code)[0]) == ["cao", "cao.errors", "cao.runlog"]


def test_theory_is_loaded_by_the_theory_command_only(tmp_path):
    before, after, rc = fresh(THEORY_ON_DEMAND, str(tmp_path))
    assert "'cao.cli'" in before and "'cao.theory'" not in before
    assert "'cao.theory'" in after
    assert rc == "0"
    assert (tmp_path / "logs" / "theory" / "reports.jsonl").read_text() == ""


@pytest.mark.parametrize("module, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_public_name_is_its_submodules_object(module, name):
    defined = getattr(importlib.import_module(f"cao.{module}"), name)
    assert getattr(cao, name) is defined
    scope = {}
    exec(f"from cao import {name}", scope)
    assert scope[name] is defined


def test_all_lists_the_public_names():
    assert sorted(cao.__all__) == sorted(name for _, name in PUBLIC)


def test_precondition_is_the_module():
    from cao import optim

    assert isinstance(cao.precondition, types.ModuleType)
    assert cao.precondition.precondition is optim.precondition
    # before any import of it, too
    code = "import cao, types; print(isinstance(cao.precondition, types.ModuleType))"
    assert fresh(code) == ["True"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'cao' has no attribute 'nope'"):
        getattr(cao, "nope")
    with pytest.raises(ImportError):
        exec("from cao import nope", {})
