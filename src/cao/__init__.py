"""Curvature-adaptive optimization via periodic low-rank Hessian sketching."""

import importlib

# the submodule behind each public name, imported on first use of the name or of the
# submodule (PEP 562), so that importing one submodule loads only what it imports. The
# function ``precondition`` is not among the names: ``cao.precondition`` is its module.
_SOURCES = {
    "errors": "ConfigError ContractViolationError DegenerateStepError DivergenceError"
              " NumericOverflowError OracleUnavailableError",
    "optim": "AdamState CaoConfig CaoState SgdState StepRecord adam_step cao_step sgd_step",
    "precondition": "DampedPreconditioner quadratic_form",
    "problems": "FULL_BATCH Batch Problem ProblemMeta fd_hvp from_config logreg mlp_synthetic"
                " quadratic rosenbrock",
    "sketch": "Sketch block_lanczos sketch_residual",
    "theory": "TheoryReport check_descent_lemma check_pl_contraction check_stationarity_rate"
              " check_sufficient_descent sufficient_stepsize",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _SOURCES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__version__ = "0.1.0"
