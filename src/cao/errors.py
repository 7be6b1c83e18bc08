"""Exception types shared across the package, and the finiteness test behind them."""

import numpy as np


class ContractViolationError(ValueError):
    """An input violated a documented precondition (wrong dimension, bad knob)."""


class NumericOverflowError(ArithmeticError):
    """A computation produced NaN or Inf where a finite value is required."""


def all_finite(a):
    """``np.isfinite(a).all()`` for an array ``a``, without the wrapper of ``.all()``.

    Returns a NumPy bool. Exact for every float array, empty ones included,
    and warns about nothing: no arithmetic is done on the values, so a huge
    finite entry cannot overflow.
    """
    return np.count_nonzero(np.isfinite(a)) == a.size


class DegenerateStepError(ValueError):
    """A finite-difference step was too small to perturb the iterate."""


class OracleUnavailableError(RuntimeError):
    """A dense oracle was requested where it is not exposed or exceeds its size cap."""


class DivergenceError(RuntimeError):
    """An optimization run produced a non-finite loss, gradient or step.

    Carries the diagnostic record of the offending step in ``record``.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(ValueError):
    """An experiment config file failed validation."""
