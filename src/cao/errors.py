"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An input violated a documented precondition (wrong dimension, bad knob)."""


class NumericOverflowError(ArithmeticError):
    """A computation produced NaN or Inf where a finite value is required."""


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
