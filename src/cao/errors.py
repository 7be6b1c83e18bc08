"""Exception types shared across the package, the checks behind them, and ``matmul``."""

import math
import sys
from typing import NamedTuple

import numpy as np


class ContractViolationError(ValueError):
    """An input violated a documented precondition (wrong dimension, bad knob)."""


class NumericOverflowError(ArithmeticError):
    """A computation produced NaN or Inf where a finite value is required."""


def all_finite(a):
    """``np.isfinite(a).all()`` for an array ``a``, at the cost of one dot product.

    A NaN or +-inf entry makes the sum of squares ``np.vdot(a, a)`` NaN or
    inf, so a finite sum means every entry is finite: the usual case, one
    BLAS call with no temporary. Only a non-finite sum, from a non-finite
    entry or from finite squares that overflow, runs the exact
    ``count_nonzero(isfinite(a)) == a.size``, whose NumPy bool is then the
    answer. Exact for every float array, empty ones included, and warns
    about nothing, even under ``np.errstate(all="raise")``: ``vdot`` is not a
    ufunc and checks no floating-point flags.
    """
    return math.isfinite(np.vdot(a, a)) or np.count_nonzero(np.isfinite(a)) == a.size


def dot_ready(a):
    """True when ``a`` is laid out for ``matmul``'s ``.dot``: aligned, and C- or F-contiguous.

    (``flags.farray`` is no test of layout: it reads True for some strided arrays.)
    """
    flags = a.flags
    return flags.forc and flags.aligned


def matmul(a, b):
    """``a @ b`` for float64 arrays ``a`` and ``b`` of at most 2 dimensions, bit for bit.

    The one place that decides when ``ndarray.dot`` may stand in for ``@``.
    For such operands ``a.dot(b)`` makes the CBLAS call that ``@`` makes, with
    the same bits, at half its dispatch cost (0.4 against 0.8 us for a
    50 x 50 matrix times a vector), when each operand is ``dot_ready`` and
    the product sums over more than one term (``a.shape[-1] > 1``).
    Otherwise the two can differ, so this takes ``@``. Over one term (a
    one-element operand, a k = 1 basis times its coefficient, an outer
    product) ``dot`` keeps a -0.0 product that BLAS adds to +0.0, and a
    strided, reversed or unaligned operand is rounded otherwise. The checks
    cost about 0.2 us a call.
    """
    if a.shape[-1] > 1:
        fa, fb = a.flags, b.flags  # dot_ready(a) and dot_ready(b), without two calls
        if fa.forc and fb.forc and fa.aligned and fb.aligned:
            return a.dot(b)
    return a @ b


def matmul_by(a):
    """The map ``b -> matmul(a, b)``, with the part of the rule that ``a`` fixes decided now.

    For an operand that serves many products (a problem's matrix, a
    preconditioner's basis): an array's shape and layout never change, so
    only the layout of ``b`` is checked per call, at about 0.07 us.
    """
    if a.shape[-1] > 1 and dot_ready(a):
        dot = a.dot
        return lambda b: dot(b) if (f := b.flags).forc and f.aligned else a @ b
    return a.__matmul__


class Knob(NamedTuple):
    """The type and range of one config value, for ``check_knobs``.

    ``type`` is ``int``, ``float`` (a finite number) or ``dict``; a bool is
    never a number. A number lies from ``low`` (included if ``closed``) up to
    ``high`` (excluded). ``many`` asks for a non-empty list.
    """

    type: type
    low: float = -math.inf
    high: float = math.inf
    closed: bool = True
    required: bool = False
    many: bool = False

    def fits(self, value) -> bool:
        if self.many:
            each = self._replace(many=False).fits
            return (isinstance(value, (list, tuple)) and len(value) > 0
                    and all(map(each, value)))
        if self.type not in (int, float):
            return isinstance(value, self.type)
        # NaN, +-inf and an int beyond the float range fail (math.isfinite raises on it)
        return (isinstance(value, (int, self.type)) and not isinstance(value, bool)
                and (self.low <= value if self.closed else self.low < value)
                and abs(value) <= sys.float_info.max and value < self.high)

    def wanted(self) -> str:
        if self.many:
            return f"a non-empty list, each entry {self._replace(many=False).wanted()}"
        if self.type is not float:
            return {int: f"an integer >= {self.low}", dict: "an object"}[self.type]
        if (self.low, self.high) == (-math.inf, math.inf):
            return "finite"
        return f"finite and in {'[' if self.closed else '('}{self.low:g}, {self.high:g})"


def check_knobs(table: dict, name, params: dict, what: str):
    """``table[name][0]``, once ``params`` fit the knobs ``table[name][1]``.

    ``table`` maps each name (an optimizer kind, a problem) to a pair whose
    second item maps every key the name takes to its ``Knob``. An unknown name
    or key, a missing key, or a value of the wrong type or out of range raises
    ``ContractViolationError``, its message prefixed by ``what`` and ``name``.
    """
    where = f"{what} {name!r}"
    if not isinstance(name, str) or name not in table:
        raise ContractViolationError(f"{where}: not one of {sorted(table)}")
    target, knobs = table[name]
    unknown = sorted(set(params) - set(knobs))
    missing = [key for key, knob in knobs.items() if knob.required and key not in params]
    if unknown or missing:
        raise ContractViolationError(
            f"{where}: {'unknown' if unknown else 'missing'} keys {unknown or missing}")
    for key, value in params.items():
        if not knobs[key].fits(value):
            raise ContractViolationError(
                f"{where}: {key} must be {knobs[key].wanted()}, got {value!r}")
    return target


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


class WorkerError(RuntimeError):
    """A forked worker process died, or could not send back a run's outcome."""
