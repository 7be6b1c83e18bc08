"""Damped low-rank inverse applied through the sketch eigen-basis.

For a sketch B = sum_i lam_i v_i v_i^T and damping eta > 0, the map is
(B + eta I)^-1 in closed form: components along v_i scale by 1/(lam_i + eta),
the orthogonal complement by 1/eta. Denominators are clamped from below at
``FLOOR`` so the map stays positive definite even when lam_i + eta <= 0.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NumericOverflowError, all_finite, matmul_by
from .sketch import Sketch

FLOOR = 1e-8


@dataclass(frozen=True)
class DampedPreconditioner:
    """The damped inverse of one sketch.

    ``denominators``, ``clamped``, ``eigvals`` (the sketch's eigenvalues as
    a tuple of floats, the form a step record carries), ``project`` (the map
    ``g -> basis.T @ g``) and ``expand`` (``c -> basis @ c``), both through
    ``errors.matmul_by``, are derived once here, so a preconditioner built
    per sketch serves every step until the next refresh.
    """

    sketch: Sketch
    eta: float
    denominators: np.ndarray = field(init=False, repr=False, compare=False)
    clamped: bool = field(init=False, repr=False, compare=False)
    eigvals: tuple = field(init=False, repr=False, compare=False)
    project: Callable = field(init=False, repr=False, compare=False)
    expand: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ContractViolationError(f"eta must be finite and > 0, got {self.eta}")
        shifted = self.sketch.eigvals + self.eta
        object.__setattr__(self, "denominators", np.maximum(shifted, FLOOR))
        # True when any captured direction hit the floor (negative curvature)
        object.__setattr__(self, "clamped",
                           bool(self.sketch.k and np.any(shifted < FLOOR)))
        object.__setattr__(self, "eigvals", tuple(self.sketch.eigvals.tolist()))
        basis = self.sketch.basis
        object.__setattr__(self, "project", matmul_by(basis.T))
        object.__setattr__(self, "expand", matmul_by(basis))

    def __reduce__(self):  # every other field is derived, two of them closures
        return DampedPreconditioner, (self.sketch, self.eta)


def _check_g(g, pc):
    g = np.asarray(g, dtype=np.float64)
    n = pc.sketch.basis.shape[0]
    if g.shape != (n,):
        raise ContractViolationError(f"gradient shape {g.shape} != ({n},)")
    if not all_finite(g):
        raise NumericOverflowError("non-finite gradient passed to preconditioner")
    return g


def precondition(g, pc: DampedPreconditioner) -> np.ndarray:
    """Apply the damped inverse to g in O(nk).

    The products are those of ``coef = basis.T @ g`` and
    ``basis @ (coef / denominators) + (g - basis @ coef) / eta``, bit for
    bit, through ``pc.project`` and ``pc.expand``. For k = 1 the two
    products with the one-entry ``coef`` stay on ``@``: ``.dot`` keeps a
    -0.0 that BLAS turns into +0.0, and the sum does not always cancel it.
    """
    g = _check_g(g, pc)
    if pc.sketch.k == 0:
        return g / pc.eta
    coef = pc.project(g)
    return pc.expand(coef / pc.denominators) + (g - pc.expand(coef)) / pc.eta


def quadratic_form(g, pc: DampedPreconditioner) -> float:
    """<g, P g> via the eigen-basis closed form; strictly positive for g != 0."""
    g = _check_g(g, pc)
    if pc.sketch.k == 0:
        return float(g @ g) / pc.eta
    coef = pc.sketch.basis.T @ g
    perp_sq = float(g @ g) - float(coef @ coef)
    return float(np.sum(coef**2 / pc.denominators)) + max(perp_sq, 0.0) / pc.eta
