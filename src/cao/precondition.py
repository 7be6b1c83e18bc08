"""Damped low-rank inverse applied through the sketch eigen-basis.

For a sketch B = sum_i lam_i v_i v_i^T and damping eta > 0, the map is
(B + eta I)^-1 in closed form: components along v_i scale by 1/(lam_i + eta),
the orthogonal complement by 1/eta. Denominators are clamped from below at
``floor`` so the map stays positive definite even when lam_i + eta <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NumericOverflowError
from .sketch import Sketch


@dataclass(frozen=True)
class DampedPreconditioner:
    """The damped inverse of one sketch.

    ``denominators``, ``clamped`` and ``eigvals`` (the sketch's eigenvalues as
    a tuple of floats, the form a step record carries) are derived once here,
    so a preconditioner built per sketch serves every step until the next
    refresh.
    """

    sketch: Sketch
    eta: float
    floor: float = 1e-8
    denominators: np.ndarray = field(init=False, repr=False, compare=False)
    clamped: bool = field(init=False, repr=False, compare=False)
    eigvals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.eta > 0:
            raise ContractViolationError(f"eta must be > 0, got {self.eta}")
        if not self.floor > 0:
            raise ContractViolationError(f"floor must be > 0, got {self.floor}")
        shifted = self.sketch.eigvals + self.eta
        object.__setattr__(self, "denominators", np.maximum(shifted, self.floor))
        # True when any captured direction hit the floor (negative curvature)
        object.__setattr__(self, "clamped",
                           bool(self.sketch.k and np.any(shifted < self.floor)))
        object.__setattr__(self, "eigvals", tuple(self.sketch.eigvals.tolist()))


def _check_g(g, pc):
    g = np.asarray(g, dtype=np.float64)
    n = pc.sketch.basis.shape[0]
    if pc.sketch.k and g.shape != (n,):
        raise ContractViolationError(f"gradient shape {g.shape} != ({n},)")
    if not np.all(np.isfinite(g)):
        raise NumericOverflowError("non-finite gradient passed to preconditioner")
    return g


def precondition(g, pc: DampedPreconditioner) -> np.ndarray:
    """Apply the damped inverse to g in O(nk)."""
    g = _check_g(g, pc)
    if pc.sketch.k == 0:
        return g / pc.eta
    basis = pc.sketch.basis
    coef = basis.T @ g
    return basis @ (coef / pc.denominators) + (g - basis @ coef) / pc.eta


def quadratic_form(g, pc: DampedPreconditioner) -> float:
    """<g, P g> via the eigen-basis closed form; strictly positive for g != 0."""
    g = _check_g(g, pc)
    if pc.sketch.k == 0:
        return float(g @ g) / pc.eta
    coef = pc.sketch.basis.T @ g
    perp_sq = float(g @ g) - float(coef @ coef)
    return float(np.sum(coef**2 / pc.denominators)) + max(perp_sq, 0.0) / pc.eta


def operator_norm_bound(pc: DampedPreconditioner) -> float:
    """max(1/eta, 1/min denominator); equals 1/eta when no eigenvalue is negative."""
    if pc.sketch.k == 0:
        return 1.0 / pc.eta
    return max(1.0 / pc.eta, 1.0 / float(np.min(pc.denominators)))


def min_eigenvalue(pc: DampedPreconditioner) -> float:
    """Smallest eigenvalue of the map: 1/max(largest denominator, eta)."""
    if pc.sketch.k == 0:
        return 1.0 / pc.eta
    return 1.0 / max(float(np.max(pc.denominators)), pc.eta)
