"""Top-k Hessian eigenpair estimates from matrix-free products.

The sketch is built by subspace iteration + Rayleigh-Ritz on LAPACK (``qr``,
``eigh``): an orthonormal n x k block is pushed through a block closure
``V -> H V`` and re-orthonormalized ``iters`` times, then the projected k x k
matrix is diagonalized (``block_lanczos`` below). A k = 1 build calls
neither in the usual case: one column is normalized by a division, and a
1 x 1 projected matrix is its own eigenvalue. The closure receives the
whole n x k block once per iteration and must return the n x k product, so
exactly ``iters + 1`` closure calls, ``(iters + 1) * k`` Hessian-vector
products, are made per build. Column signs are fixed once per build, on the
block that enters Rayleigh-Ritz and on the returned basis; the iterates
before that keep the signs orthonormalization leaves them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolationError, Knob, NumericOverflowError, OracleUnavailableError,
                     all_finite, check_knobs)

log = logging.getLogger(__name__)

ORTHO_TOL = 1e-8
RANK_DEFICIENCY_TOL = 1e-12


@dataclass(frozen=True)
class Sketch:
    """Top-k eigenvalue estimates and an orthonormal basis of their directions.

    ``eigvals`` is sorted descending by signed value and may contain negative
    entries. k = 0 denotes the empty sketch. Construction checks both: that
    the eigenvalues are finite and in order, and that the Gram matrix is
    within ``ORTHO_TOL`` of the identity, which a non-finite basis entry
    fails; for k = 1 the 1 x 1 Gram matrix is compared with 1 as a scalar.
    """

    eigvals: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigvals, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        object.__setattr__(self, "eigvals", vals)
        object.__setattr__(self, "basis", basis)
        if basis.ndim != 2 or basis.shape[1] != vals.size:
            raise ContractViolationError(
                f"basis shape {basis.shape} inconsistent with {vals.size} eigenvalues"
            )
        if vals.size:
            if not all_finite(vals):
                raise ContractViolationError(f"eigvals must be finite, got {vals}")
            if vals.size > 1 and np.any(np.diff(vals) > 0):
                raise ContractViolationError("eigvals must be sorted descending")
            gram = basis.T @ basis
            off = (abs(gram[0, 0] - 1.0) if vals.size == 1
                   else np.max(np.abs(gram - np.eye(vals.size))))
            if not off <= ORTHO_TOL:  # NaN, from a NaN entry, fails too
                raise ContractViolationError("basis columns are not orthonormal")

    @property
    def k(self) -> int:
        return int(self.eigvals.size)

    @property
    def has_negative(self) -> bool:
        return bool(self.eigvals.size and self.eigvals[-1] < 0)


# the knobs of one build: rank k, iteration count, start seed
_LANCZOS = {"lanczos": (None, {"k": Knob(int, 0), "iters": Knob(int, 1), "seed": Knob(int, 0)})}


def _positive_first(q) -> np.ndarray:
    """Flip columns so the first nonzero entry of each is positive."""
    first = q[(q != 0).argmax(axis=0), np.arange(q.shape[1])]
    return q * np.copysign(1.0, first)


def _orthonormalize(m, rng) -> np.ndarray:
    """Orthonormal columns spanning those of ``m``, with signs left as they fall.

    One column is divided by its norm directly: for it, LAPACK's call overhead
    costs about twice the normalization and would dominate k = 1 sketch builds.
    Otherwise, and for one column whose norm is below ``RANK_DEFICIENCY_TOL``
    or whose square overflows, Householder QR, whose norms are scaled; its Q
    does not depend on the signs of the input columns. Rank deficiency is
    repaired as ``qr_orthonormalize`` describes. The caller silences the
    overflow warning of the squared norm.
    """
    n, k = m.shape
    while True:
        if k == 1:
            x = m.ravel()
            norm = math.sqrt(x.dot(x))  # np.linalg.norm's arithmetic, bit for bit
            if RANK_DEFICIENCY_TOL <= norm < math.inf:
                return m / norm
        q, r = np.linalg.qr(m)
        small = abs(r.diagonal())
        if not small.min(initial=np.inf) < RANK_DEFICIENCY_TOL:
            return q
        # only the first small R_jj is meaningful: later ones depend on the
        # arbitrary direction QR picked for column j
        j = int(np.argmax(small < RANK_DEFICIENCY_TOL))
        if rng is None:
            rng = np.random.default_rng(0)
        log.warning("rank-deficient column %d repaired with a random direction", j)
        m = m.copy()
        m[:, j] = rng.standard_normal(n)


def qr_orthonormalize(m, rng=None) -> np.ndarray:
    """Orthonormalize the columns of an n x k matrix (Householder QR).

    A column whose projection off the earlier ones is numerically zero
    (``|R_jj|`` below ``RANK_DEFICIENCY_TOL``; for k = 1, the column's norm)
    is replaced by a fresh random direction and the factorization redone;
    each repair is logged. Signs are normalized so the first nonzero entry of
    every column is positive.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolationError("expected a 2-d matrix")
    n, k = m.shape
    if k > n:
        raise ContractViolationError(f"need k <= n, got shape {m.shape}")
    with np.errstate(over="ignore"):
        return _positive_first(_orthonormalize(m, rng))


def block_lanczos(hvp_closure, n: int, k: int, iters: int = 10, seed: int = 0,
                  v0=None) -> Sketch:
    """Estimate the top-k eigenpairs of the symmetric operator behind ``hvp_closure``.

    ``hvp_closure`` maps an n x k block ``V`` to ``H @ V``. The orthonormal
    start block, drawn from ``seed``, is pushed through it ``iters`` times,
    then the projected k x k eigenproblem is solved and the Ritz pairs are
    returned sorted by signed eigenvalue, descending. A non-finite product
    aborts the build with ``NumericOverflowError`` so the caller can keep a
    previous sketch. A ``k``, ``iters`` or ``seed`` that does not fit
    ``_LANCZOS``, or ``k > n``, raises ``ContractViolationError``. k = 0 takes
    the same path on n x 0 blocks (``qr`` of n x 0, ``eigh`` of 0 x 0).

    For k = 1 the projected matrix is 1 x 1 and LAPACK is not called: its
    symmetric eigensolver returns exactly ``A(1,1)`` and the eigenvector 1
    for order 1, so the eigenvalue is the projected entry and the basis the
    signed block ``v`` itself, plus 0.0, as the product ``v @ [[1.0]]``
    would give it (BLAS adds each product to +0.0, which turns a -0.0 entry
    into +0.0). The bits are those of the general path.

    Signs are normalized twice per build: on the block that enters
    Rayleigh-Ritz and on the returned basis. The start block and the
    iterates before the last keep the signs orthonormalization leaves. That
    changes no bit of the result for a closure that is exactly odd in each
    column, as every problem's is: a flipped column then comes back flipped,
    one column is normalized by a division, and the Q of Householder QR does
    not depend on column signs.

    ``v0`` overrides the seeded random start block (used by invariance tests).
    """
    check_knobs(_LANCZOS, "lanczos", {"k": k, "iters": iters, "seed": seed}, "sketch")
    if k > n:
        raise ContractViolationError(f"k = {k} exceeds dimension n = {n}")
    rng = np.random.default_rng(seed)
    if v0 is None:
        v0 = rng.standard_normal((n, k))
    else:
        v0 = np.asarray(v0, dtype=np.float64)
        if v0.shape != (n, k):
            raise ContractViolationError(f"v0 shape {v0.shape} != ({n}, {k})")

    def apply_block(block):
        hv = np.asarray(hvp_closure(block), dtype=np.float64)
        if hv.shape != block.shape:
            raise ContractViolationError(
                f"block closure returned shape {hv.shape}, expected {block.shape}"
            )
        # kept: a raw closure (not Problem.hvp_closure) has no check of its own
        if not all_finite(hv):
            raise NumericOverflowError("non-finite Hessian-vector product during sketch build")
        return hv

    with np.errstate(over="ignore"):  # one for the build, not one per column
        v = _orthonormalize(v0, rng)
        for _ in range(iters - 1):
            v = _orthonormalize(apply_block(v), rng)
        v = _positive_first(_orthonormalize(apply_block(v), rng))  # enters Rayleigh-Ritz
    w = apply_block(v)
    projected = v.T @ w
    projected = (projected + projected.T) / 2.0  # kill rounding asymmetry
    if k == 1:
        # LAPACK's order-1 answer without the call: eigenvalue A(1,1), eigenvector 1.
        # v is signed already; `+ 0.0` is what the product v @ [[1.0]] does to it
        vals, basis = projected[0], v + 0.0
    else:
        vals, small_vecs = np.linalg.eigh(projected)
        vals = vals[::-1]  # signed value, descending
        basis = _positive_first(v @ small_vecs[:, ::-1])  # deterministic output signs
    sk = Sketch(vals, basis)
    if sk.has_negative:
        log.info("sketch contains negative curvature estimates: %s", vals)
    return sk


def sketch_residual(sketch: Sketch, dense_h) -> float:
    """Spectral norm of the Hessian restricted to the sketch's orthogonal complement.

    Computed from the dense oracle: || (I - V V^T) H (I - V V^T) ||_2.
    """
    h = np.asarray(dense_h, dtype=np.float64)
    n = h.shape[0]
    if h.shape != (n, n):
        raise OracleUnavailableError("sketch_residual needs the square dense Hessian")
    proj = np.eye(n) - sketch.basis @ sketch.basis.T
    m = proj @ h @ proj
    m = (m + m.T) / 2.0
    vals = np.linalg.eigvalsh(m)
    return float(max(abs(vals[0]), abs(vals[-1])))
