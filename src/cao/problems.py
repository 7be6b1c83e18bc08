"""Benchmark objectives with analytic gradients and Hessian-vector products.

Every problem is matrix-free: it exposes ``loss``, ``grad``, both from one
pass (``loss_and_grad``), and Hessian products (``hvp`` for one direction,
``hvp_block`` for an n x j block of directions) evaluated on a (possibly
empty) mini-batch. Problems are immutable after construction and all
randomness is fixed by the construction seed, so identical ``(theta, batch)``
inputs give bit-identical outputs and instances can be shared across threads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateStepError,
    NumericOverflowError,
    OracleUnavailableError,
)

DENSE_ORACLE_CAP = 500


@dataclass(frozen=True)
class Batch:
    """Mini-batch selector: ``indices`` into the sample set, empty = full batch.

    ``rng_seed`` is reserved for objectives with per-batch randomness; the
    built-in problems are deterministic and ignore it.
    """

    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    rng_seed: int = 0

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)

    @property
    def is_full(self) -> bool:
        return self.indices.size == 0


FULL_BATCH = Batch()


@dataclass(frozen=True)
class ProblemMeta:
    """Dimensions and known analysis constants of a problem.

    ``smoothness_L`` is a global gradient-Lipschitz constant, ``pl_mu`` a
    gradient-dominance constant and ``f_star`` the optimal value; each is
    ``None`` when not known in closed form.
    """

    dim: int
    name: str
    smoothness_L: float | None = None
    pl_mu: float | None = None
    f_star: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ContractViolationError(f"dim must be positive, got {self.dim}")
        if self.pl_mu is not None:
            if self.f_star is None:
                raise ContractViolationError("pl_mu given without f_star")
            if self.pl_mu <= 0:
                raise ContractViolationError("pl_mu must be > 0")
        if self.smoothness_L is not None and self.pl_mu is not None:
            if self.smoothness_L < self.pl_mu:
                raise ContractViolationError("smoothness_L < pl_mu is inconsistent")


class Problem:
    """Base class: subclasses implement ``_loss``, ``_grad``, ``_hvp_block``.

    The public methods validate dimensions and finiteness around the
    analytic kernels. ``_hvp_block(theta, V, batch)`` returns ``H @ V`` for an
    n x j block ``V``; the single-direction ``hvp`` is its one-column case.
    ``_loss_and_grad`` defaults to the two kernels in turn; a problem whose
    loss and gradient share a pass overrides it, and must return values
    bit-identical to ``(_loss, _grad)``.
    """

    meta: ProblemMeta
    num_samples: int = 0

    @property
    def dim(self) -> int:
        return self.meta.dim

    # -- validation helpers -------------------------------------------------

    def _check_theta(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ContractViolationError(
                f"{self.meta.name}: parameter shape {theta.shape} != ({self.dim},)"
            )
        return theta

    def _check_batch(self, batch: Batch) -> Batch:
        if batch.is_full:
            return batch
        if self.num_samples == 0:
            raise ContractViolationError(
                f"{self.meta.name} is deterministic; mini-batches are not supported"
            )
        if batch.indices.min() < 0 or batch.indices.max() >= self.num_samples:
            raise ContractViolationError("batch indices out of range")
        return batch

    @staticmethod
    def _check_finite(value, what):
        # a loss is a Python float, which needs no NumPy call to check
        if isinstance(value, float):
            finite = math.isfinite(value)
        else:
            finite = np.isfinite(value).all()
        if not finite:
            raise NumericOverflowError(f"non-finite {what}")
        return value

    # -- public interface ---------------------------------------------------

    def loss(self, theta, batch: Batch = FULL_BATCH) -> float:
        theta = self._check_theta(theta)
        batch = self._check_batch(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(self._loss(theta, batch))
        self._check_finite(value, f"loss on {self.meta.name}")
        return value

    def grad(self, theta, batch: Batch = FULL_BATCH) -> np.ndarray:
        theta = self._check_theta(theta)
        batch = self._check_batch(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            g = self._grad(theta, batch)
        self._check_finite(g, f"gradient on {self.meta.name}")
        return g

    def loss_and_grad(self, theta, batch: Batch = FULL_BATCH):
        """``(loss, grad)`` from one pass; the same values and checks as the two calls."""
        theta = self._check_theta(theta)
        batch = self._check_batch(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            value, g = self._loss_and_grad(theta, batch)
            value = float(value)
        self._check_finite(value, f"loss on {self.meta.name}")
        self._check_finite(g, f"gradient on {self.meta.name}")
        return value, g

    def _loss_and_grad(self, theta, batch):
        return self._loss(theta, batch), self._grad(theta, batch)

    def hvp(self, theta, v, batch: Batch = FULL_BATCH) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ContractViolationError(
                f"{self.meta.name}: direction shape {v.shape} != ({self.dim},)"
            )
        return self.hvp_block(theta, v[:, None], batch)[:, 0]

    def hvp_block(self, theta, v, batch: Batch = FULL_BATCH) -> np.ndarray:
        """``H @ V`` for an n x j block of directions, as one batched product."""
        theta = self._check_theta(theta)
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != self.dim:
            raise ContractViolationError(
                f"{self.meta.name}: direction block shape {v.shape} != ({self.dim}, j)"
            )
        self._check_finite(v, "hvp direction")
        batch = self._check_batch(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            hv = self._hvp_block(theta, v, batch)
        self._check_finite(hv, f"hvp on {self.meta.name}")
        return hv

    def hvp_closure(self, theta, batch: Batch = FULL_BATCH):
        """Freeze (theta, batch) into a callable taking a vector or an n x j block."""
        theta = self._check_theta(theta).copy()

        def apply(v):
            if np.ndim(v) == 2:
                return self.hvp_block(theta, v, batch)
            return self.hvp(theta, v, batch)

        return apply

    def dense_hessian(self, theta, batch: Batch = FULL_BATCH) -> np.ndarray:
        """Materialize the Hessian column by column from ``hvp``.

        Ground-truth oracle for tests and residual-curvature measurements;
        capped at ``DENSE_ORACLE_CAP`` to keep it O(n^2) small. Each column is
        bit-identical to ``hvp`` of the matching unit vector; one
        ``hvp_block`` with the identity would not be, because BLAS rounds a
        one-column product (gemv) differently from a many-column one (gemm).
        """
        if self.dim > DENSE_ORACLE_CAP:
            raise OracleUnavailableError(
                f"dense oracle capped at n <= {DENSE_ORACLE_CAP}, got n = {self.dim}"
            )
        theta = self._check_theta(theta)
        cols = []
        eye = np.eye(self.dim)
        for j in range(self.dim):
            cols.append(self.hvp(theta, eye[:, j], batch))
        return np.column_stack(cols)

    def initial_point(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([int(seed), 7919])
        return rng.standard_normal(self.dim)


def fd_hvp(problem: Problem, theta, v, batch: Batch = FULL_BATCH, eps: float = 1e-4):
    """Central-difference Hessian-vector product (grad(theta+eps v) - grad(theta-eps v)) / 2 eps.

    Independent oracle for the analytic ``hvp`` implementations.
    """
    if eps <= 0:
        raise ContractViolationError(f"eps must be > 0, got {eps}")
    theta = np.asarray(theta, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not np.any(v):
        return np.zeros_like(theta)
    up = theta + eps * v
    dn = theta - eps * v
    if np.array_equal(up, theta) and np.array_equal(dn, theta):
        raise DegenerateStepError(f"eps={eps} does not perturb theta elementwise")
    return (problem.grad(up, batch) - problem.grad(dn, batch)) / (2.0 * eps)


# ---------------------------------------------------------------------------
# quadratic


class QuadraticProblem(Problem):
    """f(theta) = 0.5 (theta - t*)^T A (theta - t*) with A = Q diag(spectrum) Q^T.

    Q is a seeded random orthogonal matrix, so the spectrum is exact by
    construction: L = max(spectrum), mu = min(spectrum), f* = 0.
    """

    def __init__(self, spectrum, seed: int = 0, name: str = "quadratic", target=None,
                 rotate: bool = True):
        spectrum = np.asarray(spectrum, dtype=np.float64)
        if spectrum.ndim != 1 or spectrum.size == 0:
            raise ContractViolationError("spectrum must be a non-empty 1-d sequence")
        n = spectrum.size
        if rotate:
            rng = np.random.default_rng([int(seed), 101])
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (q * spectrum) @ q.T
            self.matrix = (a + a.T) / 2.0  # exact symmetric storage
        else:
            self.matrix = np.diag(spectrum)
        self.spectrum = np.sort(spectrum)[::-1].copy()
        self.target = (
            np.zeros(n) if target is None else np.asarray(target, dtype=np.float64)
        )
        self.meta = ProblemMeta(
            dim=n,
            name=name,
            smoothness_L=float(np.max(spectrum)),
            pl_mu=float(np.min(spectrum)),
            f_star=0.0,
        )

    def _loss(self, theta, batch):
        d = theta - self.target
        return 0.5 * float(d @ (self.matrix @ d))

    def _grad(self, theta, batch):
        return self.matrix @ (theta - self.target)

    def _loss_and_grad(self, theta, batch):
        d = theta - self.target
        g = self.matrix @ d
        return 0.5 * float(d @ g), g

    def _hvp_block(self, theta, v, batch):
        return self.matrix @ v


def quadratic(spectrum, seed: int = 0, name: str = "quadratic") -> QuadraticProblem:
    return QuadraticProblem(spectrum, seed=seed, name=name)


# ---------------------------------------------------------------------------
# rosenbrock


class RosenbrockProblem(Problem):
    """Chained Rosenbrock: sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2.

    Nonconvex with a tridiagonal Hessian; global minimum 0 at the all-ones
    point.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ContractViolationError("rosenbrock needs n >= 2")
        self.meta = ProblemMeta(dim=n, name=f"rosenbrock{n}", f_star=0.0)

    def _loss(self, theta, batch):
        x = theta
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def _grad(self, theta, batch):
        x = theta
        g = np.zeros_like(x)
        d = x[1:] - x[:-1] ** 2
        g[:-1] = -400.0 * x[:-1] * d - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * d
        return g

    def _hvp_block(self, theta, v, batch):
        x = theta
        diag = np.zeros_like(x)
        diag[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        diag[1:] += 200.0
        off = -400.0 * x[:-1, None]  # H[i, i+1]
        hv = diag[:, None] * v
        hv[:-1] += off * v[1:]
        hv[1:] += off * v[:-1]
        return hv

    def initial_point(self, seed: int) -> np.ndarray:
        # classic start plus a small seeded jitter so different seeds differ
        base = np.ones(self.dim)
        base[::2] = -1.2
        rng = np.random.default_rng([int(seed), 7919])
        return base + 0.05 * rng.standard_normal(self.dim)


def rosenbrock(n: int) -> RosenbrockProblem:
    return RosenbrockProblem(n)


# ---------------------------------------------------------------------------
# logistic regression


class LogregProblem(Problem):
    """l2-regularized logistic regression on seeded two-class Gaussian data."""

    def __init__(
        self,
        n_features: int,
        n_samples: int,
        seed: int = 0,
        reg: float = 1e-2,
        class_sep: float = 2.0,
    ):
        if n_features < 1 or n_samples < 2:
            raise ContractViolationError("logreg needs n_features >= 1, n_samples >= 2")
        if reg < 0:
            raise ContractViolationError("reg must be >= 0")
        rng = np.random.default_rng([int(seed), 211])
        direction = rng.standard_normal(n_features)
        direction /= np.linalg.norm(direction)
        labels = np.where(np.arange(n_samples) % 2 == 0, 1.0, -1.0)
        rng.shuffle(labels)
        x = rng.standard_normal((n_samples, n_features))
        x += np.outer(labels * (class_sep / 2.0), direction)
        self.x = x
        self.y = labels
        self.reg = float(reg)
        self.num_samples = n_samples
        # exact smoothness: || X^T X / (4 N) || + reg
        gram_top = float(np.linalg.eigvalsh(x.T @ x)[-1])
        self.meta = ProblemMeta(
            dim=n_features,
            name=f"logreg{n_features}",
            smoothness_L=gram_top / (4.0 * n_samples) + reg,
        )

    def _select(self, batch):
        if batch.is_full:
            return self.x, self.y
        return self.x[batch.indices], self.y[batch.indices]

    def _margins(self, theta, batch):
        x, y = self._select(batch)
        return x, y, y * (x @ theta)

    def _loss_from(self, theta, margins):
        value = float(np.mean(np.logaddexp(0.0, -margins)))
        return value + 0.5 * self.reg * float(theta @ theta)

    def _grad_from(self, theta, x, y, margins):
        # sigmoid(-m) without overflow
        s = np.where(margins >= 0, np.exp(-margins) / (1 + np.exp(-margins)),
                     1.0 / (1 + np.exp(margins)))
        g = -(x.T @ (y * s)) / x.shape[0]
        return g + self.reg * theta

    def _loss(self, theta, batch):
        return self._loss_from(theta, self._margins(theta, batch)[2])

    def _grad(self, theta, batch):
        return self._grad_from(theta, *self._margins(theta, batch))

    def _loss_and_grad(self, theta, batch):
        x, y, margins = self._margins(theta, batch)
        return self._loss_from(theta, margins), self._grad_from(theta, x, y, margins)

    def _hvp_block(self, theta, v, batch):
        x, y = self._select(batch)
        z = x @ theta
        p = np.where(z >= 0, 1.0 / (1 + np.exp(-z)), np.exp(z) / (1 + np.exp(z)))
        w = p * (1.0 - p)  # once per block, shared by every column
        return (x.T @ (w[:, None] * (x @ v))) / x.shape[0] + self.reg * v

    def initial_point(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([int(seed), 7919])
        return 0.5 * rng.standard_normal(self.dim) / np.sqrt(self.dim)


def logreg(n_features: int, n_samples: int, seed: int = 0, reg: float = 1e-2,
           class_sep: float = 2.0) -> LogregProblem:
    return LogregProblem(n_features, n_samples, seed=seed, reg=reg, class_sep=class_sep)


# ---------------------------------------------------------------------------
# one-hidden-layer network


class MlpProblem(Problem):
    """One-hidden-layer tanh network with softmax cross-entropy on seeded blobs.

    tanh keeps the Hessian defined everywhere, so the analytic forward-over-
    reverse ``hvp`` is exact. ``input_gain`` rescales input features on a
    geometric ramp to induce a few sharp curvature directions.

    Parameter layout: [W1 (h x d), b1 (h), W2 (c x h), b2 (c)] flattened.
    """

    def __init__(
        self,
        widths,
        seed: int = 0,
        n_samples: int = 512,
        class_sep: float = 2.0,
        input_gain: float = 1.0,
    ):
        widths = tuple(int(w) for w in widths)
        if len(widths) != 3 or min(widths) < 1:
            raise ContractViolationError("widths must be (n_in, n_hidden, n_classes)")
        d, h, c = widths
        if c < 2 or n_samples < c:
            raise ContractViolationError("need n_classes >= 2 and n_samples >= n_classes")
        self.widths = widths
        rng = np.random.default_rng([int(seed), 307])
        means = rng.standard_normal((c, d)) * class_sep
        y = np.arange(n_samples) % c
        rng.shuffle(y)
        x = means[y] + rng.standard_normal((n_samples, d))
        if input_gain != 1.0:
            x = x * np.geomspace(input_gain, 1.0, d)
        self.x = x
        self.y = y
        self.num_samples = n_samples
        n = h * d + h + c * h + c
        self.meta = ProblemMeta(dim=n, name=f"mlp{d}x{h}x{c}")

    # -- parameter (un)packing ----------------------------------------------
    # both act on the last axis, so a (j, n) stack of directions (un)packs
    # into (j, ...) stacks of layer-shaped arrays

    def _unpack(self, theta):
        d, h, c = self.widths
        lead = theta.shape[:-1]
        i = 0
        w1 = theta[..., i : i + h * d].reshape(*lead, h, d); i += h * d
        b1 = theta[..., i : i + h]; i += h
        w2 = theta[..., i : i + c * h].reshape(*lead, c, h); i += c * h
        b2 = theta[..., i : i + c]
        return w1, b1, w2, b2

    @staticmethod
    def _pack(w1, b1, w2, b2):
        lead = b1.shape[:-1]
        return np.concatenate([w1.reshape(*lead, -1), b1, w2.reshape(*lead, -1), b2],
                              axis=-1)

    def _select(self, batch):
        if batch.is_full:
            return self.x, self.y
        return self.x[batch.indices], self.y[batch.indices]

    def _forward(self, theta, batch):
        w1, b1, w2, b2 = self._unpack(theta)
        x, y = self._select(batch)
        act = x @ w1.T + b1
        hid = np.tanh(act)
        logits = hid @ w2.T + b2
        zmax = logits.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.sum(np.exp(logits - zmax), axis=1))
        probs = np.exp(logits - lse[:, None])
        return x, y, w2, hid, logits, lse, probs

    @staticmethod
    def _loss_from(fwd):
        _, y, _, _, logits, lse, _ = fwd
        return float(np.mean(lse - logits[np.arange(y.size), y]))

    def _grad_from(self, fwd):
        x, y, w2, hid, _, _, probs = fwd
        b = y.size
        dz = probs.copy()
        dz[np.arange(b), y] -= 1.0
        dz /= b
        gw2 = dz.T @ hid
        gb2 = dz.sum(axis=0)
        dh = dz @ w2
        da = dh * (1.0 - hid**2)
        gw1 = da.T @ x
        gb1 = da.sum(axis=0)
        return self._pack(gw1, gb1, gw2, gb2)

    def _loss(self, theta, batch):
        return self._loss_from(self._forward(theta, batch))

    def _grad(self, theta, batch):
        return self._grad_from(self._forward(theta, batch))

    def _loss_and_grad(self, theta, batch):
        fwd = self._forward(theta, batch)
        return self._loss_from(fwd), self._grad_from(fwd)

    def _hvp_block(self, theta, v, batch):
        # forward-over-reverse: one forward pass for the whole block, then push
        # each direction (leading axis j) through it and differentiate the
        # backward pass along it
        u1, c1, u2, c2 = self._unpack(v.T)
        x, y, w2, hid, _, _, probs = self._forward(theta, batch)
        b = y.size
        sq = 1.0 - hid**2

        dz = probs.copy()
        dz[np.arange(b), y] -= 1.0
        dz /= b
        dh = dz @ w2

        r_act = x @ u1.transpose(0, 2, 1) + c1[:, None]
        r_hid = sq * r_act
        r_logits = r_hid @ w2.T + hid @ u2.transpose(0, 2, 1) + c2[:, None]
        r_probs = probs * (r_logits - np.sum(probs * r_logits, axis=2, keepdims=True))
        r_dz = r_probs / b

        r_gw2 = r_dz.transpose(0, 2, 1) @ hid + dz.T @ r_hid
        r_gb2 = r_dz.sum(axis=1)
        r_dh = r_dz @ w2 + dz @ u2
        r_da = r_dh * sq + dh * (-2.0 * hid * r_hid)
        r_gw1 = r_da.transpose(0, 2, 1) @ x
        r_gb1 = r_da.sum(axis=1)
        return self._pack(r_gw1, r_gb1, r_gw2, r_gb2).T

    def initial_point(self, seed: int) -> np.ndarray:
        d, h, c = self.widths
        rng = np.random.default_rng([int(seed), 7919])
        w1 = rng.standard_normal((h, d)) / np.sqrt(d)
        w2 = rng.standard_normal((c, h)) / np.sqrt(h)
        return self._pack(w1, np.zeros(h), w2, np.zeros(c))


def mlp_synthetic(widths, seed: int = 0, n_samples: int = 512, class_sep: float = 2.0,
                  input_gain: float = 1.0) -> MlpProblem:
    return MlpProblem(widths, seed=seed, n_samples=n_samples, class_sep=class_sep,
                      input_gain=input_gain)


# ---------------------------------------------------------------------------
# construction from a config section

_BUILDERS = {
    "quadratic": lambda p: quadratic(p["spectrum"], seed=p.get("seed", 0),
                                     name=p.get("label", "quadratic")),
    "rosenbrock": lambda p: rosenbrock(p["n"]),
    "logreg": lambda p: logreg(p["n_features"], p["n_samples"], seed=p.get("seed", 0),
                               reg=p.get("reg", 1e-2), class_sep=p.get("class_sep", 2.0)),
    "mlp": lambda p: mlp_synthetic(p["widths"], seed=p.get("seed", 0),
                                   n_samples=p.get("n_samples", 512),
                                   class_sep=p.get("class_sep", 2.0),
                                   input_gain=p.get("input_gain", 1.0)),
}


def from_config(section: dict) -> Problem:
    """Build a problem from a config mapping: {"name": ..., <parameters>, "seed": ...}."""
    try:
        name = section["name"]
    except (KeyError, TypeError):
        raise ContractViolationError("problem section needs a 'name' key") from None
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ContractViolationError(
            f"unknown problem {name!r}; known: {sorted(_BUILDERS)}"
        ) from None
    try:
        return builder(section)
    except KeyError as exc:
        raise ContractViolationError(f"problem {name!r} is missing parameter {exc}") from None
