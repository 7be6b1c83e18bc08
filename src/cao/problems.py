"""Benchmark objectives with analytic gradients and Hessian-vector products.

Every problem is matrix-free: it exposes ``loss``, ``grad``, both from one
pass (``loss_and_grad``), and Hessian products evaluated on a (possibly
empty) mini-batch. Each problem has one gradient kernel, ``_loss_and_grad``.
``hvp_closure(theta, batch)`` is the one entry point for the products: it
does the work that depends on the point only once (the ``_linearize`` hook:
a forward pass, sigmoid weights, Hessian bands) and returns a map from an
n x j block of directions to ``H @ V``; ``hvp`` (one direction) is a single
call of such a closure.
All randomness is fixed by the construction seed, so identical ``(theta, batch)``
inputs give bit-identical outputs. Only mlp's memo of its last full-set pass
changes after construction; it is swapped as one tuple and checked by content,
so threads can share an instance and a race can only cost a recompute.

Each constructor checks its arguments against ``_PROBLEMS``, as ``from_config``
checks a config section, so both fail alike. Only mlp adds rules a knob cannot
state: ``widths`` has three entries, ``n_classes >= 2``, ``n_samples >= n_classes``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractViolationError, DegenerateStepError, Knob, NumericOverflowError,
                     OracleUnavailableError, all_finite, check_knobs)

DENSE_ORACLE_CAP = 500


@dataclass(frozen=True)
class Batch:
    """Mini-batch selector: ``indices`` into the sample set, empty = full batch."""

    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64)
        idx.flags.writeable = False  # so ``span`` cannot go stale
        object.__setattr__(self, "indices", idx)

    @property
    def is_full(self) -> bool:
        return self.indices.size == 0

    @functools.cached_property
    def span(self) -> tuple:
        """``(min, max)`` of the indices: reduced on first use, once per batch."""
        return int(self.indices.min()), int(self.indices.max())


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
    """Base class: subclasses implement ``_loss_and_grad`` and ``_linearize``.

    The public methods validate dimensions and finiteness around the
    analytic kernels. ``_loss_and_grad(theta, batch)`` returns the loss and
    the gradient from one pass. ``_linearize(theta, batch)`` does the work of
    the Hessian that depends on the point only and returns a kernel mapping
    an n x j block ``V`` to ``H @ V``. ``_loss`` defaults to the loss of
    ``_loss_and_grad``; a problem with a cheaper loss-only pass overrides it,
    and must return a value bit-identical to that loss.
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
        if batch.span[0] < 0 or batch.span[1] >= self.num_samples:
            raise ContractViolationError("batch indices out of range")
        return batch

    def _select(self, batch):
        """The rows of the sample set ``x`` and labels ``y`` that ``batch`` selects."""
        if batch.is_full:
            return self.x, self.y
        return self.x[batch.indices], self.y[batch.indices]

    def _non_finite(self, what) -> NumericOverflowError:
        """The error for a non-finite ``what``, its message formatted only to raise it."""
        return NumericOverflowError(f"non-finite {what} on {self.meta.name}")

    # -- public interface ---------------------------------------------------

    def loss(self, theta, batch: Batch = FULL_BATCH) -> float:
        theta = self._check_theta(theta)
        batch = self._check_batch(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(self._loss(theta, batch))
        if not math.isfinite(value):
            raise self._non_finite("loss")
        return value

    def grad(self, theta, batch: Batch = FULL_BATCH) -> np.ndarray:
        return self.loss_and_grad(theta, batch)[1]

    def loss_and_grad(self, theta, batch: Batch = FULL_BATCH):
        """``(loss, grad)`` from one pass; the same values and checks as the two calls."""
        theta = self._check_theta(theta)
        batch = self._check_batch(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            value, g = self._loss_and_grad(theta, batch)
            value = float(value)
        if not math.isfinite(value):
            raise self._non_finite("loss")
        if not all_finite(g):
            raise self._non_finite("gradient")
        return value, g

    def _loss(self, theta, batch):
        return self._loss_and_grad(theta, batch)[0]

    def hvp(self, theta, v, batch: Batch = FULL_BATCH) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ContractViolationError(
                f"{self.meta.name}: direction shape {v.shape} != ({self.dim},)"
            )
        return self.hvp_closure(theta, batch)(v[:, None])[:, 0]

    def hvp_closure(self, theta, batch: Batch = FULL_BATCH):
        """Linearize once at (theta, batch); returns ``V -> H @ V`` for n x j blocks.

        Every call checks the block's shape and finiteness and the product's
        finiteness. Later changes to the caller's ``theta`` do not reach the
        closure.
        """
        theta = self._check_theta(theta).copy()
        batch = self._check_batch(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            kernel = self._linearize(theta, batch)

        def apply(v):
            v = np.asarray(v, dtype=np.float64)
            if v.ndim != 2 or v.shape[0] != self.dim:
                raise ContractViolationError(
                    f"{self.meta.name}: direction block shape {v.shape} != ({self.dim}, j)"
                )
            if not all_finite(v):
                raise NumericOverflowError("non-finite hvp direction")
            with np.errstate(over="ignore", invalid="ignore"):
                hv = kernel(v)
            if not all_finite(hv):
                raise self._non_finite("hvp")
            return hv

        return apply

    def dense_hessian(self, theta, batch: Batch = FULL_BATCH) -> np.ndarray:
        """Materialize the Hessian column by column from one ``hvp_closure``.

        Ground-truth oracle for tests and residual-curvature measurements;
        capped at ``DENSE_ORACLE_CAP`` to keep it O(n^2) small. The closure
        takes one unit vector per call, so each column is bit-identical to
        ``hvp`` of the matching unit vector; one block with the identity would
        not be, because BLAS rounds a one-column product (gemv) differently
        from a many-column one (gemm).
        """
        if self.dim > DENSE_ORACLE_CAP:
            raise OracleUnavailableError(
                f"dense oracle capped at n <= {DENSE_ORACLE_CAP}, got n = {self.dim}"
            )
        apply = self.hvp_closure(theta, batch)
        eye = np.eye(self.dim)
        return np.column_stack([apply(eye[:, j:j + 1])[:, 0] for j in range(self.dim)])

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
    """f(theta) = 0.5 theta^T A theta with A = Q diag(spectrum) Q^T.

    Q is a seeded random orthogonal matrix, so the spectrum is exact by
    construction: L = max(spectrum), mu = min(spectrum), f* = 0.
    """

    def __init__(self, spectrum, seed: int = 0, name: str = "quadratic",
                 rotate: bool = True):
        if isinstance(spectrum, np.ndarray):
            spectrum = spectrum.tolist()  # a scalar or 2-d array is then not a list of numbers
        check_knobs(_PROBLEMS, "quadratic", {"spectrum": spectrum, "seed": seed}, "problem")
        spectrum = np.array(spectrum, dtype=np.float64)
        n = spectrum.size
        if rotate:
            rng = np.random.default_rng([seed, 101])
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            with np.errstate(over="ignore", invalid="ignore"):
                a = (q * spectrum) @ q.T
                self.matrix = (a + a.T) / 2.0  # exact symmetric storage
            if not all_finite(self.matrix):
                raise ContractViolationError(
                    f"problem 'quadratic': spectrum entry {float(np.max(spectrum))!r}"
                    f" overflows the matrix Q diag(spectrum) Q^T")
        else:
            self.matrix = np.diag(spectrum)
        self.meta = ProblemMeta(
            dim=n,
            name=name,
            smoothness_L=float(np.max(spectrum)),
            pl_mu=float(np.min(spectrum)),
            f_star=0.0,
        )

    def _loss_and_grad(self, theta, batch):
        g = self.matrix @ theta
        return 0.5 * float(theta @ g), g

    def _linearize(self, theta, batch):
        return lambda v: self.matrix @ v


quadratic = QuadraticProblem


# ---------------------------------------------------------------------------
# rosenbrock


class RosenbrockProblem(Problem):
    """Chained Rosenbrock: sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2.

    Nonconvex with a tridiagonal Hessian; global minimum 0 at the all-ones
    point.
    """

    def __init__(self, n: int):
        check_knobs(_PROBLEMS, "rosenbrock", {"n": n}, "problem")
        self.meta = ProblemMeta(dim=n, name=f"rosenbrock{n}", f_star=0.0)

    def _loss_and_grad(self, theta, batch):
        x = theta
        d = x[1:] - x[:-1] ** 2
        loss = float(np.sum(100.0 * d ** 2 + (1.0 - x[:-1]) ** 2))
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * d - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * d
        return loss, g

    def _linearize(self, theta, batch):
        x = theta
        diag = np.zeros_like(x)
        diag[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        diag[1:] += 200.0
        diag = diag[:, None]
        off = -400.0 * x[:-1, None]  # H[i, i+1]

        def kernel(v):
            hv = diag * v
            hv[:-1] += off * v[1:]
            hv[1:] += off * v[:-1]
            return hv

        return kernel

    def initial_point(self, seed: int) -> np.ndarray:
        # classic start plus a small seeded jitter so different seeds differ
        base = np.ones(self.dim)
        base[::2] = -1.2
        rng = np.random.default_rng([int(seed), 7919])
        return base + 0.05 * rng.standard_normal(self.dim)


rosenbrock = RosenbrockProblem


# ---------------------------------------------------------------------------
# logistic regression


def _sigmoid(z):
    """The logistic function from one ``e = exp(-|z|)``: ``1 / (1 + e)`` for z >= 0, else
    ``e / (1 + e)``, which never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class LogregProblem(Problem):
    """l2-regularized logistic regression on seeded two-class Gaussian data.

    Each sigmoid is ``_sigmoid``'s, which never overflows. The Hessian
    product ``X^T (w * (X V))`` is formed as ``((w * (X V))^T X)^T``: the
    same bytes without handing BLAS a transposed ``X``, C-contiguous for a
    C-ordered ``V`` such as ``block_lanczos`` sends (F-ordered for an
    F-ordered ``V``).

    The problem holds one n x d float64 array, ``x``; construction makes no
    extra copy of it, and each HVP block allocates one n x j temporary.
    """

    def __init__(
        self,
        n_features: int,
        n_samples: int,
        seed: int = 0,
        reg: float = 1e-2,
        class_sep: float = 2.0,
    ):
        check_knobs(_PROBLEMS, "logreg", {"n_features": n_features, "n_samples": n_samples,
                                          "seed": seed, "reg": reg, "class_sep": class_sep},
                    "problem")
        rng = np.random.default_rng([seed, 211])
        direction = rng.standard_normal(n_features)
        direction /= np.linalg.norm(direction)
        labels = np.where(np.arange(n_samples) % 2 == 0, 1.0, -1.0)
        rng.shuffle(labels)
        x = rng.standard_normal((n_samples, n_features))
        # labels are +-1, so row i of the outer product labels * (class_sep / 2) x direction
        # is +-shift exactly: add it in place, with no n x d temporary
        shift = (class_sep / 2.0) * direction
        positive = (labels > 0)[:, None]
        np.add(x, shift, out=x, where=positive)
        np.subtract(x, shift, out=x, where=~positive)
        self.x = x
        self.y = labels
        self.reg = float(reg)
        self.num_samples = n_samples
        # exact smoothness: || X^T X / (4 N) || + reg
        with np.errstate(over="ignore", invalid="ignore"):
            gram = x.T @ x
        if not all_finite(gram):
            raise ContractViolationError(
                f"problem 'logreg': class_sep {class_sep!r} overflows X^T X")
        gram_top = float(np.linalg.eigvalsh(gram)[-1])
        self.meta = ProblemMeta(
            dim=n_features,
            name=f"logreg{n_features}",
            smoothness_L=gram_top / (4.0 * n_samples) + reg,
        )

    def _loss_and_grad(self, theta, batch):
        x, y = self._select(batch)
        neg = -(y * (x @ theta))  # minus the margins
        terms = np.logaddexp(0.0, neg)
        value = float(terms.sum() / terms.size)  # np.mean's sum and division
        g = -(x.T @ (y * _sigmoid(neg))) / x.shape[0]
        return value + 0.5 * self.reg * float(theta @ theta), g + self.reg * theta

    def _linearize(self, theta, batch):
        x, _ = self._select(batch)
        p = _sigmoid(x @ theta)
        w = (p * (1.0 - p))[:, None]
        size, reg = x.shape[0], self.reg

        def hvp(v):
            xv = x @ v
            xv *= w  # in place: one n x j temporary per block
            return (xv.T @ x).T / size + reg * v

        return hvp

    def initial_point(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([int(seed), 7919])
        return 0.5 * rng.standard_normal(self.dim) / np.sqrt(self.dim)


logreg = LogregProblem


# ---------------------------------------------------------------------------
# one-hidden-layer network


def _row_sum(a):
    """``np.sum(a, axis=-1)`` bit for bit: below 8 terms NumPy adds in order from +0.0,
    as this fold of the columns does at a fraction of the cost; from 8 it sums pairwise."""
    if a.shape[-1] < 8:
        return functools.reduce(np.add, a.T, 0.0).T
    return np.sum(a, axis=-1)


class MlpProblem(Problem):
    """One-hidden-layer tanh network with softmax cross-entropy on seeded blobs.

    tanh keeps the Hessian defined everywhere, so the analytic forward-over-
    reverse ``hvp`` is exact. ``input_gain`` rescales input features on a
    geometric ramp to induce a few sharp curvature directions.

    A batch call at the theta of the last full-set pass (the step after an
    eval) takes its rows from that pass. That gives the same bytes where gemm
    rounds a row alike whatever the row count: on OpenBLAS x86-64, for inner
    dimensions below 32 (the tests check it). So rows are reused only for
    2 <= n_hidden < 32, n_in < 32 and 2 or more rows (one row or unit: gemv).

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
        check_knobs(_PROBLEMS, "mlp", {"widths": widths, "seed": seed, "n_samples": n_samples,
                                       "class_sep": class_sep, "input_gain": input_gain},
                    "problem")
        if len(widths) != 3 or widths[2] < 2 or n_samples < widths[2]:
            raise ContractViolationError(
                f"problem 'mlp': widths must be (n_in, n_hidden, n_classes) with n_classes "
                f">= 2 and n_samples >= n_classes, got {widths!r} and {n_samples}")
        self.widths = tuple(widths)
        d, h, c = self.widths
        rng = np.random.default_rng([seed, 307])
        with np.errstate(over="ignore", invalid="ignore"):
            means = rng.standard_normal((c, d)) * class_sep
            y = np.arange(n_samples) % c
            rng.shuffle(y)
            x = means[y] + rng.standard_normal((n_samples, d))
            if not all_finite(x):
                raise ContractViolationError(
                    f"problem 'mlp': class_sep {class_sep!r} overflows the inputs")
            if input_gain != 1.0:
                x = x * np.geomspace(input_gain, 1.0, d)
        if not all_finite(x):
            raise ContractViolationError(f"problem 'mlp': input_gain {input_gain!r} with"
                                         f" class_sep {class_sep!r} overflows the inputs")
        self.x = x
        self.y = y
        self.num_samples = n_samples
        self._row_base = np.arange(n_samples) * c  # row i's first flat logit
        self._rows_exact = 2 <= h < 32 and d < 32
        self._memo = (None,)  # (theta bytes, hid, logits, lse) of a full-set pass
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

    def _pack(self, w1, b1, w2, b2):
        d, h, c = self.widths
        lead = b1.shape[:-1]  # sizes, not -1: a stack of no directions has size 0
        return np.concatenate([w1.reshape(*lead, h * d), b1, w2.reshape(*lead, c * h), b2],
                              axis=-1)

    def _logits(self, theta, batch):
        """The forward pass up to the log-partition: (x, lab, w2, hid, logits, lse)."""
        w1, b1, w2, b2 = self._unpack(theta)
        x, y = self._select(batch)
        lab = self._row_base[:y.size] + y  # each row's label logit in logits.ravel()
        key = theta.tobytes()
        memo = self._memo  # read once: another thread may swap in its own
        if memo[0] == key and (batch.is_full or (self._rows_exact and y.size > 1)):
            rows = memo[1:] if batch.is_full else [a[batch.indices] for a in memo[1:]]
            return (x, lab, w2, *rows)
        hid = x @ w1.T
        hid += b1
        np.tanh(hid, out=hid)
        logits = hid @ w2.T
        logits += b2
        # row maxima one class column at a time: exact, and for a few classes
        # far cheaper than logits.max(axis=1)
        zmax = functools.reduce(np.maximum, logits.T)
        lse = zmax + np.log(_row_sum(np.exp(logits - zmax[:, None])))
        if batch.is_full:
            for a in (hid, logits, lse):
                a.flags.writeable = False  # shared with later calls
            self._memo = (key, hid, logits, lse)
        return x, lab, w2, hid, logits, lse

    def _forward(self, theta, batch):
        """``_logits`` plus the softmax probabilities, which only derivatives need."""
        x, lab, w2, hid, logits, lse = self._logits(theta, batch)
        return x, lab, w2, hid, logits, lse, np.exp(logits - lse[:, None])

    @staticmethod
    def _loss_from(fwd):
        lab, logits, lse = fwd[1], fwd[4], fwd[5]
        nll = lse - logits.take(lab)
        return float(nll.sum() / nll.size)  # np.mean's sum and division, bit for bit

    @staticmethod
    def _backward_seed(fwd):
        """The backward pass's seed: the loss's derivatives by logits and hidden units."""
        lab, w2, probs = fwd[1], fwd[2], fwd[6]
        dz = probs.copy()
        dz.reshape(-1)[lab] -= 1.0
        dz /= lab.size
        return dz, dz @ w2

    def _loss(self, theta, batch):
        return self._loss_from(self._logits(theta, batch))

    def _loss_and_grad(self, theta, batch):
        fwd = self._forward(theta, batch)
        x, hid = fwd[0], fwd[3]
        dz, dh = self._backward_seed(fwd)
        da = dh * (1.0 - hid**2)
        grad = self._pack(da.T @ x, da.sum(axis=0), dz.T @ hid, dz.sum(axis=0))
        return self._loss_from(fwd), grad

    def _linearize(self, theta, batch):
        # forward-over-reverse: the forward pass and the backward quantities of
        # the point are computed once; each block of directions (leading axis
        # j) is pushed through them and differentiates the backward pass
        fwd = self._forward(theta, batch)
        x, lab, w2, hid, _, _, probs = fwd
        b = lab.size
        sq = 1.0 - hid**2
        dz, dh = self._backward_seed(fwd)
        neg2hid = -2.0 * hid

        def kernel(v):
            u1, c1, u2, c2 = self._unpack(v.T)
            r_act = x @ u1.transpose(0, 2, 1) + c1[:, None]
            r_hid = sq * r_act
            r_logits = r_hid @ w2.T + hid @ u2.transpose(0, 2, 1) + c2[:, None]
            r_probs = probs * (r_logits - _row_sum(probs * r_logits)[..., None])
            r_dz = r_probs / b

            r_gw2 = r_dz.transpose(0, 2, 1) @ hid + dz.T @ r_hid
            r_gb2 = r_dz.sum(axis=1)
            r_dh = r_dz @ w2 + dz @ u2
            r_da = r_dh * sq + dh * (neg2hid * r_hid)
            r_gw1 = r_da.transpose(0, 2, 1) @ x
            r_gb1 = r_da.sum(axis=1)
            return self._pack(r_gw1, r_gb1, r_gw2, r_gb2).T

        return kernel

    def initial_point(self, seed: int) -> np.ndarray:
        d, h, c = self.widths
        rng = np.random.default_rng([int(seed), 7919])
        w1 = rng.standard_normal((h, d)) / np.sqrt(d)
        w2 = rng.standard_normal((c, h)) / np.sqrt(h)
        return self._pack(w1, np.zeros(h), w2, np.zeros(c))


mlp_synthetic = MlpProblem


# ---------------------------------------------------------------------------
# construction from a config section

# name -> (builder, the knobs its section takes besides "name"); each
# constructor checks its own arguments against its entry
_SEED = Knob(int, 0)
_PROBLEMS = {
    "quadratic": (quadratic, {"spectrum": Knob(float, 0, closed=False, required=True, many=True),
                              "seed": _SEED}),
    "rosenbrock": (rosenbrock, {"n": Knob(int, 2, required=True)}),
    "logreg": (logreg, {"n_features": Knob(int, 1, required=True),
                        "n_samples": Knob(int, 2, required=True), "seed": _SEED,
                        "reg": Knob(float, 0), "class_sep": Knob(float)}),
    "mlp": (mlp_synthetic, {"widths": Knob(int, 1, required=True, many=True),
                            "seed": _SEED, "n_samples": Knob(int, 1), "class_sep": Knob(float),
                            "input_gain": Knob(float, 0, closed=False)}),
}


def from_config(section: dict) -> Problem:
    """Build a problem from a config mapping: {"name": ..., <parameters>, "seed": ...}.

    The parameters are first checked against the named problem's knobs: a key
    it does not take, a missing one, or a value of the wrong type or out of
    range is an error, not ignored or truncated.
    """
    params = dict(section)
    name = params.pop("name", None)
    return check_knobs(_PROBLEMS, name, params, "problem")(**params)
