"""Stepping loops: the curvature-adaptive optimizer plus SGD and Adam baselines.

The curvature-adaptive step (``cao_step``) refreshes a rank-k Hessian sketch
every ``m`` steps from Hessian-vector products on the current batch, applies
the damped low-rank inverse to the (weight-decayed) gradient, optionally
clips the resulting direction, and takes a constant-stepsize update. All
three optimizers share the same record format so runs are directly
comparable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, DivergenceError, NumericOverflowError
from .precondition import DampedPreconditioner, precondition
from .problems import Batch, Problem
from .sketch import LanczosConfig, Sketch, block_lanczos

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaoConfig:
    """All knobs of the curvature-adaptive loop.

    ``k0_eta_scaled`` switches the k = 0 limit from a plain gradient step to
    the 1/eta-scaled variant (useful as an ablation baseline).
    ``sketch_batch_size`` draws a dedicated seeded batch of that size for
    each refresh instead of reusing the current batch (reduces estimate
    noise on stochastic problems); ``None`` keeps the current batch.
    """

    alpha: float
    k: int = 1
    m: int = 400
    eta: float = 0.1
    clip_c: float = 0.0
    weight_decay: float = 0.0
    t_pow: int = 10
    warm_steps: int = 0
    floor: float = 1e-8
    k0_eta_scaled: bool = False
    sketch_seed: int = 0
    sketch_batch_size: int | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ContractViolationError(f"alpha must be > 0, got {self.alpha}")
        if self.k < 0:
            raise ContractViolationError(f"k must be >= 0, got {self.k}")
        if self.m < 1:
            raise ContractViolationError(f"m must be >= 1, got {self.m}")
        if not self.eta > 0:
            raise ContractViolationError(f"eta must be > 0, got {self.eta}")
        if self.clip_c < 0 or self.weight_decay < 0 or self.warm_steps < 0:
            raise ContractViolationError("clip_c, weight_decay, warm_steps must be >= 0")
        if self.t_pow < 1:
            raise ContractViolationError(f"t_pow must be >= 1, got {self.t_pow}")
        if self.sketch_batch_size is not None and self.sketch_batch_size < 1:
            raise ContractViolationError("sketch_batch_size must be >= 1 when set")


@dataclass
class CaoState:
    theta: np.ndarray
    step: int = 0
    sketch: Sketch | None = None
    hvp_calls: int = 0


@dataclass
class SgdState:
    theta: np.ndarray
    velocity: np.ndarray | None = None
    step: int = 0


@dataclass
class AdamState:
    theta: np.ndarray
    m1: np.ndarray | None = None
    m2: np.ndarray | None = None
    step: int = 0


@dataclass
class StepRecord:
    step: int
    epoch: int
    loss: float
    grad_norm: float
    update_norm: float
    refreshed: bool = False
    eigvals: tuple = ()
    clamped: bool = False
    refresh_failed: bool = False
    eval_loss: float | None = None
    wall: float = 0.0


def _refresh_seed(base: int, step: int) -> int:
    return int(np.random.SeedSequence([int(base), int(step)]).generate_state(1)[0])


def _loss_and_grad(problem, theta, batch, step, epoch):
    """Evaluate; a numeric blow-up becomes a DivergenceError with a diagnostic record."""
    try:
        loss = problem.loss(theta, batch)
        grad = problem.grad(theta, batch)
    except NumericOverflowError as exc:
        record = StepRecord(step=step, epoch=epoch, loss=float("inf"),
                            grad_norm=float("inf"), update_norm=0.0)
        raise DivergenceError(f"iterate blew up at step {step}: {exc}",
                              record=record) from exc
    return loss, grad


def _clip(d, c):
    if c > 0:
        norm = float(np.linalg.norm(d))
        if norm > c:
            d = d * (c / norm)
    return d


def cao_step(state: CaoState, problem: Problem, batch: Batch, cfg: CaoConfig,
             epoch: int = 0):
    """One curvature-adaptive update; returns (new state, record).

    Refresh happens when k > 0, the step index is past ``warm_steps``, and
    either no sketch exists yet or the index is a multiple of ``m``. A failed
    refresh (non-finite products) keeps the previous sketch and is flagged in
    the record. ``hvp_calls`` grows by one per column of every block sent to
    the Hessian, so a successful refresh adds exactly ``(t_pow + 1) * k`` and a
    failed one the columns submitted up to and including the failing block.
    A non-finite loss raises ``DivergenceError`` carrying the diagnostic
    record.
    """
    theta = state.theta
    sketch = state.sketch
    hvp_calls = state.hvp_calls
    refreshed = False
    refresh_failed = False

    due = cfg.k > 0 and state.step >= cfg.warm_steps and (
        sketch is None or state.step % cfg.m == 0
    )
    if due:
        sketch_batch = batch
        if cfg.sketch_batch_size is not None and problem.num_samples > 0:
            size = min(cfg.sketch_batch_size, problem.num_samples)
            rng = np.random.default_rng([int(cfg.sketch_seed), 555, state.step])
            sketch_batch = Batch(indices=rng.choice(problem.num_samples, size=size,
                                                    replace=False))
        calls = 0

        def counted(block):
            # one HVP per column submitted, including those of a block whose
            # product turns out non-finite and fails the refresh
            nonlocal calls
            calls += block.shape[1]
            return problem.hvp_block(theta, block, sketch_batch)

        lcfg = LanczosConfig(k=cfg.k, iters=cfg.t_pow,
                             seed=_refresh_seed(cfg.sketch_seed, state.step))
        try:
            sketch = replace(block_lanczos(counted, problem.dim, lcfg),
                             refreshed_at=state.step)
            refreshed = True
        except NumericOverflowError:
            log.warning("sketch refresh failed at step %d; keeping previous sketch",
                        state.step)
            refresh_failed = True
        hvp_calls += calls

    loss, grad = _loss_and_grad(problem, theta, batch, state.step, epoch)
    if cfg.weight_decay:
        grad = grad + cfg.weight_decay * theta

    clamped = False
    if cfg.k == 0:
        d = grad / cfg.eta if cfg.k0_eta_scaled else grad
    elif sketch is None:
        d = grad  # refresh never succeeded yet; fall back to a plain step
    else:
        pc = DampedPreconditioner(sketch, cfg.eta, cfg.floor)
        d = precondition(grad, pc)
        clamped = pc.clamped

    d = _clip(d, cfg.clip_c)

    record = StepRecord(
        step=state.step,
        epoch=epoch,
        loss=loss,
        grad_norm=float(np.linalg.norm(grad)),
        update_norm=float(np.linalg.norm(d)),
        refreshed=refreshed,
        eigvals=() if sketch is None else tuple(float(x) for x in sketch.eigvals),
        clamped=clamped,
        refresh_failed=refresh_failed,
    )
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss at step {state.step}", record=record)

    theta = theta - cfg.alpha * d
    return CaoState(theta=theta, step=state.step + 1, sketch=sketch,
                    hvp_calls=hvp_calls), record


def run_epoch(state: CaoState, problem: Problem, loader_schedule, cfg: CaoConfig,
              epoch: int = 0):
    """Apply ``cao_step`` over one batch schedule, collecting records."""
    records = []
    for batch in loader_schedule:
        state, rec = cao_step(state, problem, batch, cfg, epoch=epoch)
        records.append(rec)
    return state, records


def sgd_step(state: SgdState, problem: Problem, batch: Batch, lr: float,
             momentum: float = 0.0, weight_decay: float = 0.0, clip: float = 0.0,
             epoch: int = 0):
    """Heavy-ball SGD: buf <- momentum * buf + g, step along the (clipped) buffer.

    Decay is added to the gradient and clipping applied to the update, in the
    same order as the curvature-adaptive loop.
    """
    theta = state.theta
    loss, grad = _loss_and_grad(problem, theta, batch, state.step, epoch)
    if weight_decay:
        grad = grad + weight_decay * theta
    buf = np.zeros_like(theta) if state.velocity is None else state.velocity
    buf = momentum * buf + grad
    d = _clip(buf, clip)
    record = StepRecord(step=state.step, epoch=epoch, loss=loss,
                        grad_norm=float(np.linalg.norm(grad)),
                        update_norm=float(np.linalg.norm(d)))
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss at step {state.step}", record=record)
    theta = theta - lr * d
    return SgdState(theta=theta, velocity=buf, step=state.step + 1), record


def adam_step(state: AdamState, problem: Problem, batch: Batch, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps_adam: float = 1e-8,
              weight_decay: float = 0.0, clip: float = 0.0, epoch: int = 0):
    """Bias-corrected Adam with coupled decay; clipping on the final direction."""
    theta = state.theta
    loss, grad = _loss_and_grad(problem, theta, batch, state.step, epoch)
    if weight_decay:
        grad = grad + weight_decay * theta
    m1 = np.zeros_like(theta) if state.m1 is None else state.m1
    m2 = np.zeros_like(theta) if state.m2 is None else state.m2
    t = state.step + 1
    m1 = beta1 * m1 + (1.0 - beta1) * grad
    m2 = beta2 * m2 + (1.0 - beta2) * grad**2
    m1_hat = m1 / (1.0 - beta1**t)
    m2_hat = m2 / (1.0 - beta2**t)
    d = m1_hat / (np.sqrt(m2_hat) + eps_adam)
    d = _clip(d, clip)
    record = StepRecord(step=state.step, epoch=epoch, loss=loss,
                        grad_norm=float(np.linalg.norm(grad)),
                        update_norm=float(np.linalg.norm(d)))
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss at step {state.step}", record=record)
    theta = theta - lr * d
    return AdamState(theta=theta, m1=m1, m2=m2, step=t), record


# ---------------------------------------------------------------------------
# uniform wrappers used by the harness


class _Runner:
    kind: str

    @property
    def theta(self):
        return self.state.theta

    @property
    def hvp_calls(self) -> int:
        return 0

    def step(self, problem, batch, epoch=0) -> StepRecord:
        raise NotImplementedError


class CaoRunner(_Runner):
    kind = "cao"

    def __init__(self, theta0, cfg: CaoConfig):
        self.cfg = cfg
        self.state = CaoState(theta=np.asarray(theta0, dtype=np.float64).copy())

    @property
    def hvp_calls(self):
        return self.state.hvp_calls

    def step(self, problem, batch, epoch=0):
        self.state, rec = cao_step(self.state, problem, batch, self.cfg, epoch=epoch)
        return rec


class SgdRunner(_Runner):
    kind = "sgd"

    def __init__(self, theta0, lr, momentum=0.0, weight_decay=0.0, clip=0.0):
        self.lr, self.momentum = lr, momentum
        self.weight_decay, self.clip = weight_decay, clip
        self.state = SgdState(theta=np.asarray(theta0, dtype=np.float64).copy())

    def step(self, problem, batch, epoch=0):
        self.state, rec = sgd_step(self.state, problem, batch, self.lr, self.momentum,
                                   self.weight_decay, self.clip, epoch=epoch)
        return rec


class AdamRunner(_Runner):
    kind = "adam"

    def __init__(self, theta0, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0, clip=0.0):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay, self.clip = weight_decay, clip
        self.state = AdamState(theta=np.asarray(theta0, dtype=np.float64).copy())

    def step(self, problem, batch, epoch=0):
        self.state, rec = adam_step(self.state, problem, batch, self.lr, self.beta1,
                                    self.beta2, self.eps, self.weight_decay,
                                    self.clip, epoch=epoch)
        return rec


def make_runner(kind: str, theta0, params: dict) -> _Runner:
    """Build a stepping wrapper from an optimizer config entry."""
    params = dict(params)
    if kind == "cao":
        return CaoRunner(theta0, CaoConfig(**params))
    if kind == "sgd":
        return SgdRunner(theta0, **params)
    if kind == "adam":
        return AdamRunner(theta0, **params)
    raise ContractViolationError(f"unknown optimizer kind {kind!r}")


# ---------------------------------------------------------------------------
# checkpointing (format v1: numpy .npz archive, exact float64 round trip)

CHECKPOINT_FORMAT = 1


def save_checkpoint(path, state) -> None:
    """Write optimizer state to ``path`` (npz, format v1)."""
    payload = {"format": np.int64(CHECKPOINT_FORMAT), "step": np.int64(state.step),
               "theta": state.theta}
    if isinstance(state, CaoState):
        payload["kind"] = np.str_("cao")
        payload["hvp_calls"] = np.int64(state.hvp_calls)
        if state.sketch is not None:
            payload["sketch_eigvals"] = state.sketch.eigvals
            payload["sketch_basis"] = state.sketch.basis
            payload["sketch_refreshed_at"] = np.int64(state.sketch.refreshed_at)
    elif isinstance(state, SgdState):
        payload["kind"] = np.str_("sgd")
        if state.velocity is not None:
            payload["velocity"] = state.velocity
    elif isinstance(state, AdamState):
        payload["kind"] = np.str_("adam")
        if state.m1 is not None:
            payload["m1"] = state.m1
            payload["m2"] = state.m2
    else:
        raise ContractViolationError(f"cannot checkpoint {type(state).__name__}")
    np.savez(path, **payload)


def load_checkpoint(path):
    """Read a state written by ``save_checkpoint``; round trip is exact."""
    with np.load(path, allow_pickle=False) as data:
        fmt = int(data["format"])
        if fmt != CHECKPOINT_FORMAT:
            raise ContractViolationError(f"unsupported checkpoint format {fmt}")
        kind = str(data["kind"])
        step = int(data["step"])
        theta = data["theta"]
        if kind == "cao":
            sketch = None
            if "sketch_eigvals" in data:
                sketch = Sketch(data["sketch_eigvals"], data["sketch_basis"],
                                refreshed_at=int(data["sketch_refreshed_at"]))
            return CaoState(theta=theta, step=step, sketch=sketch,
                            hvp_calls=int(data["hvp_calls"]))
        if kind == "sgd":
            vel = data["velocity"] if "velocity" in data else None
            return SgdState(theta=theta, velocity=vel, step=step)
        if kind == "adam":
            m1 = data["m1"] if "m1" in data else None
            m2 = data["m2"] if "m2" in data else None
            return AdamState(theta=theta, m1=m1, m2=m2, step=step)
    raise ContractViolationError(f"unknown checkpoint kind {kind!r}")
