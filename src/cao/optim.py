"""Stepping loops: the curvature-adaptive optimizer plus SGD and Adam baselines.

Every step has the same skeleton, run under one ``np.errstate`` that silences
overflow and invalid-value warnings. ``_loss_and_grad`` evaluates the batch
and adds coupled weight decay to the gradient; the rule turns the gradient
into a direction ``d``; ``_update`` clips ``d``, records the step (a
non-finite loss, gradient norm or update norm raises ``DivergenceError``
carrying that record) and returns ``theta - lr * d``. A gradient or
direction whose norm overflows thus ends the run at its own step.
The rules differ only in the direction: SGD takes the
heavy-ball buffer, Adam the bias-corrected moment ratio, and the
curvature-adaptive step (``cao_step``) the damped low-rank inverse of a
rank-k Hessian sketch applied to the gradient, refreshing the sketch from
Hessian-vector products every ``m`` steps. With k = 0 it takes the gradient
itself, which makes it bit-identical to momentum-free SGD.

``make_runner`` maps a config entry onto a step function and its state,
rejecting a key outside its kind's ``_OPT_KEYS``, and the checkpoint
functions store any of the three states through its fields.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractViolationError, DivergenceError, NumericOverflowError, all_finite
from .precondition import DampedPreconditioner, precondition
from .problems import Batch, Problem
from .sketch import LanczosConfig, Sketch, block_lanczos

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaoConfig:
    """All knobs of the curvature-adaptive loop.

    ``k0_eta_scaled`` switches the k = 0 limit from a plain gradient step to
    the 1/eta-scaled variant (useful as an ablation baseline). A refresh
    sketches the Hessian of the current batch.
    """

    alpha: float
    k: int = 1
    m: int = 400
    eta: float = 0.1
    clip_c: float = 0.0
    weight_decay: float = 0.0
    t_pow: int = 10
    warm_steps: int = 0
    k0_eta_scaled: bool = False
    sketch_seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ContractViolationError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.k < 0:
            raise ContractViolationError(f"k must be >= 0, got {self.k}")
        if self.m < 1:
            raise ContractViolationError(f"m must be >= 1, got {self.m}")
        if not 0 < self.eta < math.inf:
            raise ContractViolationError(f"eta must be finite and > 0, got {self.eta}")
        if self.clip_c < 0 or self.weight_decay < 0 or self.warm_steps < 0:
            raise ContractViolationError("clip_c, weight_decay, warm_steps must be >= 0")
        if self.t_pow < 1:
            raise ContractViolationError(f"t_pow must be >= 1, got {self.t_pow}")


@dataclass
class CaoState:
    """Iterate, step index, current sketch and HVP count.

    ``precond`` caches the damped inverse of ``sketch``; it is derived state,
    rebuilt by ``cao_step`` whenever it does not match the sketch and the
    config (after a successful refresh, or on a state loaded from a
    checkpoint), and never saved.
    """

    theta: np.ndarray
    step: int = 0
    sketch: Sketch | None = None
    hvp_calls: int = 0
    precond: DampedPreconditioner | None = None


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


def _loss_and_grad(problem, theta, batch, step, epoch, weight_decay=0.0):
    """Loss and gradient with coupled weight decay added to the gradient.

    A numeric blow-up, in the problem or in the decayed gradient, becomes a
    DivergenceError with a diagnostic record. Called inside the step's
    ``np.errstate``, so an overflowing decay term is not warned about.
    """
    try:
        loss, grad = problem.loss_and_grad(theta, batch)
    except NumericOverflowError as exc:
        record = StepRecord(step=step, epoch=epoch, loss=float("inf"),
                            grad_norm=float("inf"), update_norm=0.0)
        raise DivergenceError(f"iterate blew up at step {step}: {exc}",
                              record=record) from exc
    if weight_decay:
        grad = grad + weight_decay * theta
        if not all_finite(grad):
            record = StepRecord(step=step, epoch=epoch, loss=loss,
                                grad_norm=_norm(grad), update_norm=0.0)
            raise DivergenceError(f"non-finite decayed gradient at step {step}",
                                  record=record)
    return loss, grad


def _norm(v) -> float:
    """``float(np.linalg.norm(v))`` of a 1-d float vector, without its dispatch."""
    return math.sqrt(v.dot(v))


def _clip(d, c):
    if c > 0:
        norm = _norm(d)
        if norm > c:
            d = d * (c / norm)
    return d


def _update(theta, step, epoch, loss, grad, d, lr, clip, **flags):
    """Clip the direction, record the step and move; returns (new theta, record).

    Called inside the step's ``np.errstate``: a divergent step's norm
    overflows to inf, which is the value its record should carry. A
    non-finite loss, gradient norm or update norm raises ``DivergenceError``
    carrying the record instead of moving.
    """
    d = _clip(d, clip)
    record = StepRecord(step=step, epoch=epoch, loss=loss, grad_norm=_norm(grad),
                        update_norm=_norm(d), **flags)
    if not (math.isfinite(loss) and math.isfinite(record.grad_norm)
            and math.isfinite(record.update_norm)):
        raise DivergenceError(f"non-finite loss or norm at step {step}", record=record)
    return theta - lr * d, record


def cao_step(state: CaoState, problem: Problem, batch: Batch, cfg: CaoConfig,
             epoch: int = 0):
    """One curvature-adaptive update; returns (new state, record).

    Refresh happens when k > 0, the step index is past ``warm_steps``, and
    either no sketch exists yet or the index is a multiple of ``m``. A failed
    refresh (non-finite products) keeps the previous sketch, and with it the
    previous preconditioner, and is flagged in the record. The preconditioner
    is built once per sketch. ``hvp_calls`` grows by one per column of every
    block sent to the Hessian, so a successful refresh adds exactly
    ``(t_pow + 1) * k`` and a failed one the columns submitted up to and
    including the failing block.
    """
    theta = state.theta
    sketch = state.sketch
    pc = state.precond
    hvp_calls = state.hvp_calls
    refreshed = False
    refresh_failed = False

    due = cfg.k > 0 and state.step >= cfg.warm_steps and (
        sketch is None or state.step % cfg.m == 0
    )
    if due:
        hvp = problem.hvp_closure(theta, batch)  # one linearization per refresh
        calls = 0

        def counted(block):
            # one HVP per column submitted, including those of a block whose
            # product turns out non-finite and fails the refresh
            nonlocal calls
            calls += block.shape[1]
            return hvp(block)

        lcfg = LanczosConfig(k=cfg.k, iters=cfg.t_pow,
                             seed=_refresh_seed(cfg.sketch_seed, state.step))
        try:
            sketch = block_lanczos(counted, problem.dim, lcfg, refreshed_at=state.step)
            refreshed = True
        except NumericOverflowError:
            log.warning("sketch refresh failed at step %d; keeping previous sketch",
                        state.step)
            refresh_failed = True
        hvp_calls += calls

    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad = _loss_and_grad(problem, theta, batch, state.step, epoch,
                                    cfg.weight_decay)
        if sketch is not None and (pc is None or pc.sketch is not sketch
                                   or pc.eta != cfg.eta):
            pc = DampedPreconditioner(sketch, cfg.eta)

        clamped = False
        if cfg.k == 0:
            d = grad / cfg.eta if cfg.k0_eta_scaled else grad
        elif sketch is None:
            d = grad  # refresh never succeeded yet; fall back to a plain step
        else:
            d = precondition(grad, pc)
            clamped = pc.clamped

        theta, record = _update(theta, state.step, epoch, loss, grad, d, cfg.alpha,
                                cfg.clip_c, refreshed=refreshed,
                                eigvals=() if sketch is None else pc.eigvals,
                                clamped=clamped, refresh_failed=refresh_failed)
    return CaoState(theta=theta, step=state.step + 1, sketch=sketch,
                    hvp_calls=hvp_calls, precond=pc), record


def sgd_step(state: SgdState, problem: Problem, batch: Batch, lr: float,
             momentum: float = 0.0, weight_decay: float = 0.0, clip: float = 0.0,
             epoch: int = 0):
    """Heavy-ball SGD: buf <- momentum * buf + g, step along the (clipped) buffer."""
    theta = state.theta
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad = _loss_and_grad(problem, theta, batch, state.step, epoch, weight_decay)
        buf = np.zeros_like(theta) if state.velocity is None else state.velocity
        # a sum on the first step too: `buf = grad` would keep a -0.0 that the
        # sum turns into +0.0, and change the saved velocity's bits
        buf = momentum * buf + grad
        theta, record = _update(theta, state.step, epoch, loss, grad, buf, lr, clip)
    return SgdState(theta=theta, velocity=buf, step=state.step + 1), record


def adam_step(state: AdamState, problem: Problem, batch: Batch, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              weight_decay: float = 0.0, clip: float = 0.0, epoch: int = 0):
    """Bias-corrected Adam with coupled decay."""
    theta = state.theta
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad = _loss_and_grad(problem, theta, batch, state.step, epoch, weight_decay)
        m1 = np.zeros_like(theta) if state.m1 is None else state.m1
        m2 = np.zeros_like(theta) if state.m2 is None else state.m2
        t = state.step + 1
        m1 = beta1 * m1 + (1.0 - beta1) * grad
        m2 = beta2 * m2 + (1.0 - beta2) * grad**2
        m1_hat = m1 / (1.0 - beta1**t)
        m2_hat = m2 / (1.0 - beta2**t)
        d = m1_hat / (np.sqrt(m2_hat) + eps)
        theta, record = _update(theta, state.step, epoch, loss, grad, d, lr, clip)
    return AdamState(theta=theta, m1=m1, m2=m2, step=t), record


# ---------------------------------------------------------------------------
# the uniform wrapper used by the harness

_STATES = {"cao": CaoState, "sgd": SgdState, "adam": AdamState}

# the config keys each optimizer kind takes (besides kind and label)
_OPT_KEYS = {
    "cao": {"alpha", "k", "m", "eta", "clip_c", "weight_decay", "t_pow",
            "warm_steps", "k0_eta_scaled"},
    "sgd": {"alpha", "momentum", "weight_decay", "clip"},
    "adam": {"alpha", "beta1", "beta2", "eps", "weight_decay", "clip"},
}

# admissible values of the baseline knobs: (low, high, low included); high is
# always excluded
_BOUNDS = {"alpha": (0.0, math.inf, False), "momentum": (0.0, 1.0, True),
           "beta1": (0.0, 1.0, True), "beta2": (0.0, 1.0, True),
           "eps": (0.0, math.inf, False), "weight_decay": (0.0, math.inf, True),
           "clip": (0.0, math.inf, True)}


class Runner:
    """One optimizer run: ``step_fn(state, problem, batch, **params)`` per step."""

    def __init__(self, step_fn, state, params: dict):
        self.step_fn, self.state, self.params = step_fn, state, params

    @property
    def theta(self):
        return self.state.theta

    @property
    def hvp_calls(self) -> int:
        return getattr(self.state, "hvp_calls", 0)

    def step(self, problem, batch, epoch=0) -> StepRecord:
        self.state, rec = self.step_fn(self.state, problem, batch, epoch=epoch,
                                       **self.params)
        return rec


def make_runner(kind: str, theta0, params: dict, seed: int) -> Runner:
    """Build a runner from an optimizer config entry's knobs (config key names).

    ``alpha`` becomes the baselines' ``lr``; ``seed`` is the ``sketch_seed``.
    A key outside ``_OPT_KEYS[kind]`` or a bad knob raises
    ``ContractViolationError`` (or ``TypeError`` for a cao knob of the wrong
    type). The step function is looked up now, so a wrapper put on
    ``cao_step``, ``sgd_step`` or ``adam_step`` sees every step of the run.
    """
    if kind not in _STATES:
        raise ContractViolationError(f"unknown optimizer kind {kind!r}")
    unknown = set(params) - _OPT_KEYS[kind]
    if unknown:
        raise ContractViolationError(f"unknown keys {sorted(unknown)}")
    if kind == "cao":
        params = {"cfg": CaoConfig(**params, sketch_seed=seed)}
    else:
        for key, value in params.items():
            low, high, closed = _BOUNDS[key]
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (low <= value if closed else low < value) or not value < high):
                raise ContractViolationError(
                    f"{key} must be a number in {'[' if closed else '('}{low:g}, {high:g}),"
                    f" got {value!r}")
        params = dict(params)
        params["lr"] = params.pop("alpha")
    theta = np.asarray(theta0, dtype=np.float64).copy()
    return Runner(globals()[f"{kind}_step"], _STATES[kind](theta=theta), params)


# ---------------------------------------------------------------------------
# checkpointing (format v1: numpy .npz archive, exact float64 round trip)

CHECKPOINT_FORMAT = 1


def save_checkpoint(path, state) -> None:
    """Write optimizer state to ``path`` (npz, format v1).

    Every field is stored under its own name except ``precond`` (derived, not
    saved), unset buffers (omitted) and the sketch, which is split into
    ``sketch_eigvals``, ``sketch_basis`` and ``sketch_refreshed_at``.
    """
    kind = next((k for k, cls in _STATES.items() if type(state) is cls), None)
    if kind is None:
        raise ContractViolationError(f"cannot checkpoint {type(state).__name__}")
    payload = {"format": np.int64(CHECKPOINT_FORMAT), "kind": np.str_(kind)}
    for f in fields(state):
        value = getattr(state, f.name)
        if f.name == "precond" or value is None:
            continue
        if f.name == "sketch":
            payload.update(sketch_eigvals=value.eigvals, sketch_basis=value.basis,
                           sketch_refreshed_at=np.int64(value.refreshed_at))
        else:
            payload[f.name] = np.int64(value) if f.type == "int" else value
    np.savez(path, **payload)


def load_checkpoint(path):
    """Read a state written by ``save_checkpoint``; round trip is exact."""
    with np.load(path, allow_pickle=False) as data:
        fmt = int(data["format"])
        if fmt != CHECKPOINT_FORMAT:
            raise ContractViolationError(f"unsupported checkpoint format {fmt}")
        kind = str(data["kind"])
        if kind not in _STATES:
            raise ContractViolationError(f"unknown checkpoint kind {kind!r}")
        values = {}
        for f in fields(_STATES[kind]):
            if f.name == "sketch" and "sketch_eigvals" in data:
                values["sketch"] = Sketch(data["sketch_eigvals"], data["sketch_basis"],
                                          refreshed_at=int(data["sketch_refreshed_at"]))
            elif f.name in data:
                values[f.name] = int(data[f.name]) if f.type == "int" else data[f.name]
        return _STATES[kind](**values)
