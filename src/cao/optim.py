"""Stepping loops: the curvature-adaptive optimizer plus SGD and Adam baselines.

Every step has the same skeleton, run under one ``np.errstate`` that silences
overflow and invalid-value warnings. ``_loss_and_grad`` evaluates the batch;
the rule turns the gradient into a direction ``d``; ``_update`` clips ``d``,
records the step (a non-finite loss, gradient norm or update norm raises
``DivergenceError`` carrying that record) and returns ``theta - lr * d``. A
gradient or direction whose norm overflows thus ends the run at its own step.
The rules differ only in the direction: SGD takes the
heavy-ball buffer, Adam the bias-corrected moment ratio, and the
curvature-adaptive step (``cao_step``) the damped low-rank inverse of a
rank-k Hessian sketch applied to the gradient, refreshing the sketch from
Hessian-vector products every ``m`` steps. With k = 0 it takes the gradient
itself, which makes it bit-identical to momentum-free SGD. A step knows
nothing of epochs: the harness sets each record's ``epoch``.

``KINDS`` gives each optimizer kind's state class and config knobs, each
with a type and a range; ``make_runner`` checks a config entry against it and
maps the entry onto a step function and its state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, Knob, NumericOverflowError, check_knobs
from .precondition import DampedPreconditioner, precondition
from .problems import Batch, Problem
from .sketch import LanczosConfig, block_lanczos

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaoConfig:
    """All knobs of the curvature-adaptive loop.

    k = 0 is the plain gradient step: no sketch is ever built, so ``eta``,
    ``m`` and ``t_pow`` do not act. A refresh sketches the Hessian of the
    current batch.
    """

    alpha: float
    k: int = 1
    m: int = 400
    eta: float = 0.1
    clip_c: float = 0.0
    t_pow: int = 10
    warm_steps: int = 0
    sketch_seed: int = 0

    def __post_init__(self):
        check_knobs(KINDS, "cao", {key: value for key, value in vars(self).items()
                                   if key != "sketch_seed"}, "optimizer kind")

    def planned_refreshes(self, steps: int) -> int:
        """Refreshes in a run of ``steps`` steps if every one succeeds.

        One at ``warm_steps``, then one at each later multiple of ``m`` below
        ``steps``; none with k = 0. Each costs ``(t_pow + 1) * k`` HVPs.
        """
        if self.k == 0 or self.warm_steps >= steps:
            return 0
        return 1 + (steps - 1) // self.m - self.warm_steps // self.m


@dataclass
class CaoState:
    """Iterate, step index, HVP count and the preconditioner of the last refresh.

    ``precond`` is None until the first successful refresh; it carries its
    sketch as ``precond.sketch``.
    """

    theta: np.ndarray
    step: int = 0
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
    loss: float
    grad_norm: float
    update_norm: float
    epoch: int = 0
    refreshed: bool = False
    eigvals: tuple = ()
    clamped: bool = False
    refresh_failed: bool = False
    eval_loss: float | None = None
    wall: float = 0.0


def _refresh_seed(base: int, step: int) -> int:
    return int(np.random.SeedSequence([int(base), int(step)]).generate_state(1)[0])


def _loss_and_grad(problem, theta, batch, step):
    """Loss and gradient of the batch, both finite.

    A numeric blow-up in the problem becomes a DivergenceError with a
    diagnostic record.
    """
    try:
        return problem.loss_and_grad(theta, batch)
    except NumericOverflowError as exc:
        record = StepRecord(step=step, loss=float("inf"), grad_norm=float("inf"),
                            update_norm=0.0)
        raise DivergenceError(f"iterate blew up at step {step}: {exc}",
                              record=record) from exc


def _norm(v) -> float:
    """``float(np.linalg.norm(v))`` of a 1-d float vector, without its dispatch."""
    return math.sqrt(v.dot(v))


def _clip(d, c):
    if c > 0:
        norm = _norm(d)
        if norm > c:
            d = d * (c / norm)
    return d


def _update(theta, step, loss, grad, d, lr, clip, refreshed=False, eigvals=(),
            clamped=False, refresh_failed=False):
    """Clip the direction, record the step and move; returns (new theta, record).

    Called inside the step's ``np.errstate``: a divergent step's norm
    overflows to inf, which is the value its record should carry. A
    non-finite loss, gradient norm or update norm raises ``DivergenceError``
    carrying the record instead of moving. The flags after ``clip`` are the
    record's sketch fields, which only ``cao_step`` sets.
    """
    d = _clip(d, clip)
    grad_norm, update_norm = _norm(grad), _norm(d)
    # positional, in field order (epoch 0: the harness sets it): keywords cost a third
    # of a microsecond more per step
    record = StepRecord(step, loss, grad_norm, update_norm, 0, refreshed, eigvals, clamped,
                        refresh_failed)
    if not (math.isfinite(loss) and math.isfinite(grad_norm) and math.isfinite(update_norm)):
        raise DivergenceError(f"non-finite loss or norm at step {step}", record=record)
    return theta - lr * d, record


def cao_step(state: CaoState, problem: Problem, batch: Batch, cfg: CaoConfig):
    """One curvature-adaptive update; returns (new state, record).

    The direction is the state's preconditioner applied to the gradient, or
    the gradient itself while there is none: with k = 0, or before the first
    successful refresh. Refresh happens when k > 0, the step index is past
    ``warm_steps``, and either no preconditioner exists yet or the index is a
    multiple of ``m``. A successful refresh builds the damped inverse of its
    sketch once, with the config's ``eta``; a failed one (non-finite
    products) keeps the previous preconditioner and is flagged in the record.
    ``hvp_calls`` grows by one per column of every block sent to the
    Hessian, so a successful refresh adds exactly ``(t_pow + 1) * k`` and a
    failed one the columns submitted up to and including the failing block.
    """
    theta, pc, hvp_calls = state.theta, state.precond, state.hvp_calls
    sketch, refresh_failed = None, False

    if cfg.k > 0 and state.step >= cfg.warm_steps and (pc is None or state.step % cfg.m == 0):
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
            sketch = block_lanczos(counted, problem.dim, lcfg)
        except NumericOverflowError:
            log.warning("sketch refresh failed at step %d; keeping previous sketch",
                        state.step)
            refresh_failed = True
        hvp_calls += calls

    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad = _loss_and_grad(problem, theta, batch, state.step)
        if sketch is not None:
            pc = DampedPreconditioner(sketch, cfg.eta)
        d = grad if pc is None else precondition(grad, pc)
        theta, record = _update(theta, state.step, loss, grad, d, cfg.alpha, cfg.clip_c,
                                refreshed=sketch is not None,
                                eigvals=() if pc is None else pc.eigvals,
                                clamped=pc is not None and pc.clamped,
                                refresh_failed=refresh_failed)
    return CaoState(theta, state.step + 1, hvp_calls, pc), record


def sgd_step(state: SgdState, problem: Problem, batch: Batch, lr: float,
             momentum: float = 0.0, clip: float = 0.0):
    """Heavy-ball SGD: buf <- momentum * buf + g, step along the (clipped) buffer."""
    theta = state.theta
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad = _loss_and_grad(problem, theta, batch, state.step)
        buf = np.zeros_like(theta) if state.velocity is None else state.velocity
        # a sum on the first step too: `buf = grad` would keep a -0.0 that the
        # sum turns into +0.0, and change the saved velocity's bits
        buf = momentum * buf + grad
        theta, record = _update(theta, state.step, loss, grad, buf, lr, clip)
    return SgdState(theta=theta, velocity=buf, step=state.step + 1), record


def adam_step(state: AdamState, problem: Problem, batch: Batch, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              clip: float = 0.0):
    """Bias-corrected Adam."""
    theta = state.theta
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad = _loss_and_grad(problem, theta, batch, state.step)
        m1 = np.zeros_like(theta) if state.m1 is None else state.m1
        m2 = np.zeros_like(theta) if state.m2 is None else state.m2
        t = state.step + 1
        m1 = beta1 * m1 + (1.0 - beta1) * grad
        m2 = beta2 * m2 + (1.0 - beta2) * grad**2
        m1_hat = m1 / (1.0 - beta1**t)
        m2_hat = m2 / (1.0 - beta2**t)
        d = m1_hat / (np.sqrt(m2_hat) + eps)
        theta, record = _update(theta, state.step, loss, grad, d, lr, clip)
    return AdamState(theta=theta, m1=m1, m2=m2, step=t), record


# ---------------------------------------------------------------------------
# the uniform wrapper used by the harness

_ALPHA, _POSITIVE = Knob(float, 0, closed=False, required=True), Knob(float, 0, closed=False)
_NONNEGATIVE, _UNIT = Knob(float, 0), Knob(float, 0, 1)

# each optimizer kind: its state class and its config knobs besides kind and label
KINDS = {
    "cao": (CaoState, {"alpha": _ALPHA, "k": Knob(int, 0), "m": Knob(int, 1),
                       "eta": _POSITIVE, "clip_c": _NONNEGATIVE, "t_pow": Knob(int, 1),
                       "warm_steps": Knob(int, 0)}),
    "sgd": (SgdState, {"alpha": _ALPHA, "momentum": _UNIT, "clip": _NONNEGATIVE}),
    "adam": (AdamState, {"alpha": _ALPHA, "beta1": _UNIT, "beta2": _UNIT, "eps": _POSITIVE,
                         "clip": _NONNEGATIVE}),
}


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

    def step(self, problem, batch) -> StepRecord:
        self.state, rec = self.step_fn(self.state, problem, batch, **self.params)
        return rec


def make_runner(kind: str, theta0, params: dict, seed: int) -> Runner:
    """Build a runner from an optimizer config entry's knobs (config key names).

    ``alpha`` becomes the baselines' ``lr``; ``seed`` is the ``sketch_seed``.
    An unknown kind, or knobs that do not fit ``KINDS[kind]``, raise
    ``ContractViolationError``. The step function is looked up now, so a
    wrapper put on ``cao_step``, ``sgd_step`` or ``adam_step`` sees every step
    of the run.
    """
    state_class = check_knobs(KINDS, kind, params, "optimizer kind")
    if kind == "cao":
        params = {"cfg": CaoConfig(**params, sketch_seed=seed)}
    else:
        params = dict(params)
        params["lr"] = params.pop("alpha")
    theta = np.asarray(theta0, dtype=np.float64).copy()
    return Runner(globals()[f"{kind}_step"], state_class(theta=theta), params)
