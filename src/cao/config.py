"""Declarative experiment configs (single JSON document).

Schema (see README for the full field reference):

    {
      "name": "quad-skew-speedup",
      "problem": {"name": "quadratic", "spectrum": [...], "seed": 7},
      "optimizers": [
        {"kind": "cao", "label": "cao-k1", "alpha": 0.02, "k": 1, "m": 50,
         "eta": 1.0, "t_pow": 10},
        {"kind": "sgd", "alpha": 0.02, "momentum": 0.0},
        {"kind": "adam", "alpha": 0.01}
      ],
      "seeds": [0, 1, 2],
      "steps": 1500,
      "batch_size": 0,
      "threshold": 1.0,
      "eval_every": 1
    }

``batch_size`` 0 means full batch. ``alpha`` is the base learning rate for
every optimizer kind (the Adam rate must be stated explicitly; nothing is
inherited).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ContractViolationError
from .optim import CaoConfig

_OPT_KINDS = ("cao", "sgd", "adam")

# accepted hyperparameter keys per optimizer kind (besides kind/label)
_OPT_KEYS = {
    "cao": {"alpha", "k", "m", "eta", "clip_c", "weight_decay", "t_pow",
            "warm_steps", "floor", "k0_eta_scaled", "sketch_batch_size"},
    "sgd": {"alpha", "momentum", "weight_decay", "clip"},
    "adam": {"alpha", "beta1", "beta2", "eps", "weight_decay", "clip"},
}


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str
    label: str
    params: dict

    def runner_params(self) -> dict:
        """Map config keys onto runner constructor arguments."""
        params = dict(self.params)
        if self.kind in ("sgd", "adam"):
            params["lr"] = params.pop("alpha")
        return params


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    problem: dict
    optimizers: tuple
    seeds: tuple
    steps: int
    threshold: float
    batch_size: int = 0
    eval_every: int = 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "problem": dict(self.problem),
            "optimizers": [
                {"kind": o.kind, "label": o.label, **o.params} for o in self.optimizers
            ],
            "seeds": list(self.seeds),
            "steps": self.steps,
            "threshold": self.threshold,
            "batch_size": self.batch_size,
            "eval_every": self.eval_every,
        }


def _parse_optimizer(entry: dict, index: int) -> OptimizerSpec:
    entry = dict(entry)
    kind = entry.pop("kind", None)
    if kind not in _OPT_KINDS:
        raise ConfigError(f"optimizer #{index}: kind must be one of {_OPT_KINDS}, got {kind!r}")
    label = entry.pop("label", None) or kind
    if "alpha" not in entry:
        raise ConfigError(f"optimizer {label!r}: 'alpha' (base learning rate) is required")
    unknown = set(entry) - _OPT_KEYS[kind]
    if unknown:
        raise ConfigError(f"optimizer {label!r}: unknown keys {sorted(unknown)}")
    if kind == "cao":
        # the same checks the run would make, before any run starts
        try:
            CaoConfig(**entry)
        except (ContractViolationError, TypeError) as exc:
            raise ConfigError(f"optimizer {label!r}: {exc}") from None
    return OptimizerSpec(kind=kind, label=label, params=entry)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    missing = {"name", "problem", "optimizers", "seeds", "steps", "threshold"} - set(doc)
    if missing:
        raise ConfigError(f"config is missing required keys: {sorted(missing)}")
    optimizers = [_parse_optimizer(o, i) for i, o in enumerate(doc["optimizers"])]
    if not optimizers:
        raise ConfigError("config needs at least one optimizer")
    labels = [o.label for o in optimizers]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"optimizer labels must be unique, got {labels}")
    seeds = tuple(int(s) for s in doc["seeds"])
    if not seeds:
        raise ConfigError("config needs at least one seed")
    steps = int(doc["steps"])
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    eval_every = int(doc.get("eval_every", 1))
    if eval_every < 1:
        raise ConfigError("eval_every must be >= 1")
    batch_size = int(doc.get("batch_size", 0))
    if batch_size < 0:
        raise ConfigError("batch_size must be >= 0 (0 = full batch)")
    return ExperimentConfig(
        name=str(doc["name"]),
        problem=dict(doc["problem"]),
        optimizers=tuple(optimizers),
        seeds=seeds,
        steps=steps,
        threshold=float(doc["threshold"]),
        batch_size=batch_size,
        eval_every=eval_every,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(doc)
