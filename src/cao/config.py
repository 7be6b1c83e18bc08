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
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ContractViolationError
from .optim import make_runner

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


def _path_component(value, key: str) -> str:
    """``value``, which names a directory of the log tree and so must be one path part."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or "/" in value or "\0" in value):
        raise ConfigError(f"{key} must be a non-empty string without '/' or NUL,"
                          f" and not '.' or '..', got {value!r}")
    return value


def _parse_optimizer(entry: dict, index: int) -> OptimizerSpec:
    entry = dict(entry)
    kind = entry.pop("kind", None)
    if kind not in _OPT_KINDS:
        raise ConfigError(f"optimizer #{index}: kind must be one of {_OPT_KINDS}, got {kind!r}")
    label = _path_component(entry.pop("label", kind), f"optimizer #{index}: label")
    if "alpha" not in entry:
        raise ConfigError(f"optimizer {label!r}: 'alpha' (base learning rate) is required")
    unknown = set(entry) - _OPT_KEYS[kind]
    if unknown:
        raise ConfigError(f"optimizer {label!r}: unknown keys {sorted(unknown)}")
    # the same checks the run makes, before any run starts
    try:
        make_runner(kind, (), entry, seed=0)
    except (ContractViolationError, TypeError) as exc:
        raise ConfigError(f"optimizer {label!r}: {exc}") from None
    return OptimizerSpec(kind=kind, label=label, params=entry)


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _int(doc: dict, key: str, low: int, default=None) -> int:
    """``doc[key]`` (or ``default``), which must be an int >= ``low``."""
    value = doc.get(key, default)
    if not _is_int(value, low):
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    missing = {"name", "problem", "optimizers", "seeds", "steps", "threshold"} - set(doc)
    if missing:
        raise ConfigError(f"config is missing required keys: {sorted(missing)}")
    name = _path_component(doc["name"], "name")
    if not isinstance(doc["problem"], dict):
        raise ConfigError("problem section must be a JSON object")
    entries = doc["optimizers"]
    if not isinstance(entries, list) or not all(isinstance(o, dict) for o in entries):
        raise ConfigError(f"optimizers must be a list of objects, got {entries!r}")
    optimizers = [_parse_optimizer(o, i) for i, o in enumerate(entries)]
    if not optimizers:
        raise ConfigError("config needs at least one optimizer")
    labels = [o.label for o in optimizers]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"optimizer labels must be unique, got {labels}")
    seeds = doc["seeds"]
    if not isinstance(seeds, list) or not all(_is_int(s, 0) for s in seeds):
        raise ConfigError(f"seeds must be a list of integers >= 0, got {seeds!r}")
    if not seeds:
        raise ConfigError("config needs at least one seed")
    # two runs of one (label, seed) would write the same log
    repeated = next((seed for i, seed in enumerate(seeds) if seed in seeds[:i]), None)
    if repeated is not None:
        raise ConfigError(f"seeds must be unique, got {repeated} twice in {seeds!r}")
    threshold = doc["threshold"]
    if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
            or not math.isfinite(threshold)):
        raise ConfigError(f"threshold must be a finite number, got {threshold!r}")
    return ExperimentConfig(
        name=name,
        problem=dict(doc["problem"]),
        optimizers=tuple(optimizers),
        seeds=tuple(seeds),
        steps=_int(doc, "steps", 1),
        threshold=float(threshold),
        batch_size=_int(doc, "batch_size", 0, default=0),
        eval_every=_int(doc, "eval_every", 1, default=1),
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
