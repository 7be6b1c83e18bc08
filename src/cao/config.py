"""Declarative experiment configs (single JSON document; README has an example).

A config holds a ``name``, a ``problem`` section (checked against
``problems._PROBLEMS``), a list of ``optimizers`` (each a ``kind`` from
``optim.KINDS``, an optional ``label`` and that kind's knobs) and the values in
``_TOP``. ``batch_size`` 0 means full batch. ``alpha`` is the base learning
rate of every kind; the Adam rate must be stated explicitly, nothing is inherited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ContractViolationError, Knob, check_knobs
from .optim import KINDS


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
    label = entry.pop("label", kind)
    # the checks make_runner makes, before any run starts
    check_knobs(KINDS, kind, entry, f"optimizer {label!r} of kind")
    label = _path_component(label, f"optimizer #{index}: label")
    return OptimizerSpec(kind=kind, label=label, params=entry)


# the top-level values besides name and problem, checked as the one entry of a
# table under the config's name; any other top-level key is ignored
_TOP = {"optimizers": Knob(dict, many=True), "seeds": Knob(int, 0, many=True),
        "steps": Knob(int, 1), "threshold": Knob(float), "batch_size": Knob(int, 0),
        "eval_every": Knob(int, 1)}


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    missing = {"name", "problem", "optimizers", "seeds", "steps", "threshold"} - set(doc)
    if missing:
        raise ConfigError(f"config is missing required keys: {sorted(missing)}")
    name = _path_component(doc["name"], "name")
    if not isinstance(doc["problem"], dict):
        raise ConfigError("problem section must be a JSON object")
    try:
        check_knobs({name: (None, _TOP)}, name, {key: doc[key] for key in _TOP if key in doc},
                    "config")
        optimizers = [_parse_optimizer(o, i) for i, o in enumerate(doc["optimizers"])]
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from None
    labels = [o.label for o in optimizers]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"optimizer labels must be unique, got {labels}")
    seeds = doc["seeds"]
    # two runs of one (label, seed) would write the same log
    repeated = next((seed for i, seed in enumerate(seeds) if seed in seeds[:i]), None)
    if repeated is not None:
        raise ConfigError(f"seeds must be unique, got {repeated} twice in {seeds!r}")
    return ExperimentConfig(
        name=name,
        problem=dict(doc["problem"]),
        optimizers=tuple(optimizers),
        seeds=tuple(seeds),
        steps=doc["steps"],
        threshold=float(doc["threshold"]),
        batch_size=doc.get("batch_size", 0),
        eval_every=doc.get("eval_every", 1),
    )


def load_config(path) -> ExperimentConfig:
    """The checked config in the UTF-8 JSON file ``path``.

    A file that cannot be read or decoded is a ``ConfigError`` naming it.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable config ({exc})") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(doc)
