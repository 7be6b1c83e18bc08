"""Line-delimited run logs: one JSON object per line, self-describing header.

Layout of a log file:
  line 1            header record ("type": "header") with the full config
  lines 2..N+1      step records ("type": "step")
  last line         summary record ("type": "summary")

Wall-clock fields ("wall", "wall_total") are the only nondeterministic
content; ``normalized_bytes`` strips them so reruns can be compared byte for
byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from .optim import StepRecord

LOG_FORMAT_VERSION = 1
WALL_KEYS = ("wall", "wall_total")


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _pyify(value):
    # header and summary carry caller-supplied config values, which may be
    # NumPy scalars; step records hold Python values only (see write_record)
    if isinstance(value, dict):
        return {k: _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


class RunLogWriter:
    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")

    def write_header(self, header: dict) -> None:
        payload = {"type": "header", "version": LOG_FORMAT_VERSION}
        payload.update(_pyify(header))
        self._fh.write(_dumps(payload) + "\n")

    def write_record(self, rec: StepRecord) -> None:
        # the optimizers fill every field with Python ints, floats, bools and a
        # tuple of floats, so the fields serialize as they are
        payload = {"type": "step", **vars(rec)}
        if payload["eval_loss"] is None:
            del payload["eval_loss"]
        self._fh.write(_dumps(payload) + "\n")

    def write_summary(self, summary: dict) -> None:
        payload = {"type": "summary"}
        payload.update(_pyify(summary))
        self._fh.write(_dumps(payload) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_runlog(path):
    """Parse a log file into (header, step records, summary)."""
    header, records, summary = None, [], None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("type")
            if kind == "header":
                header = obj
            elif kind == "step":
                records.append(obj)
            elif kind == "summary":
                summary = obj
    if header is None:
        raise ValueError(f"{path}: missing header line")
    return header, records, summary


def normalized_bytes(path) -> bytes:
    """Log content with wall-clock fields removed; stable across reruns."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            for key in WALL_KEYS:
                obj.pop(key, None)
            out.append(_dumps(obj))
    return ("\n".join(out) + "\n").encode()
