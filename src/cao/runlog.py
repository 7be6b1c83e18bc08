"""Line-delimited run logs: one JSON object per line, self-describing header.

Layout of a log file, blank and whitespace-only lines aside:
  line 1            header record ("type": "header") with the full config
  lines 2..N+1      step records ("type": "step")
  last line         summary record ("type": "summary"), absent if the run was cut

A log is written to ``<name>.part`` and renamed to its name when the writer
closes cleanly, so a run that fails or is killed leaves no file that looks
finished. The writer locks the ``.part``, so two processes never write one log.

Every line is strict JSON: a non-finite float is written as the string
"Infinity", "-Infinity" or "NaN", and a NumPy scalar as its ``.item()``. Header
and summary lines are written by the sorted ``json`` encoder (``_dumps``), step
lines by ``orjson.dumps``, whose spelling of a float (``0.0000125`` for json's
``1.25e-05``) may change between orjson versions. The values read back bit for
bit, so logs are compared through ``normalized_bytes``, which writes every line
with ``_dumps``.

``read_runlog`` decodes the header with ``json.loads`` and each other line with
``orjson.loads``. If orjson rejects a line (the bare ``NaN``/``Infinity`` tokens
of older logs, a number past the double range, a lone surrogate escape) or the
layout is broken, ``json`` decodes every line again, one at a time. Where orjson
accepts a log its values equal ``json``'s, with one exception: an int outside
[-2**63, 2**64) reads as the nearest float. No cao writer puts one in a step or
summary line (they hold counts); the header keeps such ints. orjson 3.8 has no
nesting limit and overflows the C stack on a deep enough value; a line of n
characters nests at most n / 2 deep, so a body with a line of ``_SHALLOW``
characters or more goes to ``json`` directly.

The cyclic collector is paused (``collector_paused``) while the lines decode:
the decoded values hold no cycles, so a collection then would only traverse
and promote them. ``harness._group_logs`` holds the same pause over each log
from its read until its records are reduced and dropped.

A fault raises ``ValueError`` naming the file and the first bad line: not JSON
on its own, not an object, no or an unknown "type", a step or summary before the
header, a second header or summary, a line after the summary.

``read_runlog`` turns coded strings in the summary back into floats, and in the
step records when the summary is missing or says "diverged": the steps of a run
that did not diverge are finite, so a finished log takes no extra pass. Header
values (config values, finite by check) stay as written.

Wall-clock fields ("wall", "wall_total") are the only nondeterministic
content; ``normalized_bytes`` strips them so reruns can be compared byte for
byte.
"""

from __future__ import annotations

import fcntl
import gc
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import orjson

from .errors import ConfigError

LOG_FORMAT_VERSION = 1
WALL_KEYS = ("wall", "wall_total")


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_STEP = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
_CODED = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}
_SHALLOW = 1000  # a body with a line at least this long is decoded by json


def _coded(x: float) -> str:
    """The string a non-finite float is written as."""
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _pyify(value):
    # NumPy scalars as their .item(), non-finite floats as their strings
    if isinstance(value, dict):
        return {k: _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return _coded(value)
    return value


class RunLogWriter:
    """One log, written to ``<path>.part`` and renamed to ``path`` by a clean close.

    The writer owns the ``.part`` by an exclusive ``flock`` until it closes, and
    only the owner renames. A second writer of the same log raises ``ConfigError``
    naming it before it changes a byte; a ``.part`` whose owner was killed, and its
    lock with it, is taken over. The owner empties it and removes a log at ``path``,
    so a run that fails leaves no finished-looking file there, not even an older run's.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._part = self.path.with_name(self.path.name + ".part")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._part, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            owned = os.fstat(fd)
            if not os.path.samestat(owned, os.stat(self._part)):
                raise FileNotFoundError  # renamed to its log by the owner before the lock
        except (BlockingIOError, FileNotFoundError):
            os.close(fd)
            raise ConfigError(f"{self.path}: another process is writing this run's log") from None
        if owned.st_size:  # a dead owner's bytes; ext4 writes back a truncated file at close
            os.ftruncate(fd, 0)
        self.path.unlink(missing_ok=True)
        self._fh = open(fd, "wb")

    def _write_object(self, payload: dict) -> None:
        """A header or summary line: ``payload`` by the sorted ``json`` encoder."""
        self._fh.write(_dumps(_pyify(payload)).encode() + b"\n")

    def write_header(self, header: dict) -> None:
        self._write_object({"type": "header", "version": LOG_FORMAT_VERSION, **header})

    def write_record(self, rec) -> None:
        """The line of ``rec``, an ``optim.StepRecord``."""
        fields = {"type": "step", **vars(rec)}
        if rec.eval_loss is None:
            del fields["eval_loss"]
        try:
            line = orjson.dumps(fields, option=_STEP)
        except TypeError:  # a NumPy scalar
            line = None
        if line is None or b"null" in line:
            # orjson writes a non-finite float as null, and no step field is null
            # otherwise; an int outside 64 bits raises TypeError here
            line = orjson.dumps(_pyify(fields), option=_STEP)
        self._fh.write(line)

    def write_summary(self, summary: dict) -> None:
        self._write_object({"type": "summary", **summary})

    def close(self) -> None:
        """Move the log to its final name, then close it, which gives up the ``.part``."""
        if not self._fh.closed:
            self._fh.flush()
            os.replace(self._part, self.path)
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()


_KINDS = ("header", "step", "summary")


def _layout_fault(value, previous):
    """What is wrong with a line after one of type ``previous`` (None: first line)."""
    if type(value) is not dict:
        return "not a JSON object"
    kind = value.get("type")
    if kind not in _KINDS:
        return f"unknown record type {kind!r}" if "type" in value else 'no "type" key'
    if previous is None:
        return None if kind == "header" else f"{kind} line before the header"
    if kind == "header":
        return "second header"
    if previous == "summary":
        return "second summary" if kind == "summary" else f"{kind} line after the summary"
    return None


def _json_lines(path, text):
    """(objects, types) of ``text``'s non-blank lines, decoded by ``json`` one at a time;
    ``ValueError`` names the first line that is no JSON or breaks the layout."""
    values, kinds = [], []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
        fault = _layout_fault(value, kinds[-1] if kinds else None)
        if fault is not None:
            raise ValueError(f"{path}: line {number}: {fault}")
        kinds.append(value.pop("type"))
        values.append(value)
    if not values:
        raise ValueError(f"{path}: missing header line")
    return values, kinds


@contextmanager
def collector_paused():
    """Keep the cyclic collector off in the block, then leave it as it was found."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _decode(path):
    """(objects, types) of a log's non-blank lines, each object with its "type" popped."""
    with open(path) as fh:
        text = fh.read()
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    # the values hold no cycles: a collection during the decode only promotes them
    with collector_paused():
        # orjson, which has no nesting limit, decodes one line at a time: a line of n
        # characters nests at most n / 2 deep, below _SHALLOW well inside json's limit
        if lines and max(map(len, lines[1:]), default=0) < _SHALLOW:
            try:
                # the header with json: orjson reads an int past 64 bits as a float
                values = [json.loads(lines[0]), *map(orjson.loads, lines[1:])]
            except (ValueError, RecursionError):
                values = [None]  # json names the line
            if {dict}.issuperset(map(type, values)):
                kinds = [value.pop("type", None) for value in values]
                steps = len(kinds) - 1 - (kinds[-1] == "summary")
                if kinds[0] == "header" and kinds.count("step") == steps:
                    return values, kinds
        return _json_lines(path, text)


def _uncode(obj: dict) -> None:
    """Turn the coded non-finite floats among ``obj``'s values and list items back into floats."""
    for key, value in obj.items():
        if type(value) is str:
            obj[key] = _CODED.get(value, value)
        elif type(value) is list and str in map(type, value):
            obj[key] = [_CODED.get(x, x) if type(x) is str else x for x in value]


def read_runlog(path):
    """Parse a log file into (header, step records, summary); summary may be None."""
    values, kinds = _decode(path)
    if kinds[-1] == "summary":
        header, records, summary = values[0], values[1:-1], values[-1]
        _uncode(summary)
    else:
        header, records, summary = values[0], values[1:], None
    if summary is None or summary.get("diverged") is True:
        for rec in records:
            _uncode(rec)
    return header, records, summary


def normalized_bytes(path) -> bytes:
    """Log content with wall-clock fields removed; stable across reruns.

    Read as ``read_runlog`` reads, so the same faults raise.
    """
    values, kinds = _decode(path)
    out = []
    for obj, kind in zip(values, kinds):
        obj["type"] = kind  # the encoder sorts keys
        for key in WALL_KEYS:
            obj.pop(key, None)
        try:
            out.append(_dumps(obj))
        except ValueError:  # an older log's bare non-finite token: coded as the writer codes it
            out.append(_dumps(_pyify(obj)))
    return ("\n".join(out) + "\n").encode()
