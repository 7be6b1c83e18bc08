"""Line-delimited run logs: one JSON object per line, self-describing header.

Layout of a log file, blank and whitespace-only lines aside:
  line 1            header record ("type": "header") with the full config
  lines 2..N+1      step records ("type": "step")
  last line         summary record ("type": "summary"), absent if the run was cut

A log is written to ``<name>.part`` and renamed to its name when the writer
closes cleanly, so a run that fails or is killed leaves no file that looks
finished.

``read_runlog`` decodes the first non-blank line, the header, with
``json.loads``, and the step and summary lines with one ``orjson.loads`` each.
Where orjson rejects a line, one ``json.loads`` of all those lines joined into a
JSON array decodes them: orjson rejects the bare ``NaN``/``Infinity`` tokens of
older logs, a number past the double range (which ``json`` reads as infinite)
and a lone surrogate escape. Where orjson accepts a log its values equal
``json``'s, floats bit for bit, with one exception: an int outside
[-2**63, 2**64) reads as the nearest float. The header keeps such ints, as
config values are unbounded; no cao writer puts one in a step or summary line
(they hold counts), so only a hand-edited log can. orjson 3.8 has no nesting
limit and overflows the C stack on a deep enough value. A line of n characters
nests at most n / 2 deep on its own, so orjson only decodes lines one at a time,
and a body with a line of 1000 characters (``_SHALLOW``) or more goes to
``json`` directly.

The cyclic collector is paused (``collector_paused``) while the lines decode:
the decoded values hold no cycles, so a collection then would only traverse
and promote them. ``harness._group_logs`` holds the same pause over each log
from its read until its records are reduced and dropped.

The decoded values must be as many objects as lines, in the layout above, each
with a known "type". Any fault raises ``ValueError`` naming the file and the
first bad line: not JSON on its own, not an object, no or an unknown "type", a
step or summary before the header, a second header or summary, a line after the
summary.

Every line is strict JSON: a non-finite float is written as the string
"Infinity", "-Infinity" or "NaN". ``read_runlog`` turns such strings in the
summary back into floats, and in the step records when the summary is missing
or says "diverged": the steps of a run that did not diverge are finite, so a
finished log takes no extra pass. Older logs hold the bare tokens, which it
reads as well. Header values (config values, finite by check) stay as written.

Wall-clock fields ("wall", "wall_total") are the only nondeterministic
content; ``normalized_bytes`` strips them so reruns can be compared byte for
byte.
"""

from __future__ import annotations

import gc
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import NoReturn

import orjson

from .optim import StepRecord

LOG_FORMAT_VERSION = 1
WALL_KEYS = ("wall", "wall_total")


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite
_BOOL = ("false", "true")  # indexed by an exact bool
_CODED = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}
_SHALLOW = 1000  # a body with a line at least this long is decoded by json


def _coded(x: float) -> str:
    """The string a non-finite float is written as."""
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _value(x) -> str:
    """``_dumps(x)``, with the types of a step record's fields written directly.

    Finite floats and ints are written with the ``__repr__`` that ``json``
    itself uses, booleans as ``true``/``false``, a tuple item by item and a
    non-finite float (NumPy's too) as its string; every other value goes
    through ``_dumps``.
    """
    t = type(x)
    if t is float and _isfinite(x):
        return _float_repr(x)
    if t is bool:
        return _BOOL[x]
    if t is int:
        return _int_repr(x)
    if t is tuple:
        return "[" + ",".join(map(_value, x)) + "]"
    if isinstance(x, float):  # not finite, or a finite float subclass
        return _dumps(x) if _isfinite(x) else f'"{_coded(x)}"'
    return _dumps(x)


def _pyify(value):
    # header and summary carry caller-supplied config values, which may be
    # NumPy scalars; step records hold Python values only (see write_record)
    if isinstance(value, dict):
        return {k: _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float) and not _isfinite(value):
        return _coded(value)
    return value


class RunLogWriter:
    """One log, written to ``<path>.part`` and renamed to ``path`` by a clean close.

    A log already at ``path`` is removed on open, so a run that fails leaves no
    finished-looking file there, not even an older run's.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._part = self.path.with_name(self.path.name + ".part")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        self._fh = open(self._part, "w")

    def write_header(self, header: dict) -> None:
        payload = {"type": "header", "version": LOG_FORMAT_VERSION}
        payload.update(_pyify(header))
        self._fh.write(_dumps(payload) + "\n")

    def write_record(self, rec: StepRecord) -> None:
        # the fields in sorted key order; the line equals
        # _dumps({"type": "step", **vars(rec)}) with a None eval_loss left out
        v = _value
        eval_loss = "" if rec.eval_loss is None else f'"eval_loss":{v(rec.eval_loss)},'
        loss, grad_norm, update_norm, wall = rec.loss, rec.grad_norm, rec.update_norm, rec.wall
        clamped, refresh_failed, refreshed = rec.clamped, rec.refresh_failed, rec.refreshed
        if (type(loss) is float and type(grad_norm) is float
                and type(update_norm) is float and type(wall) is float
                # finite only if every term is: an inf or NaN term, or a sum
                # that overflows, takes _value's path below
                and _isfinite(loss + grad_norm + update_norm + wall)
                and type(clamped) is bool and type(refresh_failed) is bool
                and type(refreshed) is bool):
            f, b = _float_repr, _BOOL
            (clamped, eigvals, epoch, grad_norm, loss, refresh_failed, refreshed, step,
             update_norm, wall) = (
                b[clamped], v(rec.eigvals), v(rec.epoch), f(grad_norm), f(loss),
                b[refresh_failed], b[refreshed], v(rec.step), f(update_norm), f(wall))
        else:
            # in key order, so the first field that cannot be written is the one that raises
            (clamped, eigvals, epoch, grad_norm, loss, refresh_failed, refreshed, step,
             update_norm, wall) = map(v, (
                clamped, rec.eigvals, rec.epoch, grad_norm, loss,
                refresh_failed, refreshed, rec.step, update_norm, wall))
        self._fh.write(
            f'{{"clamped":{clamped},"eigvals":{eigvals},'
            f'"epoch":{epoch},{eval_loss}"grad_norm":{grad_norm},'
            f'"loss":{loss},"refresh_failed":{refresh_failed},'
            f'"refreshed":{refreshed},"step":{step},"type":"step",'
            f'"update_norm":{update_norm},"wall":{wall}}}\n')

    def write_summary(self, summary: dict) -> None:
        payload = {"type": "summary"}
        payload.update(_pyify(summary))
        self._fh.write(_dumps(payload) + "\n")

    def close(self) -> None:
        """Close and move the log to its final name."""
        if not self._fh.closed:
            self._fh.close()
            os.replace(self._part, self.path)

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


def _reject(path, text) -> NoReturn:
    """Raise for the first line of ``text`` that breaks the layout, decoding line by line."""
    previous = None
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
        fault = _layout_fault(value, previous)
        if fault is not None:
            raise ValueError(f"{path}: line {number}: {fault}")
        previous = value["type"]
    raise ValueError(f"{path}: missing header line")


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
    # orjson, which has no nesting limit, decodes one line at a time: a line of n
    # characters nests at most n / 2 deep, below _SHALLOW well inside json's limit
    shallow = max(map(len, lines[1:]), default=0) < _SHALLOW
    # the values hold no cycles: a collection during the decode only promotes them
    with collector_paused():
        try:
            # the header with json: orjson reads an int past 64 bits as a float
            values = [json.loads(lines[0])] if lines else []
            body = None
            if shallow:
                try:
                    body = list(map(orjson.loads, lines[1:]))
                except orjson.JSONDecodeError:
                    pass  # json decides
            if body is None:
                # json decodes the array in this frame, one above _reject's line by
                # line decode: up to Python 3.11, where json counts its nesting
                # against the recursion limit, the array's extra level weighs what
                # _reject's extra frame does, and a line nested near the limit
                # fails in both or neither
                body = json.loads("[" + ",".join(lines[1:]) + "]")
            values += body
        except (ValueError, RecursionError):
            values = None
    if values is None or len(values) != len(lines) \
            or not {dict}.issuperset(map(type, values)):
        _reject(path, text)
    kinds = [value.pop("type", None) for value in values]
    has_summary = kinds[-1:] == ["summary"]
    if kinds[:1] != ["header"] or kinds.count("step") != len(kinds) - 1 - has_summary:
        _reject(path, text)
    return values, kinds


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
