import dataclasses
import gc
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cao import cli, runlog
from cao.errors import ConfigError
from cao.optim import StepRecord
from cao.runlog import RunLogWriter, _dumps, normalized_bytes, read_runlog

SRC = Path(__file__).resolve().parent.parent / "src"
CODED = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def coded(value):
    """``value`` with each non-finite float replaced by the string a log holds for it."""
    if isinstance(value, dict):
        return {k: coded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [coded(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    return value


def uncoded(value):
    """A value read from a log, with the strings of non-finite floats turned back into floats."""
    if type(value) is str:
        return CODED.get(value, value)
    if type(value) is list:
        return [uncoded(x) for x in value]
    if type(value) is dict:
        return {k: uncoded(v) for k, v in value.items()}
    return value


def strict_loads(line):
    """``json.loads`` that rejects the bare ``Infinity``, ``-Infinity`` and ``NaN`` tokens."""

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(line, parse_constant=reject)


def plain(value):
    """``value`` as a log holds it: NumPy scalars as their ``.item()``, tuples as lists."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def reference_payload(rec: StepRecord) -> dict:
    """A step record's fields from a deep copy through ``dataclasses.asdict``, in key
    order and as a log holds them, with a None eval_loss left out."""
    payload = {"type": "step", **plain(dataclasses.asdict(rec))}
    if payload["eval_loss"] is None:
        del payload["eval_loss"]
    return dict(sorted(payload.items()))


def sorted_encoder_line(payload: dict) -> str:
    """``payload`` coded and written by ``json``'s sorted, compact, strict encoder."""
    return json.dumps(coded(payload), sort_keys=True, separators=(",", ":"), allow_nan=False)


HEADER = {"seed": 0, "optimizer": {"kind": "sgd", "label": "sgd", "index": 0},
          "threshold": 0.5}


def write_step_log(path, rec):
    """A log at ``path`` of the header and ``rec``, with no summary."""
    with RunLogWriter(path) as writer:
        writer.write_header(HEADER)
        writer.write_record(rec)


def check_step_line(path, rec):
    """The step line of ``write_step_log(path, rec)`` is strict JSON; ``json`` and
    orjson each read it back field by field as ``reference_payload(rec)``, same types
    and same bits; ``normalized_bytes`` writes it as ``json`` writes the coded record."""
    want = reference_payload(rec)
    _, line, end = path.read_text().split("\n")
    assert end == ""
    for back in (strict_loads(line), orjson.loads(line)):
        assert same_tree(uncoded(back), want)
    del want["wall"]
    assert normalized_bytes(path).decode().split("\n")[1] == sorted_encoder_line(want)


RECORDS = {
    "eval-loss": StepRecord(step=3, epoch=1, loss=0.25, grad_norm=1.5, update_norm=0.1,
                            eval_loss=0.3125, wall=1.25e-05),
    "no-eval-loss": StepRecord(step=0, epoch=0, loss=2.0, grad_norm=3.0, update_norm=1.0,
                               wall=3e-06),
    "k5-eigvals": StepRecord(step=40, epoch=2, loss=1.0 / 3.0, grad_norm=0.7,
                             update_norm=0.02, refreshed=True,
                             eigvals=tuple(float(x) for x in
                                           np.array([9.5, 4.0, 1e-3, -0.25, -7.125])),
                             clamped=True, wall=4.5e-4),
    "divergence": StepRecord(step=17, epoch=0, loss=float("inf"),
                             grad_norm=float("inf"), update_norm=0.0),
    "failed-refresh": StepRecord(step=9, epoch=0, loss=0.5, grad_norm=float("inf"),
                                 update_norm=float("nan"), refresh_failed=True,
                                 eigvals=(2.0,), eval_loss=0.0),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_write_record_matches_deep_copy_reference(tmp_path, name):
    rec = RECORDS[name]
    path = tmp_path / "run.log"
    write_step_log(path, rec)
    check_step_line(path, rec)
    # the record is left as it was
    assert "eval_loss" in vars(rec)


# the largest doubles and 1e308 make sums of finite fields overflow
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e300, -1e300, math.inf, -math.inf,
               math.nan, 0.1, 1.0 / 3.0, 1.7976931348623157e308, -1.7976931348623157e308,
               1e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
STEP_RECORDS = st.builds(
    StepRecord,
    step=st.integers(0, 2**53), epoch=st.integers(0, 10**6),
    loss=FLOATS, grad_norm=FLOATS, update_norm=FLOATS,
    refreshed=st.booleans(), eigvals=st.lists(FLOATS, max_size=8).map(tuple),
    clamped=st.booleans(), refresh_failed=st.booleans(),
    eval_loss=st.one_of(st.none(), FLOATS), wall=FLOATS,
)


@settings(max_examples=300, deadline=None)
@given(rec=STEP_RECORDS)
def test_write_record_equals_sorted_encoder(tmp_path_factory, rec):
    path = tmp_path_factory.mktemp("prop") / "run.log"
    write_step_log(path, rec)
    check_step_line(path, rec)


# NumPy scalars a caller might put in a record; each is written as its .item()
NUMPY_FLOATS = st.one_of(FLOATS.map(np.float64), st.sampled_from([np.float32(0.5)]))
MIXED_FLOATS = st.one_of(FLOATS, NUMPY_FLOATS)
MIXED_FLAGS = st.one_of(st.booleans(), st.booleans().map(np.bool_))
MIXED_RECORDS = st.builds(
    StepRecord,
    step=st.one_of(st.integers(0, 2**53), st.integers(0, 10).map(np.int64)),
    epoch=st.integers(0, 10**6),
    loss=MIXED_FLOATS, grad_norm=MIXED_FLOATS, update_norm=MIXED_FLOATS,
    refreshed=MIXED_FLAGS, eigvals=st.lists(MIXED_FLOATS, max_size=3).map(tuple),
    clamped=MIXED_FLAGS, refresh_failed=MIXED_FLAGS,
    eval_loss=st.one_of(st.none(), MIXED_FLOATS), wall=MIXED_FLOATS,
)


@settings(max_examples=150, deadline=None)
@given(rec=MIXED_RECORDS)
def test_write_record_with_numpy_fields_equals_field_by_field(tmp_path_factory, rec):
    path = tmp_path_factory.mktemp("mixed") / "run.log"
    write_step_log(path, rec)
    check_step_line(path, rec)


@pytest.mark.parametrize("fields", [
    {"loss": np.float64(0.25)}, {"wall": np.float64(math.nan)},
    {"grad_norm": np.float64(1.7976931348623157e308)}, {"clamped": np.bool_(False)},
    {"refreshed": np.bool_(True), "loss": np.float32(0.5)},
    {"eval_loss": np.float32(0.5), "clamped": np.bool_(True)},
    {"step": np.int64(3)},
], ids=["float64", "float64-nan", "float64-max", "bool_", "bool_-then-float32",
        "float32-eval-loss-first", "int64-step"])
def test_write_record_numpy_scalars(tmp_path, fields):
    rec = dataclasses.replace(RECORDS["eval-loss"], **fields)
    path = tmp_path / "run.log"
    write_step_log(path, rec)
    check_step_line(path, rec)
    # each reads back as the Python type of its .item()
    [back] = read_runlog(path)[1]
    assert all(type(back[key]) is type(value.item()) for key, value in fields.items())


@pytest.mark.parametrize("fields", [
    {"step": 2**64}, {"epoch": -2**63 - 1}, {"step": np.int64(1), "epoch": 2**70},
], ids=["step", "epoch", "after-a-numpy-scalar"])
def test_write_record_int_past_64_bits_raises(tmp_path, fields):
    # orjson would read such an int back as a float, so the line is not written
    path = tmp_path / "run.log"
    with pytest.raises(TypeError):
        write_step_log(path, dataclasses.replace(RECORDS["eval-loss"], **fields))
    assert len((tmp_path / "run.log.part").read_text().splitlines()) == 1


class TestPartFile:
    def test_clean_close_moves_the_log(self, tmp_path):
        path = tmp_path / "a" / "0.log"
        part = tmp_path / "a" / "0.log.part"
        with RunLogWriter(path) as writer:
            writer.write_header({"seed": 0})
            assert part.exists() and not path.exists()
        assert path.exists() and not part.exists()
        assert json.loads(path.read_text())["seed"] == 0

    def test_exception_leaves_only_the_part_file(self, tmp_path):
        path = tmp_path / "0.log"
        path.write_text("a finished log of an earlier run\n")
        with pytest.raises(KeyboardInterrupt):
            with RunLogWriter(path) as writer:
                writer.write_header({"seed": 0})
                writer.write_record(RECORDS["no-eval-loss"])
                raise KeyboardInterrupt
        assert not path.exists()
        assert len((tmp_path / "0.log.part").read_text().splitlines()) == 2
        assert sorted(tmp_path.rglob("*.log")) == []

    def test_close_twice(self, tmp_path):
        writer = RunLogWriter(tmp_path / "0.log")
        writer.close()
        writer.close()
        assert (tmp_path / "0.log").read_text() == ""


# a `cao run` that stops in its first step, with its run's .part open, until a line comes in
HOLDER = """
import sys
from cao import cli, optim
step = optim.sgd_step

def held(state, *args, **kwargs):
    if state.step == 0:
        print("writing", flush=True)
        sys.stdin.readline()
    return step(state, *args, **kwargs)

optim.sgd_step = held
sys.exit(cli.main(sys.argv[1:]))
"""


class TestOneWriterPerLog:
    """Two commands that write the same run: a second writer exits 3, a dead one is replaced."""

    @pytest.fixture
    def command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "name": "own",
            "problem": {"name": "logreg", "n_features": 6, "n_samples": 48, "seed": 5},
            "optimizers": [{"kind": "sgd", "alpha": 0.5}],
            "seeds": [0], "steps": 20, "batch_size": 12, "threshold": 0.5,
        }))
        return ["--out", str(tmp_path / "out"), "run", "--config", str(cfg), "--jobs", "1"]

    @pytest.fixture
    def holder(self, command):
        """A holding process that has its run's ``.part`` open; killed at the end."""
        proc = subprocess.Popen([sys.executable, "-c", HOLDER, *command],
                                env={**os.environ, "PYTHONPATH": str(SRC)}, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == "writing\n", proc.stderr.read()
            yield proc
        finally:
            proc.kill()
            proc.communicate()

    def test_second_writer_exits_3_and_the_owner_finishes(self, tmp_path, command, holder,
                                                           capsys):
        log = tmp_path / "out" / "logs" / "own" / "sgd" / "0.log"
        assert cli.main(command) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {log}: another process is writing this run's log\n")
        out, err = holder.communicate("go on\n", timeout=120)
        assert holder.returncode == 0, err
        assert out.splitlines() == [str(log)]
        header, records, summary = read_runlog(log)
        assert (len(records), summary["steps_done"]) == (20, 20)
        assert [p.name for p in tmp_path.rglob("*.log*")] == ["0.log"]

    def test_killed_writers_part_is_taken_over(self, tmp_path, command, holder):
        holder.kill()
        holder.wait()
        log = tmp_path / "out" / "logs" / "own" / "sgd" / "0.log"
        assert [p.name for p in tmp_path.rglob("*.log*")] == ["0.log.part"]
        # what it left: more bytes than the new log, ending in a line cut short
        log.with_name("0.log.part").write_text('{"type":"step","loss":' + "1" * 100000)
        assert cli.main(command) == cli.EXIT_OK
        assert read_runlog(log)[2]["steps_done"] == 20
        assert [p.name for p in tmp_path.rglob("*.log*")] == ["0.log"]

    def test_log_renamed_before_the_lock_is_left_alone(self, tmp_path, monkeypatch):
        # the owner renames its .part between a second writer's open and its lock
        path = tmp_path / "0.log"
        owner = RunLogWriter(path)
        owner.write_header({"seed": 0})
        flock = runlog.fcntl.flock

        def owner_finishes_first(fd, operation):
            owner.close()
            flock(fd, operation)

        monkeypatch.setattr(runlog.fcntl, "flock", owner_finishes_first)
        with pytest.raises(ConfigError, match="another process is writing this run's log$"):
            RunLogWriter(path)
        assert read_runlog(path)[0]["seed"] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["0.log"]


def reference_read(path):
    """The per-line reader: one ``json.loads`` per non-blank line, then the coded
    non-finite floats of the summary, and of the steps if the summary is missing or
    says diverged, turned back into floats."""
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
    if summary is not None:
        summary = uncoded(summary)
    if summary is None or summary.get("diverged") is True:
        records = uncoded(records)
    return header, records, summary


def reference_normalized(path) -> bytes:
    """``normalized_bytes`` by the per-line reader: each non-blank line through
    ``json.loads``, the wall fields dropped and the rest written by the sorted encoder,
    with bare non-finite tokens coded as the writer codes them."""
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                for key in runlog.WALL_KEYS:
                    obj.pop(key, None)
                out.append(json.dumps(coded(obj), sort_keys=True, separators=(",", ":"),
                                      allow_nan=False))
    return ("\n".join(out) + "\n").encode()


def same_tree(a, b):
    """Equal types and values, floats bit for bit with NaN equal to NaN, dict keys in order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))
    if type(a) is dict:
        return list(a) == list(b) and all(same_tree(a[k], b[k]) for k in a)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(same_tree, a, b))
    return a == b


BLANK_LINES = st.sampled_from(["", " ", "\t", "  \t ", "\x0c"])
# hand-written step lines that json reads and orjson rejects (past the double range,
# a lone surrogate, an older log's bare tokens), nested values on either side of
# runlog._SHALLOW, and the ints at the edges of the 64-bit range that orjson keeps
ODD_LINES = [
    '{"type":"step","loss":1e400}',
    '{"type":"step","loss":-1.7976931348623159e308,"step":1}',
    '{"type":"step","label":"\\ud800","note":"\\udfff\\ud800"}',
    '{"type":"step","loss":NaN,"eigvals":[Infinity,-Infinity]}',
    '{"type":"step","nested":' + "[" * 400 + "]" * 400 + "}",
    '{"type":"step","nested":' + '{"a":' * 200 + "1" + "}" * 200 + "}",
    '{"type":"step","step":18446744073709551615,"epoch":-9223372036854775808}',
]


@settings(max_examples=150, deadline=None)
@given(records=st.lists(STEP_RECORDS, max_size=50),
       final_loss=st.one_of(st.none(), FLOATS),
       diverged=st.sampled_from([None, False, True]),
       blanks=st.lists(st.tuples(st.integers(0, 60), BLANK_LINES), max_size=8),
       odd=st.lists(st.tuples(st.integers(0, 50), st.sampled_from(ODD_LINES)), max_size=3))
@example(records=[RECORDS["eval-loss"]], final_loss=0.5, diverged=True, blanks=[],
         odd=[(0, line) for line in ODD_LINES if len(line) < runlog._SHALLOW])
@example(records=[], final_loss=None, diverged=None, blanks=[],
         odd=[(0, line) for line in ODD_LINES])
def test_read_runlog_equals_per_line_reader(tmp_path_factory, records, final_loss, diverged,
                                            blanks, odd):
    path = tmp_path_factory.mktemp("read") / "run.log"
    with RunLogWriter(path) as writer:
        writer.write_header(HEADER)
        for rec in records:
            writer.write_record(rec)
        if final_loss is not None:
            summary = {"steps_done": len(records), "final_loss": final_loss}
            if diverged is not None:
                summary["diverged"] = diverged
            writer.write_summary(summary)
    for line in path.read_text().splitlines():
        strict_loads(line)
    lines = path.read_text().split("\n")
    for at, line in odd:  # between the header and the summary
        lines.insert(1 + at % (len(records) + 1), line)
    for at, blank in blanks:
        lines.insert(at, blank)
    path.write_text("\n".join(lines))
    got = read_runlog(path)
    assert same_tree(got, reference_read(path))
    assert normalized_bytes(path) == reference_normalized(path)
    assert len(got[1]) == len(records) + len(odd)
    assert (got[2] is None) == (final_loss is None)


def test_ints_past_64_bits_read_as_floats_in_steps_and_summary_only(tmp_path):
    # the header keeps any int (config values are unbounded, seeds among them); in
    # the steps and the summary, which cao writes with counts only, an int outside
    # [-2**63, 2**64) reads as the nearest float
    path = tmp_path / "run.log"
    big = {"type": "header", **HEADER, "seed": 2**70, "config": {"seeds": [2**70, -2**63 - 1]}}
    path.write_text(_dumps(big) + "\n"
                    + '{"type":"step","step":18446744073709551616,"epoch":18446744073709551615}\n'
                    + '{"type":"summary","hvp_calls":-9223372036854775809,"steps_done":1}\n')
    header, records, summary = read_runlog(path)
    assert header["seed"] == 2**70 and type(header["seed"]) is int
    assert header["config"]["seeds"] == [2**70, -2**63 - 1]
    assert same_tree(records, [{"step": 2.0**64, "epoch": 2**64 - 1}])
    assert same_tree(summary, {"hvp_calls": -(2.0**63), "steps_done": 1})


DEEP = {
    # orjson 3.8 reads the first and overflows the C stack on the second
    "1500-in-one-line": ['{"type":"step","nested":' + '{"a":' * 1500 + "1" + "}" * 1500 + "}"],
    "100000-in-one-line": ['{"type":"step","nested":' + '{"a":' * 100_000 + "1"
                           + "}" * 100_000 + "}"],
    # short lines, each no JSON value on its own, that nest about 400,000 deep
    # when joined into one array, past the 300,000 arrays at which orjson 3.8 crashes
    "400000-across-lines": ["[" * 998 + "1"] * 401 + ["1" + "]" * 998] * 401,
}


@pytest.mark.parametrize("lines", DEEP.values(), ids=DEEP)
def test_deeply_nested_step_line_is_rejected_as_json_rejects_it(tmp_path, lines):
    # a child process keeps a crash of the decoder to this test
    path = tmp_path / "run.log"
    path.write_text(_dumps({"type": "header", **HEADER}) + "\n" + "\n".join(lines) + "\n")
    script = ("import sys\nfrom cao.runlog import normalized_bytes, read_runlog\n"
              "for read in (read_runlog, normalized_bytes):\n"
              "    try:\n"
              "        read(sys.argv[1])\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    done = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    messages = done.stdout.splitlines()
    assert len(messages) == 2 and all(m.startswith(f"{path}: line 2: ") for m in messages)
    if len(lines) == 1 and sys.version_info < (3, 12):
        # json's C scanner counts its nesting against sys.getrecursionlimit()
        assert messages == [f"{path}: line 2: maximum recursion depth exceeded"
                            " while decoding a JSON object from a unicode string"] * 2


def test_lines_nested_near_the_recursion_limit_read_or_name_their_line(tmp_path):
    # one json decode per line reads a line nested near json's recursion limit or
    # names it, so no depth gives "missing header line"
    path = tmp_path / "run.log"
    path.touch()
    header = _dumps({"type": "header", **HEADER}) + "\n"
    outcomes = set()
    limit = sys.getrecursionlimit()
    for depth in range(limit - 250, limit):
        # each text is longer than the last: overwritten in place, never cut to zero
        with open(path, "r+") as fh:
            fh.write(header + '{"type":"step","n":' + "[" * depth + "]" * depth + "}\n")
        try:
            read_runlog(path)
            outcomes.add("read")
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line 2: maximum recursion depth"), depth
            outcomes.add("named")
    # from Python 3.12 on, json's C scanner no longer counts against
    # sys.getrecursionlimit(), and this sweep may stay below its limit
    assert outcomes == {"read", "named"} or sys.version_info >= (3, 12)


def test_log_cut_at_every_byte(tmp_path):
    full = tmp_path / "full.log"
    with RunLogWriter(full) as writer:
        writer.write_header(HEADER)
        for name in ("eval-loss", "divergence", "failed-refresh"):
            writer.write_record(RECORDS[name])
        writer.write_summary({"steps_done": 3, "final_loss": float("inf")})
    # and two step lines that only the json fallback reads
    lines = full.read_bytes().split(b"\n")
    lines[2:2] = [ODD_LINES[0].encode(), ODD_LINES[2].encode()]
    data = b"\n".join(lines)
    path = tmp_path / "cut.log"
    path.write_bytes(data)
    # cut the one file in place: rewriting it from zero once per prefix costs seconds on
    # file systems that flush a file truncated to zero when it is closed
    for end in range(len(data), -1, -1):
        os.truncate(path, end)
        try:
            want = reference_read(path)
        except ValueError:
            want = None
        if want is not None:
            assert same_tree(read_runlog(path), want), end
            continue
        cut_line = data[:end].count(b"\n") + 1
        fault = f"line {cut_line}: " if end else "missing header line"
        for read in (read_runlog, normalized_bytes):
            with pytest.raises(ValueError) as info:
                read(path)
            assert type(info.value) is ValueError
            assert str(info.value).startswith(f"{path}: {fault}"), (end, str(info.value))


def test_normalized_bytes_keeps_the_type_and_drops_wall_fields(tmp_path):
    path = tmp_path / "run.log"
    with RunLogWriter(path) as writer:
        writer.write_header(HEADER)
        writer.write_record(RECORDS["eval-loss"])
        writer.write_summary({"steps_done": 1, "wall_total": 2.5})
    want = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        obj.pop("wall", None)
        obj.pop("wall_total", None)
        want.append(_dumps(obj))
    assert normalized_bytes(path) == ("\n".join(want) + "\n").encode()


def test_reads_leave_the_collector_as_they_found_it(tmp_path, monkeypatch):
    good, cut = tmp_path / "good.log", tmp_path / "cut.log"
    with RunLogWriter(good) as writer:
        writer.write_header(HEADER)
        writer.write_record(RECORDS["eval-loss"])
    cut.write_text(good.read_text()[:-20])
    # and pause it while the body decodes
    collecting = []

    def loads(body):
        collecting.append(gc.isenabled())
        return orjson.loads(body)

    monkeypatch.setattr(runlog, "orjson",
                        SimpleNamespace(loads=loads, JSONDecodeError=orjson.JSONDecodeError))
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            for read in (read_runlog, normalized_bytes):
                read(good)
                assert gc.isenabled() is enabled
                with pytest.raises(ValueError):
                    read(cut)
                assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert collecting == [False] * 8


DIVERGENT_STEPS = ("eval-loss", "k5-eigvals", "failed-refresh", "divergence")


def write_divergent_log(path, summary):
    with RunLogWriter(path) as writer:
        writer.write_header(HEADER)
        for name in DIVERGENT_STEPS:
            writer.write_record(RECORDS[name])
        if summary is not None:
            writer.write_summary(summary)


@pytest.mark.parametrize("summary, want_summary", [
    (None, None),
    ({"steps_done": 3, "diverged": True, "hvp_calls": np.int64(4)},
     {"steps_done": 3, "diverged": True, "hvp_calls": 4}),
    ({"steps_done": 4, "diverged": False, "final_loss": np.float64(-math.inf)},
     {"steps_done": 4, "diverged": False, "final_loss": -math.inf}),
], ids=["cut", "diverged", "numpy-final-loss"])
def test_non_finite_floats_are_written_as_strict_json(tmp_path, summary, want_summary):
    path = tmp_path / "run.log"
    write_divergent_log(path, summary)
    lines = path.read_text().splitlines()
    for line in lines:
        strict_loads(line)
    assert lines[3].count('"Infinity"') == 1 and lines[3].count('"NaN"') == 1
    assert lines[4].count('"Infinity"') == 2
    _, records, got_summary = read_runlog(path)
    assert same_tree(got_summary, want_summary and dict(sorted(want_summary.items())))
    want = []
    for name in DIVERGENT_STEPS:
        rec = {k: v for k, v in sorted(vars(RECORDS[name]).items()) if v is not None}
        rec["eigvals"] = list(rec["eigvals"])
        want.append(rec)
    if summary is not None and not summary["diverged"]:
        # a finished run that did not diverge wrote finite steps: they are not searched
        want = [{k: coded(v) for k, v in rec.items()} for rec in want]
    assert same_tree(records, want)


def test_older_logs_with_bare_tokens_read_and_normalize_alike(tmp_path):
    new, old = tmp_path / "new.log", tmp_path / "old.log"
    write_divergent_log(new, {"steps_done": 4, "diverged": True, "final_loss": math.nan})
    # the same values as an older writer wrote them, with json's bare tokens
    old.write_text("".join(
        json.dumps(uncoded(json.loads(line)), sort_keys=True, separators=(",", ":")) + "\n"
        for line in new.read_text().splitlines()))
    assert "Infinity" in old.read_text() and '"Infinity"' not in old.read_text()
    assert same_tree(read_runlog(old), read_runlog(new))
    assert normalized_bytes(old) == normalized_bytes(new)
    for line in normalized_bytes(new).decode().splitlines():
        strict_loads(line)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(STEP_RECORDS, max_size=20), diverged=st.booleans())
@example(records=list(RECORDS.values()), diverged=True)
def test_logs_with_json_spelled_step_lines_read_and_normalize_alike(tmp_path_factory,
                                                                    records, diverged):
    new = tmp_path_factory.mktemp("spelling") / "new.log"
    old = new.with_name("old.log")
    with RunLogWriter(new) as writer:
        writer.write_header(HEADER)
        for rec in records:
            writer.write_record(rec)
        writer.write_summary({"steps_done": len(records), "diverged": diverged})
    # the same log with each step line as json's sorted encoder writes it, floats
    # spelled by float.__repr__ (1.25e-05 where orjson writes 0.0000125)
    lines = new.read_text().splitlines()
    lines[1:-1] = map(sorted_encoder_line, map(reference_payload, records))
    old.write_text("".join(line + "\n" for line in lines))
    assert same_tree(read_runlog(old), read_runlog(new))
    assert normalized_bytes(old) == normalized_bytes(new)


def test_finished_log_that_did_not_diverge_takes_no_extra_pass(tmp_path, monkeypatch):
    path = tmp_path / "run.log"
    with RunLogWriter(path) as writer:
        writer.write_header(HEADER)
        for _ in range(5):
            writer.write_record(RECORDS["eval-loss"])
        writer.write_summary({"steps_done": 5, "diverged": False, "final_loss": math.inf})
    searched = []
    real = runlog._uncode
    monkeypatch.setattr(runlog, "_uncode", lambda obj: (searched.append(obj), real(obj))[1])
    _, records, summary = read_runlog(path)
    assert searched == [summary] and summary["final_loss"] == math.inf
    assert len(records) == 5


def test_seeds_past_64_bits_run_and_summarize(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    seeds = [2**70, 2**70 + 1]
    cfg_path.write_text(json.dumps({
        "name": "big-seeds", "problem": {"name": "quadratic", "spectrum": [4.0, 1.0]},
        "optimizers": [{"kind": "sgd", "label": "sgd", "alpha": 0.1},
                       {"kind": "adam", "label": "adam", "alpha": 0.1}],
        "seeds": seeds, "steps": 5, "threshold": 0.5,
    }))
    assert cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)]) == 0
    logs = tmp_path / "logs" / "big-seeds"
    assert cli.main(["--out", str(tmp_path), "ttt", "--logs", str(logs)]) == 0
    for label in ("sgd", "adam"):
        got = [read_runlog(logs / label / f"{seed}.log")[0]["seed"] for seed in seeds]
        assert got == seeds and {type(seed) for seed in got} == {int}
