import importlib.util
import json
import math
from pathlib import Path

import orjson
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, wall, table="sgd 12\n", loss=1.5, dumps=json.dumps):
    lines = [{"type": "header", "seed": 0},
             {"type": "step", "step": 0, "loss": loss, "wall": wall},
             {"type": "summary", "steps_done": 1, "wall_total": 2 * wall}]
    log = root / "logs" / "exp" / "sgd" / "0.log"
    log.parent.mkdir(parents=True)
    log.write_text("".join(dumps(line) + "\n" for line in lines))
    (root / "tables").mkdir()
    (root / "tables" / "exp-ttt.txt").write_text(table)


def test_logs_differing_only_in_wall_fields_are_equal(tmp_path, compare_outputs, capsys):
    write_tree(tmp_path / "a", wall=0.001)
    write_tree(tmp_path / "b", wall=0.25)
    assert compare_outputs.compare(tmp_path / "a", tmp_path / "b") == []
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "all 2 files equal" in capsys.readouterr().out


def orjson_dumps(value):
    return orjson.dumps(value).decode()


def test_logs_differing_only_in_float_spelling_are_equal(tmp_path, compare_outputs, capsys):
    write_tree(tmp_path / "a", wall=0.001, loss=1.25e-05)
    write_tree(tmp_path / "b", wall=0.001, loss=1.25e-05, dumps=orjson_dumps)
    texts = [(tmp_path / side / "logs" / "exp" / "sgd" / "0.log").read_text() for side in "ab"]
    assert '"loss": 1.25e-05' in texts[0] and '"loss":0.0000125' in texts[1]
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "all 2 files equal" in capsys.readouterr().out


def test_loss_one_ulp_apart_is_reported(tmp_path, compare_outputs, capsys):
    write_tree(tmp_path / "a", wall=0.001, loss=1.25e-05)
    write_tree(tmp_path / "b", wall=0.001, loss=math.nextafter(1.25e-05, 1.0),
               dumps=orjson_dumps)
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == ["differs: logs/exp/sgd/0.log"]


def test_differing_table_is_reported(tmp_path, compare_outputs, capsys):
    write_tree(tmp_path / "a", wall=0.001)
    write_tree(tmp_path / "b", wall=0.001, table="sgd 13\n")
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == ["differs: tables/exp-ttt.txt"]


def test_file_on_one_side_only_is_reported(tmp_path, compare_outputs, capsys):
    write_tree(tmp_path / "a", wall=0.001)
    write_tree(tmp_path / "b", wall=0.001)
    (tmp_path / "b" / "tables" / "extra.txt").write_text("x\n")
    (tmp_path / "a" / "logs" / "exp" / "sgd" / "0.log").unlink()
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {tmp_path / 'b'}: logs/exp/sgd/0.log",
        f"only in {tmp_path / 'b'}: tables/extra.txt",
    ]


def test_cut_log_is_reported_unreadable(tmp_path, compare_outputs, capsys):
    write_tree(tmp_path / "a", wall=0.001)
    write_tree(tmp_path / "b", wall=0.001)
    log = tmp_path / "b" / "logs" / "exp" / "sgd" / "0.log"
    log.write_text(log.read_text()[:60])
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith(f"unreadable: logs/exp/sgd/0.log ({log}: line 2: ")
