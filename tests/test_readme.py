"""The README lists exactly the knobs the code takes, every module of `src/cao`, and the
CLI defaults of its synopsis."""

import re
from pathlib import Path

from cao import cli
from cao.optim import KINDS
from cao.problems import _PROBLEMS

README = Path(__file__).resolve().parent.parent / "README.md"


def table(header: str) -> dict:
    """The rows of the README table under ``header``: first cell -> knob names.

    A knobs cell is a ``; ``-separated list of clauses such as
    ``**`n`**: integer >= 2`` or ```clip_c`, `t_pow`: ...``; a clause names
    its knobs before its first colon, in backticks, required ones in bold.
    Returns, per row, a dict of each named knob -> whether it is bold.
    """
    lines = README.read_text().splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, cell = (c.strip() for c in line.strip("|").split("|"))
        knobs = {}
        for clause in cell.split("; "):
            names = clause.split(":", 1)[0]
            for bold, knob in re.findall(r"(\*\*)?`(\w+)`", names):
                knobs[knob] = bool(bold)
        rows[name.strip("`")] = knobs
    return rows


def test_optimizer_table_lists_every_knob_of_each_kind():
    rows = table("| kind | knobs |")
    shared = rows.pop("all")
    assert sorted(rows) == sorted(KINDS)
    for kind, (_, knobs) in KINDS.items():
        assert sorted({**shared, **rows[kind]}) == sorted(knobs), kind


def test_problem_table_lists_every_key_and_marks_the_required():
    rows = table("| problem | keys besides `name` (required in bold) |")
    assert sorted(rows) == sorted(_PROBLEMS)
    for name, (_, knobs) in _PROBLEMS.items():
        assert rows[name] == {key: knob.required for key, knob in knobs.items()}, name


def test_layout_lists_every_module():
    lines = README.read_text().splitlines()
    start = lines.index("src/cao/") + 1
    listed = set()
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        listed.update(re.findall(r"^  (\w+\.py) ", line))
    modules = {path.name for path in (README.parent / "src" / "cao").glob("*.py")}
    assert listed == modules - {"__init__.py"}


def test_cli_synopsis_shows_the_parser_defaults():
    lines = README.read_text().splitlines()
    start = lines.index("## CLI") + 3  # past the header, a blank line and the fence
    shown = {}
    for line in lines[start:lines.index("```", start)]:
        command = line.split()[3]  # cao [--out DIR] COMMAND ...
        for flag, value in re.findall(r"\[(--[\w-]+) ([^]\s]+)\]", line):
            shown[command, flag] = value
    for command, flag in (("ablate-k", "--ks"), ("sweep", "--etas"), ("sweep", "--ms")):
        args = cli.build_parser().parse_args([command, "--config", "CFG"])
        assert shown[command, flag] == getattr(args, flag[2:]), (command, flag)
