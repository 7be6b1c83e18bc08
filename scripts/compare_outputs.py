#!/usr/bin/env python3
"""Check that two output trees hold the same results.

Usage: PYTHONPATH=src python scripts/compare_outputs.py ROOT_A ROOT_B

Both roots must hold the same set of files. A ``.log`` file is compared after
``cao.runlog.normalized_bytes``, which drops the wall-clock fields; every
other file is compared byte for byte. Each file that differs, exists under
one root only, or is a log that ``normalized_bytes`` cannot read (cut short,
say) is printed; the exit code is 1 on any of these and 0 when every file is
equal.
"""

import argparse
import sys
from pathlib import Path

from cao.runlog import normalized_bytes


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _content(path: Path) -> bytes:
    return normalized_bytes(path) if path.suffix == ".log" else path.read_bytes()


def compare(root_a, root_b) -> list:
    """One line per difference between the two trees, sorted by path."""
    root_a, root_b = Path(root_a), Path(root_b)
    files_a, files_b = _files(root_a), _files(root_b)
    problems = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            problems.append(f"only in {root_a}: {rel}")
        elif rel not in files_a:
            problems.append(f"only in {root_b}: {rel}")
        else:
            try:
                if _content(root_a / rel) != _content(root_b / rel):
                    problems.append(f"differs: {rel}")
            except ValueError as exc:
                problems.append(f"unreadable: {rel} ({exc})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two output trees file by file.")
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    args = parser.parse_args(argv)
    for root in (args.root_a, args.root_b):
        if not Path(root).is_dir():
            parser.error(f"not a directory: {root}")
    problems = compare(args.root_a, args.root_b)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"all {len(_files(Path(args.root_a)))} files equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
