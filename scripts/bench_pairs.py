#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a parent revision against the working tree.

Usage:
    python3 scripts/bench_pairs.py --parent REV --workload W[,W...]|all --pairs N \\
        --seed S [--seconds T] [--save FILE]

The parent side is ``git archive REV`` unpacked into a temporary directory. The
change side is a copy of this working tree's files, made once at start in a
sibling temporary directory: the tracked files as they are on disk and the
untracked ones that no ignore rule matches, less tracked files deleted from the
tree. So both sides run from alike places, and an edit made during the runs
does not reach them. ``--workload`` names one workload of
``BENCHMARK.json``, a comma-separated list of them, or ``all`` for every one in
its order; a name it does not declare stops the script with exit code 1 before
any run. The workloads go one after the other, each with the same seed and the
same pair order. Each pair runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each tree, one after the other: odd pairs run
the parent first, even pairs the change. Every run is printed. Then, per
workload and for each end-to-end metric that ``BENCHMARK.json`` declares, both
sides' median and quartiles (``numpy.percentile``, linear interpolation) and
the pairs the change won; a tie counts for neither side. The claim rule holds
for a metric when the change wins at least 9 pairs in 10 and its median is
better than the parent's by more than the parent's interquartile range. The
no-regression verdict uses the metric's ``bound``: ``worse`` when the change's
median is worse than the parent's by more than ``bound`` times the parent's
median, else ``unresolved`` when the parent's interquartile range is wider
than that and not every change run beats every parent run, else ``ok``.

A run that exits non-zero or reports an incorrect repetition stops the script
with exit code 1. The temporary trees are removed on every exit, and every run
has ended before the next starts. ``--save`` writes every workload's runs and
summary as JSON.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
QUARTILES = "numpy.percentile, linear interpolation"


def end_to_end_metrics(root=ROOT) -> list:
    """The ``end_to_end`` entries of ``BENCHMARK.json``: name, unit, better, bound."""
    return json.loads((Path(root) / "BENCHMARK.json").read_text())["end_to_end"]


def workloads(text: str, root=ROOT) -> list:
    """The workloads ``--workload`` names, in its order; ``all`` is every declared one.

    Raises ``ValueError`` naming each entry that ``BENCHMARK.json`` does not
    declare, or a repeated one.
    """
    declared = [w["name"] for w in
                json.loads((Path(root) / "BENCHMARK.json").read_text())["workloads"]]
    if text == "all":
        return declared
    names = text.split(",")
    unknown = [name for name in names if name not in declared]
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; declared: {', '.join(declared)}, all")
    if len(set(names)) != len(names):
        raise ValueError(f"a workload is named twice in {text!r}")
    return names


def summarize(parent_runs, change_runs, metrics) -> dict:
    """Per metric: both sides' median and quartiles, the change's wins, the claim rule
    and the no-regression verdict.

    ``parent_runs`` and ``change_runs`` hold one mapping from metric name to
    value per pair, in pair order. ``metrics`` are ``BENCHMARK.json``-style
    entries; ``better`` is ``"higher"`` or ``"lower"``, and ``bound`` the
    share of the parent's median that the change may be worse by. A pair where
    both sides are equal is a tie and counts for neither.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same non-zero number of parent and change runs")
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = np.array([run[name] for run in parent_runs], dtype=np.float64)
        change = np.array([run[name] for run in change_runs], dtype=np.float64)
        wins = int(np.sum(sign * (change - parent) > 0))
        ties = int(np.sum(change == parent))
        p_low, p_median, p_high = np.percentile(parent, [25, 50, 75])
        c_low, c_median, c_high = np.percentile(change, [25, 50, 75])
        gain = sign * (c_median - p_median)
        allowed = metric["bound"] * abs(p_median)
        if gain < -allowed:
            verdict = "worse"
        elif p_high - p_low > allowed and not np.min(sign * change) > np.max(sign * parent):
            verdict = "unresolved"  # the parent's own runs spread past the bound
        else:
            verdict = "ok"
        summary[name] = {
            "better": metric["better"],
            "parent_median": float(p_median),
            "change_median": float(c_median),
            "parent_quartiles": [float(p_low), float(p_high)],
            "change_quartiles": [float(c_low), float(c_high)],
            "ratio": float(c_median / p_median) if p_median else None,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(parent),
            "claim_holds": bool(10 * wins >= 9 * len(parent) and gain > p_high - p_low),
            "verdict": verdict,
        }
    return summary


def format_summary(summary: dict) -> str:
    lines = [f"# {'metric':12s} {'better':6s} {'parent median [q1, q3]':>36s}"
             f" {'change median [q1, q3]':>36s} {'ratio':>7s} {'verdict':10s} wins ties claim"]
    for name, row in summary.items():
        sides = [f"{row[f'{side}_median']:.6g} [{row[f'{side}_quartiles'][0]:.6g},"
                 f" {row[f'{side}_quartiles'][1]:.6g}]" for side in ("parent", "change")]
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f}"
        lines.append(f"{name:14s} {row['better']:6s} {sides[0]:>36s} {sides[1]:>36s}"
                     f" {ratio:>7s} {row['verdict']:10s} {row['change_wins']:2d}/{row['pairs']:<2d}"
                     f" {row['ties']:4d} {'holds' if row['claim_holds'] else 'no'}")
    return "\n".join(lines)


def unpack(rev: str, dest: Path) -> None:
    """``git archive rev`` of this repository, extracted into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(root: Path, dest: Path) -> None:
    """The working tree's files at ``root`` that git lists, tracked or not ignored, into ``dest``.

    A tracked file deleted from the working tree is left out.
    """
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], stdout=subprocess.PIPE, check=True).stdout
    for name in dict.fromkeys(filter(None, os.fsdecode(listed).split("\0"))):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def command(workload: str, args) -> list:
    """The arguments of one ``perfbench/run.py`` run, after the script's path."""
    return ["--workload", workload, "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", "0"]


def run_side(tree: Path, workload: str, args) -> dict:
    """One benchmark run in ``tree``; returns the result line of ``perfbench/run.py``."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), *command(workload, args)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench/run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {result['failed']} of {result['attempted']}"
                           " repetitions failed their checks")
    return result


def run_pairs(args, workload: str, trees: dict, metrics) -> tuple:
    """Alternating runs of ``workload`` in ``trees`` (side -> tree); returns (runs as printed,
    parent values, change values)."""
    runs, values = [], {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_side(trees[side], workload, args)
            row = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            values[side].append(row)
            runs.append({"workload": workload, "pair": pair, "side": side, **row})
            shown = "  ".join(f"{name}={value:.6g}" for name, value in row.items())
            print(f"{workload} pair {pair:2d} {side:6s}  {shown}", flush=True)
    return runs, values["parent"], values["change"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, a comma-separated list, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--save", default=None, help="JSON file for the runs and summary")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        names = workloads(args.workload)
    except ValueError as exc:
        print(f"bench_pairs: --workload: {exc}", file=sys.stderr)
        return 1
    metrics = end_to_end_metrics()
    runs, summaries = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in ("parent", "change")}
        unpack(args.parent, trees["parent"])
        copy_worktree(ROOT, trees["change"])
        try:
            for workload in names:
                done, parent, change = run_pairs(args, workload, trees, metrics)
                runs += done
                summaries[workload] = summarize(parent, change, metrics)
                print(f"## {workload}\n{format_summary(summaries[workload])}", flush=True)
        except RuntimeError as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
    if args.save:
        Path(args.save).write_text(json.dumps({
            "parent": args.parent, "workloads": names,
            "order": "odd pairs run the parent first, even pairs the change first",
            "commands": {w: " ".join(["python3 perfbench/run.py", *command(w, args)])
                         for w in names},
            "quartiles": QUARTILES, "summary": summaries, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
