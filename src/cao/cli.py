"""Command-line entry point.

Subcommands: run, ttt, ablate-k, sweep, plotdata, theory. Exit codes:
0 success, 1 failed theory check, 2 divergence detected, 3 config error,
4 a worker process died (the logs of the runs that finished stay).
``--log-level`` (``-v`` is INFO) sets the level of the logging records printed
to stderr, on every call of ``main``; the default is WARNING.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from . import executor, harness, theory
from .config import _path_component, load_config
from .errors import ConfigError, WorkerError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3
EXIT_WORKER = 4


def _collect_logs(logs_arg):
    paths = []
    for entry in logs_arg:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.rglob("*.log")))
        else:
            paths.append(p)
    if not paths:
        raise ConfigError(f"no log files under {logs_arg}")
    return paths


def _default_name(args):
    """``--name``, which must be one path part, or the first ``--logs`` entry's name."""
    if args.name is not None:
        return _path_component(args.name, "--name")
    # made absolute first, so that "." and ".." give the directory's own name
    return Path(os.path.abspath(args.logs[0])).name


def _parse_list(text, flag, cast):
    """A comma-separated CLI list; a bad entry is a config error naming the flag."""
    try:
        return [cast(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma-separated list of {cast.__name__}s,"
                          f" got {text!r}") from None


def _finite_thresholds(values, flag):
    """``values``; a NaN or infinite threshold is a config error naming ``flag``."""
    bad = next((x for x in values if not math.isfinite(x)), None)
    if bad is not None:
        raise ConfigError(f"{flag}: thresholds must be finite numbers, got {bad!r}")
    return values


def _jobs(text):
    """The ``--jobs`` worker count: the usable CPUs if not given, else an integer >= 1."""
    if text is None:
        return executor.usable_cpus()
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"--jobs: expected an integer >= 1, got {text!r}")
    return jobs


def _cmd_run(args):
    jobs = _jobs(args.jobs)
    cfg = load_config(args.config)
    result = harness.run_comparison(cfg, args.out, jobs=jobs)
    for path in result["logs"]:
        print(path)
    if result["diverged"]:
        print("divergence detected; partial logs retained", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _write_table(args, name, text):
    out = Path(args.out) / "tables" / f"{name}.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(text, end="")
    print(f"wrote {out}", file=sys.stderr)


def _cmd_ttt(args):
    if args.threshold is not None and args.thresholds is not None:
        raise ConfigError("--threshold and --thresholds cannot be given together:"
                          " --threshold sets the one threshold of the table,"
                          " --thresholds the grid of the sweep")
    if args.threshold is not None:
        _finite_thresholds([args.threshold], "--threshold")
    name = _default_name(args)
    logs = _collect_logs(args.logs)
    if args.thresholds:
        thresholds = _finite_thresholds(
            _parse_list(args.thresholds, "--thresholds", float), "--thresholds")
        _write_table(args, f"{name}-threshold-sweep",
                     harness.threshold_sweep(logs, thresholds))
    else:
        table = harness.time_to_threshold(logs, threshold=args.threshold)
        _write_table(args, f"{name}-time-to-threshold", harness.format_ttt(table, name=name))
    return EXIT_OK


def _cmd_ablate_k(args):
    ks = _parse_list(args.ks, "--ks", int)
    jobs = _jobs(args.jobs)
    cfg = load_config(args.config)
    result = harness.k_ablation(cfg, ks=ks, out_root=args.out, jobs=jobs)
    name = result["name"]
    _write_table(args, name, harness.format_ttt(result["table"], name=name))
    return EXIT_DIVERGED if result["diverged"] else EXIT_OK


def _cmd_sweep(args):
    etas = _parse_list(args.etas, "--etas", float)
    ms = _parse_list(args.ms, "--ms", int)
    jobs = _jobs(args.jobs)
    cfg = load_config(args.config)
    result = harness.sensitivity_sweep(cfg, etas, ms, out_root=args.out, jobs=jobs)
    _write_table(args, result["name"], harness.format_sweep(result))
    return EXIT_DIVERGED if result["diverged"] else EXIT_OK


def _cmd_plotdata(args):
    name = _default_name(args)
    logs = _collect_logs(args.logs)
    out = Path(args.out) / "figures-data" / f"{name}-loss.tsv"
    harness.emit_plot_data(logs, out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_theory(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
    reports = theory.run_theory_suite(seed=args.seed)
    out_dir = Path(args.out) / "logs" / "theory"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "reports.jsonl"
    with open(out, "w") as fh:
        for rep in reports:
            fh.write(rep.to_json() + "\n")
    failed = 0
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        failed += not rep.passed
        print(f"[{status}] {rep.check}")
    print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cao",
        description="Curvature-adaptive optimizer benchmark harness",
    )
    parser.add_argument("--out", default=".", help="output root directory")
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="lowest level of the log records printed (default WARNING)")
    parser.add_argument("-v", dest="log_level", action="store_const", const="INFO",
                        help="same as --log-level INFO")
    sub = parser.add_subparsers(dest="command", required=True)

    jobs_help = ("processes for the independent runs, this one included (default: the"
                 " usable CPUs); every output is the same for any value")
    p = sub.add_parser("run", help="run a multi-optimizer comparison from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", default=None, help=jobs_help)
    p.set_defaults(func=_cmd_run, writes=("logs",))

    p = sub.add_parser("ttt", help="time-to-threshold table from logs")
    p.add_argument("--logs", nargs="+", required=True,
                   help="log files or directories")
    p.add_argument("--threshold", type=float, default=None,
                   help="override the threshold recorded in the logs")
    p.add_argument("--thresholds", default=None,
                   help="comma-separated grid; emits one row per threshold")
    p.add_argument("--name", default=None)
    p.set_defaults(func=_cmd_ttt, writes=("tables",))

    p = sub.add_parser("ablate-k", help="re-run the config across sketch ranks")
    p.add_argument("--config", required=True)
    p.add_argument("--ks", default="0,1,3,5")
    p.add_argument("--jobs", default=None, help=jobs_help)
    p.set_defaults(func=_cmd_ablate_k, writes=("logs", "tables"))

    p = sub.add_parser("sweep", help="damping x refresh-interval sensitivity grid")
    p.add_argument("--config", required=True)
    p.add_argument("--etas", default="0.5,1.0,2.0")
    p.add_argument("--ms", default="25,50,100")
    p.add_argument("--jobs", default=None, help=jobs_help)
    p.set_defaults(func=_cmd_sweep, writes=("logs", "tables"))

    p = sub.add_parser("plotdata", help="emit loss-vs-step mean/std bands from logs")
    p.add_argument("--logs", nargs="+", required=True)
    p.add_argument("--name", default=None)
    p.set_defaults(func=_cmd_plotdata, writes=("figures-data",))

    p = sub.add_parser("theory", help="run the analysis checks and report pass/fail")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_theory, writes=("logs/theory",))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig adds the stderr handler once per process; the level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(args.log_level)
    try:
        for sub in args.writes:  # the nearest existing ancestor of each must be a directory
            out = os.path.join(args.out, sub)
            while not os.path.lexists(out):
                out = os.path.dirname(out) or "."
            if not os.path.isdir(out):
                raise ConfigError(f"--out {args.out}: {out} is not a directory")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
