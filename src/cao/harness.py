"""Experiment runner: seeded multi-optimizer comparisons and their summaries.

Within one seed every optimizer consumes the identical batch schedule and
starts from the identical point, so differences in the logs are attributable
to the optimizer alone. All outputs are regenerable from the logs.

Every summary works from one entry per run whose ``series`` is the run's
(step, loss) list: ``_group_logs`` reduces each log to it right after parsing,
and ``run_single`` collects it as it writes the log. The tables of the derived
commands (``k_ablation``, ``sensitivity_sweep``) come from the runs' own
entries and equal the tables rebuilt from a re-read of their logs.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from itertools import repeat
from operator import contains
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, OptimizerSpec, parse_config
from .errors import (ConfigError, ContractViolationError, DivergenceError, NumericOverflowError,
                     WorkerError)
from .optim import CaoConfig, make_runner
from .problems import FULL_BATCH, Batch, from_config
from .runlog import RunLogWriter, collector_paused, read_runlog

log = logging.getLogger(__name__)

UNREACHED = "unreached"


def _package_version() -> str:
    from . import __version__

    return __version__


def build_schedule(num_samples: int, batch_size: int, steps: int, seed: int):
    """Shared batch order for one seed: shuffled passes, re-seeded per epoch.

    Returns (schedule, steps_per_epoch, hash). ``batch_size`` 0 or a
    sample-free problem gives a full-batch schedule.
    """
    if batch_size == 0 or num_samples == 0:
        digest = hashlib.sha256(b"full-batch").hexdigest()[:16]
        return [FULL_BATCH] * steps, 1, digest
    if batch_size > num_samples:
        raise ConfigError(f"batch_size {batch_size} exceeds num_samples {num_samples}")
    steps_per_epoch = num_samples // batch_size
    schedule = []
    hasher = hashlib.sha256()
    epoch = 0
    while len(schedule) < steps:
        perm = np.random.default_rng([int(seed), 331, epoch]).permutation(num_samples)
        for b in range(steps_per_epoch):
            idx = perm[b * batch_size : (b + 1) * batch_size]
            schedule.append(Batch(indices=idx))
            hasher.update(idx.astype(np.int64).tobytes())
            if len(schedule) == steps:
                break
        epoch += 1
    return schedule, steps_per_epoch, hasher.hexdigest()[:16]


def run_single(problem, spec: OptimizerSpec, opt_index: int, seed: int, schedule,
               steps_per_epoch: int, cfg: ExperimentConfig, log_path,
               schedule_hash: str | None = None):
    """One (optimizer, seed) run; writes the log and returns (summary, series).

    ``schedule_hash`` is the digest ``build_schedule`` returned for
    ``schedule``; it goes into the log header. ``series`` is what
    ``_series`` picks from the log's records: the (step, eval_loss) pairs if
    any step was evaluated, else the (step, loss) pair of every record,
    including the one a divergence leaves.

    A full-set loss that overflows ends the run as diverged, with no
    ``final_loss`` in the summary. An eval that overflows does so before its
    step is taken: that step writes no record, and the series ends at the
    last evaluated step before it. A final loss that overflows leaves every
    record and the series as they are.
    """
    theta0 = problem.initial_point(seed)
    runner = make_runner(spec.kind, theta0, spec.params, seed)
    minibatch = cfg.batch_size > 0 and problem.num_samples > 0
    summary = {"steps_done": 0, "diverged": False, "clamp_steps": 0, "refreshes": 0}
    losses, evals = [], []
    t_start = time.perf_counter()
    with RunLogWriter(log_path) as writer:
        writer.write_header({
            "experiment": cfg.name,
            "config": cfg.to_dict(),
            "optimizer": {"kind": spec.kind, "label": spec.label, "index": opt_index,
                          **spec.params},
            "seed": seed,
            "steps_per_epoch": steps_per_epoch,
            "schedule_hash": schedule_hash,
            "threshold": cfg.threshold,
            "package_version": _package_version(),
        })
        try:
            for t, batch in enumerate(schedule):
                eval_loss = None
                if minibatch and t % cfg.eval_every == 0:
                    try:
                        eval_loss = problem.loss(runner.theta)
                    except NumericOverflowError:
                        summary["diverged"] = True
                        break
                t0 = time.perf_counter()
                rec = runner.step(problem, batch)
                rec.wall = time.perf_counter() - t0
                rec.epoch = t // steps_per_epoch
                rec.eval_loss = eval_loss
                writer.write_record(rec)
                losses.append((rec.step, rec.loss))
                if eval_loss is not None:
                    evals.append((rec.step, eval_loss))
                summary["steps_done"] = t + 1
                if rec.clamped:
                    summary["clamp_steps"] += 1
                if rec.refreshed:
                    summary["refreshes"] += 1
        except DivergenceError as exc:
            # no eval_loss in this record: it is set only once a step returns
            rec = exc.record
            if rec is not None:
                rec.epoch = rec.step // steps_per_epoch
                writer.write_record(rec)
                losses.append((rec.step, rec.loss))
            summary["diverged"] = True
        if not summary["diverged"]:
            try:
                summary["final_loss"] = problem.loss(runner.theta)
            except NumericOverflowError:
                summary["diverged"] = True
        summary["hvp_calls"] = runner.hvp_calls
        summary["wall_total"] = time.perf_counter() - t_start
        writer.write_summary(summary)
    return summary, evals or losses


def _log_path(out_root, exp_name, label, seed) -> Path:
    return Path(out_root) / "logs" / exp_name / label / f"{seed}.log"


def pool_size(jobs: int, n_tasks: int) -> int:
    """Processes, the caller included, for ``n_tasks`` independent runs at ``jobs``.

    ``jobs`` must be an integer >= 1. There are never more processes than
    tasks, and only the caller where the platform cannot fork; at 1 nothing
    is forked.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    return min(jobs, n_tasks) if hasattr(os, "fork") else 1


class _Captured(logging.Handler):
    """The ``cao.*`` log records of one run, for the caller to re-emit in task order."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@contextmanager
def _capturing():
    """Inside the block ``cao.*`` records go to the yielded ``_Captured``, not up."""
    cao_log = logging.getLogger(__package__)
    saved = cao_log.handlers, cao_log.propagate
    handler = _Captured()
    cao_log.handlers, cao_log.propagate = [handler], False
    try:
        yield handler
    finally:
        cao_log.handlers, cao_log.propagate = saved


@cache
def _openblas_threads():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get, put = (getattr(handle, f"{prefix}_{op}_num_threads{suffix}", None)
                        for op in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside the block, restored after; a warning where it cannot be set."""
    blas = _openblas_threads()
    if blas is None:
        log.warning("no OpenBLAS thread count to set: the runs use the BLAS's own"
                    " threads, and their outputs may depend on how many it uses")
    before = blas[0]() if blas else 1
    if before != 1:
        blas[1](1)
    try:
        yield
    finally:
        if before != 1:
            blas[1](before)


def _claim(execute, queue: int) -> list:
    """Run the tasks this process claims from the ``queue`` file until none is left.

    The queue holds 4-byte task indices, and every process reads it through
    one shared offset, so each read claims the next index. Returns one
    (index, failed, result or exception, cao.* records) per claimed task. A
    failure seeks the queue to its end, which cancels every claim not yet
    made, in every process. Its exception, ``KeyboardInterrupt`` included,
    is kept as the outcome, for ``_run_all`` to raise in task order.
    """
    outcomes = []
    with _capturing() as handler:
        while len(claim := os.read(queue, 4)) == 4:
            i = int.from_bytes(claim, "little")
            handler.records = []
            try:
                outcomes.append((i, False, execute(i), handler.records))
            except BaseException as exc:
                os.lseek(queue, 0, os.SEEK_END)
                outcomes.append((i, True, exc, handler.records))
                break
    return outcomes


def _child(execute, queue: int, pipe: int):
    """A forked child: claim tasks, write the pickled outcomes to ``pipe``, exit.

    It never returns; the exit status is 0 only once every outcome is
    written. An exception that does not survive pickling is sent as a
    ``WorkerError`` naming it.
    """
    status = 1
    try:
        outcomes = _claim(execute, queue)
        if outcomes and outcomes[-1][1]:  # only the last claim can have failed
            i, _, exc, records = outcomes[-1]
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception as why:
                outcomes[-1] = (i, True, WorkerError(
                    f"task {i} raised {type(exc).__name__}: {exc}, which cannot be sent"
                    f" from its worker process ({type(why).__name__}: {why})"), records)
        with open(pipe, "wb") as fh:
            fh.write(pickle.dumps(outcomes))
        status = 0
    finally:
        os._exit(status)


def _reap(children) -> tuple[list, list]:
    """Every child's outcomes and the exits of those that sent none.

    ``children`` holds (pid, pipe read end) pairs. Each pipe is read to its
    end and closed and each child waited for, even if this is interrupted.
    """
    outcomes, dead, waited = [], [], 0
    try:
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            waited += 1
            if code == 0:
                outcomes += pickle.loads(data)
            else:
                dead.append(f"worker process {pid} "
                            + (f"was killed by signal {-code}" if code < 0
                               else f"exited with status {code}"))
    finally:
        for _, r in children:
            os.close(r)  # a child still writing gets a broken pipe and exits
        for pid, _ in children[waited:]:
            os.waitpid(pid, 0)
    return outcomes, dead


def _run_all(execute, n_tasks: int, jobs: int) -> list:
    """``execute(i)`` for every task index i, results in task order.

    The caller forks ``pool_size - 1`` children, none at one process, and
    every process, the caller too, claims task indices from one shared queue
    until it is empty; OpenBLAS runs at one thread meanwhile, so the results
    do not depend on ``jobs``. Each run's ``cao.*`` log records are
    re-emitted by the caller in task order once every run is done.
    If a task raises, no task starts after it, the running ones finish, and
    the first failure in task order is raised, after the records of the
    tasks before it and its own. A child that dies gives a ``WorkerError``
    with its exit status and the tasks left without a result. No child is
    left when this returns or raises.
    """
    processes = pool_size(jobs, n_tasks)
    with _one_blas_thread(), tempfile.TemporaryFile() as queue_file:
        queue_file.write(np.arange(n_tasks, dtype="<u4").tobytes())
        queue_file.seek(0)
        queue = queue_file.fileno()
        children = []
        try:
            for _ in range(processes - 1):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:  # with no read end kept, writing to a pipe the caller
                    # closed fails at once instead of blocking
                    for fd in (r, *(earlier for _, earlier in children)):
                        os.close(fd)
                    _child(execute, queue, w)
                os.close(w)
                children.append((pid, r))
            outcomes = _claim(execute, queue)
        finally:
            os.lseek(queue, 0, os.SEEK_END)  # no run starts after a failure or Ctrl-C
            theirs, dead = _reap(children)
    done = {i: outcome for i, *outcome in outcomes + theirs}
    results = []
    for i in range(n_tasks):
        if i not in done:
            missing = ", ".join(str(j) for j in range(i, n_tasks) if j not in done)
            raise WorkerError(f"{'; '.join(dead)}; tasks without a result: {missing}")
        failed, value, records = done[i]
        for rec in records:
            logging.getLogger(rec.name).handle(rec)
        if failed:
            raise value
        results.append(value)
    return results


def run_comparison(cfg: ExperimentConfig, out_root=".", tasks=None, jobs: int = 1) -> dict:
    """All (seed, optimizer) runs of a config; schedules shared within a seed.

    ``tasks`` lists the runs of one seed as (config the log records, optimizer,
    index) triples; by default each optimizer of ``cfg`` with its own index.
    The problem is built once for all of them, each seed's schedule once, and
    before the first run the HVPs each curvature-adaptive task plans per run
    are logged at INFO. The runs form one list, seed-major, then task, which
    the caller and up to ``jobs - 1`` forked children run at one OpenBLAS
    thread (see ``_run_all``); the children inherit the problem and the
    schedules. Every output is the same for any ``jobs``. Returns the log
    paths, whether any run diverged, and per run a (path, label, index,
    entry) tuple for ``_group``.
    """
    if tasks is None:
        tasks = [(cfg, spec, idx) for idx, spec in enumerate(cfg.optimizers)]
    try:
        problem = from_config(cfg.problem)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from None
    except (MemoryError, ValueError) as exc:  # a section too large to build
        raise ConfigError(f"problem {cfg.problem.get('name')!r} cannot be built:"
                          f" {type(exc).__name__}: {exc}") from None
    for _, spec, _ in tasks:
        if spec.params.get("k", 0) > problem.dim:
            raise ConfigError(f"optimizer {spec.label!r}: k = {spec.params['k']} exceeds"
                              f" the problem dimension {problem.dim}")
    for run_cfg, spec, _ in tasks:
        if spec.kind == "cao":
            cao = CaoConfig(**spec.params)
            refreshes = cao.planned_refreshes(run_cfg.steps)
            per_refresh = (cao.t_pow + 1) * cao.k
            log.info("%s plans %d HVPs per run if every refresh succeeds:"
                     " %d refreshes of (t_pow + 1) * k = %d",
                     spec.label, refreshes * per_refresh, refreshes, per_refresh)
    schedules = {seed: build_schedule(problem.num_samples, cfg.batch_size, cfg.steps, seed)
                 for seed in cfg.seeds}
    plan = [(seed, run_cfg, spec, idx,
             str(_log_path(out_root, run_cfg.name, spec.label, seed)))
            for seed in cfg.seeds for run_cfg, spec, idx in tasks]

    def execute(i):
        seed, run_cfg, spec, idx, path = plan[i]
        schedule, spe, digest = schedules[seed]
        return run_single(problem, spec, idx, seed, schedule, spe, run_cfg, path,
                          schedule_hash=digest)

    logs, runs, diverged = [], [], False
    for (seed, _, spec, idx, path), (summary, series) in zip(
            plan, _run_all(execute, len(plan), jobs)):
        logs.append(path)
        runs.append((path, spec.label, idx,
                     _entry(seed, series, summary, spec.kind, spec.params.get("k", 1),
                            schedules[seed][1])))
        diverged |= summary["diverged"]
    return {"logs": logs, "diverged": diverged, "runs": runs}


# ---------------------------------------------------------------------------
# summaries over logs


def _series(records):
    """(step, loss) pairs used for threshold scans; prefers full-set eval losses."""
    key = "eval_loss" if any(map(contains, records, repeat("eval_loss"))) else "loss"
    return [(r["step"], r[key]) for r in records if key in r]


def _entry(seed, series, summary, kind, rank, steps_per_epoch) -> dict:
    """What every summary reads of one run."""
    return {"seed": seed, "series": series, "summary": summary, "kind": kind,
            "rank": rank, "steps_per_epoch": steps_per_epoch}


def _check_header(path, header) -> None:
    """The header keys that group a run; a missing one is an error naming the file."""
    optimizer = header.get("optimizer")
    if not isinstance(optimizer, dict):
        raise ConfigError(f"{path}: log header has no 'optimizer' object")
    for key in ("label", "index", "kind"):
        if key not in optimizer:
            raise ConfigError(f"{path}: log header has no 'optimizer.{key}'")
    if "seed" not in header:
        raise ConfigError(f"{path}: log header has no 'seed'")


def _group(runs):
    """Group (path, label, index, entry) runs by label, labels in index order.

    Each label's entries are sorted by seed. Two runs of the same label and
    seed are an error naming both files.
    """
    groups, order, seen = {}, {}, {}
    for path, label, index, run in runs:
        key = (label, run["seed"])
        if key in seen:
            raise ConfigError(f"{seen[key]} and {path}: both hold label {label!r}, "
                              f"seed {run['seed']}")
        seen[key] = path
        order[label] = index
        groups.setdefault(label, []).append(run)
    if not groups:
        raise ConfigError("no logs given")
    for label in groups:
        groups[label].sort(key=lambda run: run["seed"])
    labels = sorted(groups, key=lambda lab: order[lab])
    return groups, labels


def _group_logs(log_paths):
    """Parse each log once, reduce it to its entry and group the runs (see ``_group``).

    A path that cannot be read (missing, a directory), a log that a killed
    run left behind (a line cut short, or no summary line) or one that breaks
    the layout of ``cao.runlog`` is an error naming the file,
    and so are a header without the keys that group its run and two logs of
    the same label and seed. Returns (groups, labels, recorded): the
    (path, threshold) of each log whose header records a threshold, in path
    order.

    The cyclic collector stays paused from each log's read until its records
    are reduced to the series and dropped: they hold no cycles and are freed
    by refcount, so a collection in between would only traverse and promote
    them. It is back as it was found before the next log is read.
    """
    runs, recorded = [], []
    for path in sorted(str(p) for p in log_paths):
        with collector_paused():
            try:
                header, records, summary = read_runlog(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{path}: unreadable log ({exc})") from None
            if summary is None:
                raise ConfigError(f"{path}: incomplete log, no summary line")
            _check_header(path, header)
            optimizer = header["optimizer"]
            if header.get("threshold") is not None:
                recorded.append((path, header["threshold"]))
            runs.append((path, optimizer["label"], optimizer["index"], _entry(
                header["seed"], _series(records), summary, optimizer["kind"],
                optimizer.get("k", 1), header.get("steps_per_epoch", 1))))
            del records
    groups, labels = _group(runs)
    return groups, labels, recorded


def _first_hit(series, threshold):
    for step, value in series:
        if value <= threshold:
            return step
    return None


def _ttt_table(groups, labels, threshold) -> dict:
    """First-hit table over grouped runs (see ``time_to_threshold``)."""
    table = {"threshold": threshold, "optimizers": {}, "speedups": {}}
    for label in labels:
        hits, epochs = {}, []
        for run in groups[label]:
            hit = _first_hit(run["series"], threshold)
            hits[run["seed"]] = hit
            if hit is not None:
                epochs.append(hit // run["steps_per_epoch"])
        reached = [h for h in hits.values() if h is not None]
        entry = {"hits": hits, "unreached": len(hits) - len(reached)}
        if reached:
            entry["mean"] = float(np.mean(reached))
            entry["std"] = float(np.std(reached))
            entry["mean_epoch"] = float(np.mean(epochs))
        table["optimizers"][label] = entry
    reference = next(
        (lab for lab in labels
         if groups[lab][0]["kind"] == "cao" and groups[lab][0]["rank"] != 0),
        next((lab for lab in labels if groups[lab][0]["kind"] == "cao"), labels[0]),
    )
    table["reference"] = reference
    ref_mean = table["optimizers"][reference].get("mean")
    for label in labels:
        if label == reference:
            continue
        mean = table["optimizers"][label].get("mean")
        if ref_mean and mean is not None:
            table["speedups"][label] = mean / ref_mean
    return table


def time_to_threshold(log_paths, threshold: float | None = None) -> dict:
    """First-hit table: per optimizer the step at which loss reached the threshold.

    Runs that never reach it are excluded from the mean and counted. The
    speedup row divides each baseline mean by the first curvature-adaptive
    optimizer's mean. With no ``threshold`` given the logs' recorded one is
    used; logs that record different ones are an error naming two of them.
    """
    groups, labels, recorded = _group_logs(log_paths)
    if threshold is None:
        if not recorded:
            raise ConfigError("no threshold given and none recorded in the logs")
        path, threshold = recorded[0]
        other = next(((p, t) for p, t in recorded if t != threshold), None)
        if other is not None:
            raise ConfigError(f"{path} records threshold {threshold!r} and {other[0]}"
                              f" records {other[1]!r}; choose one with --threshold")
    return _ttt_table(groups, labels, threshold)


def format_ttt(table: dict, name: str = "") -> str:
    lines = [f"# time-to-threshold  experiment={name}  threshold={table['threshold']:g}"]
    lines.append("# optimizer\tmean_step\tstd_step\tmean_epoch\tunreached\thits_per_seed")
    for label, entry in table["optimizers"].items():
        hits = ",".join(str(h) if h is not None else UNREACHED
                        for _, h in sorted(entry["hits"].items()))
        if "mean" in entry:
            lines.append(f"{label}\t{entry['mean']:.2f}\t{entry['std']:.2f}"
                         f"\t{entry['mean_epoch']:.2f}\t{entry['unreached']}\t{hits}")
        else:
            lines.append(f"{label}\t{UNREACHED}\t-\t-\t{entry['unreached']}\t{hits}")
    for label, ratio in table["speedups"].items():
        lines.append(f"# speedup {label}/{table['reference']} = {ratio:.2f}x")
    return "\n".join(lines) + "\n"


def threshold_sweep(log_paths, thresholds) -> str:
    """One first-hit row per threshold over the same set of logs."""
    groups, labels, _ = _group_logs(log_paths)
    rows = []
    for thr in thresholds:
        table = _ttt_table(groups, labels, thr)
        others = [lab for lab in labels if lab != table["reference"]]
        if not rows:
            cols = "\t".join(f"{lab}_mean" for lab in labels)
            speed_cols = "\t".join(f"{lab}/{table['reference']}" for lab in others)
            rows.append(f"# threshold\t{cols}\t{speed_cols}")
        means = [f"{entry['mean']:.2f}" if "mean" in entry else UNREACHED
                 for entry in table["optimizers"].values()]
        speeds = [f"{table['speedups'][lab]:.2f}x" if lab in table["speedups"] else "-"
                  for lab in others]
        rows.append("\t".join([f"{thr:g}"] + means + speeds))
    return "\n".join(rows) + "\n"


def emit_plot_data(log_paths, out_path) -> Path:
    """Loss-versus-step mean and std bands across seeds, one column pair per optimizer.

    All optimizers must carry the same number of seeds and every run the same
    step grid; a grid that differs is an error naming its label, its seed and
    both step counts. A lone seed adds a trailing single-seed flag column.
    """
    groups, labels, _ = _group_logs(log_paths)
    seed_counts = {label: len(groups[label]) for label in labels}
    if len(set(seed_counts.values())) != 1:
        raise ConfigError(f"seed count mismatch across optimizers: {seed_counts}")
    single_seed = next(iter(seed_counts.values())) == 1
    columns, ref = [], None  # ref: (label, seed, steps) of the first run
    for label in labels:
        values = []
        for run in groups[label]:
            steps = [step for step, _ in run["series"]]
            if ref is None:
                ref = (label, run["seed"], steps)
                columns.append(list(map(str, steps)))
            elif steps != ref[2]:
                ref_label, ref_seed, ref_steps = ref
                across = "seeds for" if label == ref_label else "optimizers:"
                raise ConfigError(
                    f"step grids differ across {across} {label!r} seed {run['seed']} has"
                    f" {len(steps)} steps, {ref_label!r} seed {ref_seed} has {len(ref_steps)}")
            values.append([value for _, value in run["series"]])
        values = np.array(values)
        with np.errstate(all="ignore"):  # seeds at inf together: a nan std, written as is
            bands = values.mean(axis=0), values.std(axis=0)
        columns += (list(map(repr, a.tolist())) for a in bands)
    header = ["step"]
    suffix = "†" if single_seed else ""
    for label in labels:
        header += [f"{label}{suffix}:mean", f"{label}{suffix}:std"]
    if single_seed:
        header.append("single_seed")
        columns.append(repeat("1"))
    lines = ["# " + "\t".join(header), *map("\t".join, zip(*columns))]
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# derived experiments


def _final_loss_mean(runs):
    """Mean final loss of grouped runs, in seed order; None if every run diverged."""
    finals = [run["summary"]["final_loss"] for run in runs
              if "final_loss" in run["summary"]]
    return float(np.mean(finals)) if finals else None


def _first_cao_spec(cfg: ExperimentConfig) -> OptimizerSpec:
    for spec in cfg.optimizers:
        if spec.kind == "cao":
            return spec
    raise ConfigError("config has no curvature-adaptive optimizer entry")


def _derived(cfg: ExperimentConfig, name: str, entries) -> ExperimentConfig:
    """``cfg`` renamed, with ``entries`` as its optimizers, checked as a config file is."""
    return parse_config({**cfg.to_dict(), "name": name, "optimizers": entries})


def k_ablation(cfg: ExperimentConfig, ks=(0, 1, 3, 5), out_root=".", jobs: int = 1) -> dict:
    """Re-run the config's curvature-adaptive optimizer across ranks, on up to ``jobs`` workers."""
    template = _first_cao_spec(cfg)
    ablate_cfg = _derived(cfg, f"{cfg.name}-ablate-k", [
        {"kind": "cao", "label": f"cao-k{k}", **template.params, "k": int(k)} for k in ks])
    result = run_comparison(ablate_cfg, out_root, jobs=jobs)
    groups, labels = _group(result["runs"])
    table = _ttt_table(groups, labels, cfg.threshold)
    finals = {label: _final_loss_mean(groups[label]) for label in labels}
    summary_rows = {label: {"first_hit": table["optimizers"][label], "final_loss_mean": final}
                    for label, final in finals.items() if final is not None}
    return {"logs": result["logs"], "diverged": result["diverged"],
            "table": table, "summary": summary_rows, "name": ablate_cfg.name}


def sensitivity_sweep(cfg: ExperimentConfig, etas, ms, out_root=".", jobs: int = 1) -> dict:
    """Grid over damping and refresh interval for the curvature-adaptive entry.

    Each cell reports first-hit, final loss, clamp events, HVP count and a
    divergence flag. All cells run in one comparison, each logged as a config
    of its own: its one optimizer at index 0, on up to ``jobs`` workers (see
    ``run_comparison``).
    """
    template = _first_cao_spec(cfg)
    # every cell is checked before the first one runs
    grid_cfg = _derived(cfg, f"{cfg.name}-sweep", [
        {"kind": "cao", "label": f"cao-eta{eta:g}-m{m}", **template.params,
         "eta": float(eta), "m": int(m)} for eta in etas for m in ms])
    result = run_comparison(grid_cfg, out_root, tasks=[
        (replace(grid_cfg, optimizers=(spec,)), spec, 0) for spec in grid_cfg.optimizers],
        jobs=jobs)
    groups, _ = _group(result["runs"])
    cells = []
    for spec in grid_cfg.optimizers:
        label = spec.label
        runs = groups[label]
        entry = _ttt_table(groups, [label], cfg.threshold)["optimizers"][label]
        clamps = sum(run["summary"]["clamp_steps"] for run in runs)
        diverged = any(run["summary"]["diverged"] for run in runs)
        cells.append({
            "eta": spec.params["eta"], "m": spec.params["m"],
            "first_hit_mean": entry.get("mean"),
            "unreached": entry["unreached"],
            "final_loss_mean": _final_loss_mean(runs),
            "clamp_steps": clamps,
            "hvp_calls": [run["summary"]["hvp_calls"] for run in runs],
            "diverged": diverged,
            "unstable": diverged or clamps > 0,
        })
    return {"cells": cells, "diverged": result["diverged"], "name": grid_cfg.name}


def format_sweep(sweep: dict) -> str:
    lines = [f"# sensitivity sweep  experiment={sweep['name']}",
             "# eta\tm\tfirst_hit\tfinal_loss\tclamp_steps\thvp_calls\tunstable"]
    for cell in sweep["cells"]:
        hit = f"{cell['first_hit_mean']:.2f}" if cell["first_hit_mean"] is not None \
            else UNREACHED
        final = f"{cell['final_loss_mean']:.6g}" if cell["final_loss_mean"] is not None \
            else "-"
        lines.append(f"{cell['eta']:g}\t{cell['m']}\t{hit}\t{final}"
                     f"\t{cell['clamp_steps']}\t{cell['hvp_calls'][0]}"
                     f"\t{int(cell['unstable'])}")
    return "\n".join(lines) + "\n"
