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

import hashlib
import logging
import os
import time
from dataclasses import replace
from itertools import repeat
from operator import contains
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import ExperimentConfig, OptimizerSpec, parse_config
from .errors import ConfigError, ContractViolationError, DivergenceError, NumericOverflowError
from .executor import run_all
from .optim import CaoConfig, make_runner
from .problems import FULL_BATCH, Batch, from_config
from .runlog import RunLogWriter, collector_paused, read_runlog

log = logging.getLogger(__name__)

UNREACHED = "unreached"


class Schedule(NamedTuple):
    """One seed's batch order, shared by every run of the seed."""
    batches: list
    steps_per_epoch: int
    digest: str  # what the log header records as ``schedule_hash``


class Task(NamedTuple):
    """One run: the config its log header records, its optimizer and index, its seed."""
    cfg: ExperimentConfig
    spec: OptimizerSpec
    index: int
    seed: int


def tasks_of(cfg: ExperimentConfig) -> list:
    """The runs of ``cfg`` as ``Task`` values: each seed, then each optimizer with its index."""
    return [Task(cfg, spec, index, seed) for seed in cfg.seeds
            for index, spec in enumerate(cfg.optimizers)]


def run_files(out_root, tasks) -> list:
    """The files ``tasks`` create under ``out_root``: the log of each, in order,
    ``logs/<name>/<label>/<seed>.log``, then the ``.part`` of each, written first."""
    logs = [str(Path(out_root, "logs", t.cfg.name, t.spec.label, f"{t.seed}.log")) for t in tasks]
    return logs + [f"{log}.part" for log in logs]


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def build_schedule(num_samples: int, batch_size: int, steps: int, seed: int) -> Schedule:
    """The ``Schedule`` of one seed: shuffled passes, re-seeded per epoch.

    ``batch_size`` 0 or a sample-free problem gives a full-batch schedule. A
    minibatch schedule whose indices alone would not fit in physical memory is
    refused before its first batch.
    """
    if batch_size == 0 or num_samples == 0:
        digest = hashlib.sha256(b"full-batch").hexdigest()[:16]
        return Schedule([FULL_BATCH] * steps, 1, digest)
    if batch_size > num_samples:
        raise ConfigError(f"batch_size {batch_size} exceeds num_samples {num_samples}")
    size, memory = steps * batch_size * 8, _physical_memory()
    if size > memory:
        raise ConfigError(f"steps = {steps} at batch_size {batch_size} needs {size} bytes of"
                          f" batch indices, more than the {memory} of physical memory")
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
    return Schedule(schedule, steps_per_epoch, hasher.hexdigest()[:16])


def run_single(problem, task: Task, schedule: Schedule, *, log_path):
    """One ``task`` on ``schedule``, its seed's; writes the log and returns (summary, series).

    ``series`` is what ``_series`` picks from the log's records: the (step,
    eval_loss) pairs if any step was evaluated, else the (step, loss) pair of
    every record, including the one a divergence leaves.

    A full-set loss that overflows ends the run as diverged, with no
    ``final_loss`` in the summary. An eval that overflows does so before its
    step is taken: that step writes no record, and the series ends at the
    last evaluated step before it. A final loss that overflows leaves every
    record and the series as they are.
    """
    cfg, spec, index, seed = task
    batches, steps_per_epoch, digest = schedule
    theta0 = problem.initial_point(seed)
    step, state = make_runner(spec.kind, theta0, spec.params, seed)
    minibatch = bool(batches) and not batches[0].is_full  # as build_schedule decided
    summary = {"steps_done": 0, "diverged": False, "clamp_steps": 0, "refreshes": 0}
    losses, evals = [], []
    t_start = time.perf_counter()
    with RunLogWriter(log_path) as writer:
        writer.write_header({
            "experiment": cfg.name,
            "config": cfg.to_dict(),
            "optimizer": {"kind": spec.kind, "label": spec.label, "index": index,
                          **spec.params},
            "seed": seed,
            "steps_per_epoch": steps_per_epoch,
            "schedule_hash": digest,
            "threshold": cfg.threshold,
            "package_version": __version__,
        })
        try:
            for t, batch in enumerate(batches):
                eval_loss = None
                if minibatch and t % cfg.eval_every == 0:
                    try:
                        eval_loss = problem.loss(state.theta)
                    except NumericOverflowError:
                        summary["diverged"] = True
                        break
                t0 = time.perf_counter()
                state, rec = step(state, problem, batch)
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
                summary["final_loss"] = problem.loss(state.theta)
            except NumericOverflowError:
                summary["diverged"] = True
        summary["hvp_calls"] = getattr(state, "hvp_calls", 0)
        summary["wall_total"] = time.perf_counter() - t_start
        writer.write_summary(summary)
    return summary, evals or losses


def run_comparison(cfg: ExperimentConfig, out_root=".", tasks=None, jobs: int = 1) -> dict:
    """All (seed, optimizer) runs of a config; schedules shared within a seed.

    ``tasks`` lists the runs as ``Task`` values, seed-major; by default
    ``tasks_of(cfg)``, each logged where ``run_files`` puts it. The problem is
    built once for all of them, each seed's schedule once, and before the
    first run the HVPs each curvature-adaptive task plans per run are logged
    at INFO. ``executor.run_all`` runs the tasks on up to ``jobs`` processes,
    whose children inherit the problem and the schedules; every output is the
    same for any ``jobs``. Returns the log paths, whether any run diverged,
    and per run a (path, label, index, entry) tuple for ``_group``.
    """
    tasks = tasks_of(cfg) if tasks is None else tasks
    logs = run_files(out_root, tasks)[:len(tasks)]
    try:
        problem = from_config(cfg.problem)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from None
    except (MemoryError, ValueError) as exc:  # a section too large to build
        raise ConfigError(f"problem {cfg.problem.get('name')!r} cannot be built:"
                          f" {type(exc).__name__}: {exc}") from None
    for _, spec, _, _ in tasks:
        if spec.params.get("k", CaoConfig.k) > problem.dim:
            raise ConfigError(f"optimizer {spec.label!r}: k = {spec.params['k']} exceeds"
                              f" the problem dimension {problem.dim}")
    for run_cfg, spec, _, seed in tasks:
        if spec.kind == "cao" and seed == tasks[0].seed:  # one line per optimizer
            cao = CaoConfig(**spec.params)
            refreshes = cao.planned_refreshes(run_cfg.steps)
            per_refresh = (cao.t_pow + 1) * cao.k
            log.info("%s plans %d HVPs per run if every refresh succeeds:"
                     " %d refreshes of (t_pow + 1) * k = %d",
                     spec.label, refreshes * per_refresh, refreshes, per_refresh)
    try:
        schedules = {seed: build_schedule(problem.num_samples, cfg.batch_size, cfg.steps, seed)
                     for seed in cfg.seeds}
    except (MemoryError, OverflowError) as exc:  # more steps than a list can hold
        raise ConfigError(f"steps = {cfg.steps} cannot be scheduled:"
                          f" {type(exc).__name__}: {exc}") from None

    def execute(i):
        return run_single(problem, tasks[i], schedules[tasks[i].seed], log_path=logs[i])

    runs, diverged = [], False
    for (_, spec, index, seed), path, (summary, series) in zip(
            tasks, logs, run_all(execute, len(tasks), jobs)):
        runs.append((path, spec.label, index,
                     _entry(seed, series, summary, spec.kind, spec.params.get("k", CaoConfig.k),
                            schedules[seed].steps_per_epoch)))
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
                optimizer.get("k", CaoConfig.k), header.get("steps_per_epoch", 1))))
            del records
    groups, labels = _group(runs)
    return groups, labels, recorded


def _ttt_table(groups, labels, threshold) -> dict:
    """First-hit table over grouped runs (see ``time_to_threshold``)."""
    table = {"threshold": threshold, "optimizers": {}, "speedups": {}}
    for label in labels:
        hits, epochs = {}, []
        for run in groups[label]:
            hit = next((step for step, value in run["series"] if value <= threshold), None)
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


def _derived(cfg: ExperimentConfig, name: str, variants) -> ExperimentConfig:
    """``cfg`` renamed, its optimizers its first curvature-adaptive entry with each of
    ``variants`` (a label and the params it sets), checked as a config file is."""
    template = next((spec for spec in cfg.optimizers if spec.kind == "cao"), None)
    if template is None:
        raise ConfigError("config has no curvature-adaptive optimizer entry")
    return parse_config({**cfg.to_dict(), "name": name, "optimizers": [
        {"kind": "cao", **template.params, **variant} for variant in variants]})


def ablation_config(cfg: ExperimentConfig, ks) -> ExperimentConfig:
    """The config ``k_ablation`` runs: ``cfg``'s curvature-adaptive entry at each rank."""
    return _derived(cfg, f"{cfg.name}-ablate-k", [{"label": f"cao-k{k}", "k": int(k)} for k in ks])


def k_ablation(cfg: ExperimentConfig, ks=(0, 1, 3, 5), out_root=".", jobs: int = 1) -> dict:
    """Re-run the config's curvature-adaptive optimizer across ranks, on up to ``jobs`` workers."""
    ablate_cfg = ablation_config(cfg, ks)
    result = run_comparison(ablate_cfg, out_root, jobs=jobs)
    groups, labels = _group(result["runs"])
    return {"logs": result["logs"], "diverged": result["diverged"],
            "table": _ttt_table(groups, labels, cfg.threshold), "name": ablate_cfg.name}


def sweep_config(cfg: ExperimentConfig, etas, ms) -> ExperimentConfig:
    """The config ``sensitivity_sweep`` runs, checked before any cell runs: one entry per cell."""
    return _derived(cfg, f"{cfg.name}-sweep", [
        {"label": f"cao-eta{eta:g}-m{m}", "eta": float(eta), "m": int(m)}
        for eta in etas for m in ms])


def sensitivity_sweep(cfg: ExperimentConfig, etas, ms, out_root=".", jobs: int = 1) -> dict:
    """Grid over damping and refresh interval for the curvature-adaptive entry.

    Each cell reports first-hit, final loss, clamp events, HVP count and a
    divergence flag. All cells run in one comparison, each logged as a config
    of its own: its one optimizer at index 0, on up to ``jobs`` workers (see
    ``run_comparison``).
    """
    grid_cfg = sweep_config(cfg, etas, ms)
    result = run_comparison(grid_cfg, out_root, tasks=[
        task._replace(cfg=replace(grid_cfg, optimizers=(task.spec,)), index=0)
        for task in tasks_of(grid_cfg)], jobs=jobs)
    groups, labels = _group(result["runs"])
    first_hits = _ttt_table(groups, labels, cfg.threshold)["optimizers"]
    cells = []
    for spec in grid_cfg.optimizers:
        runs, entry = groups[spec.label], first_hits[spec.label]
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
        hvps = cell["hvp_calls"]  # one count when every seed spent the same
        hvps = hvps[0] if len(set(hvps)) == 1 else ",".join(map(str, hvps))
        lines.append(f"{cell['eta']:g}\t{cell['m']}\t{hit}\t{final}"
                     f"\t{cell['clamp_steps']}\t{hvps}"
                     f"\t{int(cell['unstable'])}")
    return "\n".join(lines) + "\n"
