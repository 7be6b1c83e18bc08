"""Experiment runner: seeded multi-optimizer comparisons and their summaries.

Within one seed every optimizer consumes the identical batch schedule and
starts from the identical point, so differences in the logs are attributable
to the optimizer alone. All outputs are regenerable from the logs.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, OptimizerSpec
from .errors import ConfigError, ContractViolationError, DivergenceError
from .optim import make_runner
from .problems import FULL_BATCH, Batch, from_config
from .runlog import RunLogWriter, read_runlog

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
               schedule_hash: str | None = None) -> dict:
    """One (optimizer, seed) run; writes the log and returns its summary.

    ``schedule_hash`` is the digest ``build_schedule`` returned for
    ``schedule``; it goes into the log header.
    """
    theta0 = problem.initial_point(seed)
    params = spec.runner_params()
    if spec.kind == "cao":
        params.setdefault("sketch_seed", seed)
    runner = make_runner(spec.kind, theta0, params)
    minibatch = cfg.batch_size > 0 and problem.num_samples > 0
    summary = {"steps_done": 0, "diverged": False, "clamp_steps": 0, "refreshes": 0}
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
                    eval_loss = problem.loss(runner.theta)
                t0 = time.perf_counter()
                rec = runner.step(problem, batch, epoch=t // steps_per_epoch)
                rec.wall = time.perf_counter() - t0
                rec.eval_loss = eval_loss
                writer.write_record(rec)
                summary["steps_done"] = t + 1
                summary["clamp_steps"] += int(rec.clamped)
                summary["refreshes"] += int(rec.refreshed)
        except DivergenceError as exc:
            if exc.record is not None:
                writer.write_record(exc.record)
            summary["diverged"] = True
        if not summary["diverged"]:
            summary["final_loss"] = problem.loss(runner.theta)
        summary["hvp_calls"] = runner.hvp_calls
        summary["wall_total"] = time.perf_counter() - t_start
        writer.write_summary(summary)
    return summary


def _log_path(out_root, exp_name, label, seed) -> Path:
    return Path(out_root) / "logs" / exp_name / label / f"{seed}.log"


def run_comparison(cfg: ExperimentConfig, out_root=".") -> dict:
    """All (seed, optimizer) runs of a config; schedules shared within a seed."""
    try:
        problem = from_config(cfg.problem)
    except ContractViolationError as exc:
        raise ConfigError(f"problem: {exc}") from None
    logs, diverged = [], False
    for seed in cfg.seeds:
        schedule, spe, digest = build_schedule(problem.num_samples, cfg.batch_size,
                                               cfg.steps, seed)
        for idx, spec in enumerate(cfg.optimizers):
            path = _log_path(out_root, cfg.name, spec.label, seed)
            summary = run_single(problem, spec, idx, seed, schedule, spe, cfg, path,
                                 schedule_hash=digest)
            logs.append(str(path))
            diverged |= summary["diverged"]
    return {"logs": logs, "diverged": diverged}


# ---------------------------------------------------------------------------
# summaries over logs


def _series(records):
    """(steps, losses) used for threshold scans; prefers full-set eval losses."""
    if any("eval_loss" in r for r in records):
        pairs = [(r["step"], r["eval_loss"]) for r in records if "eval_loss" in r]
    else:
        pairs = [(r["step"], r["loss"]) for r in records]
    return pairs


def _group_logs(log_paths):
    """Parse logs and group them by optimizer label, keeping config order."""
    groups = {}
    order = {}
    threshold = None
    for path in sorted(str(p) for p in log_paths):
        header, records, summary = read_runlog(path)
        label = header["optimizer"]["label"]
        order[label] = header["optimizer"]["index"]
        threshold = header.get("threshold", threshold)
        groups.setdefault(label, []).append(
            {"seed": header["seed"], "records": records, "summary": summary,
             "kind": header["optimizer"]["kind"],
             "rank": header["optimizer"].get("k", 1),
             "steps_per_epoch": header.get("steps_per_epoch", 1)}
        )
    if not groups:
        raise ConfigError("no logs given")
    for label in groups:
        groups[label].sort(key=lambda run: run["seed"])
    labels = sorted(groups, key=lambda lab: order[lab])
    return groups, labels, threshold


def _first_hit(records, threshold):
    for step, value in _series(records):
        if value <= threshold:
            return step
    return None


def time_to_threshold(log_paths, threshold: float | None = None) -> dict:
    """First-hit table: per optimizer the step at which loss reached the threshold.

    Runs that never reach it are excluded from the mean and counted. The
    speedup row divides each baseline mean by the first curvature-adaptive
    optimizer's mean.
    """
    groups, labels, header_threshold = _group_logs(log_paths)
    if threshold is None:
        threshold = header_threshold
    if threshold is None:
        raise ConfigError("no threshold given and none recorded in the logs")
    table = {"threshold": threshold, "optimizers": {}, "speedups": {}}
    for label in labels:
        hits, epochs = {}, []
        for run in groups[label]:
            hit = _first_hit(run["records"], threshold)
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
    rows = []
    header_labels = None
    for thr in thresholds:
        table = time_to_threshold(log_paths, threshold=thr)
        labels = list(table["optimizers"])
        if header_labels is None:
            header_labels = labels
            cols = "\t".join(f"{lab}_mean" for lab in labels)
            speed_cols = "\t".join(f"{lab}/{table['reference']}"
                                   for lab in labels if lab != table["reference"])
            rows.append(f"# threshold\t{cols}\t{speed_cols}")
        means = []
        for lab in labels:
            entry = table["optimizers"][lab]
            means.append(f"{entry['mean']:.2f}" if "mean" in entry else UNREACHED)
        speeds = [f"{table['speedups'][lab]:.2f}x" if lab in table["speedups"] else "-"
                  for lab in labels if lab != table["reference"]]
        rows.append("\t".join([f"{thr:g}"] + means + speeds))
    return "\n".join(rows) + "\n"


def emit_plot_data(log_paths, out_path) -> Path:
    """Loss-versus-step mean and std bands across seeds, one column pair per optimizer.

    All optimizers must carry the same number of seeds; a lone seed adds a
    trailing single-seed flag column.
    """
    groups, labels, _ = _group_logs(log_paths)
    seed_counts = {label: len(groups[label]) for label in labels}
    if len(set(seed_counts.values())) != 1:
        raise ConfigError(f"seed count mismatch across optimizers: {seed_counts}")
    single_seed = next(iter(seed_counts.values())) == 1
    per_label = {}
    steps_ref = None
    for label in labels:
        series = [_series(run["records"]) for run in groups[label]]
        steps = [s for s, _ in series[0]]
        for ser in series:
            if [s for s, _ in ser] != steps:
                raise ConfigError(f"step grids differ across seeds for {label!r}")
        if steps_ref is None:
            steps_ref = steps
        elif steps != steps_ref:
            raise ConfigError("step grids differ across optimizers")
        values = np.array([[v for _, v in ser] for ser in series])
        per_label[label] = (values.mean(axis=0), values.std(axis=0))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    cols = ["step"]
    for label in labels:
        suffix = "†" if single_seed else ""
        cols += [f"{label}{suffix}:mean", f"{label}{suffix}:std"]
    if single_seed:
        cols.append("single_seed")
    lines = ["# " + "\t".join(cols)]
    for i, step in enumerate(steps_ref):
        row = [str(step)]
        for label in labels:
            mean, std = per_label[label]
            row += [repr(float(mean[i])), repr(float(std[i]))]
        if single_seed:
            row.append("1")
        lines.append("\t".join(row))
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# derived experiments


def _first_cao_spec(cfg: ExperimentConfig) -> OptimizerSpec:
    for spec in cfg.optimizers:
        if spec.kind == "cao":
            return spec
    raise ConfigError("config has no curvature-adaptive optimizer entry")


def k_ablation(cfg: ExperimentConfig, ks=(0, 1, 3, 5), out_root=".") -> dict:
    """Re-run the config's curvature-adaptive optimizer across ranks."""
    template = _first_cao_spec(cfg)
    variants = []
    for k in ks:
        params = dict(template.params)
        params["k"] = int(k)
        variants.append(OptimizerSpec(kind="cao", label=f"cao-k{k}", params=params))
    ablate_cfg = ExperimentConfig(
        name=f"{cfg.name}-ablate-k",
        problem=cfg.problem,
        optimizers=tuple(variants),
        seeds=cfg.seeds,
        steps=cfg.steps,
        threshold=cfg.threshold,
        batch_size=cfg.batch_size,
        eval_every=cfg.eval_every,
    )
    result = run_comparison(ablate_cfg, out_root)
    table = time_to_threshold(result["logs"])
    final = {}
    for path in result["logs"]:
        header, _, summary = read_runlog(path)
        label = header["optimizer"]["label"]
        if "final_loss" in summary:
            final.setdefault(label, []).append(summary["final_loss"])
    summary_rows = {label: {"first_hit": table["optimizers"][label],
                            "final_loss_mean": float(np.mean(vals))}
                    for label, vals in final.items()}
    return {"logs": result["logs"], "diverged": result["diverged"],
            "table": table, "summary": summary_rows, "name": ablate_cfg.name}


def sensitivity_sweep(cfg: ExperimentConfig, etas, ms, out_root=".") -> dict:
    """Grid over damping and refresh interval for the curvature-adaptive entry.

    Each cell reports first-hit, final loss, clamp events, HVP count and a
    divergence flag.
    """
    template = _first_cao_spec(cfg)
    cells = []
    diverged_any = False
    for eta in etas:
        for m in ms:
            params = dict(template.params)
            params["eta"] = float(eta)
            params["m"] = int(m)
            label = f"cao-eta{eta:g}-m{m}"
            cell_cfg = ExperimentConfig(
                name=f"{cfg.name}-sweep",
                problem=cfg.problem,
                optimizers=(OptimizerSpec(kind="cao", label=label, params=params),),
                seeds=cfg.seeds,
                steps=cfg.steps,
                threshold=cfg.threshold,
                batch_size=cfg.batch_size,
                eval_every=cfg.eval_every,
            )
            result = run_comparison(cell_cfg, out_root)
            hits, finals, clamps, hvps = [], [], 0, []
            for path in result["logs"]:
                header, records, summary = read_runlog(path)
                hit = _first_hit(records, cfg.threshold)
                hits.append(hit)
                if "final_loss" in summary:
                    finals.append(summary["final_loss"])
                clamps += summary["clamp_steps"]
                hvps.append(summary["hvp_calls"])
            reached = [h for h in hits if h is not None]
            cells.append({
                "eta": float(eta), "m": int(m),
                "first_hit_mean": float(np.mean(reached)) if reached else None,
                "unreached": len(hits) - len(reached),
                "final_loss_mean": float(np.mean(finals)) if finals else None,
                "clamp_steps": clamps,
                "hvp_calls": hvps,
                "diverged": result["diverged"],
                "unstable": result["diverged"] or clamps > 0,
            })
            diverged_any |= result["diverged"]
    return {"cells": cells, "diverged": diverged_any, "name": f"{cfg.name}-sweep"}


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
