import gc
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cao import cli, harness, optim
from cao.config import load_config, parse_config
from cao.errors import ConfigError, ContractViolationError
from cao.harness import (
    build_schedule,
    emit_plot_data,
    format_sweep,
    format_ttt,
    k_ablation,
    run_comparison,
    sensitivity_sweep,
    threshold_sweep,
    time_to_threshold,
)
from cao.runlog import RunLogWriter, normalized_bytes, read_runlog
from cao.optim import StepRecord, make_runner
from cao.problems import _PROBLEMS, from_config

ROOT = Path(__file__).resolve().parent.parent
# the configs reproduce.py and the benchmark workloads run; perfbench/ is only read
SHIPPED_CONFIGS = sorted([*ROOT.glob("configs/*.json"),
                          *ROOT.glob("perfbench/configs/*.json")])


def tiny_config(name="tiny", steps=60, seeds=(0, 1), threshold=0.5):
    return parse_config({
        "name": name,
        "problem": {"name": "logreg", "n_features": 6, "n_samples": 48, "seed": 5},
        "optimizers": [
            {"kind": "cao", "label": "cao-k1", "alpha": 0.5, "k": 1, "m": 10,
             "eta": 1.0, "t_pow": 3},
            {"kind": "sgd", "label": "sgd", "alpha": 0.5, "momentum": 0.0},
        ],
        "seeds": list(seeds),
        "steps": steps,
        "batch_size": 12,
        "threshold": threshold,
        "eval_every": 1,
    })


def _not_strict(token):
    raise ValueError(f"not strict JSON: {token}")


def strict_json_logs(root):
    """Parse every line of every log and part log under ``root`` with a strict JSON
    parser; returns how many of them hold a non-finite float, which is coded as a string."""
    paths = sorted([*Path(root).rglob("*.log"), *Path(root).rglob("*.log.part")])
    assert paths
    coded = 0
    for path in paths:
        text = path.read_text()
        for number, line in enumerate(text.splitlines(), 1):
            try:
                json.loads(line, parse_constant=_not_strict)
            except ValueError as exc:
                raise AssertionError(f"{path}: line {number}: {exc}") from None
        coded += any(token in text for token in ('"Infinity"', '"-Infinity"', '"NaN"'))
    return coded


def synthetic_log(path, label, index, seed, hit_step, steps=80, threshold=0.75):
    """Craft a log whose loss crosses the threshold exactly at hit_step."""
    with RunLogWriter(path) as w:
        w.write_header({
            "experiment": "synthetic",
            "config": {},
            "optimizer": {"kind": "cao" if label.startswith("cao") else label,
                          "label": label, "index": index},
            "seed": seed,
            "steps_per_epoch": 10,
            "schedule_hash": "x",
            "threshold": threshold,
        })
        for t in range(steps):
            loss = 2.0 - (2.0 - threshold) * min(1.0, t / hit_step) if hit_step else 2.0
            w.write_record(StepRecord(step=t, epoch=t // 10, loss=loss,
                                      grad_norm=1.0, update_norm=1.0))
        w.write_summary({"steps_done": steps, "hvp_calls": 0, "diverged": False,
                         "final_loss": loss})


class TestBuildSchedule:
    def test_full_batch(self):
        sched, spe, digest = build_schedule(0, 0, 5, seed=0)
        assert len(sched) == 5 and spe == 1
        assert all(b.is_full for b in sched)

    def test_minibatch_shapes_and_range(self):
        sched, spe, _ = build_schedule(48, 12, 10, seed=1)
        assert spe == 4 and len(sched) == 10
        for b in sched:
            assert b.indices.size == 12
            assert b.indices.min() >= 0 and b.indices.max() < 48

    def test_epoch_is_a_permutation(self):
        sched, spe, _ = build_schedule(48, 12, 4, seed=2)
        seen = np.concatenate([b.indices for b in sched[:spe]])
        assert sorted(seen.tolist()) == list(range(48))

    def test_same_seed_same_hash(self):
        _, _, d1 = build_schedule(48, 12, 20, seed=3)
        _, _, d2 = build_schedule(48, 12, 20, seed=3)
        _, _, d3 = build_schedule(48, 12, 20, seed=4)
        assert d1 == d2 and d1 != d3

    def test_batch_too_large(self):
        with pytest.raises(ConfigError):
            build_schedule(10, 20, 5, seed=0)


class TestRunComparison:
    @pytest.mark.parametrize("stem, refreshes", [("quad_speedup", 30), ("mlp_speedup", 16)])
    def test_hvp_plan_logged_at_info(self, tmp_path, caplog, stem, refreshes):
        cfg = load_config(ROOT / "configs" / f"{stem}.json")
        cao_k1 = cfg.optimizers[0]
        assert (cao_k1.label, cao_k1.params["k"], cao_k1.params["t_pow"]) == ("cao-k1", 1, 10)
        cfg = replace(cfg, optimizers=(cao_k1,), seeds=(0,))  # the plan is per run
        with caplog.at_level(logging.INFO, logger="cao.harness"):
            result = run_comparison(cfg, tmp_path)
        planned = refreshes * 11
        assert [r.getMessage() for r in caplog.records if r.name == "cao.harness"] == [
            f"cao-k1 plans {planned} HVPs per run if every refresh succeeds:"
            f" {refreshes} refreshes of (t_pow + 1) * k = 11"]
        _, records, summary = read_runlog(result["logs"][0])
        assert summary["hvp_calls"] == planned
        assert summary["refreshes"] == sum(r["refreshed"] for r in records) == refreshes

    def test_layout_and_schedule_sharing(self, tmp_path):
        cfg = tiny_config()
        result = run_comparison(cfg, tmp_path)
        assert not result["diverged"]
        assert len(result["logs"]) == 4  # 2 optimizers x 2 seeds
        for seed in (0, 1):
            hashes = set()
            for label in ("cao-k1", "sgd"):
                path = tmp_path / "logs" / "tiny" / label / f"{seed}.log"
                assert path.exists()
                header, records, summary = read_runlog(path)
                hashes.add(header["schedule_hash"])
                assert len(records) == 60
                assert summary["steps_done"] == 60
            assert len(hashes) == 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config()
        run_comparison(cfg, tmp_path / "a")
        run_comparison(cfg, tmp_path / "b")
        for rel in ("logs/tiny/cao-k1/0.log", "logs/tiny/sgd/1.log"):
            assert normalized_bytes(tmp_path / "a" / rel) == \
                normalized_bytes(tmp_path / "b" / rel)

    def test_eval_every_leaves_step_records_unchanged(self, tmp_path):
        # a full-set eval before a step lets the mlp step reuse its forward
        # pass; the records must not show whether it did
        doc = json.loads((ROOT / "configs" / "mlp_speedup.json").read_text())
        doc.update(seeds=[1], steps=60)
        records = []
        for every in (1, 4):
            doc.update(name=f"every-{every}", eval_every=every)
            result = run_comparison(parse_config(doc), tmp_path)
            records.append([])
            for path in result["logs"]:
                _, recs, summary = read_runlog(path)
                assert summary["steps_done"] == 60
                for rec in recs:
                    rec.pop("wall")
                    rec.pop("eval_loss", None)  # written only at evaluated steps
                records[-1].append((recs, summary["hvp_calls"], summary["final_loss"]))
        assert any(rec["refreshed"] for rec in records[0][0][0])
        assert records[0] == records[1]

    def test_divergent_run_flagged(self, tmp_path):
        cfg = parse_config({
            "name": "diverge",
            "problem": {"name": "quadratic", "spectrum": [100.0, 1.0], "seed": 1},
            "optimizers": [{"kind": "sgd", "alpha": 10.0}],
            "seeds": [0],
            "steps": 500,
            "threshold": 0.1,
        })
        result = run_comparison(cfg, tmp_path)
        assert result["diverged"]
        header, records, summary = read_runlog(result["logs"][0])
        assert summary["diverged"]
        assert records[-1]["loss"] == float("inf") or records[-1]["loss"] > 1e100
        assert list(tmp_path.rglob("*.part")) == []
        assert strict_json_logs(tmp_path) == 1

    def test_minibatch_records_log_their_epoch(self, tmp_path):
        cfg = parse_config({
            "name": "epochs",
            "problem": {"name": "logreg", "n_features": 5, "n_samples": 40, "seed": 0},
            "optimizers": [{"kind": "cao", "alpha": 0.1, "k": 1, "m": 5, "t_pow": 2},
                           {"kind": "sgd", "alpha": 0.1}],
            "seeds": [0],
            "steps": 14,
            "batch_size": 10,
            "threshold": 0.1,
        })
        for path in run_comparison(cfg, tmp_path)["logs"]:
            header, records, _ = read_runlog(path)
            assert header["steps_per_epoch"] == 4
            assert [r["step"] for r in records] == list(range(14))
            assert [r["epoch"] for r in records] == [r["step"] // 4 for r in records]

    def test_divergence_record_logs_its_epoch(self, tmp_path):
        # full batch: one step per epoch, so each epoch is its step
        cfg = parse_config({
            "name": "diverge",
            "problem": {"name": "quadratic", "spectrum": [100.0, 1.0], "seed": 1},
            "optimizers": [{"kind": "sgd", "alpha": 10.0}],
            "seeds": [0],
            "steps": 500,
            "threshold": 0.1,
        })
        header, records, summary = read_runlog(run_comparison(cfg, tmp_path)["logs"][0])
        assert header["steps_per_epoch"] == 1 and summary["diverged"]
        # the last record is the divergence's: one past the last step taken
        assert records[-1]["step"] == summary["steps_done"] > 1
        assert [r["epoch"] for r in records] == [r["step"] for r in records]

    def test_failed_run_leaves_only_a_part_file(self, tmp_path, monkeypatch):
        def interrupted(state, *args, **kwargs):
            if state.step == 5:
                raise KeyboardInterrupt
            return step(state, *args, **kwargs)

        step = optim.sgd_step
        monkeypatch.setattr(optim, "sgd_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_comparison(tiny_config(steps=20, seeds=(0,)), tmp_path)
        part = tmp_path / "logs" / "tiny" / "sgd" / "0.log.part"
        assert len(part.read_text().splitlines()) == 6  # header and 5 steps
        assert [p.name for p in tmp_path.rglob("*.log")] == ["0.log"]  # cao-k1 only
        assert cli.main(["--out", str(tmp_path), "ttt", "--logs",
                         str(tmp_path / "logs" / "tiny")]) == cli.EXIT_OK


class TestSeries:
    def test_eval_losses_when_only_a_later_record_has_one(self):
        records = [{"step": 0, "loss": 3.0}, {"step": 1, "loss": 2.0},
                   {"step": 2, "loss": 1.5, "eval_loss": 1.25}, {"step": 3, "loss": 1.0}]
        assert harness._series(records) == [(2, 1.25)]

    def test_losses_when_no_record_has_an_eval(self):
        records = [{"step": 0, "loss": 3.0}, {"step": 1, "loss": 2.0}]
        assert harness._series(records) == [(0, 3.0), (1, 2.0)]
        assert harness._series([]) == []


class TestTimeToThreshold:
    def test_table2_format_exemplar(self, tmp_path):
        # means 56 and 19 must render a 2.95x speedup
        for i, seed in enumerate((0, 1, 2)):
            synthetic_log(tmp_path / f"adam/{seed}.log", "adam", 1, seed,
                          hit_step=[55, 56, 57][i])
            synthetic_log(tmp_path / f"cao-k1/{seed}.log", "cao-k1", 0, seed,
                          hit_step=19)
        logs = sorted(tmp_path.rglob("*.log"))
        table = time_to_threshold(logs)
        assert table["optimizers"]["cao-k1"]["mean"] == pytest.approx(19.0)
        assert table["optimizers"]["cao-k1"]["std"] == pytest.approx(0.0)
        assert table["optimizers"]["adam"]["mean"] == pytest.approx(56.0)
        text = format_ttt(table, name="synthetic")
        assert "19.00" in text and "2.95x" in text

    def test_unreached_marker_and_exclusion(self, tmp_path):
        synthetic_log(tmp_path / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
        synthetic_log(tmp_path / "sgd/0.log", "sgd", 1, 0, hit_step=None)
        table = time_to_threshold(sorted(tmp_path.rglob("*.log")))
        assert table["optimizers"]["sgd"]["unreached"] == 1
        assert "mean" not in table["optimizers"]["sgd"]
        text = format_ttt(table)
        assert "unreached" in text

    def test_empty_logs_error(self):
        with pytest.raises(ConfigError):
            time_to_threshold([])

    def test_threshold_sweep_rows_and_monotonicity(self, tmp_path):
        cfg = tiny_config(steps=120, seeds=(0,), threshold=0.6)
        result = run_comparison(cfg, tmp_path)
        grid = [0.6, 0.55, 0.5, 0.45, 0.4]
        text = threshold_sweep(result["logs"], grid)
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 5
        # tighter thresholds cannot be hit earlier
        hits = []
        for thr in grid:
            t = time_to_threshold(result["logs"], threshold=thr)
            hits.append(t["optimizers"]["cao-k1"].get("mean", float("inf")))
        assert all(b >= a for a, b in zip(hits, hits[1:]))


class TestPlotData:
    def test_column_count_and_means(self, tmp_path):
        cfg = tiny_config(steps=40, seeds=(0, 1, 2))
        result = run_comparison(cfg, tmp_path)
        out = emit_plot_data(result["logs"], tmp_path / "figures-data" / "loss.tsv")
        lines = out.read_text().splitlines()
        header = lines[0].lstrip("# ").split("\t")
        assert len(header) == 1 + 2 * 2  # step + (mean, std) per optimizer
        # spot-check the mean at three steps against a hand average
        by_label = {}
        for path in result["logs"]:
            h, recs, _ = read_runlog(path)
            by_label.setdefault(h["optimizer"]["label"], []).append(
                [r["eval_loss"] for r in recs])
        for row_idx in (1, 17, 33):
            cells = lines[row_idx].split("\t")
            step = int(cells[0])
            hand = np.mean([s[step] for s in by_label["cao-k1"]])
            assert float(cells[1]) == pytest.approx(hand, rel=1e-12)

    def test_single_seed_flag_column(self, tmp_path):
        cfg = tiny_config(steps=20, seeds=(0,))
        result = run_comparison(cfg, tmp_path)
        out = emit_plot_data(result["logs"], tmp_path / "loss.tsv")
        lines = out.read_text().splitlines()
        header = lines[0].lstrip("# ").split("\t")
        assert header[-1] == "single_seed"
        assert len(header) == 1 + 2 * 2 + 1
        assert lines[1].split("\t")[-1] == "1"
        assert "†" in lines[0]

    def test_seed_count_mismatch(self, tmp_path):
        synthetic_log(tmp_path / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
        synthetic_log(tmp_path / "cao-k1/1.log", "cao-k1", 0, 1, hit_step=10)
        synthetic_log(tmp_path / "sgd/0.log", "sgd", 1, 0, hit_step=20)
        with pytest.raises(ConfigError):
            emit_plot_data(sorted(tmp_path.rglob("*.log")), tmp_path / "x.tsv")

    @pytest.mark.parametrize("case, steps, message", [
        ("seed-count", {("cao-k1", 0): 80, ("cao-k1", 1): 80, ("sgd", 0): 80},
         "seed count mismatch across optimizers: {'cao-k1': 2, 'sgd': 1}"),
        ("seed-grid", {("cao-k1", 0): 80, ("cao-k1", 1): 60, ("sgd", 0): 80, ("sgd", 1): 80},
         "step grids differ across seeds for 'cao-k1' seed 1 has 60 steps,"
         " 'cao-k1' seed 0 has 80"),
        ("optimizer-grid", {("cao-k1", 0): 80, ("cao-k1", 1): 80, ("sgd", 0): 80,
                            ("sgd", 1): 81},
         "step grids differ across optimizers: 'sgd' seed 1 has 81 steps,"
         " 'cao-k1' seed 0 has 80"),
    ], ids=["seed-count", "seed-grid", "optimizer-grid"])
    def test_refusal_exit_code(self, tmp_path, case, steps, message, capsys):
        for (label, seed), count in steps.items():
            synthetic_log(tmp_path / "logs" / label / f"{seed}.log", label,
                          int(label == "sgd"), seed, hit_step=10, steps=count)
        rc = cli.main(["--out", str(tmp_path / "out"), "plotdata", "--logs",
                       str(tmp_path / "logs"), "--name", case])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_divergent_run_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "div",
            "problem": {"name": "quadratic", "spectrum": [100.0, 1.0], "seed": 1},
            "optimizers": [{"kind": "cao", "label": "cao-k1", "alpha": 0.01, "k": 1},
                           {"kind": "sgd", "alpha": 0.5}],
            "seeds": [0, 1],
            "steps": 200,
            "threshold": 0.1,
        }))
        assert cli.main(["--out", str(tmp_path), "run", "--config",
                         str(cfg_path)]) == cli.EXIT_DIVERGED
        capsys.readouterr()
        rc = cli.main(["--out", str(tmp_path), "plotdata", "--logs",
                       str(tmp_path / "logs" / "div")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: step grids differ across optimizers: 'sgd' seed 0 has 92 steps,"
            " 'cao-k1' seed 0 has 200\n")

    def test_seeds_at_inf_together_write_nan_std_without_a_warning(self, tmp_path, capsys):
        # inf - inf in the std is nan; under pytest's error::RuntimeWarning filter a
        # warning raised here would fail the command
        for seed, first in enumerate((2.0, 1.5)):
            with RunLogWriter(tmp_path / "logs" / "sgd" / f"{seed}.log") as w:
                w.write_header({"optimizer": {"kind": "sgd", "label": "sgd", "index": 0},
                                "seed": seed, "threshold": 0.5})
                for step, loss in enumerate((first, math.inf)):
                    w.write_record(StepRecord(step=step, epoch=0, loss=loss, grad_norm=1.0,
                                              update_norm=1.0))
                w.write_summary({"steps_done": 2, "diverged": True})
        rc = cli.main(["--out", str(tmp_path / "out"), "plotdata", "--logs",
                       str(tmp_path / "logs"), "--name", "inf"])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "figures-data" / "inf-loss.tsv").read_text() == (
            "# step\tsgd:mean\tsgd:std\n0\t1.75\t0.25\n1\tinf\tnan\n")


def row_by_row_plot_data(log_paths) -> bytes:
    """The file ``emit_plot_data`` writes, built cell by cell as it once was."""
    groups, labels, _ = harness._group_logs(log_paths)
    single_seed = len(groups[labels[0]]) == 1
    per_label = {}
    steps_ref = None
    for label in labels:
        series = [run["series"] for run in groups[label]]
        steps_ref = [s for s, _ in series[0]]
        values = np.array([[v for _, v in ser] for ser in series])
        per_label[label] = (values.mean(axis=0), values.std(axis=0))
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
    return ("\n".join(lines) + "\n").encode()


PLOT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-320,
                     2.2250738585072009e-308, 1.7976931348623157e308]),
)


@st.composite
def plot_runs(draw):
    """{(label, seed): losses} over one step grid, with 1 to 3 seeds and 1 or 2 labels."""
    grid = sorted(draw(st.sets(st.integers(0, 10**6), max_size=8)))
    seeds = range(draw(st.integers(1, 3)))
    labels = ("cao-k1", "sgd")[:draw(st.integers(1, 2))]
    runs = {(label, seed): draw(st.lists(PLOT_VALUES, min_size=len(grid),
                                         max_size=len(grid)))
            for label in labels for seed in seeds}
    return grid, runs


@settings(max_examples=80, deadline=None)
@given(drawn=plot_runs())
def test_plot_data_equals_row_by_row_build(tmp_path_factory, drawn):
    grid, runs = drawn
    root = tmp_path_factory.mktemp("plot")
    for (label, seed), losses in runs.items():
        # "diverged", so the reader turns the coded non-finite losses back into floats
        with RunLogWriter(root / label / f"{seed}.log") as w:
            w.write_header({"optimizer": {"kind": label.split("-")[0], "label": label,
                                          "index": int(label == "sgd")},
                            "seed": seed, "threshold": 0.5})
            for step, loss in zip(grid, losses):
                w.write_record(StepRecord(step=step, epoch=0, loss=loss, grad_norm=1.0,
                                          update_norm=1.0))
            w.write_summary({"steps_done": len(grid), "diverged": True})
    logs = sorted(root.rglob("*.log"))
    with np.errstate(all="ignore"):  # mean and std of infinities and huge values
        want = row_by_row_plot_data(logs)
        got = emit_plot_data(logs, root / "out" / "loss.tsv").read_bytes()
    assert got == want


class TestDerivedExperiments:
    def test_k_ablation_cardinality(self, tmp_path):
        cfg = tiny_config(steps=40, seeds=(0, 1))
        result = k_ablation(cfg, ks=(0, 1), out_root=tmp_path)
        assert len(result["logs"]) == 4
        assert set(result["table"]["optimizers"]) == {"cao-k0", "cao-k1"}

    def test_sweep_grid_and_hvp_accounting(self, tmp_path):
        cfg = tiny_config(steps=40, seeds=(0,))
        result = sensitivity_sweep(cfg, etas=(0.5, 1.0), ms=(10, 20), out_root=tmp_path)
        assert len(result["cells"]) == 4
        for cell in result["cells"]:
            expected = -(-40 // cell["m"]) * (3 + 1) * 1  # ceil(steps/m)*(t_pow+1)*k
            assert cell["hvp_calls"] == [expected]

    def test_sweep_larger_eta_not_faster(self, tmp_path):
        cfg = parse_config({
            "name": "etamono",
            "problem": {"name": "quadratic",
                        "spectrum": [100.0, 50.0, 30.0, 20.0, 15.0] + [1.0] * 45,
                        "seed": 7},
            "optimizers": [{"kind": "cao", "label": "cao-k1", "alpha": 0.0199,
                            "k": 1, "m": 50, "eta": 1.0, "t_pow": 10}],
            "seeds": [0],
            "steps": 600,
            "threshold": 0.5,
        })
        result = sensitivity_sweep(cfg, etas=(1.0, 2.0, 4.0), ms=(50,),
                                   out_root=tmp_path)
        hits = [c["first_hit_mean"] for c in result["cells"]]
        assert all(h is not None for h in hits)
        assert hits[0] <= hits[1] <= hits[2]

    def test_sweep_cell_matches_time_to_threshold(self, tmp_path):
        cfg = tiny_config(steps=40, seeds=(0, 1, 2), threshold=0.47)
        result = sensitivity_sweep(cfg, etas=(0.5, 4.0), ms=(10,), out_root=tmp_path)
        for cell in result["cells"]:
            label = f"cao-eta{cell['eta']:g}-m{cell['m']}"
            logs = sorted((tmp_path / "logs" / result["name"] / label).glob("*.log"))
            assert len(logs) == 3
            entry = time_to_threshold(logs, threshold=cfg.threshold)["optimizers"][label]
            assert cell["first_hit_mean"] == entry["mean"]
            assert cell["unreached"] == entry["unreached"]
        # one cell where every seed reaches the threshold, one where only one does
        assert [cell["unreached"] for cell in result["cells"]] == [0, 2]


class TestOneParsePerLog:
    @pytest.fixture
    def parses(self, monkeypatch):
        counts = {}
        real = harness.read_runlog

        def counting(path):
            counts[str(path)] = counts.get(str(path), 0) + 1
            return real(path)

        monkeypatch.setattr(harness, "read_runlog", counting)
        return counts

    def test_threshold_sweep(self, tmp_path, parses):
        result = run_comparison(tiny_config(steps=40, seeds=(0, 1, 2)), tmp_path)
        text = threshold_sweep(result["logs"], [0.7, 0.6, 0.55, 0.5, 0.45])
        assert len(text.splitlines()) == 1 + 5
        assert parses == {str(path): 1 for path in result["logs"]}
        assert len(parses) == 6

    # the derived commands summarize the runs they made, not their logs
    def test_k_ablation(self, tmp_path, parses):
        result = k_ablation(tiny_config(steps=40, seeds=(0, 1, 2)), ks=(0, 1, 3, 5),
                            out_root=tmp_path)
        assert len(result["logs"]) == 12
        assert parses == {}
        assert set(result["table"]["optimizers"]) == {"cao-k0", "cao-k1", "cao-k3", "cao-k5"}

    def test_sensitivity_sweep(self, tmp_path, parses):
        sensitivity_sweep(tiny_config(steps=40, seeds=(0, 1)), etas=(0.5, 1.0),
                          ms=(10, 20), out_root=tmp_path)
        assert len(list(tmp_path.rglob("*.log"))) == 8
        assert parses == {}


# configs whose derived tables must equal the tables rebuilt from their logs
EQUIVALENCE_CONFIGS = {
    "full-batch-quadratic": {
        "problem": {"name": "quadratic", "spectrum": [20.0, 5.0, 2.0, 1.0, 0.5, 0.2],
                    "seed": 3},
        "optimizers": [{"kind": "cao", "label": "cao-k1", "alpha": 0.04, "k": 1,
                        "m": 10, "eta": 1.0, "t_pow": 4},
                       {"kind": "sgd", "alpha": 0.04}],
        "steps": 60, "threshold": 0.3,
    },
    "minibatch-mlp-eval-every-3": {
        "problem": {"name": "mlp", "widths": [4, 6, 3], "n_samples": 60,
                    "class_sep": 1.5, "input_gain": 4.0, "seed": 3},
        "optimizers": [{"kind": "cao", "label": "cao-k1", "alpha": 0.2, "k": 1,
                        "m": 10, "eta": 0.5, "t_pow": 3, "clip_c": 10.0}],
        "steps": 40, "batch_size": 12, "eval_every": 3, "threshold": 0.8,
    },
    "divergent": {
        "problem": {"name": "quadratic", "spectrum": [100.0, 1.0], "seed": 1},
        "optimizers": [{"kind": "cao", "label": "cao-k1", "alpha": 0.5, "k": 1,
                        "m": 10, "eta": 1.0, "t_pow": 4},
                       {"kind": "sgd", "alpha": 0.5}],
        "steps": 300, "threshold": 0.01,
    },
}


def sweep_from_logs(result, out_root, threshold):
    """``format_sweep`` text of a sweep, rebuilt one cell at a time from its logs."""
    cells = []
    for label_dir in sorted((out_root / "logs" / result["name"]).iterdir()):
        groups, labels, _ = harness._group_logs(label_dir.glob("*.log"))
        runs = groups[labels[0]]
        header, _, _ = read_runlog(next(label_dir.glob("*.log")))
        entry = harness._ttt_table(groups, labels, threshold)["optimizers"][labels[0]]
        clamps = sum(run["summary"]["clamp_steps"] for run in runs)
        diverged = any(run["summary"]["diverged"] for run in runs)
        cells.append({
            "eta": header["optimizer"]["eta"], "m": header["optimizer"]["m"],
            "first_hit_mean": entry.get("mean"),
            "final_loss_mean": harness._final_loss_mean(runs),
            "clamp_steps": clamps,
            "hvp_calls": [run["summary"]["hvp_calls"] for run in runs],
            "unstable": diverged or clamps > 0,
        })
    order = [(cell["eta"], cell["m"]) for cell in result["cells"]]
    cells.sort(key=lambda cell: order.index((cell["eta"], cell["m"])))
    return format_sweep({"name": result["name"], "cells": cells})


class TestDerivedTablesFromRuns:
    @pytest.fixture(params=list(EQUIVALENCE_CONFIGS))
    def cfg(self, request):
        return parse_config({"name": request.param, "seeds": [0, 1],
                             **EQUIVALENCE_CONFIGS[request.param]})

    def test_k_ablation_equals_its_logs(self, tmp_path, cfg):
        result = k_ablation(cfg, ks=(0, 1, 2), out_root=tmp_path)
        assert (strict_json_logs(tmp_path) > 0) == result["diverged"]
        groups, labels, _ = harness._group_logs(result["logs"])
        rebuilt = harness._ttt_table(groups, labels, cfg.threshold)
        assert format_ttt(result["table"], name=result["name"]) == \
            format_ttt(rebuilt, name=result["name"])

    def test_sweep_equals_its_logs(self, tmp_path, cfg):
        result = sensitivity_sweep(cfg, etas=(0.1, 1.0), ms=(5, 20), out_root=tmp_path)
        assert (strict_json_logs(tmp_path) > 0) == result["diverged"]
        assert format_sweep(result) == sweep_from_logs(result, tmp_path, cfg.threshold)
        # each cell is logged as a config of its own: its one optimizer, at index 0
        for path in tmp_path.rglob("*.log"):
            header, _, _ = read_runlog(path)
            assert header["optimizer"]["index"] == 0
            assert [o["label"] for o in header["config"]["optimizers"]] == \
                [header["optimizer"]["label"]]

    def test_run_entries_equal_log_entries(self, tmp_path, cfg):
        result = run_comparison(cfg, tmp_path)
        assert (strict_json_logs(tmp_path) > 0) == result["diverged"]
        groups, labels, _ = harness._group_logs(result["logs"])
        from_runs, run_labels = harness._group(result["runs"])
        assert run_labels == labels
        for label in labels:
            for run, logged in zip(from_runs[label], groups[label], strict=True):
                # repr compares the floats bit for bit, non-finite ones included
                assert repr(run["series"]) == repr(logged["series"])
                assert run["summary"] == logged["summary"]
                assert {k: v for k, v in run.items() if k not in ("series", "summary")} \
                    == {k: v for k, v in logged.items() if k not in ("series", "summary")}

    def test_divergent_config_diverges(self, tmp_path):
        cfg = parse_config({"name": "divergent", "seeds": [0],
                            **EQUIVALENCE_CONFIGS["divergent"]})
        assert run_comparison(cfg, tmp_path / "run")["diverged"]
        assert k_ablation(cfg, ks=(0, 1), out_root=tmp_path / "k")["diverged"]
        sweep = sensitivity_sweep(cfg, etas=(0.1, 1.0), ms=(5,), out_root=tmp_path / "s")
        assert [cell["diverged"] for cell in sweep["cells"]] == [True, False]
        for root in ("run", "k", "s"):
            assert strict_json_logs(tmp_path / root) >= 1

    def test_sweep_builds_its_problem_once(self, tmp_path, monkeypatch):
        builds = []
        real = harness.from_config

        def counting(section):
            builds.append(section)
            return real(section)

        monkeypatch.setattr(harness, "from_config", counting)
        result = sensitivity_sweep(tiny_config(steps=20, seeds=(0, 1)), etas=(0.5, 1.0),
                                   ms=(10, 20), out_root=tmp_path)
        assert len(result["cells"]) == 4
        assert len(builds) == 1


def cut_log(path, mid_line=False):
    """Cut a log as a killed run leaves it: before its summary line, or mid-line."""
    text = path.read_text()
    path.write_text(text[:len(text) // 2] if mid_line
                    else text[:text.rstrip("\n").rindex("\n") + 1])


# name -> (edit of a log's lines given the other log's lines, 1-based bad line, fault)
LAYOUT_BREAKS = {
    "not-an-object": (lambda lines, other: lines[:2] + ["[1,2]"] + lines[2:],
                      3, "not a JSON object"),
    "no-type": (lambda lines, other: lines[:2] + ['{"step":0}'] + lines[2:],
                3, 'no "type" key'),
    "unknown-type": (lambda lines, other: lines[:2]
                     + [lines[2].replace('"type":"step"', '"type":"stepx"')] + lines[3:],
                     3, "unknown record type 'stepx'"),
    "header-not-first": (lambda lines, other: [lines[1], lines[0]] + lines[2:],
                         1, "step line before the header"),
    "second-header": (lambda lines, other: lines[:3] + [lines[0]] + lines[3:],
                      4, "second header"),
    "second-summary": (lambda lines, other: lines + [lines[-1]], 83, "second summary"),
    "line-after-summary": (lambda lines, other: lines + [lines[1]],
                           83, "step line after the summary"),
    "two-objects-on-a-line": (lambda lines, other: lines[:2] + [lines[2] + "," + lines[3]]
                              + lines[4:], 3, "Extra data"),
    "two-logs-joined": (lambda lines, other: other + lines, 83, "second header"),
}


def break_layout(tmp_path, case):
    """cao-k1 (first hit 10) and sgd (first hit 20) logs, sgd's edited by ``case``."""
    synthetic_log(tmp_path / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
    path = tmp_path / "sgd/0.log"
    synthetic_log(path, "sgd", 1, 0, hit_step=20)
    edit = LAYOUT_BREAKS[case][0]
    lines = edit(path.read_text().splitlines(),
                 (tmp_path / "cao-k1/0.log").read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLogCompleteness:
    def test_summaries_regenerate_byte_identically(self, tmp_path):
        cfg = tiny_config(steps=50, seeds=(0, 1))
        result = run_comparison(cfg, tmp_path)
        t1 = format_ttt(time_to_threshold(result["logs"]), name="tiny")
        t2 = format_ttt(time_to_threshold(result["logs"]), name="tiny")
        assert t1.encode() == t2.encode()
        p1 = emit_plot_data(result["logs"], tmp_path / "a.tsv").read_bytes()
        p2 = emit_plot_data(result["logs"], tmp_path / "b.tsv").read_bytes()
        assert p1 == p2

    @pytest.mark.parametrize("cut", ["no-summary", "mid-line"])
    def test_incomplete_log_named(self, tmp_path, cut):
        synthetic_log(tmp_path / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
        path = tmp_path / "sgd/0.log"
        synthetic_log(path, "sgd", 1, 0, hit_step=20)
        cut_log(path, mid_line=cut == "mid-line")
        logs = sorted(tmp_path.rglob("*.log"))
        for summarize in (time_to_threshold,
                          lambda logs: emit_plot_data(logs, tmp_path / "x.tsv"),
                          lambda logs: threshold_sweep(logs, [0.8])):
            with pytest.raises(ConfigError, match="sgd/0.log"):
                summarize(logs)

    @pytest.mark.parametrize("command", ["ttt", "plotdata"])
    def test_incomplete_log_exit_code(self, tmp_path, command, capsys):
        run_comparison(tiny_config(steps=20, seeds=(0,)), tmp_path)
        path = tmp_path / "logs" / "tiny" / "sgd" / "0.log"
        cut_log(path)
        rc = cli.main(["--out", str(tmp_path), command, "--logs",
                       str(tmp_path / "logs" / "tiny"), "--name", "tiny"])
        assert rc == cli.EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ttt", "plotdata"])
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_unreadable_path_exit_code(self, tmp_path, case, command, capsys):
        path = tmp_path / "logs" / "x.log"
        if case == "missing":
            logs = path
        else:
            synthetic_log(tmp_path / "logs" / "sgd/0.log", "sgd", 1, 0, hit_step=20)
            path.mkdir()
            logs = path.parent
        rc = cli.main(["--out", str(tmp_path / "out"), command, "--logs", str(logs),
                       "--name", "broken"])
        assert rc == cli.EXIT_CONFIG
        assert f"config error: {path}: unreadable log (" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", list(LAYOUT_BREAKS))
    def test_layout_break_named(self, tmp_path, case):
        path = break_layout(tmp_path, case)
        _, line, fault = LAYOUT_BREAKS[case]
        named = f"^{re.escape(str(path))}: line {line}: {fault}"
        for read in (read_runlog, normalized_bytes):
            with pytest.raises(ValueError, match=named):
                read(path)
        logs = sorted(tmp_path.rglob("*.log"))
        for summarize in (time_to_threshold,
                          lambda logs: emit_plot_data(logs, tmp_path / "x.tsv"),
                          lambda logs: threshold_sweep(logs, [0.8])):
            with pytest.raises(ConfigError, match=f"sgd/0.log: line {line}: "):
                summarize(logs)

    @pytest.mark.parametrize("command", ["ttt", "plotdata"])
    @pytest.mark.parametrize("case", list(LAYOUT_BREAKS))
    def test_layout_break_exit_code(self, tmp_path, case, command, capsys):
        path = break_layout(tmp_path / "logs", case)
        rc = cli.main(["--out", str(tmp_path / "out"), command, "--logs",
                       str(tmp_path / "logs"), "--name", "broken"])
        assert rc == cli.EXIT_CONFIG
        assert f"{path}: line {LAYOUT_BREAKS[case][1]}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["optimizer", "optimizer.label", "optimizer.index",
                                     "optimizer.kind", "seed"])
    def test_missing_header_key(self, tmp_path, key, capsys):
        synthetic_log(tmp_path / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
        path = tmp_path / "sgd/0.log"
        synthetic_log(path, "sgd", 1, 0, hit_step=20)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        owner, _, name = key.rpartition(".")
        del (header[owner] if owner else header)[name]
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        named = f"{re.escape(str(path))}: log header has no '{key}'"
        with pytest.raises(ConfigError, match=named):
            time_to_threshold(sorted(tmp_path.rglob("*.log")))
        rc = cli.main(["--out", str(tmp_path / "out"), "ttt", "--logs", str(tmp_path),
                       "--name", "broken"])
        assert rc == cli.EXIT_CONFIG
        assert f"{path}: log header has no" in capsys.readouterr().err


class TestRepeatedRuns:
    def make_roots(self, tmp_path):
        for root in ("a", "b"):
            synthetic_log(tmp_path / root / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
            synthetic_log(tmp_path / root / "sgd/0.log", "sgd", 1, 0, hit_step=20)
        return [tmp_path / "a", tmp_path / "b"]

    def test_repeated_label_and_seed_named(self, tmp_path):
        logs = sorted(str(p) for root in self.make_roots(tmp_path) for p in root.rglob("*.log"))
        for summarize in (time_to_threshold,
                          lambda logs: emit_plot_data(logs, tmp_path / "x.tsv"),
                          lambda logs: threshold_sweep(logs, [0.8])):
            with pytest.raises(ConfigError, match=r"a/cao-k1/0.log and .*b/cao-k1/0.log"):
                summarize(logs)

    def test_same_file_twice(self, tmp_path):
        path = tmp_path / "cao-k1/0.log"
        synthetic_log(path, "cao-k1", 0, 0, hit_step=10)
        with pytest.raises(ConfigError, match="seed 0"):
            time_to_threshold([path, path])

    @pytest.mark.parametrize("command", ["ttt", "plotdata"])
    def test_exit_code(self, tmp_path, command, capsys):
        roots = self.make_roots(tmp_path)
        rc = cli.main(["--out", str(tmp_path), command, "--logs", *map(str, roots),
                       "--name", "twice"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(tmp_path / "a" / "cao-k1" / "0.log") in err
        assert str(tmp_path / "b" / "cao-k1" / "0.log") in err
        assert not (tmp_path / "tables").exists()
        assert not (tmp_path / "figures-data").exists()


def seeds_and_thresholds(root, thresholds):
    """One cao-k1 log per seed under ``root``, each recording its own threshold;
    ``thresholds`` maps seed to threshold."""
    for seed, threshold in thresholds.items():
        synthetic_log(root / "cao-k1" / f"{seed}.log", "cao-k1", 0, seed, hit_step=10 + seed,
                      threshold=threshold)


class TestRecordedThresholds:
    def test_mixed_thresholds_named(self, tmp_path, capsys):
        seeds_and_thresholds(tmp_path / "oa", {0: 0.5})
        seeds_and_thresholds(tmp_path / "ob", {1: 0.5, 2: 0.05})
        first, other = tmp_path / "oa/cao-k1/0.log", tmp_path / "ob/cao-k1/2.log"
        with pytest.raises(ConfigError) as info:
            time_to_threshold([other, first, tmp_path / "ob/cao-k1/1.log"])
        assert str(info.value) == (f"{first} records threshold 0.5 and {other} records 0.05;"
                                   " choose one with --threshold")
        rc = cli.main(["--out", str(tmp_path / "out"), "ttt", "--logs",
                       str(tmp_path / "oa"), str(tmp_path / "ob")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {info.value}\n"
        assert not (tmp_path / "out").exists()

    def test_override_and_other_summaries_read_mixed_logs(self, tmp_path):
        seeds_and_thresholds(tmp_path / "oa", {0: 0.5})
        seeds_and_thresholds(tmp_path / "ob", {1: 0.05})
        logs = [str(tmp_path / "oa"), str(tmp_path / "ob")]
        out = str(tmp_path / "out")
        assert cli.main(["--out", out, "ttt", "--logs", *logs, "--threshold", "0.5",
                         "--name", "mixed"]) == cli.EXIT_OK
        # both seeds judged at 0.5: seed 1's loss falls to 0.05 by step 11
        table = (tmp_path / "out/tables/mixed-time-to-threshold.txt").read_text()
        assert "threshold=0.5\n" in table and table.endswith("\t0\t10,9\n")
        assert cli.main(["--out", out, "ttt", "--logs", *logs, "--thresholds", "0.05,0.5",
                         "--name", "mixed"]) == cli.EXIT_OK
        assert cli.main(["--out", out, "plotdata", "--logs", *logs,
                         "--name", "mixed"]) == cli.EXIT_OK

    def test_equal_thresholds_need_no_override(self, tmp_path):
        seeds_and_thresholds(tmp_path, {0: 0.5, 1: 0.5, 2: 0.5})
        table = time_to_threshold(sorted(tmp_path.rglob("*.log")))
        assert table["threshold"] == 0.5
        assert table["optimizers"]["cao-k1"]["hits"] == {0: 10, 1: 11, 2: 12}


@pytest.fixture
def collector():
    """Leaves the collector enabled, as the rest of the suite expects it."""
    yield
    gc.enable()


class TestCollectorPause:
    def test_off_while_each_log_is_reduced(self, tmp_path, monkeypatch, collector):
        for seed in (0, 1):
            synthetic_log(tmp_path / f"cao-k1/{seed}.log", "cao-k1", 0, seed, hit_step=10)
            synthetic_log(tmp_path / f"sgd/{seed}.log", "sgd", 1, seed, hit_step=20)
        reads, reductions = [], []
        read, series = harness.read_runlog, harness._series

        def spy_read(path):
            reads.append(gc.isenabled())
            return read(path)

        def spy_series(records):
            reductions.append(gc.isenabled())
            return series(records)

        monkeypatch.setattr(harness, "read_runlog", spy_read)
        monkeypatch.setattr(harness, "_series", spy_series)
        gc.enable()
        time_to_threshold(sorted(tmp_path.rglob("*.log")))
        # paused from each read until its records are reduced
        assert reads == [False] * 4
        assert reductions == [False] * 4
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", ["ok", "unreadable", "no-summary", "header-key",
                                      "repeated", "mixed-thresholds"])
    def test_left_as_found(self, tmp_path, case, enabled, collector):
        seeds_and_thresholds(tmp_path, {0: 0.5, 1: 0.5})
        logs = sorted(tmp_path.rglob("*.log"))
        if case == "unreadable":
            logs.append(tmp_path / "missing.log")
        elif case == "no-summary":
            cut_log(logs[1])
        elif case == "header-key":
            lines = logs[1].read_text().splitlines(keepends=True)
            header = json.loads(lines[0])
            del header["seed"]
            logs[1].write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        elif case == "repeated":
            logs.append(logs[0])
        elif case == "mixed-thresholds":
            seeds_and_thresholds(tmp_path / "b", {2: 0.1})
            logs.append(tmp_path / "b/cao-k1/2.log")
        (gc.enable if enabled else gc.disable)()
        if case == "ok":
            time_to_threshold(logs)
        else:
            with pytest.raises(ConfigError):
                time_to_threshold(logs)
        assert gc.isenabled() is enabled


class TestConfigParsing:
    def test_load_and_roundtrip(self, tmp_path):
        doc = tiny_config().to_dict()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.name == "tiny" and len(cfg.optimizers) == 2

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            parse_config({"name": "x"})

    def test_unknown_optimizer_key(self):
        for kind, key in (("sgd", "bogus"), ("sgd", "beta1"), ("cao", "floor"),
                          ("cao", "sketch_batch_size"), ("cao", "sketch_seed"),
                          ("cao", "k0_eta_scaled")):
            with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
                parse_config({
                    "name": "x",
                    "problem": {"name": "rosenbrock", "n": 2},
                    "optimizers": [{"kind": kind, "alpha": 0.1, key: 1}],
                    "seeds": [0], "steps": 1, "threshold": 0.1,
                })

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError):
            parse_config({
                "name": "x",
                "problem": {"name": "rosenbrock", "n": 2},
                "optimizers": [{"kind": "sgd", "alpha": 0.1},
                               {"kind": "sgd", "alpha": 0.2}],
                "seeds": [0], "steps": 1, "threshold": 0.1,
            })

    @pytest.mark.parametrize("kind, knobs", [
        ("cao", {"k": -1}), ("cao", {"eta": float("inf")}),
        ("cao", {"alpha": float("inf")}), ("cao", {"k": "3"}),
        ("sgd", {"alpha": -0.1}), ("sgd", {"alpha": 0.0}), ("sgd", {"momentum": 1.0}),
        ("sgd", {"momentum": -0.1}), ("sgd", {"momentum": "0.9"}),
        ("sgd", {"momentum": None}), ("sgd", {"weight_decay": -1e-3}),
        ("sgd", {"clip": -1.0}), ("adam", {"beta1": 1.5}), ("adam", {"beta2": 1.0}),
        ("adam", {"beta1": -0.1}), ("adam", {"eps": 0.0}), ("adam", {"alpha": True}),
        ("adam", {"alpha": float("inf")}), ("adam", {"weight_decay": -1.0}),
        ("adam", {"clip": -0.5}), ("cao", {"k": 1.5}), ("cao", {"t_pow": 2.5}),
        ("cao", {"m": 2.5}), ("cao", {"warm_steps": 0.5}), ("cao", {"k": True}),
        ("cao", {"alpha": True}), ("cao", {"eta": float("nan")}),
    ], ids=["negative-k", "infinite-eta", "infinite-alpha", "k-as-string",
            "sgd-negative-alpha", "sgd-zero-alpha", "sgd-momentum-one", "sgd-negative-momentum",
            "sgd-momentum-as-string", "sgd-momentum-null", "sgd-negative-decay",
            "sgd-negative-clip", "adam-beta1-above-one", "adam-beta2-one",
            "adam-negative-beta1", "adam-zero-eps", "adam-alpha-as-bool",
            "adam-infinite-alpha", "adam-negative-decay", "adam-negative-clip",
            "k-float", "t-pow-float", "m-float", "warm-steps-float", "k-as-bool",
            "alpha-as-bool", "nan-eta"])
    def test_bad_knob(self, kind, knobs):
        with pytest.raises(ConfigError, match=f"'{kind}-x'") as excinfo:
            parse_config({
                "name": "x",
                "problem": {"name": "rosenbrock", "n": 2},
                "optimizers": [{"kind": kind, "label": f"{kind}-x", "alpha": 0.1,
                                **knobs}],
                "seeds": [0], "steps": 1, "threshold": 0.1,
            })
        # the message names the knob, also one no kind takes (weight_decay)
        assert all(key in str(excinfo.value) for key in knobs)

    @pytest.mark.parametrize("seeds, repeated", [([0, 0], 0), ([3, 1, 2, 1, 3], 1)])
    def test_repeated_seeds(self, seeds, repeated):
        doc = {**tiny_config().to_dict(), "seeds": seeds}
        with pytest.raises(ConfigError, match=rf"^seeds must be unique, got {repeated} twice"):
            parse_config(doc)

    def test_edge_knobs_accepted(self):
        cfg = parse_config({
            "name": "x",
            "problem": {"name": "rosenbrock", "n": 2},
            "optimizers": [
                {"kind": "sgd", "alpha": 1, "momentum": 0, "clip": 0},
                {"kind": "adam", "alpha": 1e-3, "beta1": 0.0, "beta2": 0.0,
                 "eps": 1e-300, "clip": 0.0},
            ],
            "seeds": [0], "steps": 1, "threshold": 0.1,
        })
        assert [o.kind for o in cfg.optimizers] == ["sgd", "adam"]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                             ids=[str(p.relative_to(ROOT)) for p in SHIPPED_CONFIGS])
    def test_shipped_config_builds(self, path):
        cfg = load_config(path)
        problem = from_config(cfg.problem)
        for spec in cfg.optimizers:
            _, state = make_runner(spec.kind, problem.initial_point(0), spec.params, seed=0)
            assert state.theta.shape == (problem.dim,)

    def test_missing_alpha(self):
        with pytest.raises(ConfigError):
            parse_config({
                "name": "x",
                "problem": {"name": "rosenbrock", "n": 2},
                "optimizers": [{"kind": "adam"}],
                "seeds": [0], "steps": 1, "threshold": 0.1,
            })


# Bad problem sections that name a builder and hold only its keys, so that a
# direct call of the builder can take them too: (id, section, a word of the
# message). A missing or unknown key, a section that is not an object and a
# name that is not a string are config-only cases of TestCli.
BAD_PROBLEMS = [
    ("spectrum-not-numbers", {"name": "quadratic", "spectrum": "abc"}, "'quadratic'"),
    ("rosenbrock-n-not-int", {"name": "rosenbrock", "n": "x"}, "'rosenbrock'"),
    ("rosenbrock-n-float", {"name": "rosenbrock", "n": 2.5}, "n must be an integer"),
    ("mlp-widths-float", {"name": "mlp", "widths": [3.7, 4, 2], "n_samples": 20}, "widths"),
    ("problem-seed-float", {"name": "quadratic", "spectrum": [4.0, 1.0], "seed": 1.5},
     "seed must be an integer"),
    ("problem-seed-as-bool", {"name": "quadratic", "spectrum": [4.0, 1.0], "seed": True},
     "seed must be an integer"),
    ("spectrum-nan", {"name": "quadratic", "spectrum": [4.0, float("nan")]}, "spectrum"),
    ("logreg-reg-nan", {"name": "logreg", "n_features": 3, "n_samples": 20,
                        "reg": float("nan")}, "reg"),
    ("mlp-negative-input-gain", {"name": "mlp", "widths": [3, 4, 2], "n_samples": 20,
                                 "input_gain": -1.0}, "input_gain"),
    ("logreg-class-sep-inf", {"name": "logreg", "n_features": 3, "n_samples": 20,
                              "class_sep": float("inf")}, "class_sep"),
    ("logreg-class-sep-huge", {"name": "logreg", "n_features": 3, "n_samples": 20,
                               "class_sep": 1e200}, "class_sep 1e+200 overflows"),
    ("logreg-n-features-float", {"name": "logreg", "n_features": 3.5, "n_samples": 20},
     "n_features must be an integer"),
    ("mlp-n-samples-float", {"name": "mlp", "widths": [3, 4, 2], "n_samples": 2.5},
     "n_samples must be an integer"),
    ("spectrum-2d", {"name": "quadratic", "spectrum": [[4.0, 1.0]]}, "spectrum"),
    ("spectrum-empty", {"name": "quadratic", "spectrum": []}, "spectrum"),
    ("spectrum-zero", {"name": "quadratic", "spectrum": [4.0, 0.0]}, "spectrum"),
    ("mlp-two-widths", {"name": "mlp", "widths": [3, 4]}, "(n_in, n_hidden, n_classes)"),
    ("mlp-one-class", {"name": "mlp", "widths": [3, 4, 1]}, "n_classes >= 2"),
    ("mlp-fewer-samples-than-classes", {"name": "mlp", "widths": [3, 4, 5], "n_samples": 4},
     "n_samples >= n_classes"),
]

# sections that pass every knob but whose data overflows the float range
OVERFLOWING_PROBLEMS = [
    ("quadratic-spectrum-overflows", {"name": "quadratic", "spectrum": [1.7e308, 1.0]},
     "spectrum entry 1.7e+308 overflows"),
    ("mlp-class-sep-overflows", {"name": "mlp", "widths": [3, 4, 2], "n_samples": 20,
                                 "class_sep": 1e308}, "class_sep 1e+308 overflows"),
    ("mlp-input-gain-overflows", {"name": "mlp", "widths": [3, 4, 2], "n_samples": 20,
                                  "class_sep": 1e300, "input_gain": 1e300},
     "input_gain 1e+300 with class_sep 1e+300 overflows"),
]
BAD_PROBLEMS += OVERFLOWING_PROBLEMS

# every problem section that reproduce.py and the benchmark run, and spectra as
# the theory suite passes them: np.geomspace arrays
GOOD_PROBLEMS = [
    *[json.loads(path.read_text())["problem"] for path in SHIPPED_CONFIGS],
    *[{"name": "quadratic", "spectrum": np.geomspace(top, 1.0, n).tolist(), "seed": seed}
      for top, n, seed in ((1000.0, 40, 13), (1e6, 7, 0), (3.0, 1, 2))],
]


class TestProblemChecks:
    """A Python call of a problem builder is checked as its config section is."""

    @pytest.mark.parametrize("section, named", [case[1:] for case in BAD_PROBLEMS],
                             ids=[case[0] for case in BAD_PROBLEMS])
    def test_builder_fails_as_config(self, section, named):
        params = dict(section)
        builder = _PROBLEMS[params.pop("name")][0]
        with pytest.raises(ContractViolationError, match=re.escape(named)) as config:
            from_config(section)
        with pytest.raises(ContractViolationError) as direct:
            builder(**params)
        assert str(direct.value) == str(config.value)

    @pytest.mark.parametrize("section", GOOD_PROBLEMS, ids=[
        *[str(path.relative_to(ROOT)) for path in SHIPPED_CONFIGS],
        "geomspace-40", "geomspace-7", "geomspace-1"])
    def test_builder_builds_as_config(self, section):
        params = dict(section)
        builder = _PROBLEMS[params.pop("name")][0]
        if "spectrum" in params:
            params["spectrum"] = np.array(params["spectrum"])
        direct, config = builder(**params), from_config(section)
        assert direct.meta == config.meta
        for attr in ("matrix", "x", "y"):
            if hasattr(config, attr):
                assert getattr(direct, attr).tobytes() == getattr(config, attr).tobytes()


class TestCli:
    def test_run_and_ttt(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(steps=30).to_dict()))
        rc = cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)])
        assert rc == cli.EXIT_OK
        rc = cli.main(["--out", str(tmp_path), "ttt", "--logs",
                       str(tmp_path / "logs" / "tiny"), "--name", "tiny"])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "tables" / "tiny-time-to-threshold.txt").exists()

    def test_plotdata_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(steps=20, seeds=(0,)).to_dict()))
        cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)])
        rc = cli.main(["--out", str(tmp_path), "plotdata", "--logs",
                       str(tmp_path / "logs" / "tiny"), "--name", "tiny"])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "figures-data" / "tiny-loss.tsv").exists()

    @pytest.mark.parametrize("logs", [".", ".."])
    def test_relative_logs_dir_names_the_outputs(self, tmp_path, monkeypatch, logs):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(steps=20, seeds=(0,)).to_dict()))
        assert cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)]) == 0
        monkeypatch.chdir(tmp_path / "logs" / "tiny" / ("sgd" if logs == ".." else ""))
        out = str(tmp_path / "out")
        assert cli.main(["--out", out, "ttt", "--logs", logs]) == cli.EXIT_OK
        assert cli.main(["--out", out, "plotdata", "--logs", logs]) == cli.EXIT_OK
        table = (tmp_path / "out" / "tables" / "tiny-time-to-threshold.txt").read_text()
        assert table.startswith("# time-to-threshold  experiment=tiny  ")
        assert sorted(p.name for p in (tmp_path / "out").rglob("*.*")) == [
            "tiny-loss.tsv", "tiny-time-to-threshold.txt"]

    def test_log_level_is_set_on_every_call(self, tmp_path):
        # a k = 3 sketch of this small mlp finds negative curvature and logs it at INFO
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "neg", "problem": {"name": "mlp", "widths": [2, 3, 2], "n_samples": 8},
            "optimizers": [{"kind": "cao", "alpha": 0.1, "k": 3, "m": 5, "t_pow": 2}],
            "seeds": [0], "steps": 5, "threshold": 0.1,
        }))
        calls = ["", "-v", "", "--log-level INFO", "--log-level=ERROR", "--log-level DEBUG"]
        # one process, so the calls after the first find logging already configured
        script = ("import sys\nfrom cao.cli import main\n"
                  "for flags in sys.argv[2:]:\n"
                  "    print('--- call', file=sys.stderr, flush=True)\n"
                  "    assert main([*flags.split(), '--out', sys.argv[1], 'run',"
                  " '--config', sys.argv[1] + '/cfg.json']) == 0\n")
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path), *calls],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stderr
        printed = done.stderr.split("--- call\n")[1:]
        assert len(printed) == len(calls)
        info = "INFO cao.sketch: sketch contains negative curvature estimates"
        assert [info in text for text in printed] == [False, True, False, True, False, True]
        # one refresh, at step 0, of (t_pow + 1) * k = 9 HVPs
        plan = ("INFO cao.harness: cao plans 9 HVPs per run if every refresh succeeds:"
                " 1 refreshes of (t_pow + 1) * k = 9\n")
        assert [plan in text for text in printed] == [False, True, False, True, False, True]
        assert printed[0] == printed[2] == printed[4] == ""

    def test_unknown_log_level_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--log-level", "TRACE", "theory"])
        assert info.value.code == 2
        assert "--log-level: invalid choice: 'TRACE'" in capsys.readouterr().err

    def test_bare_sweep_runs_the_reproduce_grid(self, tmp_path):
        # the defaults are scripts/reproduce.py's grid, every cell of which the shipped
        # quadratic reaches
        config = str(ROOT / "configs" / "quad_speedup.json")
        bare, explicit = tmp_path / "bare", tmp_path / "explicit"
        assert cli.main(["--out", str(bare), "sweep", "--config", config]) == cli.EXIT_OK
        assert cli.main(["--out", str(explicit), "sweep", "--config", config,
                         "--etas", "0.5,1.0,2.0", "--ms", "25,50,100"]) == cli.EXIT_OK
        table = Path("tables") / "quad-skew-speedup-sweep.txt"
        assert sorted(p.relative_to(bare) for p in bare.rglob("*.txt")) == [table]
        assert (bare / table).read_bytes() == (explicit / table).read_bytes()
        rows = (bare / table).read_text().splitlines()[2:]
        assert len(rows) == 9 and not [row for row in rows if "unreached" in row]

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        rc = cli.main(["run", "--config", str(missing)])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "ablate-k", "sweep"])
    @pytest.mark.parametrize("case, message", [
        ("missing", "config file not found: {path}\n"),
        ("directory", "{path}: unreadable config ([Errno 21] Is a directory: '{path}')\n"),
        ("not-utf8", "{path}: unreadable config ('utf-8' codec can't decode byte 0xff"),
        ("nested", "{path}: invalid JSON (maximum recursion depth exceeded"),
    ], ids=["missing", "directory", "not-utf8", "nested"])
    def test_unreadable_config_exits_before_any_run(self, tmp_path, command, case, message,
                                                    capsys):
        path = tmp_path / "cfg.json"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b'{"name": "\xff"}')
        elif case == "nested":
            path.write_text("[" * 100000 + "]" * 100000)
        rc = cli.main(["--out", str(tmp_path), command, "--config", str(path)])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs").exists()
        assert capsys.readouterr().err.startswith(
            "config error: " + message.format(path=path))

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "boom",
            "problem": {"name": "quadratic", "spectrum": [100.0, 1.0], "seed": 1},
            "optimizers": [{"kind": "sgd", "alpha": 10.0}],
            "seeds": [0],
            "steps": 500,
            "threshold": 0.1,
        }))
        rc = cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)])
        assert rc == cli.EXIT_DIVERGED
        assert strict_json_logs(tmp_path) == 1

    @pytest.mark.parametrize("change, named", [
        ({"optimizers": [{"kind": "sgd", "alpha": 0.1},
                         {"kind": "cao", "label": "bad-k", "alpha": 0.1, "k": -1}]},
         "bad-k"),
        ({"problem": {"name": "quadratic", "seed": 1}}, "spectrum"),
        ({"optimizers": [{"kind": "cao", "alpha": 0.1},
                         {"kind": "sgd", "label": "bad-sgd", "alpha": -0.1}]},
         "bad-sgd"),
        ({"optimizers": [{"kind": "cao", "alpha": 0.1},
                         {"kind": "sgd", "label": "str-mom", "alpha": 0.1,
                          "momentum": "0.9"}]},
         "str-mom"),
        ({"optimizers": [{"kind": "sgd", "alpha": 0.1},
                         {"kind": "adam", "label": "bad-adam", "alpha": 0.01,
                          "beta1": 1.5}]},
         "bad-adam"),
        ({"problem": {"name": "quadratic", "spectrum": [4.0, 1.0], "regg": 3}}, "regg"),
        ({"problem": 3}, "problem section"),
        ({"problem": {"name": ["quadratic"], "spectrum": [4.0, 1.0]}}, "['quadratic']"),
        ({"steps": "abc"}, "steps"),
        ({"seeds": 5}, "seeds"),
        ({"seeds": ["x"]}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"threshold": None}, "threshold"),
        ({"threshold": float("nan")}, "threshold"),
        ({"threshold": 10**400}, "threshold"),
        ({"eval_every": "z"}, "eval_every"),
        ({"batch_size": 1.5}, "batch_size"),
        ({"optimizers": {"kind": "sgd", "alpha": 0.1}}, "optimizers"),
        ({"optimizers": [{"kind": "sgd", "alpha": 0.1},
                         {"kind": "cao", "label": "big-k", "alpha": 0.1, "k": 3}]},
         "big-k"),
        ({"optimizers": [{"kind": "sgd", "alpha": 0.1},
                         {"kind": "cao", "label": "inf-eta", "alpha": 0.1,
                          "eta": float("inf")}]},
         "inf-eta"),
        *[({"optimizers": [{"kind": "sgd", "alpha": 0.1},
                           {"kind": "cao", "label": "bad-cao", "alpha": 0.1, **knobs}]},
           "bad-cao")
          for knobs in ({"k": 1.5}, {"t_pow": 2.5}, {"m": 2.5}, {"warm_steps": 0.5},
                        {"k": True}, {"alpha": True}, {"eta": float("nan")}, {"alpha": 10**400})],
        *[({"optimizers": [{"kind": kind, "alpha": 0.1, "weight_decay": 0.0}]},
           "unknown keys ['weight_decay']") for kind in ("cao", "sgd", "adam")],
        ({"optimizers": [{"kind": "cao", "alpha": 0.1, "k": 0, "k0_eta_scaled": True}]},
         "unknown keys ['k0_eta_scaled']"),
        ({"problem": {"name": "quadratic", "spectrum": [4.0, 1.0], "label": "q"}},
         "unknown keys ['label']"),
        *[({"name": name}, "name must be") for name in ("..", ".", "", "a/b", "a\0b", 3)],
        *[({"optimizers": [{"kind": "sgd", "label": label, "alpha": 0.1}]},
           "optimizer #0: label must be")
          for label in ("..", ".", "", "x/y", "x\0y", None, 7)],
        *[({"problem": section}, named) for _, section, named in BAD_PROBLEMS],
    ], ids=["negative-k", "missing-spectrum", "sgd-negative-alpha",
            "sgd-momentum-as-string", "adam-beta1-above-one", "unknown-problem-key",
            "problem-not-object", "problem-name-not-string", "steps-not-int", "seeds-not-list",
            "seed-not-int", "seed-negative", "threshold-null", "threshold-nan",
            "threshold-huge-int", "eval-every-not-int",
            "batch-size-not-int", "optimizers-not-list", "k-above-dim", "cao-infinite-eta",
            "cao-k-float", "cao-t-pow-float", "cao-m-float", "cao-warm-steps-float",
            "cao-k-as-bool", "cao-alpha-as-bool", "cao-nan-eta", "cao-alpha-huge-int",
            "cao-weight-decay", "sgd-weight-decay", "adam-weight-decay",
            "cao-k0-eta-scaled-unknown", "quadratic-label-unknown",
            "name-dotdot", "name-dot", "name-empty", "name-slash", "name-nul",
            "name-not-string", "label-dotdot", "label-dot", "label-empty", "label-slash",
            "label-nul", "label-null", "label-not-string",
            *[case for case, _, _ in BAD_PROBLEMS]])
    def test_bad_config_exits_before_any_run(self, tmp_path, change, named, capsys):
        doc = {
            "name": "bad",
            "problem": {"name": "quadratic", "spectrum": [4.0, 1.0], "seed": 1},
            "optimizers": [{"kind": "sgd", "alpha": 0.1},
                           {"kind": "cao", "label": "cao-k1", "alpha": 0.1}],
            "seeds": [0],
            "steps": 5,
            "threshold": 0.1,
            **change,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs").exists()
        err = capsys.readouterr().err
        assert named in err
        assert "problem: problem" not in err

    @pytest.mark.parametrize("command", ["run", "ablate-k", "sweep"])
    @pytest.mark.parametrize("n_samples, refused", [(10**20, None), (20, MemoryError)],
                             ids=["n-samples-past-any-array", "memory-error"])
    def test_oversized_problem_exits_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                    command, n_samples, refused):
        # nothing is allocated: 10**20 rows fail NumPy's size check, and the
        # patched builder raises what NumPy raises on a refused allocation
        if refused is not None:
            def builder(**params):
                raise refused("Unable to allocate 8.00 TiB")

            monkeypatch.setitem(_PROBLEMS, "mlp", (builder, _PROBLEMS["mlp"][1]))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "big",
            "problem": {"name": "mlp", "widths": [3, 4, 2], "n_samples": n_samples},
            "optimizers": [{"kind": "cao", "alpha": 0.1, "k": 1}],
            "seeds": [0],
            "steps": 5,
            "threshold": 0.1,
        }))
        rc = cli.main(["--out", str(tmp_path), command, "--config", str(cfg_path)])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs").exists()
        err = capsys.readouterr().err
        assert "problem 'mlp' cannot be built" in err
        assert ("MemoryError" if refused else "ValueError") in err

    @pytest.mark.parametrize("command", ["run", "ablate-k", "sweep"])
    @pytest.mark.parametrize("section, named", [case[1:] for case in OVERFLOWING_PROBLEMS],
                             ids=[case[0] for case in OVERFLOWING_PROBLEMS])
    def test_overflowing_data_exits_before_any_run(self, tmp_path, capsys, command, section,
                                                   named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "huge", "problem": section,
            "optimizers": [{"kind": "cao", "alpha": 0.1, "k": 1}],
            "seeds": [0], "steps": 5, "threshold": 0.1,
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--out", str(tmp_path), command, "--config", str(cfg_path)])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs").exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "ablate-k", "sweep"])
    def test_name_and_label_cannot_leave_out(self, tmp_path, command, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "../../escaped",
            "problem": {"name": "quadratic", "spectrum": [4.0, 1.0], "seed": 1},
            "optimizers": [{"kind": "sgd", "label": "../../../lab", "alpha": 0.1},
                           {"kind": "cao", "alpha": 0.1, "k": 1}],
            "seeds": [0],
            "steps": 5,
            "threshold": 0.1,
        }))
        # deep enough that an escaping log would still land under tmp_path
        out = tmp_path / "a" / "b" / "c" / "d" / "out"
        rc = cli.main(["--out", str(out), command, "--config", str(cfg_path)])
        assert rc == cli.EXIT_CONFIG
        assert [p for p in tmp_path.rglob("*") if p != cfg_path] == []
        assert "config error: name must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "ablate-k", "sweep"])
    def test_repeated_seed_exits_before_any_run(self, tmp_path, command, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**tiny_config(steps=5).to_dict(), "seeds": [0, 1, 0]}))
        rc = cli.main(["--out", str(tmp_path), command, "--config", str(cfg_path)])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs").exists()
        assert "seeds must be unique, got 0 twice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["ablate-k", "--ks", "-1"], "cao-k-1"),
        (["ablate-k", "--ks", "1,9"], "cao-k9"),
        (["sweep", "--etas", "1,-1"], "cao-eta-1-m25"),
        (["sweep", "--ms", "5,0"], "cao-eta0.5-m0"),
        (["sweep", "--etas", "1,1.0"], "unique"),
        (["sweep", "--etas", "inf,1"], "cao-etainf-m25"),
    ], ids=["ablate-negative-k", "ablate-k-above-dim", "sweep-negative-eta",
            "sweep-zero-m", "sweep-repeated-cell", "sweep-infinite-eta"])
    def test_bad_derived_knob_exits_before_any_run(self, tmp_path, argv, named, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "bad",
            "problem": {"name": "quadratic", "spectrum": [4.0, 2.0, 1.0], "seed": 1},
            "optimizers": [{"kind": "cao", "alpha": 0.1, "k": 1}],
            "seeds": [0],
            "steps": 5,
            "threshold": 0.1,
        }))
        rc = cli.main(["--out", str(tmp_path), argv[0], "--config", str(cfg_path),
                       *argv[1:]])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs").exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("problem, alpha, batch, steps, done", [
        # SGD is finite through step 90 and its final iterate's loss overflows
        ({"name": "quadratic", "spectrum": [100.0, 1.0], "seed": 0}, 0.5, {}, 91, 91),
        # the full-set eval before step 160 overflows
        ({"name": "logreg", "n_features": 5, "n_samples": 40, "seed": 0}, 1000.0,
         {"batch_size": 10, "eval_every": 1}, 400, 160),
    ], ids=["final-loss", "eval-loss"])
    def test_full_set_loss_overflow_exit_code(self, tmp_path, problem, alpha, batch, steps,
                                              done):
        cfg = {"name": "ovf", "problem": problem,
               "optimizers": [{"kind": "sgd", "label": "sgd", "alpha": alpha}],
               "seeds": [0], "steps": steps, "threshold": 0.5, **batch}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)])
        assert rc == cli.EXIT_DIVERGED
        assert list(tmp_path.rglob("*.part")) == []
        assert strict_json_logs(tmp_path) == 0
        log = tmp_path / "logs" / "ovf" / "sgd" / "0.log"
        _, records, summary = read_runlog(log)
        assert summary["diverged"] is True and "final_loss" not in summary
        assert summary["steps_done"] == done
        assert [r["step"] for r in records] == list(range(done))
        # the series the run returns is the one its log gives
        runs = run_comparison(parse_config(cfg), tmp_path / "again")["runs"]
        assert runs[0][3]["series"] == harness._series(records)
        assert cli.main(["--out", str(tmp_path), "ttt", "--logs", str(log.parent)]) \
            == cli.EXIT_OK

    @pytest.mark.parametrize("optimizer", [
        {"kind": "cao", "alpha": 0.1, "eta": 0.1},
        {"kind": "sgd", "alpha": 10.0},
        {"kind": "adam", "alpha": 0.01},
    ], ids=["cao", "sgd", "adam"])
    def test_huge_finite_gradient_exit_code(self, tmp_path, optimizer):
        # the loss and gradient stay finite (about 1e300), but the gradient norm,
        # the preconditioned direction or Adam's squared gradient overflows
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "name": "huge",
            "problem": {"name": "quadratic", "spectrum": [1e300, 1.0], "seed": 0},
            "optimizers": [optimizer],
            "seeds": [0],
            "steps": 20,
            "threshold": 0.1,
        }))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["--out", str(tmp_path), "run", "--config", str(cfg_path)])
        assert [str(w.message) for w in caught] == []
        assert rc == cli.EXIT_DIVERGED
        logs = list((tmp_path / "logs" / "huge").rglob("*.log"))
        assert len(logs) == 1
        _, records, summary = read_runlog(logs[0])
        assert summary["diverged"] and "final_loss" not in summary
        assert [r["step"] for r in records] == [0]
        last = records[-1]
        assert not all(np.isfinite([last["loss"], last["grad_norm"], last["update_norm"]]))
        assert strict_json_logs(tmp_path) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["ttt", "--thresholds", "0.5,abc"], "--thresholds"),
        (["ablate-k", "--ks", "1,x"], "--ks"),
        (["sweep", "--etas", "0.1,abc"], "--etas"),
        (["sweep", "--ms", "10,2.5"], "--ms"),
    ], ids=["thresholds", "ks", "etas", "ms"])
    def test_bad_list_exit_code(self, tmp_path, argv, flag, capsys):
        synthetic_log(tmp_path / "in" / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(steps=5, seeds=(0,)).to_dict()))
        source = (["--logs", str(tmp_path / "in")] if argv[0] == "ttt"
                  else ["--config", str(cfg_path)])
        rc = cli.main(["--out", str(tmp_path), argv[0], *source, *argv[1:]])
        assert rc == cli.EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "logs").exists()
        assert not (tmp_path / "tables").exists()

    @pytest.mark.parametrize("argv, flag, bad", [
        (["--threshold", "nan"], "--threshold", "nan"),
        (["--threshold=-inf"], "--threshold", "-inf"),
        (["--thresholds", "0.5,inf,nan"], "--thresholds", "inf"),
        (["--thresholds", "0.5,NaN"], "--thresholds", "nan"),
    ], ids=["threshold-nan", "threshold-minus-inf", "thresholds-inf-nan", "thresholds-nan"])
    def test_non_finite_threshold_exit_code(self, tmp_path, argv, flag, bad, capsys):
        synthetic_log(tmp_path / "in" / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
        rc = cli.main(["--out", str(tmp_path), "ttt", "--logs", str(tmp_path / "in"),
                       *argv])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {flag}: thresholds must be finite numbers, got {bad}" in err
        assert not (tmp_path / "tables").exists()

    @pytest.mark.parametrize("order", ["threshold-first", "thresholds-first"])
    def test_threshold_and_thresholds_together_exit_code(self, tmp_path, order, monkeypatch,
                                                        capsys):
        synthetic_log(tmp_path / "in" / "cao-k1/0.log", "cao-k1", 0, 0, hit_step=10)
        reads = []
        monkeypatch.setattr(harness, "read_runlog",
                            lambda *a, **kw: reads.append(a) or read_runlog(*a, **kw))
        flags = [["--threshold", "0.3"], ["--thresholds", "0.05,0.5"]]
        if order == "thresholds-first":
            flags.reverse()
        rc = cli.main(["--out", str(tmp_path), "ttt", "--logs", str(tmp_path / "in"),
                       *flags[0], *flags[1]])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --threshold and --thresholds cannot be given"
                              " together")
        assert reads == []
        assert not (tmp_path / "tables").exists()

    @pytest.mark.parametrize("case, argv, message", [
        ("no-logs", ["ttt", "--logs", "{inputs}"], "no log files under ["),
        ("config-list", ["run", "--config", "{cfg}"], "config document must be a JSON object"),
        ("no-cao", ["ablate-k", "--config", "{cfg}"],
         "config has no curvature-adaptive optimizer entry"),
        ("no-cao", ["sweep", "--config", "{cfg}"],
         "config has no curvature-adaptive optimizer entry"),
        ("no-threshold", ["ttt", "--logs", "{inputs}"],
         "no threshold given and none recorded in the logs"),
    ], ids=["ttt-no-logs", "config-list", "ablate-k-no-cao", "sweep-no-cao",
            "ttt-no-threshold"])
    def test_exit_code_3_writes_nothing(self, tmp_path, case, argv, message, capsys):
        inputs, cfg_path, out = tmp_path / "in", tmp_path / "cfg.json", tmp_path / "out"
        (inputs / "sgd").mkdir(parents=True)
        out.mkdir()
        if case == "no-logs":
            (inputs / "sgd" / "0.log.part").write_text("")  # only .log files are read
        elif case == "config-list":
            cfg_path.write_text("[]")
        elif case == "no-cao":
            cfg = tiny_config(steps=5)
            cfg_path.write_text(json.dumps(replace(cfg, optimizers=cfg.optimizers[1:]).to_dict()))
        else:
            log = inputs / "sgd" / "0.log"
            synthetic_log(log, "sgd", 0, 0, hit_step=10)
            header, rest = log.read_text().split("\n", 1)
            log.write_text(json.dumps({**json.loads(header), "threshold": None}) + "\n" + rest)
        argv = [arg.format(inputs=inputs, cfg=cfg_path) for arg in argv]
        assert cli.main(["--out", str(out), *argv]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{cfg}"], ["ttt", "--logs", "{logs}"],
        ["ablate-k", "--config", "{cfg}"], ["sweep", "--config", "{cfg}", "--ms", "10"],
        ["plotdata", "--logs", "{logs}"], ["theory"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("out", ["afile", "afile/out", "afile/out/deeper", "afile/../out"])
    def test_out_under_a_file_exits_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                   argv, out):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(steps=5, seeds=(0,)).to_dict()))
        synthetic_log(tmp_path / "in" / "sgd" / "0.log", "sgd", 0, 0, hit_step=10)
        (tmp_path / "afile").write_text("")
        before = sorted(tmp_path.rglob("*"))
        started = []
        for module, name in ((harness, "run_single"), (harness, "read_runlog"),
                             (cli.theory, "run_theory_suite")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: started.append(name))
        argv = [arg.format(cfg=cfg_path, logs=tmp_path / "in") for arg in argv]
        rc = cli.main(["--out", str(tmp_path / out), *argv])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --out {tmp_path / out}: {tmp_path / 'afile'} is not a directory\n")
        assert started == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv, sub", [
        (["run", "--config", "{cfg}"], "logs"), (["ttt", "--logs", "{logs}"], "tables"),
        (["ablate-k", "--config", "{cfg}"], "logs"), (["ablate-k", "--config", "{cfg}"], "tables"),
        (["sweep", "--config", "{cfg}", "--ms", "10"], "logs"),
        (["sweep", "--config", "{cfg}", "--ms", "10"], "tables"),
        (["plotdata", "--logs", "{logs}"], "figures-data"), (["theory"], "logs"),
        (["theory"], "logs/theory"),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_file_where_out_needs_a_directory_exits_before_any_run(
            self, tmp_path, monkeypatch, capsys, argv, sub):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(steps=5, seeds=(0,)).to_dict()))
        synthetic_log(tmp_path / "in" / "sgd" / "0.log", "sgd", 0, 0, hit_step=10)
        out = tmp_path / "out"
        (out / sub).parent.mkdir(parents=True)
        (out / sub).write_text("")
        before = sorted(tmp_path.rglob("*"))
        started = []
        for module, name in ((harness, "run_single"), (harness, "read_runlog"),
                             (cli.theory, "run_theory_suite")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: started.append(name))
        argv = [arg.format(cfg=cfg_path, logs=tmp_path / "in") for arg in argv]
        rc = cli.main(["--out", str(out), *argv])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --out {out}: {out / sub} is not a directory\n")
        assert started == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["ttt", "plotdata"])
    @pytest.mark.parametrize("name", ["../../x", "a/b", "..", ""])
    def test_name_must_be_one_path_part(self, tmp_path, monkeypatch, capsys, command, name):
        synthetic_log(tmp_path / "in" / "sgd" / "0.log", "sgd", 0, 0, hit_step=10)
        out = tmp_path / "a" / "out"
        out.mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        read = []
        monkeypatch.setattr(harness, "read_runlog", lambda *a, **kw: read.append(a))
        rc = cli.main(["--out", str(out), command, "--logs", str(tmp_path / "in"),
                       "--name", name])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --name must be a non-empty string without '/' or NUL,"
            f" and not '.' or '..', got {name!r}\n")
        assert read == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_theory_negative_seed_exit_code(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path), "theory", "--seed", "-1"])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs" / "theory" / "reports.jsonl").exists()
        err = capsys.readouterr().err
        assert "config error: --seed must be an integer >= 0, got -1" in err

    def test_theory_command(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "theory"])
        assert rc == cli.EXIT_OK
        report_path = tmp_path / "logs" / "theory" / "reports.jsonl"
        assert report_path.exists()
        lines = report_path.read_text().splitlines()
        assert all(json.loads(l)["passed"] for l in lines)
