import json

import numpy as np
import pytest

from cao import cli, harness
from cao.config import load_config, parse_config
from cao.errors import ConfigError
from cao.harness import (
    build_schedule,
    emit_plot_data,
    format_ttt,
    k_ablation,
    run_comparison,
    sensitivity_sweep,
    threshold_sweep,
    time_to_threshold,
)
from cao.runlog import RunLogWriter, normalized_bytes, read_runlog
from cao.optim import StepRecord


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
        with pytest.raises(ConfigError):
            parse_config({
                "name": "x",
                "problem": {"name": "rosenbrock", "n": 2},
                "optimizers": [{"kind": "sgd", "alpha": 0.1, "bogus": 1}],
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

    @pytest.mark.parametrize("knobs", [{"k": -1}, {"floor": 0.0}, {"k": "3"}],
                             ids=["negative-k", "zero-floor", "k-as-string"])
    def test_bad_cao_knob(self, knobs):
        with pytest.raises(ConfigError, match="'cao-x'"):
            parse_config({
                "name": "x",
                "problem": {"name": "rosenbrock", "n": 2},
                "optimizers": [{"kind": "cao", "label": "cao-x", "alpha": 0.1, **knobs}],
                "seeds": [0], "steps": 1, "threshold": 0.1,
            })

    def test_missing_alpha(self):
        with pytest.raises(ConfigError):
            parse_config({
                "name": "x",
                "problem": {"name": "rosenbrock", "n": 2},
                "optimizers": [{"kind": "adam"}],
                "seeds": [0], "steps": 1, "threshold": 0.1,
            })


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

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        rc = cli.main(["run", "--config", str(missing)])
        assert rc == cli.EXIT_CONFIG

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

    @pytest.mark.parametrize("change, named", [
        ({"optimizers": [{"kind": "sgd", "alpha": 0.1},
                         {"kind": "cao", "label": "bad-k", "alpha": 0.1, "k": -1}]},
         "bad-k"),
        ({"problem": {"name": "quadratic", "seed": 1}}, "spectrum"),
    ], ids=["negative-k", "missing-spectrum"])
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

    def test_theory_command(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path), "theory"])
        assert rc == cli.EXIT_OK
        report_path = tmp_path / "logs" / "theory" / "reports.jsonl"
        assert report_path.exists()
        lines = report_path.read_text().splitlines()
        assert all(json.loads(l)["passed"] for l in lines)
