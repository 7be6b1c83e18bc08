"""Runs of one command on a fork pool (``--jobs``): same outputs, failures and interrupts."""

import importlib.util
import json
import logging
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cao import cli, harness, optim
from cao.config import parse_config
from cao.errors import ConfigError
from cao.harness import build_schedule, run_comparison
from cao.runlog import read_runlog

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# BLAS at one thread, as the benchmark runs it: two workers with a thread per core
# each take ten times as long on the logreg config (README "Parallel runs")
ONE_BLAS_THREAD = {**ENV, **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")}}


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_config(name="par", seeds=(0, 1, 2), steps=20):
    return parse_config({
        "name": name,
        "problem": {"name": "logreg", "n_features": 6, "n_samples": 48, "seed": 5},
        "optimizers": [
            {"kind": "cao", "label": "cao-k1", "alpha": 0.5, "k": 1, "m": 10,
             "eta": 1.0, "t_pow": 3},
            {"kind": "sgd", "label": "sgd", "alpha": 0.5},
        ],
        "seeds": list(seeds), "steps": steps, "batch_size": 12, "threshold": 0.5,
    })


class TestPoolSize:
    @pytest.mark.parametrize("jobs, tasks, workers", [
        (1, 9, 1), (2, 1, 1), (2, 9, 2), (3, 2, 2), (100000, 2, 2), (10**30, 5, 5),
    ])
    def test_resolution(self, jobs, tasks, workers):
        assert harness.pool_size(jobs, tasks) == workers

    def test_no_fork_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert harness.pool_size(4, 9) == 1

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", True, None])
    def test_bad_jobs(self, jobs):
        with pytest.raises(ConfigError, match=r"^jobs must be an integer >= 1, got "):
            harness.pool_size(jobs, 3)

    def test_cli_default_is_the_usable_cpus(self):
        assert cli._jobs(None) == len(os.sched_getaffinity(0))
        assert cli._jobs("3") == 3

    @pytest.mark.parametrize("command", ["run", "ablate-k", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-1", "abc", "1.5", ""])
    def test_bad_cli_jobs_exits_before_any_run(self, tmp_path, capsys, command, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config().to_dict()))
        rc = cli.main(["--out", str(tmp_path), command, "--config", str(cfg_path),
                       f"--jobs={value}"])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "logs").exists()
        assert capsys.readouterr().err == (
            f"config error: --jobs: expected an integer >= 1, got {value!r}\n")

    @pytest.mark.parametrize("jobs, seeds", [(1, (0, 1, 2)), (4, (0,))])
    def test_no_pool_for_one_worker(self, tmp_path, monkeypatch, jobs, seeds):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = small_config(seeds=seeds)
        cfg = replace(cfg, optimizers=cfg.optimizers[:1])
        result = run_comparison(cfg, tmp_path, jobs=jobs)
        assert len(result["logs"]) == len(seeds)


def mlp_every_3(tmp_path):
    doc = json.loads((ROOT / "configs" / "mlp_speedup.json").read_text())
    path = tmp_path / "mlp-every-3.json"
    path.write_text(json.dumps({**doc, "name": "mlp-every-3", "steps": 120, "eval_every": 3}))
    return path


def diverging_quad(tmp_path):
    path = tmp_path / "boom.json"
    path.write_text(json.dumps({
        "name": "boom", "problem": {"name": "quadratic", "spectrum": [100.0, 1.0], "seed": 1},
        "optimizers": [{"kind": "cao", "alpha": 0.5, "k": 1, "m": 10, "eta": 0.001},
                       {"kind": "sgd", "alpha": 10.0}],
        "seeds": [0, 1], "steps": 200, "threshold": 0.01,
    }))
    return path


# config, then the commands each side runs, then every command's exit code
EXECUTOR_CASES = {
    "quad": (lambda tmp: ROOT / "configs" / "quad_speedup.json",
             ["run", "ablate-k --ks 0,1,3", "sweep --etas 0.5,2.0 --ms 25,100"],
             [0, 0, 0]),
    "mlp-eval-every-3": (mlp_every_3,
                         ["run", "ablate-k --ks 0,1,3", "sweep --etas 0.001,0.5 --ms 10,50"],
                         [0, 0, 0]),
    "logreg-sketch": (lambda tmp: ROOT / "perfbench" / "configs" / "logreg_sketch.json",
                      ["run", "ablate-k --ks 1,8", "sweep --etas 0.1 --ms 10,50"],
                      [0, 0, 0]),
    "diverging-quad": (diverging_quad,
                       ["run", "ablate-k --ks 0,1,2", "sweep --etas 0.001,0.5 --ms 10,50"],
                       [2, 2, 2]),
}

# each side in turn runs every command at -v, marking where each call's output starts
SIDES = """
import sys
from cao.cli import main
out, cfg, *commands = sys.argv[1:]
for jobs in ("1", "2"):
    for command in commands:
        print("--- call", flush=True)
        print("--- call", file=sys.stderr, flush=True)
        rc = main(["-v", "--out", out + "/jobs" + jobs, *command.split(), "--config", cfg,
                   "--jobs", jobs])
        print("--- exit", rc, flush=True)
"""


@pytest.mark.parametrize("case", sorted(EXECUTOR_CASES))
def test_outputs_equal_across_executors(tmp_path, compare_outputs, case):
    make_config, commands, codes = EXECUTOR_CASES[case]
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-c", SIDES, str(out), str(make_config(tmp_path)),
                           *commands], capture_output=True, text=True, timeout=300,
                          env=ONE_BLAS_THREAD)
    assert done.returncode == 0, done.stderr
    stdout = done.stdout.replace(f"{out}/jobs2", f"{out}/jobs1").split("--- call\n")[1:]
    stderr = done.stderr.replace(f"{out}/jobs2", f"{out}/jobs1").split("--- call\n")[1:]
    n = len(commands)
    assert len(stdout) == len(stderr) == 2 * n
    assert [text.splitlines()[-1] for text in stdout] == [f"--- exit {rc}" for rc in codes * 2]
    # printed paths and tables, and every log record at INFO, in the same order
    assert stdout[:n] == stdout[n:]
    assert stderr[:n] == stderr[n:]
    assert "INFO cao.harness: " in stderr[0]
    if case == "mlp-eval-every-3":  # records logged in the workers are re-emitted
        assert stderr[2].count("INFO cao.sketch: sketch contains negative curvature") > 1
    assert compare_outputs.compare(out / "jobs1", out / "jobs2") == []
    assert list(out.rglob("*.part")) == []


def test_log_records_reach_caplog_in_task_order(tmp_path, caplog):
    # k = 3 sketches of this small mlp log negative curvature at INFO and
    # repaired columns as warnings
    cfg = parse_config({
        "name": "neg", "problem": {"name": "mlp", "widths": [2, 3, 2], "n_samples": 8},
        "optimizers": [{"kind": "cao", "alpha": 0.1, "k": 3, "m": 2, "t_pow": 2},
                       {"kind": "sgd", "alpha": 0.1}],
        "seeds": [0, 1, 2], "steps": 30, "threshold": 0.1,
    })
    seen = []
    for jobs in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.INFO):
            run_comparison(cfg, tmp_path / str(jobs), jobs=jobs)
        seen.append(caplog.record_tuples)
    assert seen[0] == seen[1]
    messages = [message for _, _, message in seen[0]]
    assert sum("negative curvature" in message for message in messages) == 3
    assert sum("rank-deficient column" in message for message in messages) > 3


def patch_step(monkeypatch, name, actions):
    """Patch ``optim.<name>`` to act at ``(seed, step)`` on that seed's batch.

    An action is an exception to raise or a function to call before the step.
    """
    batches = {key: build_schedule(48, 12, key[1] + 1, key[0])[0][key[1]] for key in actions}
    step = getattr(optim, name)

    def patched(state, problem, batch, **kwargs):
        for (seed, at), action in actions.items():
            if state.step == at and (batch.indices == batches[seed, at].indices).all():
                if isinstance(action, BaseException):
                    raise action
                action()
        return step(state, problem, batch, **kwargs)

    monkeypatch.setattr(optim, name, patched)


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_task_raises_as_in_process(self, tmp_path, monkeypatch, jobs):
        # tasks: (seed 0: cao-k1, sgd), (seed 1: cao-k1, sgd), (seed 2: ...)
        patch_step(monkeypatch, "sgd_step", {(1, 5): ValueError("step failed on seed 1")})
        with pytest.raises(ValueError, match=r"^step failed on seed 1$"):
            run_comparison(small_config(), tmp_path, jobs=jobs)
        assert multiprocessing.active_children() == []
        logs = tmp_path / "logs" / "par"
        for done in ("cao-k1/0.log", "sgd/0.log", "cao-k1/1.log"):
            assert read_runlog(logs / done)[2] is not None
        for path in logs.rglob("*.log"):
            assert read_runlog(path)[2] is not None  # a later run that had started
        assert [p.relative_to(logs).as_posix() for p in logs.rglob("*.part")] == [
            "sgd/1.log.part"]
        assert not (logs / "sgd" / "1.log").exists()

    def test_first_failure_in_task_order_wins(self, tmp_path, monkeypatch):
        # seed 0's sgd fails late and seed 1's fails at once: seed 0's is raised
        patch_step(monkeypatch, "sgd_step", {(0, 15): ValueError("late, seed 0"),
                                             (1, 0): ArithmeticError("early, seed 1")})
        for jobs in (1, 2):
            with pytest.raises(ValueError, match=r"^late, seed 0$"):
                run_comparison(small_config(), tmp_path / str(jobs), jobs=jobs)
            assert multiprocessing.active_children() == []

    def test_tasks_not_started_are_cancelled(self, tmp_path, monkeypatch):
        # the first of 12 tasks waits while the second fails at once; the other 10
        # take about 10 ms each and would all run before the first one ends
        patch_step(monkeypatch, "cao_step", {(0, 0): lambda: time.sleep(0.4)})
        patch_step(monkeypatch, "sgd_step", {(0, 0): ValueError("step failed on seed 0")})
        with pytest.raises(ValueError, match=r"^step failed on seed 0$"):
            run_comparison(small_config(seeds=range(6), steps=300), tmp_path, jobs=2)
        assert multiprocessing.active_children() == []
        # besides the first task, only the one the failed worker took next and
        # those the pool had queued (workers + 1) run
        assert len(list(tmp_path.rglob("*.log"))) <= 5

    @pytest.mark.parametrize("seed", range(2))
    def test_interrupted_sweep_leaves_no_process(self, tmp_path, seed):
        cfg_path = tmp_path / "cfg.json"
        doc = json.loads((ROOT / "configs" / "quad_speedup.json").read_text())
        cfg_path.write_text(json.dumps({**doc, "steps": 6000}))  # a sweep of about 2 s
        child = subprocess.Popen(
            [sys.executable, "-m", "cao.cli", "--out", str(tmp_path), "sweep", "--config",
             str(cfg_path), "--etas", "0.5,1.0,2.0", "--ms", "25,50,100", "--jobs", "2"],
            env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        time.sleep(random.Random(seed).uniform(0.2, 0.8))
        os.killpg(child.pid, signal.SIGINT)
        try:
            _, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
        assert child.returncode in (0, -signal.SIGINT, 1), err
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)
        for path in tmp_path.rglob("*.log"):
            assert read_runlog(path)[2] is not None
        for part in tmp_path.rglob("*.part"):  # a run cut short, never beside its log
            assert not part.with_suffix("").exists()
        done = subprocess.run(
            [sys.executable, "-m", "cao.cli", "--out", str(tmp_path / "t"), "ttt",
             "--logs", str(tmp_path / "logs")],
            env=ENV, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 or (done.returncode == cli.EXIT_CONFIG
                                        and done.stderr.startswith("config error: ")), \
            done.stderr


def test_importing_the_cli_loads_no_pool():
    code = ("import sys, cao.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))")
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
