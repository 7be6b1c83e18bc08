"""Runs of one command on forked processes (``--jobs``): same outputs, failures and interrupts."""

import contextlib
import importlib.util
import json
import logging
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cao import cli, executor, optim
from cao.config import parse_config
from cao.errors import ConfigError, WorkerError
from cao.harness import build_schedule, run_comparison
from cao.runlog import normalized_bytes, read_runlog

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# BLAS at one thread from the start, as the benchmark runs it; the runs themselves are
# pinned to one at any --jobs (test_blas_pinned_while_forked starts at two)
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
        assert executor.pool_size(jobs, tasks) == workers

    def test_no_fork_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert executor.pool_size(4, 9) == 1

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", True, None])
    def test_bad_jobs(self, jobs):
        with pytest.raises(ConfigError, match=r"^jobs must be an integer >= 1, got "):
            executor.pool_size(jobs, 3)

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
        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = small_config(seeds=seeds)
        cfg = replace(cfg, optimizers=cfg.optimizers[:1])
        result = run_comparison(cfg, tmp_path, jobs=jobs)
        assert len(result["logs"]) == len(seeds)


def mlp_every_3(tmp_path):
    doc = json.loads((ROOT / "configs" / "mlp_speedup.json").read_text())
    path = tmp_path / "mlp-every-3.json"
    path.write_text(json.dumps({**doc, "name": "mlp-every-3", "steps": 120, "eval_every": 3}))
    return path


def quad_300_steps(tmp_path):
    # the shipped quad config cut to 300 steps: still refreshes at m 25, 50 and 100
    doc = json.loads((ROOT / "configs" / "quad_speedup.json").read_text())
    path = tmp_path / "quad-300.json"
    path.write_text(json.dumps({**doc, "steps": 300}))
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
    "quad": (quad_300_steps,
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_warning_where_blas_cannot_be_pinned(tmp_path, monkeypatch, caplog, jobs):
    monkeypatch.setattr(executor, "_openblas_threads", lambda: None)
    for call in ("first", "second"):
        caplog.clear()
        with caplog.at_level(logging.INFO):
            result = run_comparison(small_config(), tmp_path / call, jobs=jobs)
        assert [(name, message) for name, level, message in caplog.record_tuples
                if level >= logging.WARNING] == [(
                    "cao.executor", "no OpenBLAS thread count to set: the runs use the BLAS's"
                    " own threads, and their outputs may depend on how many it uses")]
        assert len(result["logs"]) == 6
        assert all(read_runlog(path)[2] is not None for path in result["logs"])


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


def assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for(path, timeout=30.0):
    """Poll until ``path`` exists: a handshake between the caller and a child."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} did not appear"
        time.sleep(0.002)


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


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


def patch_steps(monkeypatch, act):
    """Patch the cao and sgd steps to call ``act(state)`` before every step."""
    for name in ("cao_step", "sgd_step"):
        def patched(state, *args, _step=getattr(optim, name), **kwargs):
            act(state)
            return _step(state, *args, **kwargs)

        monkeypatch.setattr(optim, name, patched)


@pytest.mark.parametrize("jobs", [2, 4])  # 4: more processes than the cores of most hosts
def test_many_tasks_each_run_once(tmp_path, monkeypatch, jobs):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    claims = os.open(tmp_path / "claims", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def execute(i):
        os.write(claims, b"%d\n" % i)
        return i * i

    try:
        assert executor.run_all(execute, 20000, jobs) == [i * i for i in range(20000)]
    finally:
        os.close(claims)
    assert len(forks) == jobs - 1
    assert_no_child()
    # a claim lost or made twice shows here, though the results are keyed by index
    assert sorted(map(int, (tmp_path / "claims").read_text().split())) == list(range(20000))


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_task_raises_as_in_process(self, tmp_path, monkeypatch, jobs):
        # tasks: (seed 0: cao-k1, sgd), (seed 1: cao-k1, sgd), (seed 2: ...)
        patch_step(monkeypatch, "sgd_step", {(1, 5): ValueError("step failed on seed 1")})
        with pytest.raises(ValueError, match=r"^step failed on seed 1$"):
            run_comparison(small_config(), tmp_path, jobs=jobs)
        assert_no_child()
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
            assert_no_child()

    def test_tasks_not_started_are_cancelled(self, tmp_path, monkeypatch):
        # the first of 12 tasks waits while the second fails at once; the other 10
        # take about 10 ms each and would all run before the first one ends
        patch_step(monkeypatch, "cao_step", {(0, 0): lambda: time.sleep(0.4)})
        patch_step(monkeypatch, "sgd_step", {(0, 0): ValueError("step failed on seed 0")})
        with pytest.raises(ValueError, match=r"^step failed on seed 0$"):
            run_comparison(small_config(seeds=range(6), steps=300), tmp_path, jobs=2)
        assert_no_child()
        # the failure cancels every claim not yet made: only the waiting task ends
        logs = tmp_path / "logs" / "par"
        assert sorted(p.relative_to(logs).as_posix() for p in logs.rglob("*.log*")) == [
            "cao-k1/0.log", "sgd/0.log.part"]

    def test_killed_child_names_its_status_and_lost_tasks(self, tmp_path, monkeypatch):
        parent, claimed = os.getpid(), tmp_path / "child-claimed"

        def act(state):
            if os.getpid() == parent:
                wait_for(claimed)
            elif state.step == 0:
                claimed.touch()
            elif state.step == 5:
                os._exit(9)

        patch_steps(monkeypatch, act)
        with pytest.raises(WorkerError, match=r"^worker process \d+ exited with status 9;"
                                              r" tasks without a result: \d$") as caught:
            run_comparison(small_config(), tmp_path, jobs=2)
        assert_no_child()
        # the child died in its first task; the caller ran every other one
        lost = int(str(caught.value).rsplit(" ", 1)[1])
        logs = tmp_path / "logs" / "par"
        plan = [f"{label}/{seed}.log" for seed in range(3) for label in ("cao-k1", "sgd")]
        assert sorted(p.relative_to(logs).as_posix() for p in logs.rglob("*.log")) == sorted(
            plan[:lost] + plan[lost + 1:])
        for path in logs.rglob("*.log"):
            assert read_runlog(path)[2] is not None
        assert [p.relative_to(logs).as_posix() for p in logs.rglob("*.part")] == [
            plan[lost] + ".part"]

    def test_exception_that_cannot_be_pickled(self, tmp_path, monkeypatch):
        class Local(Exception):  # a local class: pickle cannot find it by name
            pass

        parent, claimed = os.getpid(), tmp_path / "child-claimed"

        def act(state):
            if os.getpid() == parent:
                wait_for(claimed)
            else:
                claimed.touch()
                raise Local("not sendable")

        patch_steps(monkeypatch, act)
        with pytest.raises(WorkerError, match=(
                r"^task \d raised Local: not sendable, which cannot be sent from its worker"
                r" process \((AttributeError|PicklingError): .*\)$")):
            run_comparison(small_config(), tmp_path, jobs=2)
        assert_no_child()

    def test_caller_failure_lets_the_child_run_finish(self, tmp_path, monkeypatch):
        parent = os.getpid()
        started, raised = tmp_path / "child-started", tmp_path / "caller-raised"

        def act(state):
            if os.getpid() == parent and state.step == 0:
                wait_for(started)  # the child is mid-run
                raised.touch()
                raise ValueError("caller failed")
            if os.getpid() != parent and state.step == 1 and not started.exists():
                started.touch()
                wait_for(raised)

        patch_steps(monkeypatch, act)
        with pytest.raises(ValueError, match=r"^caller failed$"):
            run_comparison(small_config(seeds=range(6), steps=30), tmp_path, jobs=2)
        assert_no_child()
        # the child's run finished and no run started after it: one log, one cut log
        logs = sorted(p.suffix for p in tmp_path.rglob("*.log*"))
        assert logs == [".log", ".part"]
        for path in tmp_path.rglob("*.log"):
            assert read_runlog(path)[2] is not None

    def test_open_files_are_the_same_after_a_forked_call(self, tmp_path, monkeypatch):
        before = open_fds()
        run_comparison(small_config(), tmp_path / "ok", jobs=2)
        assert open_fds() == before
        patch_step(monkeypatch, "sgd_step", {(1, 5): ValueError("step failed on seed 1")})
        with pytest.raises(ValueError):
            run_comparison(small_config(), tmp_path / "failed", jobs=2)
        assert open_fds() == before
        assert_no_child()

    def test_interrupt_while_collecting_leaves_no_process(self):
        # the caller stops after the first child's results, while the second child
        # still writes a payload larger than its pipe holds
        code = ("import os, pickle, time\n"
                "from cao import executor\n"
                "def interrupted(data):\n"
                "    raise KeyboardInterrupt\n"
                "pickle.loads = interrupted\n"
                "try:\n"
                "    executor.run_all(lambda i: time.sleep(0.05) or bytes(200000), 6, 3)\n"
                "except KeyboardInterrupt:\n"
                "    print('interrupted')\n"
                "try:\n"
                "    os.waitpid(-1, os.WNOHANG)\n"
                "except ChildProcessError:\n"
                "    print('no child')\n")
        child = subprocess.Popen([sys.executable, "-c", code], env=ENV, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = child.communicate(timeout=30)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        assert (child.returncode, out) == (0, "interrupted\nno child\n"), err

    @pytest.mark.parametrize("seed", range(2))
    def test_interrupted_sweep_leaves_no_process(self, tmp_path, seed):
        # 27 runs of about 0.15 s on two processes; the interrupt comes once 1 to 3
        # have finished, so it lands mid-run and the logs stay small
        child = start_sweep(tmp_path, "--etas", "0.5,1.0,2.0", "--ms", "25,50,100")
        wait_for_logs(child, tmp_path, random.Random(seed).randint(1, 3))
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
        assert_logs_summarize(tmp_path)

    def test_killed_sweep_group_is_run_again(self, tmp_path):
        # six runs of about 30 ms on two processes, all killed once the first log is
        # written: the other process is then mid-run, and the rerun takes its .part over
        cfg_path = tmp_path / "cfg.json"
        doc = json.loads((ROOT / "configs" / "quad_speedup.json").read_text())
        cfg_path.write_text(json.dumps({**doc, "steps": 300}))
        grid = ("--etas", "0.5,2.0", "--ms", "25")
        out = tmp_path / "out"
        child = start_sweep(out, *grid, config=cfg_path)
        try:
            wait_for_logs(child, out, 1)
        finally:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
        assert child.returncode == -signal.SIGKILL
        assert_logs_summarize(out)
        for root in (out, tmp_path / "uninterrupted"):
            child = start_sweep(root, *grid, config=cfg_path)
            _, err = child.communicate(timeout=60)
            assert child.returncode == 0, err
        assert list(out.rglob("*.part")) == []
        logs = sorted(p.relative_to(out) for p in out.rglob("*.log"))
        assert len(logs) == 6
        reference = tmp_path / "uninterrupted"
        assert [normalized_bytes(out / p) for p in logs] == [
            normalized_bytes(reference / p) for p in logs]

    def test_dead_worker_exits_4_and_keeps_finished_logs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config().to_dict()))
        out = tmp_path / "out"
        child = subprocess.Popen(
            [sys.executable, "-c", DEAD_WORKER, str(out), str(cfg_path), str(tmp_path)],
            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            _, err = child.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        assert child.returncode == cli.EXIT_WORKER, err
        # one line, no traceback; a warning record may come before it
        lines = [line for line in err.splitlines() if not line.startswith("WARNING ")]
        assert len(lines) == 1, err
        assert re.fullmatch(r"worker error: worker process \d+ exited with status 9;"
                            r" tasks without a result: \d", lines[0]), err
        # the child died in its first task; the caller ran every other one
        lost = int(lines[0].rsplit(" ", 1)[1])
        logs = out / "logs" / "par"
        plan = [f"{label}/{seed}.log" for seed in range(3) for label in ("cao-k1", "sgd")]
        assert sorted(p.relative_to(logs).as_posix() for p in logs.rglob("*.log")) == sorted(
            plan[:lost] + plan[lost + 1:])
        for path in logs.rglob("*.log"):
            assert read_runlog(path)[2] is not None

    def test_worker_killed_from_outside_exits_4(self, tmp_path):
        # 27 runs of about 50 ms on two processes; the forked one is SIGKILLed once the
        # first log is written, so it dies mid-sweep with the caller still claiming runs
        child = start_sweep(tmp_path, "--etas", "0.5,1.0,2.0", "--ms", "25,50,100")
        try:
            wait_for_logs(child, tmp_path, 1)
            workers = Path(f"/proc/{child.pid}/task/{child.pid}/children").read_text().split()
            assert len(workers) == 1
            os.kill(int(workers[0]), signal.SIGKILL)
            _, err = child.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        assert child.returncode == cli.EXIT_WORKER, err
        lines = [line for line in err.splitlines() if not line.startswith("WARNING ")]
        assert len(lines) == 1, err
        assert re.fullmatch(rf"worker error: worker process {workers[0]} was killed by signal 9;"
                            r" tasks without a result: \d+(, \d+)*", lines[0]), err
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)
        with pytest.raises(ProcessLookupError):
            os.kill(int(workers[0]), 0)
        parts = [part.with_suffix("") for part in tmp_path.rglob("*.part")]
        assert len(parts) == len(set(parts)) <= 1
        assert_logs_summarize(tmp_path)


# ``cao run --jobs 2`` whose forked child exits with status 9 mid-run, once the caller
# waits in its own first step
DEAD_WORKER = """
import os, sys, time
from pathlib import Path
from cao import cli, optim
out, cfg, scratch = sys.argv[1:]
parent, claimed = os.getpid(), Path(scratch) / "child-claimed"
def act(state):
    if os.getpid() == parent:
        deadline = time.monotonic() + 30
        while not claimed.exists() and time.monotonic() < deadline:
            time.sleep(0.002)
    elif state.step == 0:
        claimed.touch()
    elif state.step == 5:
        os._exit(9)
for name in ("cao_step", "sgd_step"):
    def patched(state, *args, _step=getattr(optim, name), **kwargs):
        act(state)
        return _step(state, *args, **kwargs)
    setattr(optim, name, patched)
sys.exit(cli.main(["--out", out, "run", "--config", cfg, "--jobs", "2"]))
"""


def start_sweep(out, *grid, config=ROOT / "configs" / "quad_speedup.json"):
    """``cao sweep --jobs 2`` into ``out``, in a process group of its own."""
    return subprocess.Popen(
        [sys.executable, "-m", "cao.cli", "--out", str(out), "sweep", "--config", str(config),
         *grid, "--jobs", "2"],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)


def wait_for_logs(child, root, count, timeout=60.0):
    """Poll until ``count`` finished logs exist under ``root``, while ``child`` runs."""
    deadline = time.monotonic() + timeout
    while len(list(root.rglob("*.log"))) < count:
        assert child.poll() is None, f"the command ended first: {child.stderr.read()}"
        assert time.monotonic() < deadline, f"{count} logs did not appear"
        time.sleep(0.002)


def assert_logs_summarize(root):
    """Every log under ``root`` reads, no .part sits beside its log, and ``ttt`` runs."""
    for path in root.rglob("*.log"):
        assert read_runlog(path)[2] is not None
    for part in root.rglob("*.part"):  # a run cut short, never beside its log
        assert not part.with_suffix("").exists()
    done = subprocess.run(
        [sys.executable, "-m", "cao.cli", "--out", str(root / "t"), "ttt",
         "--logs", str(root / "logs")],
        env=ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 or (done.returncode == cli.EXIT_CONFIG
                                    and done.stderr.startswith("config error: ")), \
        done.stderr


def test_importing_the_cli_loads_no_pool(tmp_path):
    code = ("import sys, cao.cli\n"
            "def pools():\n"
            "    return sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent')))\n"
            "print(pools())\n"
            "rc = cao.cli.main(['--out', sys.argv[1], 'run', '--config', sys.argv[2],"
            " '--jobs', '2'])\n"
            "print(rc, pools())")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                           str(ROOT / "configs" / "quad_speedup.json")],
                          env=ONE_BLAS_THREAD, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[]"
    assert done.stdout.splitlines()[-1] == "0 []"
    assert len(list(tmp_path.rglob("*.log"))) == 9


# the OpenBLAS thread count inside every run the caller makes, at --jobs 1 and 2: one, and
# the environment's two around the commands
BLAS_SIDES = """
import json, sys
from cao import cli, executor, harness
blas = executor._openblas_threads()
if blas is None:
    print("null")
    sys.exit()
seen, run_single = set(), harness.run_single
def traced(*args, **kwargs):
    seen.add(blas[0]())
    return run_single(*args, **kwargs)
harness.run_single = traced
out, cfg = sys.argv[1:]
before, inside = blas[0](), {}
for jobs in ("1", "2"):
    seen.clear()
    rc = cli.main(["--out", out + "/jobs" + jobs, "ablate-k", "--config", cfg, "--ks", "1,8",
                   "--jobs", jobs])
    inside[jobs] = [rc, sorted(seen)]
print(json.dumps({"before": before, "after": blas[0](), "inside": inside}))
"""


def two_blas_threads():
    """The environment for a subprocess whose OpenBLAS starts at two threads."""
    env = {**ENV, "OPENBLAS_NUM_THREADS": "2"}
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    return env


def test_blas_pinned_while_forked(tmp_path, compare_outputs):
    done = subprocess.run([sys.executable, "-c", BLAS_SIDES, str(tmp_path),
                           str(ROOT / "perfbench" / "configs" / "logreg_sketch.json")],
                          env=two_blas_threads(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    if seen is None:
        pytest.skip("no OpenBLAS thread-count functions found")
    assert seen == {"before": 2, "after": 2, "inside": {"1": [0, [1]], "2": [0, [1]]}}
    assert compare_outputs.compare(tmp_path / "jobs1", tmp_path / "jobs2") == []
    assert len(list(tmp_path.rglob("*.log"))) == 12


@pytest.mark.skipif(executor._openblas_threads() is None,
                    reason="no OpenBLAS thread-count functions found")
def test_outputs_equal_at_two_blas_threads(tmp_path, compare_outputs):
    # full-batch products long enough that OpenBLAS splits them across its two
    # threads, which rounds otherwise than one thread does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "logreg-wide",
        "problem": {"name": "logreg", "n_features": 100, "n_samples": 8000, "seed": 5},
        "optimizers": [{"kind": "sgd", "label": "sgd", "alpha": 1.0}],
        "seeds": [0, 1], "steps": 10, "batch_size": 0, "threshold": 0.36,
    }))
    for jobs in ("1", "2"):
        done = subprocess.run([sys.executable, "-m", "cao.cli", "--out", str(tmp_path / jobs),
                               "run", "--config", str(cfg), "--jobs", jobs],
                              env=two_blas_threads(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.rglob("*.log"))) == 4
    assert compare_outputs.compare(tmp_path / "1", tmp_path / "2") == []
