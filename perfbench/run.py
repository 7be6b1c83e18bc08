#!/usr/bin/env python3
"""cao benchmark: one workload per run, drawn from the ``--seed``.

    python3 perfbench/run.py --workload quad-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all [--trace 0|1|both] [--save FILE]

A run drives ``cao.cli.main`` in this process on configs generated from the
seed, repeats the workload's command list for ``--seconds`` seconds and
checks every repetition's outputs. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and prints the per-layer metrics from the spans (see
``spans.py``). The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Metric names, units and
directions are those declared in ``BENCHMARK.json``; ``README.md`` here
says what each one measures.

``--workload all`` runs every workload in a child process and prints one
table; ``--save`` also writes the results and the machine as JSON.
"""

import os

# Fixed BLAS thread count, identical for every run and both sides of a
# comparison; set before NumPy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

from calibration import INTERPRETER_PARTS, Kernel, reference_seconds  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, RepeatCheck, check_logs, first_hit  # noqa: E402

SETUP_REPEATS = 5   # set-ups timed before the first repetition; one more after each
MIN_REPS = 2        # repetitions per untraced run, so every run checks repeats
WORK_DIR = ROOT / ".perfbench-work"
SPAN_DIR = ROOT / ".perfbench-out"
STEP_SPANS = ("optim.cao_step", "optim.sgd_step", "optim.adam_step")
SUMMARY_SPANS = ("harness.time_to_threshold", "harness.threshold_sweep",
                 "harness.emit_plot_data")


def declared_metrics() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"0": {m["name"]: m for m in doc["end_to_end"]},
            "1": {m["name"]: m for m in doc["per_layer"]}}


def import_cao():
    """Fresh import of the package (earlier imports dropped); returns ``cao``."""
    for name in [m for m in sys.modules if m == "cao" or m.startswith("cao.")]:
        del sys.modules[name]
    importlib.import_module("cao.cli")
    return sys.modules["cao"]


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.machine())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


class Run:
    """One workload run: counts operations and failures across repetitions."""

    def __init__(self, workload, seed: int, seconds: float, work: Path, kernel=None):
        self.wl = workload
        self.kernel = kernel  # host-speed calibration around every command, if set
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.repeat = RepeatCheck()
        self.reps = 0
        self.cao = None

    def fail(self, count: int, messages) -> None:
        self.failed += count
        for msg in messages:
            print(f"check failed: {msg}", file=sys.stderr)

    def call(self, out: Path, cmd, tracer=None) -> None:
        """One CLI command; its captured output is dropped (the checks read files)."""
        self.attempted += cmd.ops
        argv = ["--out", str(out)] + cmd.argv
        rc = None
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    rc = self.cao.cli.main(argv)
                else:
                    with tracer.span("cli." + cmd.argv[0]):
                        rc = self.cao.cli.main(argv)
        except Exception:  # a crashing command is a failed operation, not a crash
            traceback.print_exc()
        if rc != 0:
            self.fail(cmd.ops, [f"cao {' '.join(argv)} exited with {rc}"])

    def prepare(self, tracer=None) -> None:
        """Generated configs, plus the input logs of a read-only workload."""
        commands = self.wl.prepare(self.work, self.seed)
        if not commands:
            return
        if tracer is not None:
            tracer.begin_phase("prep")
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            for cmd in commands:
                self.call(self.wl.input_root, cmd, tracer)
        logs = sorted(self.wl.input_root.rglob("*.log"))
        checked = check_logs(logs)
        self.fail(checked.failed, checked.problems)
        self.wl.count_input(checked.steps)

    def rep(self, tracer=None) -> dict:
        """One repetition of the command list, timed, then checked."""
        out = self.work / f"rep{self.reps}"
        self.reps += 1
        commands = self.wl.commands(out)
        if tracer is not None:
            tracer.begin_phase("rep")
        walls, slowdowns = [], []  # per command; slowdowns before each and after the last
        gc.collect()  # every repetition starts from a collected heap
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            for cmd in commands:
                if self.kernel is not None:
                    slowdowns.append(self.kernel.slowdown())
                t0 = time.perf_counter()
                self.call(out, cmd, tracer)
                walls.append(time.perf_counter() - t0)
        if self.kernel is not None:
            slowdowns.append(self.kernel.slowdown())
        checked = check_logs(sorted(out.rglob("*.log")))
        self.fail(checked.failed, checked.problems)
        mismatches = self.repeat.compare(out, self.cao)
        self.fail(len(mismatches), mismatches)
        exp, label = self.wl.reference
        table = out / "tables" / f"{exp}-time-to-threshold.txt"
        try:
            hit = first_hit(table, label)
        except (OSError, ValueError) as exc:
            self.fail(1, [f"first hit of {label}: {exc}"])
            hit = None
        reference = (sum(reference_seconds(w, slowdowns[i:i + 2]) for i, w in enumerate(walls))
                     if slowdowns else None)
        return {"out": out, "wall": sum(walls), "reference_s": reference,
                "work": self.wl.rep_work(checked.steps), "hit": hit}

    def result(self, metrics: dict, declared: dict) -> dict:
        if set(metrics) != set(declared):
            raise RuntimeError(f"metrics {sorted(metrics)} != declared {sorted(declared)}")
        failed = min(self.failed, self.attempted)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                        for name, value in metrics.items()},
        }


def untraced(run: Run) -> dict:
    """End-to-end metrics: set-up time, throughput, memory and share of operations passed.

    Times are in reference seconds (see ``calibration.py``).
    """
    run.cao = import_cao()
    run.prepare()
    setups = []
    kernel = Kernel(INTERPRETER_PARTS)  # set-up is import and config work on every workload

    def set_up():
        before = kernel.slowdown()
        t0 = time.perf_counter()
        run.cao = import_cao()
        run.wl.setup(run.cao)
        took = time.perf_counter() - t0
        setups.append((took, reference_seconds(took, [before, kernel.slowdown()])))

    for _ in range(SETUP_REPEATS):
        set_up()
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run.rep()
        shutil.rmtree(rep["out"])
        reps.append(rep)
        set_up()  # spread over the run, like the repetitions
        took = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and time.perf_counter() - start + took > run.seconds:
            break
    wall_rate = statistics.median(r["work"] / r["wall"] for r in reps)
    print(f"# {len(reps)} repetitions, walls "
          + " ".join(f"{r['wall']:.3f}" for r in reps) + " s, in reference seconds "
          + " ".join(f"{r['reference_s']:.3f}" for r in reps) + "; "
          + f"wall-clock median steps/s {wall_rate:.6g}"
          + f", set-up {statistics.median(s for s, _ in setups):.6g} s", file=sys.stderr)
    return {
        "setup_s": statistics.median(ref for _, ref in setups),
        "steps_per_s": statistics.median(r["work"] / r["reference_s"] for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - min(run.failed, run.attempted) / run.attempted,
    }


class LogFacts:
    """What the spans are cross-checked against, read from the files after a phase."""

    def __init__(self):
        self.size = {}       # path -> bytes
        self.records = {}    # written log -> step records
        self.wall = {}       # written log -> sum of the step records' wall
        self.wall_total = {}

    def add_written(self, path: str) -> None:
        records, wall, wall_total = 0, 0.0, 0.0
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["type"] == "step":
                    records += 1
                    wall += obj["wall"]
                elif obj["type"] == "summary":
                    wall_total = obj["wall_total"]
        self.size[path] = os.path.getsize(path)
        self.records[path] = records
        self.wall[path] = wall
        self.wall_total[path] = wall_total

    def add_read(self, path: str) -> None:
        if path not in self.size:
            self.size[path] = os.path.getsize(path)


def note_phase(tracer: Tracer, facts: LogFacts) -> None:
    """Read the logs the last phase wrote or read, before they are removed."""
    phase = len(tracer.phases) - 1
    for idx, path in tracer.paths.items():
        if tracer.phase[idx] != phase:
            continue
        if tracer.names[tracer.code[idx]] == "harness.run_single":
            facts.add_written(path)
        else:
            facts.add_read(path)


def layer_metrics(tracer: Tracer, facts: LogFacts) -> dict:
    code, parent, dur, self_t, phase = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        return np.isin(code, [ids[n] for n in names if n in ids])

    def median(m, values, scale):
        if not m.any():
            print("# no spans for a metric; reporting 0", file=sys.stderr)
            return 0.0
        return float(np.median(values[m])) * scale

    def pct(m, values, q, scale):
        return float(np.percentile(values[m], q)) * scale if m.any() else 0.0

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    steps = mask(*STEP_SPANS)
    build = mask("sketch.build")
    runs = mask("harness.run_single")
    reads = mask("runlog.read")
    summary = mask(*SUMMARY_SPANS)
    cli = np.isin(code, [i for n, i in ids.items() if n.startswith("cli.")])
    wall = float(dur[cli].sum())
    n_steps = int(steps.sum())
    n_builds = int(build.sum())
    write_phases = len(set(phase[runs].tolist()))
    hvp_in_build = mask("problems.hvp") & np.isin(parent, np.flatnonzero(build))
    refresh = np.zeros_like(build)
    refresh[np.unique(parent[build])] = True
    failed_builds = sum(1 for i in tracer.failed if code[i] == ids.get("sketch.build"))

    # runlog: bytes and parses, from the files the spans named
    path_of = tracer.paths
    run_ids = np.flatnonzero(runs)
    read_ids = np.flatnonzero(reads)
    written_bytes = sum(facts.size[path_of[i]] for i in run_ids)
    written_records = sum(facts.records[path_of[i]] for i in run_ids)
    read_bytes = sum(facts.size[path_of[i]] for i in read_ids)
    touched = 0
    for p in set(phase[reads].tolist()):
        in_phase = np.flatnonzero((reads | runs) & (phase == p))
        touched += len({path_of[i] for i in in_phase})

    # cross-check: log wall fields against the step and run spans
    step_sum = np.zeros_like(dur)
    np.add.at(step_sum, parent[steps], dur[steps])
    step_gap = sum(facts.wall[path_of[i]] - step_sum[i] for i in run_ids)
    run_gap = sum(dur[i] - facts.wall_total[path_of[i]] for i in run_ids)

    def share(m, values=dur):
        return ratio(values[m].sum(), wall)

    return {
        "problems.loss_us": median(mask("problems.loss"), dur, 1e6),
        "problems.grad_us": median(mask("problems.grad"), dur, 1e6),
        "problems.hvp_us": median(mask("problems.hvp"), dur, 1e6),
        "problems.loss_calls_per_step": ratio(mask("problems.loss").sum(), n_steps),
        "problems.grad_calls_per_step": ratio(mask("problems.grad").sum(), n_steps),
        "problems.build_ms": median(mask("problems.build"), dur, 1e3),
        "sketch.build_ms": median(build, dur, 1e3),
        "sketch.build_ms_p90": pct(build, dur, 90, 1e3),
        "sketch.self_ms": median(build, self_t, 1e3),
        "sketch.hvp_per_build": ratio(hvp_in_build.sum(), n_builds),
        "sketch.builds": ratio(n_builds, write_phases),
        "sketch.failed_builds": ratio(failed_builds, write_phases),
        "precondition.apply_us": median(mask("precondition.apply"), dur, 1e6),
        "precondition.calls": ratio(mask("precondition.apply").sum(), write_phases),
        "optim.cao_step_self_us": median(mask("optim.cao_step"), self_t, 1e6),
        "optim.sgd_step_self_us": median(mask("optim.sgd_step"), self_t, 1e6),
        "optim.adam_step_self_us": median(mask("optim.adam_step"), self_t, 1e6),
        "optim.refresh_step_ms_p50": pct(refresh, dur, 50, 1e3),
        "optim.refresh_step_ms_p90": pct(refresh, dur, 90, 1e3),
        "runlog.write_us": median(mask("runlog.write"), dur, 1e6),
        "runlog.bytes_per_record": ratio(written_bytes, written_records),
        "runlog.read_ms_per_mb": ratio(dur[reads].sum() * 1e3, read_bytes / 1e6),
        "runlog.parses_per_log": ratio(reads.sum(), touched),
        "harness.run_single_self_ms": median(runs, self_t, 1e3),
        "harness.schedule_ms": median(mask("harness.schedule"), dur, 1e3),
        "harness.summary_ms": median(summary, self_t, 1e3),
        "config.load_ms": median(mask("config.load"), dur, 1e3),
        "problems.loss_share": share(mask("problems.loss")),
        "problems.grad_share": share(mask("problems.grad")),
        "problems.hvp_share": share(mask("problems.hvp")),
        "sketch.build_share": share(build),
        "precondition.apply_share": share(mask("precondition.apply")),
        "runlog.write_share": share(mask("runlog.write")),
        "runlog.read_share": share(reads),
        "harness.summary_share": share(summary, self_t),
        "crosscheck.step_wall_gap_us": ratio(step_gap * 1e6, n_steps),
        "crosscheck.run_wall_gap_ms": ratio(run_gap * 1e3, len(run_ids)),
    }


# layers the workloads were chosen to load; compared among these shares
LOAD_SHARES = ("problems.loss_share", "problems.grad_share", "problems.hvp_share",
               "sketch.build_share", "precondition.apply_share", "runlog.write_share",
               "runlog.read_share", "harness.summary_share")


def layer_loads(name: str, metrics: dict) -> str:
    largest = max(LOAD_SHARES, key=metrics.get)
    return f"largest layer share on {name}: {largest} = {metrics[largest]:.3f}"


def traced(run: Run) -> dict:
    """Per-layer metrics: untraced and traced repetitions alternate."""
    run.cao = import_cao()
    tracer = Tracer()
    facts = LogFacts()
    run.prepare(tracer)
    if tracer.phases:  # the workload wrote its input logs under the tracer
        note_phase(tracer, facts)
    plain, spanned = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run.rep()
        shutil.rmtree(rep["out"])
        plain.append(rep["wall"])
        rep = run.rep(tracer)
        note_phase(tracer, facts)
        shutil.rmtree(rep["out"])
        spanned.append(rep["wall"])
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > run.seconds:
            break
    metrics = layer_metrics(tracer, facts)
    metrics["harness.cao_first_hit_step"] = rep["hit"] or 0.0
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(spanned)
                                             / statistics.median(plain) - 1.0)
    print(f"# {layer_loads(run.wl.name, metrics)}", file=sys.stderr)
    SPAN_DIR.mkdir(exist_ok=True)
    out = SPAN_DIR / f"spans-{run.wl.name}-seed{run.seed}.npz"
    tracer.save(out)
    print(f"# {len(tracer.code)} spans from {len(spanned)} traced repetitions "
          f"written to {out.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def run_one(args) -> int:
    declared = declared_metrics()[str(args.trace)]
    workload = WORKLOADS[args.workload]
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, args.seconds, work,
                  kernel=None if args.trace else Kernel(workload.kernel_parts))
        metrics = traced(run) if args.trace else untraced(run)
        print("# machine " + json.dumps(machine()))
        print(f"# workload {workload.name} seed {args.seed}: {workload.why}")
        for name, value in metrics.items():
            print(f"# {name:32s} {value:14.6g} {declared[name]['unit']}")
        print(json.dumps(run.result(metrics, declared)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table, optionally saved as JSON."""
    modes = ["0", "1"] if args.trace == "both" else [args.trace]
    declared = declared_metrics()
    results = {f"trace{mode}": {} for mode in modes}
    ok = True
    for mode in modes:
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", mode]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} (trace {mode}) exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[f"trace{mode}"][name] = result
            ok &= result["correct"]
    for mode in modes:
        by_workload = results[f"trace{mode}"]
        print(f"\n{'metric':32s} {'unit':10s} " + " ".join(f"{w:>15s}" for w in WORKLOADS))
        for metric, spec in declared[mode].items():
            values = [by_workload[w]["metrics"][metric]["value"] if w in by_workload
                      else float("nan") for w in WORKLOADS]
            print(f"{metric:32s} {spec['unit']:10s} " + " ".join(f"{v:15.6g}" for v in values))
    if args.save:
        doc = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
               "why": {name: wl.why for name, wl in WORKLOADS.items()},
               "results": results}
        Path(args.save).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", default="0", choices=["0", "1", "both"])
    parser.add_argument("--save", default=None, help="with --workload all: JSON output")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.trace == "both":
        parser.error("--trace both needs --workload all")
    args.trace = int(args.trace)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
