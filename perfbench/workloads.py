"""The benchmark's workloads: generated configs, CLI command lists and output checks.

Each workload turns the ``--seed`` into configs (only the ``seeds`` list of a
frozen template changes), then repeats a fixed list of ``cao`` CLI commands.
One repetition writes into its own output directory; the checks compare it
with the first repetition of the run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import INTERPRETER_PARTS

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

QUAD_EXP = "quad-skew-speedup"
MLP_EXP = "mlp-speedup"
LOGREG_EXP = "logreg-sketch"


def derive_seeds(seed: int, salt: int, count: int) -> list:
    """Run seeds for one config, fixed by the benchmark seed and the workload."""
    state = np.random.SeedSequence([int(seed), int(salt)]).generate_state(count)
    return [int(x) % 100_000 for x in state]


def write_config(template: str, seeds, path: Path) -> Path:
    doc = json.loads((CONFIG_DIR / template).read_text())
    doc["seeds"] = list(seeds)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


@dataclass
class Command:
    argv: list  # cao CLI arguments after ``--out DIR``
    ops: int    # (seed, optimizer) runs it makes, or 1 for a summary command


@dataclass
class Workload:
    name: str
    why: str
    salt: int      # keeps the workloads' run seeds apart
    template: str  # config template in configs/
    seeds: int     # run seeds drawn from the benchmark seed
    # experiment name and label of the reference cao optimizer for first-hit
    reference: tuple
    # calibration kernel parts (see calibration.py) for the work this workload does
    kernel_parts: tuple = INTERPRETER_PARTS
    config_paths: list = field(default_factory=list)

    def prepare(self, work: Path, seed: int) -> list:
        """One generated config per run seed; returns commands to run before timing.

        One config per seed keeps each command short, so the calibration
        kernel timed between commands follows the host's speed closely.
        """
        stem = Path(self.template).stem
        self.config_paths = [
            str(write_config(self.template, [s], work / "configs" / f"{stem}-{s}.json"))
            for s in derive_seeds(seed, self.salt, self.seeds)
        ]
        return []

    def commands(self, out: Path) -> list:
        raise NotImplementedError

    def setup(self, cao) -> None:
        """What a user waits for before the first step: config, problem, schedule."""
        cfg = cao.config.load_config(self.config_paths[0])
        problem = cao.problems.from_config(cfg.problem)
        cao.harness.build_schedule(problem.num_samples, cfg.batch_size, cfg.steps,
                                   cfg.seeds[0])

    def rep_work(self, steps_in_logs: int) -> int:
        """Throughput numerator of one repetition: optimizer steps run."""
        return steps_in_logs


def _runs(config_path) -> int:
    doc = json.loads(Path(config_path).read_text())
    return len(doc["optimizers"]) * len(doc["seeds"])


class QuadSweep(Workload):
    KS = "0,1,3,5"
    ETAS = "0.5,1.0,2.0"
    MS = "25,50,100"

    def commands(self, out):
        cells = len(self.ETAS.split(",")) * len(self.MS.split(","))
        commands = []
        for cfg in self.config_paths:
            commands += [
                Command(["run", "--config", cfg], _runs(cfg)),
                Command(["ablate-k", "--config", cfg, "--ks", self.KS],
                        len(self.KS.split(","))),
                Command(["sweep", "--config", cfg, "--etas", self.ETAS, "--ms", self.MS],
                        cells),
            ]
        return commands + [Command(["ttt", "--logs", str(out / "logs" / QUAD_EXP)], 1)]


class RunThenSummarize(Workload):
    """``run`` per seed, then ``ttt`` over all the logs."""

    def commands(self, out):
        return ([Command(["run", "--config", cfg], _runs(cfg)) for cfg in self.config_paths]
                + [Command(["ttt", "--logs", str(out / "logs" / self.reference[0])], 1)])


class LogsSummarize(Workload):
    """Read-only: summary commands over logs written before timing starts."""

    SECOND_TEMPLATE = "mlp_speedup.json"
    THRESHOLDS = "0.3,0.4,0.5,0.7,1.0"

    def prepare(self, work, seed):
        """Configs with all seeds; their runs write the input logs."""
        self.input_root = work / "input"
        commands = []
        for i, template in enumerate((self.template, self.SECOND_TEMPLATE)):
            path = write_config(template, derive_seeds(seed, self.salt * 16 + i, self.seeds),
                                work / "configs" / template)
            commands.append(Command(["run", "--config", str(path)], _runs(path)))
        return commands

    def input_logs(self, exp) -> Path:
        return self.input_root / "logs" / exp

    def commands(self, out):
        quad, mlp = str(self.input_logs(QUAD_EXP)), str(self.input_logs(MLP_EXP))
        return [
            Command(["ttt", "--logs", quad, "--name", QUAD_EXP], 1),
            Command(["plotdata", "--logs", quad, "--name", QUAD_EXP], 1),
            Command(["ttt", "--logs", quad, "--name", QUAD_EXP,
                     "--thresholds", self.THRESHOLDS], 1),
            Command(["ttt", "--logs", mlp, "--name", MLP_EXP], 1),
            Command(["plotdata", "--logs", mlp, "--name", MLP_EXP], 1),
        ]

    def setup(self, cao):
        """Import, then the first input log parsed."""
        cao.runlog.read_runlog(self.first_log)

    def count_input(self, records: int) -> None:
        self.first_log = sorted(self.input_logs(QUAD_EXP).rglob("*.log"))[0]
        self.records = records

    def rep_work(self, steps_in_logs):
        # the input size, not the number of parses
        return self.records


WORKLOADS = {
    "quad-sweep": QuadSweep(
        name="quad-sweep",
        why=("run, ttt, ablate-k --ks 0,1,3,5 and sweep --etas 0.5,1.0,2.0 "
             "--ms 25,50,100 on the n=50 full-batch quadratic: 16 runs, 24k steps. "
             "HVPs are cheap there, so per-step Python overhead dominates: run-log "
             "writes, cao_step bookkeeping and the preconditioner."),
        salt=1,
        template="quad_speedup.json",
        seeds=1,
        reference=(QUAD_EXP, "cao-k1"),
    ),
    "mlp-minibatch": RunThenSummarize(
        name="mlp-minibatch",
        why=("run and ttt on the mlp config: 227 parameters, batch 60 of 600 and a "
             "full-set eval every step. The problem kernels dominate (Problem.loss "
             "most); sketch and run-log writes are small."),
        salt=2,
        template="mlp_speedup.json",
        seeds=3,
        reference=(MLP_EXP, "cao-k1"),
    ),
    "logreg-sketch": RunThenSummarize(
        name="logreg-sketch",
        why=("run and ttt on logreg with 100 features x 4000 samples, full batch: "
             "cao with k=8, m=10, t_pow=10 plus SGD and Adam on the same schedule. "
             "The only workload where sketch builds and their HVPs dominate; the "
             "SGD and Adam runs bypass the sketch. It also covers logreg, which no "
             "shipped config uses."),
        salt=3,
        template="logreg_sketch.json",
        seeds=3,
        kernel_parts=("blas",),  # HVPs and loss/grad on the 4000 x 100 data
        reference=(LOGREG_EXP, "cao-k8"),
    ),
    "logs-summarize": LogsSummarize(
        name="logs-summarize",
        why=("read only: ttt, plotdata and ttt --thresholds over the 18 quad and mlp "
             "logs written before timing starts (81 parses, 101,700 records per "
             "repetition). It uses runlog and harness the other way round from "
             "quad-sweep, so a log format that speeds writes but slows reads shows."),
        salt=4,
        template="quad_speedup.json",
        seeds=3,
        reference=(QUAD_EXP, "cao-k1"),
    ),
}


# ---------------------------------------------------------------------------
# output checks


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _first_and_last_line(path: Path):
    with open(path, "rb") as fh:
        first = fh.readline()
        fh.seek(0, 2)
        size = fh.tell()
        fh.seek(max(0, size - 65536))
        last = fh.read().splitlines()[-1]
    return json.loads(first), json.loads(last)


@dataclass
class LogCheck:
    steps: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def check_logs(paths) -> LogCheck:
    """Per log: a summary line, no divergence, exact HVP count for cao runs."""
    result = LogCheck()
    for path in paths:
        header, summary = _first_and_last_line(path)
        opt = header.get("optimizer", {})
        problem = None
        if summary.get("type") != "summary":
            problem = "no summary line"
        elif summary["diverged"]:
            problem = "diverged"
        elif opt.get("kind") == "cao":
            expected = summary["refreshes"] * (opt["t_pow"] + 1) * opt["k"]
            if summary["hvp_calls"] != expected:
                problem = f"hvp_calls {summary['hvp_calls']} != {expected}"
        if problem is None:
            result.steps += summary["steps_done"]
        else:
            result.failed += 1
            result.problems.append(f"{path}: {problem}")
    return result


class RepeatCheck:
    """Outputs of every repetition must equal those of the first one.

    Logs are compared after ``normalized_bytes`` (wall-clock fields removed),
    tables and figure data byte for byte.
    """

    def __init__(self):
        self.reference = None

    def digests(self, out: Path, cao) -> dict:
        found = {}
        for path in sorted(out.rglob("*")):
            if not path.is_file():
                continue
            rel = str(path.relative_to(out))
            if path.suffix == ".log":
                found[rel] = _sha(cao.runlog.normalized_bytes(path))
            else:
                found[rel] = _sha(path.read_bytes())
        return found

    def compare(self, out: Path, cao) -> list:
        found = self.digests(out, cao)
        if self.reference is None:
            self.reference = found
            return []
        names = set(found) | set(self.reference)
        return [f"{name} differs from the first repetition" for name in sorted(names)
                if found.get(name) != self.reference.get(name)]


def first_hit(table: Path, label: str) -> float:
    """Mean first-hit step of ``label`` from a time-to-threshold table.

    Raises ValueError when a run of ``label`` never reached the threshold.
    """
    for line in table.read_text().splitlines():
        fields = line.split("\t")
        if fields[0] == label:
            if fields[4] != "0":
                raise ValueError(f"{label}: {fields[4]} runs never reached the threshold")
            return float(fields[1])
    raise ValueError(f"{label!r} not in {table}")
