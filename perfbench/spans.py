"""In-memory spans around the public functions of each cao layer.

``Tracer.install`` replaces each function named in ``TRACED`` at the place
its callers look it up (a module global or a class attribute) with a wrapper
that records one span: name, start, end and the enclosing span. Nothing in
``src/`` changes; ``Tracer.remove`` puts the originals back. Spans stay in
compact arrays until ``save`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, owner attribute or None for the module itself, function, span name)
TRACED = (
    ("cao.cli", None, "load_config", "config.load"),
    ("cao.harness", None, "from_config", "problems.build"),
    ("cao.problems", "Problem", "loss", "problems.loss"),
    ("cao.problems", "Problem", "grad", "problems.grad"),
    ("cao.problems", "Problem", "hvp", "problems.hvp"),
    ("cao.optim", None, "block_lanczos", "sketch.build"),
    ("cao.optim", None, "precondition", "precondition.apply"),
    ("cao.optim", None, "cao_step", "optim.cao_step"),
    ("cao.optim", None, "sgd_step", "optim.sgd_step"),
    ("cao.optim", None, "adam_step", "optim.adam_step"),
    ("cao.runlog", "RunLogWriter", "write_record", "runlog.write"),
    ("cao.harness", None, "read_runlog", "runlog.read"),
    ("cao.harness", None, "build_schedule", "harness.schedule"),
    ("cao.harness", None, "run_single", "harness.run_single"),
    ("cao.harness", None, "run_comparison", "harness.run_comparison"),
    ("cao.harness", None, "k_ablation", "harness.k_ablation"),
    ("cao.harness", None, "sensitivity_sweep", "harness.sensitivity_sweep"),
    ("cao.harness", None, "time_to_threshold", "harness.time_to_threshold"),
    ("cao.harness", None, "threshold_sweep", "harness.threshold_sweep"),
    ("cao.harness", None, "emit_plot_data", "harness.emit_plot_data"),
)

# span name -> function pulling the file path out of the call's arguments
_PATH_ARG = {
    "runlog.read": lambda args, kwargs: str(args[0] if args else kwargs["path"]),
    "harness.run_single": lambda args, kwargs: str(
        args[7] if len(args) > 7 else kwargs["log_path"]),
}


class Tracer:
    def __init__(self):
        self.names = []          # span name per code
        self._codes = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = set()      # span ids that ended in an exception
        self.paths = {}          # span id -> file path argument
        self.phase = array("i")  # phase id per span
        self.phases = []         # phase labels, in order
        self._stack = []
        self._saved = []

    def _open(self, name) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        idx = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(len(self.phases) - 1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def begin_phase(self, label: str) -> None:
        self.phases.append(label)

    def _wrap(self, original, name):
        get_path = _PATH_ARG.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            if get_path is not None:
                self.paths[idx] = get_path(args, kwargs)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException:
                self.failed.add(idx)
                raise
            finally:
                self._close(idx, t0, time.perf_counter())

        return traced

    def install(self) -> None:
        for module_name, owner_name, attr, name in TRACED:
            owner = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.remove()

    def arrays(self):
        """(code, parent, duration, self time, phase) as NumPy arrays."""
        code = np.frombuffer(self.code, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start,
                                                                        dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        phase = np.frombuffer(self.phase, dtype=np.int32)
        return code, parent, dur, dur - child, phase

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            code=np.frombuffer(self.code, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            phase=np.frombuffer(self.phase, dtype=np.int32),
            phases=np.array(self.phases),
        )
