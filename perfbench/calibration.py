"""Host-speed calibration for end-to-end timings on a shared machine.

On a shared host the speed of one core drifts by up to a factor of two over
seconds to minutes, with the load that other tenants put on its sibling
hardware thread. Every end-to-end timing is therefore paired with timings
of ``Kernel``, fixed pieces of work that are not cao code, taken right
around it, and reported in *reference seconds*: measured seconds divided by
how much slower than its reference time the kernel ran.

A workload's kernel mixes, in equal weights, the kinds of work the workload
spends its time on, from these parts: JSON round trips of small dicts
(run-log writes and reads), a pure-Python loop (per-step bookkeeping),
small NumPy steps (per-step array work on small problems) and BLAS
matrix-vector products (problem kernels on large data).
"""

from __future__ import annotations

import json
import time

import numpy as np

# Median time of each part, measured once on the machine the benchmark was
# defined on (a 2-core Intel Xeon VM at 2.0 GHz, one BLAS thread). Only the
# scale of reference seconds depends on them.
REFERENCE_S = {"json": 0.0055, "python": 0.0053, "numpy": 0.0048, "blas": 0.0046}
# Interpreter-bound work on small data: every workload but the BLAS-bound one,
# and every set-up (imports, configs, schedules).
INTERPRETER_PARTS = ("json", "python", "numpy")


class Kernel:
    def __init__(self, parts):
        unknown = set(parts) - set(REFERENCE_S)
        if unknown:
            raise ValueError(f"unknown kernel parts {sorted(unknown)}")
        self.parts = tuple(parts)
        rng = np.random.default_rng(12345)  # fixed: never the workload seed
        self.records = [
            {"step": i, "loss": float(v), "grad_norm": float(2 * v), "eigvals": [float(v)],
             "wall": float(v / 7), "refreshed": i % 50 == 0}
            for i, v in enumerate(rng.random(450))
        ]
        self.small = rng.standard_normal((50, 50)) / 10
        self.big = rng.standard_normal((4000, 100)) if "blas" in self.parts else None

    def _json(self):
        for rec in self.records:
            json.loads(json.dumps(rec, sort_keys=True))

    def _python(self):
        total = 0
        for i in range(70_000):
            total += (i * 3) % 7
        return total

    def _numpy(self):
        v = np.ones(50)
        for _ in range(1200):
            v = self.small @ v
            v = v / np.linalg.norm(v)

    def _blas(self):
        w = np.ones(100)
        for _ in range(15):
            w = self.big.T @ (self.big @ w)
            w /= np.linalg.norm(w)

    def part_times(self) -> dict:
        times = {}
        for part in self.parts:
            t0 = time.perf_counter()
            getattr(self, "_" + part)()
            times[part] = time.perf_counter() - t0
        return times

    def slowdown(self) -> float:
        """How much slower than its reference the host runs the kernel now (1 = as defined)."""
        times = self.part_times()
        return sum(times[p] / REFERENCE_S[p] for p in self.parts) / len(self.parts)


def reference_seconds(measured_s: float, slowdowns) -> float:
    """``measured_s`` divided by the mean of the slowdowns measured just before and after it."""
    return measured_s * len(slowdowns) / sum(slowdowns)
