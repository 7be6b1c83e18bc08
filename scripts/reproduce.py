#!/usr/bin/env python3
"""Regenerate every benchmark artifact: runs, tables, figure data, theory reports.

Usage: python scripts/reproduce.py [--out runs] [--jobs N]

Everything is seeded; rerunning produces byte-identical logs and summaries
(wall-clock fields aside), for any ``--jobs`` and any BLAS thread count the
environment sets, since every run goes at one OpenBLAS thread (where no
OpenBLAS is found, each command warns). ``--jobs`` goes to ``run``,
``ablate-k`` and ``sweep``; without it they take the CLI's default, the usable
CPUs.
"""

import argparse
import sys
from pathlib import Path

from cao.cli import main as cao_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(argv):
    print(f"$ cao {' '.join(argv)}")
    rc = cao_main(argv)
    if rc != 0:
        sys.exit(rc)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="runs")
    parser.add_argument("--jobs", default=None,
                        help="processes for the runs of each command, the calling one included")
    args = parser.parse_args()
    out = args.out
    jobs = [] if args.jobs is None else ["--jobs", args.jobs]

    for stem in ("quad_speedup", "mlp_speedup"):
        cfg = str(CONFIG_DIR / f"{stem}.json")
        run(["--out", out, "run", "--config", cfg, *jobs])
    for exp in ("quad-skew-speedup", "mlp-speedup"):
        logs = str(Path(out) / "logs" / exp)
        run(["--out", out, "ttt", "--logs", logs, "--name", exp])
        run(["--out", out, "plotdata", "--logs", logs, "--name", exp])
    # threshold grid around the quadratic benchmark's declared level
    run(["--out", out, "ttt", "--logs", str(Path(out) / "logs" / "quad-skew-speedup"),
         "--name", "quad-skew-speedup", "--thresholds", "0.3,0.4,0.5,0.7,1.0"])
    # rank ablation and damping/refresh sensitivity on the quadratic benchmark
    quad_cfg = str(CONFIG_DIR / "quad_speedup.json")
    run(["--out", out, "ablate-k", "--config", quad_cfg, "--ks", "0,1,3,5", *jobs])
    run(["--out", out, "sweep", "--config", quad_cfg,
         "--etas", "0.5,1.0,2.0", "--ms", "25,50,100", *jobs])
    # analysis checks
    run(["--out", out, "theory"])
    print(f"done; outputs under {out}/")


if __name__ == "__main__":
    main()
