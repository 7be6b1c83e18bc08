"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line once its assertions hold, and enforces
the stated wall-clock budget where one applies.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import cao
from cao.config import load_config
from cao.harness import (
    k_ablation,
    run_comparison,
    sensitivity_sweep,
    time_to_threshold,
)
from cao.optim import CaoConfig, CaoState, SgdState, cao_step, sgd_step
from cao.precondition import precondition, quadratic_form
from cao.problems import fd_hvp, logreg, mlp_synthetic, quadratic, rosenbrock
from cao.runlog import normalized_bytes
from cao.sketch import LanczosConfig, block_lanczos
from cao.theory import (
    check_pl_contraction,
    check_stationarity_rate,
    check_sufficient_descent,
    measure_gamma_over_ranks,
    suite_quadratics,
)

from test_precondition import random_case

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, name):
    print(f"\n[acceptance {num:02d}] {name}: PASS")


@pytest.fixture(scope="session")
def comparison_runs(tmp_path_factory):
    """Both speedup configs, run once through the harness (shared by 8 and 11)."""
    root = tmp_path_factory.mktemp("comparisons")
    t0 = time.perf_counter()
    out = {}
    for stem in ("quad_speedup", "mlp_speedup"):
        cfg = load_config(CONFIG_DIR / f"{stem}.json")
        result = run_comparison(cfg, root)
        assert not result["diverged"]
        out[stem] = {"cfg": cfg, "logs": result["logs"], "root": root}
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_01_sketch_accuracy():
    t0 = time.perf_counter()
    n = 100
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        # relative gaps of 0.4 between consecutive top eigenvalues (>= the
        # 0.1 precondition); the tail is spread well below the head
        head = 10.0 * 0.6 ** np.arange(10)
        tail = np.linspace(head[-1] * 0.8, 0.0, n - 10)
        spectrum = np.concatenate([head, tail])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        h = (q * spectrum) @ q.T
        h = (h + h.T) / 2.0
        dense_vals, dense_vecs = np.linalg.eigh(h)
        dense_vals, dense_vecs = dense_vals[::-1], dense_vecs[:, ::-1]
        for k in (1, 3, 5):
            sk = block_lanczos(lambda v: h @ v, n,
                               LanczosConfig(k=k, iters=30, seed=100 + seed))
            rel = np.abs(sk.eigvals - dense_vals[:k]) / np.abs(dense_vals[:k])
            assert np.max(rel) <= 1e-6
            for i in range(k):
                assert abs(sk.basis[:, i] @ dense_vecs[:, i]) >= 0.999
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"sketch accuracy (rel err <= 1e-6, overlap >= 0.999, {elapsed:.2f}s)")


def test_02_preconditioner_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(1000):
        pc, g, dense = random_case(seed, dense_comparable=True)
        d = precondition(g, pc)
        d_oracle = np.linalg.solve(dense, g)
        assert np.linalg.norm(d - d_oracle) <= 1e-10 * max(1.0, np.linalg.norm(d_oracle))
        if not np.any(g):
            g[0] = 1.0
        assert quadratic_form(g, pc) > 0.0
        if pc.sketch.k == 0 or np.all(pc.sketch.eigvals >= 0):
            assert np.linalg.norm(d) <= np.linalg.norm(g) / pc.eta * (1 + 1e-12)
    # positive definiteness also holds with deeply clamped negative curvature
    for seed in range(200):
        pc, g, _ = random_case(10_000 + seed, dense_comparable=False)
        if not np.any(g):
            g[0] = 1.0
        assert quadratic_form(g, pc) > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"preconditioner oracle equivalence, 1000 cases ({elapsed:.2f}s)")


def test_03_gradient_and_hvp_correctness():
    t0 = time.perf_counter()
    problems = [
        quadratic([100.0, 10.0] + [1.0] * 18, seed=7),
        rosenbrock(10),
        logreg(12, 80, seed=2),
        mlp_synthetic([6, 8, 3], seed=1, n_samples=60),
    ]
    h = 1e-5
    for problem in problems:
        rng = np.random.default_rng(30)
        for _ in range(20):
            theta = problem.initial_point(2) + 0.3 * rng.standard_normal(problem.dim)
            u = rng.standard_normal(problem.dim)
            g = problem.grad(theta)
            fd = (problem.loss(theta + h * u) - problem.loss(theta - h * u)) / (2 * h)
            assert abs(float(g @ u) - fd) <= 1e-5 * (1.0 + abs(fd)), problem.meta.name
            v = rng.standard_normal(problem.dim)
            an = problem.hvp(theta, v)
            fdv = fd_hvp(problem, theta, v, eps=1e-4)
            assert np.linalg.norm(fdv - an) <= 1e-4 * (1.0 + np.linalg.norm(an)), \
                problem.meta.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"gradient and hvp finite-difference checks ({elapsed:.2f}s)")


def test_04_sufficient_stepsize_descent():
    t0 = time.perf_counter()
    for problem in suite_quadratics():
        for k in (0, 1):
            rep = check_sufficient_descent(problem, k=k, steps=200, seed=0)
            assert rep.passed, rep.check
    negative = check_sufficient_descent(suite_quadratics()[2], k=0, steps=200,
                                        seed=0, alpha_scale=50.0)
    assert not negative.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, f"per-step descent at the sufficient stepsize; 50x control fails "
              f"({elapsed:.2f}s)")


def test_05_refresh_contraction_and_rank_monotonicity():
    t0 = time.perf_counter()
    skew = quadratic([100.0, 10.0] + [1.0] * 48, seed=7, name="quad-skew")
    rep = check_pl_contraction(skew, k=1, eta=1.0, m=50, num_windows=6, seed=0)
    assert rep.passed
    assert all(r < 1.0 for r in rep.measured["ratios"])
    assert rep.measured["gamma"] > 0
    gammas = measure_gamma_over_ranks(skew, ks=(0, 1, 3), seeds=(0, 1, 2),
                                      eta=1.0, m=50)
    for s in (0, 1, 2):
        assert gammas[(0, s)] <= gammas[(1, s)] + 1e-9
        assert gammas[(1, s)] <= gammas[(3, s)] + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    gtxt = ", ".join(f"k={k}: {gammas[(k, 0)]:.3f}" for k in (0, 1, 3))
    report(5, f"loss contraction per refresh window; gamma monotone ({gtxt}) "
              f"({elapsed:.2f}s)")


def test_06_stationarity_trend():
    t0 = time.perf_counter()
    rep = check_stationarity_rate(rosenbrock(10), horizons=(100, 200, 400, 800),
                                  seed=0, stationarity_c=0.5, eta=1.0)
    assert rep.passed
    c_vals = rep.measured["c_T"]
    bounds = rep.measured["bound_T"]
    assert all(c <= b for c, b in zip(c_vals, bounds))
    assert c_vals[1] <= 2.2 * c_vals[0]
    assert c_vals[2] <= 2.2 * c_vals[1]
    assert c_vals[3] <= 2.2 * c_vals[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(6, f"stationarity trend bounded at T in (100..800) ({elapsed:.2f}s)")


def test_07_k0_reduces_to_sgd():
    t0 = time.perf_counter()
    problem = logreg(10, 120, seed=4)
    for seed in (0, 1, 2):
        theta0 = problem.initial_point(seed)
        schedule = [
            cao.Batch(indices=np.random.default_rng([seed, 77, e]).permutation(120)[:30])
            for e in range(1000)
        ]
        cfg = CaoConfig(alpha=0.3, k=0)
        a = CaoState(theta=theta0.copy())
        b = SgdState(theta=theta0.copy())
        for batch in schedule:
            a, _ = cao_step(a, problem, batch, cfg)
            b, _ = sgd_step(b, problem, batch, lr=0.3, momentum=0.0)
            assert a.theta.tobytes() == b.theta.tobytes()
    report(7, f"k=0 trajectory bit-identical to momentum-free SGD, 1000 steps x 3 "
              f"seeds ({time.perf_counter() - t0:.2f}s)")


def test_08_directional_speedup(comparison_runs):
    t0 = time.perf_counter()
    speedups = {}
    for stem in ("quad_speedup", "mlp_speedup"):
        entry = comparison_runs[stem]
        table = time_to_threshold(entry["logs"])
        hits = {label: table["optimizers"][label]["hits"]
                for label in table["optimizers"]}
        assert table["optimizers"]["cao-k1"]["unreached"] == 0
        for seed in entry["cfg"].seeds:
            for baseline in ("sgd", "adam"):
                base_hit = hits[baseline][seed]
                cao_hit = hits["cao-k1"][seed]
                assert base_hit is None or cao_hit < base_hit, \
                    f"{stem} seed {seed}: cao {cao_hit} vs {baseline} {base_hit}"
        speedups[stem] = {lab: f"{r:.2f}x" for lab, r in table["speedups"].items()}
    elapsed = comparison_runs["elapsed"] + (time.perf_counter() - t0)
    assert elapsed < 120.0
    report(8, f"first-hit speedup on all seeds; ratios {speedups} ({elapsed:.1f}s)")


def test_09_rank_insensitivity(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "quad_speedup.json")
    result = k_ablation(cfg, ks=(0, 1, 3, 5), out_root=tmp_path)
    assert not result["diverged"]
    hits = {label: result["table"]["optimizers"][label]["hits"]
            for label in result["table"]["optimizers"]}
    for seed in cfg.seeds:
        ranked = [hits[f"cao-k{k}"][seed] for k in (1, 3, 5)]
        assert all(h is not None for h in ranked)
        spread = (max(ranked) - min(ranked)) / np.mean(ranked)
        assert spread <= 0.20, f"seed {seed}: spread {spread:.3f}"
        k0 = hits["cao-k0"][seed]
        assert k0 is None or k0 > max(ranked)
    report(9, f"rank spread within 20%, k=0 strictly slower "
              f"({time.perf_counter() - t0:.1f}s)")


def test_10_hvp_accounting(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "quad_speedup.json")
    cfg = type(cfg)(name=cfg.name, problem=cfg.problem, optimizers=cfg.optimizers,
                    seeds=(0,), steps=cfg.steps, threshold=cfg.threshold,
                    batch_size=cfg.batch_size, eval_every=cfg.eval_every)
    result = sensitivity_sweep(cfg, etas=(0.5, 1.0, 2.0), ms=(25, 50, 100),
                               out_root=tmp_path)
    assert len(result["cells"]) == 9
    t_pow, k = 10, 1
    for cell in result["cells"]:
        expected = -(-cfg.steps // cell["m"]) * (t_pow + 1) * k
        assert cell["hvp_calls"] == [expected], cell
    report(10, f"hvp count equals ceil(steps/m)*(t_pow+1)*k on a 3x3 grid "
               f"({time.perf_counter() - t0:.1f}s)")


def test_11_reproducibility(comparison_runs, tmp_path):
    t0 = time.perf_counter()
    entry = comparison_runs["mlp_speedup"]
    rerun = run_comparison(entry["cfg"], tmp_path)
    assert not rerun["diverged"]
    first = sorted(entry["logs"])
    second = sorted(rerun["logs"])
    assert len(first) == len(second) == 9
    for a, b in zip(first, second):
        assert normalized_bytes(a) == normalized_bytes(b), (a, b)
    # the same runs on a pool of two workers write the same logs
    pooled = run_comparison(entry["cfg"], tmp_path / "jobs2", jobs=2)
    assert not pooled["diverged"]
    third = sorted(pooled["logs"])
    assert len(third) == 9
    for a, c in zip(first, third):
        assert normalized_bytes(a) == normalized_bytes(c), (a, c)
    assert [run[3]["series"] for run in pooled["runs"]] == \
        [run[3]["series"] for run in rerun["runs"]]
    # summaries regenerate byte-identically from the logs alone
    from cao.harness import emit_plot_data, format_ttt

    t1 = format_ttt(time_to_threshold(first), name="mlp-speedup").encode()
    t2 = format_ttt(time_to_threshold(first), name="mlp-speedup").encode()
    assert t1 == t2
    p1 = emit_plot_data(first, tmp_path / "a.tsv").read_bytes()
    p2 = emit_plot_data(first, tmp_path / "b.tsv").read_bytes()
    assert p1 == p2
    report(11, f"byte-identical reruns and regenerated summaries "
               f"({time.perf_counter() - t0:.1f}s)")
