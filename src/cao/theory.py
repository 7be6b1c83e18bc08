"""Executable checks of the optimizer's analysis: descent, stepsize, contraction.

Each check runs a small deterministic experiment and returns a
``TheoryReport`` whose pass/fail verdict depends only on measured quantities
and the stated tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DivergenceError, OracleUnavailableError
from .optim import CaoConfig, make_runner
from .problems import FULL_BATCH, Problem, QuadraticProblem, quadratic, rosenbrock
from .sketch import block_lanczos, sketch_residual

DESCENT_SLACK = 1e-9
WINDOW_FLOOR = 1e-14
DESCENT_SAMPLES = 100  # (theta, d, alpha) triples of the descent lemma check
SMOOTHNESS_SAMPLES = 20  # box points of estimate_smoothness, besides the center
REFRESH_M = 50  # the checks' refresh period
GROWTH_SLACK = 2.2  # allowed c_{2T} / c_T of the stationarity trend
GAMMA_MIN = 1e-3  # contraction the PL check requires per refresh window
CONTRACTION_C, ALPHA_CAP = 0.25, 0.5  # the PL check's stepsize, see check_pl_contraction


@dataclass
class TheoryReport:
    check: str
    passed: bool
    measured: dict = field(default_factory=dict)
    tolerance: float = 0.0
    notes: str = ""

    def to_json(self) -> str:
        payload = {
            "check": self.check,
            "passed": bool(self.passed),
            "measured": {k: (float(v) if np.isscalar(v) else [float(x) for x in v])
                         for k, v in self.measured.items()},
            "tolerance": float(self.tolerance),
            "notes": self.notes,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sufficient_stepsize(L: float, eta: float) -> float:
    """Stepsize eta^2 / (L (L + eta)) that guarantees per-step decrease."""
    if L <= 0 or eta <= 0:
        raise ContractViolationError("sufficient_stepsize needs L > 0 and eta > 0")
    return eta**2 / (L * (L + eta))


def estimate_smoothness(problem: Problem, center, radius: float = 1.5,
                        seed: int = 0) -> float:
    """Conservative local curvature bound: max Hessian spectral norm over a box."""
    center = np.asarray(center, dtype=np.float64)
    rng = np.random.default_rng([int(seed), 523])
    points = [center]
    for _ in range(SMOOTHNESS_SAMPLES):
        points.append(center + rng.uniform(-radius, radius, size=problem.dim))
    worst = 0.0
    for p in points:
        h = problem.dense_hessian(p)
        vals = np.linalg.eigvalsh((h + h.T) / 2.0)
        worst = max(worst, abs(float(vals[0])), abs(float(vals[-1])))
    return worst


def _smoothness(problem: Problem, center, radius: float, seed: int) -> float:
    """The problem's known L, else ``estimate_smoothness`` over a box around ``center``."""
    L = problem.meta.smoothness_L
    return estimate_smoothness(problem, center, radius, seed) if L is None else L


def _run_cao(problem, theta0, steps, seed, **knobs):
    """(state, records) of full-batch cao steps, made by ``make_runner`` as every run's are."""
    step, state = make_runner("cao", theta0, knobs, seed)
    records = []
    for _ in range(steps):
        state, rec = step(state, problem, FULL_BATCH)
        records.append(rec)
    return state, records


def _diverged(check, exc, tolerance=0.0, **measured) -> TheoryReport:
    """The failed report of a check whose run diverged, with the step it diverged at."""
    return TheoryReport(check, False, {**measured, "diverged_at": exc.record.step}, tolerance,
                        "run diverged")


# ---------------------------------------------------------------------------


def check_descent_lemma(problem: Problem, seed: int = 0, radius: float = 1.0,
                        alpha_max: float = 0.1) -> TheoryReport:
    """Smoothness descent inequality over sampled (theta, d, alpha) triples.

    Verifies f(theta - alpha d) <= f(theta) - alpha <g, d> + L alpha^2 / 2 ||d||^2
    up to ``DESCENT_SLACK``. L comes from problem metadata or a conservative
    box estimate around the default start.
    """
    center = problem.initial_point(seed)
    L = _smoothness(problem, center, radius + 1.0, seed)
    rng = np.random.default_rng([int(seed), 811])
    worst = np.inf
    for _ in range(DESCENT_SAMPLES):
        theta = center + rng.uniform(-radius, radius, size=problem.dim)
        d = rng.standard_normal(problem.dim)
        alpha = rng.uniform(1e-4, alpha_max)
        f0, g = problem.loss_and_grad(theta)
        f1 = problem.loss(theta - alpha * d)
        rhs = f0 - alpha * float(g @ d) + 0.5 * L * alpha**2 * float(d @ d)
        worst = min(worst, rhs - f1)
    return TheoryReport(
        check=f"descent_lemma[{problem.meta.name}]",
        passed=bool(worst >= -DESCENT_SLACK),
        measured={"min_margin": worst, "L": L, "samples": DESCENT_SAMPLES},
        tolerance=DESCENT_SLACK,
    )


def check_sufficient_descent(problem: QuadraticProblem, k: int = 1, steps: int = 200,
                             seed: int = 0, alpha_scale: float = 1.0) -> TheoryReport:
    """Per-step decrease >= (alpha/2) lambda_min(M_t) ||g_t||^2 at the sufficient stepsize.

    lambda_min(M_t) is read from each step's record: 1 / max(top eigenvalue + eta,
    eta) of the sketch the step used, or 1 with no eigenvalues (k = 0, or no
    successful refresh yet: the map is the identity). The damping is eta = 0.2
    sqrt(L). ``alpha_scale`` rescales the stepsize (negative controls use 50x).
    """
    L = problem.meta.smoothness_L
    if L is None:
        raise OracleUnavailableError("check_sufficient_descent needs a known smoothness bound")
    eta = 0.2 * float(np.sqrt(L))
    alpha = alpha_scale * sufficient_stepsize(L, eta)
    theta0 = problem.initial_point(seed)
    fallback = 1.0 / (L + eta)
    check = f"sufficient_descent[{problem.meta.name},k={k},x{alpha_scale:g}]"
    try:
        state, records = _run_cao(problem, theta0, steps, seed, alpha=alpha, k=k,
                                  m=REFRESH_M, eta=eta)
    except DivergenceError as exc:
        return _diverged(check, exc, DESCENT_SLACK, alpha=alpha, eta=eta)
    losses = [rec.loss for rec in records] + [problem.loss(state.theta)]
    worst = np.inf
    worst_step = -1
    fallback_ok = True
    for t, rec in enumerate(records):
        lam_min = 1.0
        if rec.eigvals:
            lam_min = 1.0 / max(rec.eigvals[0] + eta, eta)
            fallback_ok &= lam_min >= fallback - 1e-12
        margin = (losses[t] - losses[t + 1]) - 0.5 * alpha * lam_min * rec.grad_norm**2
        if margin < worst:
            worst, worst_step = margin, t
    return TheoryReport(
        check=check,
        passed=bool(worst >= -DESCENT_SLACK and fallback_ok),
        measured={"alpha": alpha, "eta": eta, "min_margin": worst,
                  "worst_step": worst_step, "lambda_min_fallback": fallback},
        tolerance=DESCENT_SLACK,
    )


def check_stationarity_rate(problem: Problem, horizons=(100, 200, 400, 800),
                            eta: float = 1.0, seed: int = 0, stationarity_c: float = 0.5,
                            alpha: float | None = None) -> TheoryReport:
    """Trend check on c_T = T * min_{t<T} ||g_t||^2 at several horizons, cao k = 1.

    Requires c_T <= 4 (f_0 - best observed loss) / alpha and sub-linear growth
    c_{2T} <= ``GROWTH_SLACK`` * c_T. The default stepsize is
    ``stationarity_c * eta / L`` with L from metadata or a box estimate.
    A run whose loss exceeds 10x the initial value fails with a diagnostic.
    """
    horizons = sorted(horizons)
    theta0 = problem.initial_point(seed)
    L = _smoothness(problem, theta0, 1.5, seed)
    if alpha is None:
        alpha = stationarity_c * eta / L
    check = f"stationarity[{problem.meta.name},alpha={alpha:.3g}]"
    try:
        _, records = _run_cao(problem, theta0, max(horizons), seed, alpha=alpha,
                              m=REFRESH_M, eta=eta)
    except DivergenceError as exc:
        return _diverged(check, exc, alpha=alpha, L=L)
    losses = np.array([rec.loss for rec in records])
    gsq = np.array([rec.grad_norm**2 for rec in records])
    f0 = losses[0]
    if np.max(losses) > 10.0 * max(f0, 1e-12):
        return TheoryReport(
            check=check,
            passed=False,
            measured={"alpha": alpha, "L": L, "max_loss": float(np.max(losses)),
                      "f0": float(f0)},
            notes="loss exceeded 10x initial value",
        )
    c_vals, bounds = {}, {}
    ok = True
    for T in horizons:
        c_t = T * float(np.min(gsq[:T]))
        bound = 4.0 * (f0 - float(np.min(losses[:T]))) / alpha
        c_vals[T], bounds[T] = c_t, bound
        ok &= c_t <= bound
    for lo, hi in zip(horizons, horizons[1:]):
        if hi == 2 * lo:
            ok &= c_vals[hi] <= GROWTH_SLACK * c_vals[lo]
    return TheoryReport(
        check=check,
        passed=bool(ok),
        measured={"alpha": alpha, "L": L,
                  "c_T": [c_vals[T] for T in horizons],
                  "bound_T": [bounds[T] for T in horizons]},
        tolerance=GROWTH_SLACK,
    )


def check_pl_contraction(problem: QuadraticProblem, k: int = 1, eta: float = 1.0,
                         m: int = REFRESH_M, num_windows: int = 6,
                         seed: int = 0) -> TheoryReport:
    """Loss ratio between consecutive sketch refreshes on a gradient-dominated problem.

    Runs full-batch steps and measures rho_r = (f_{r+1} - f*) / (f_r - f*)
    across refresh windows of length m; passes when every usable ratio is
    below 1 and the measured gamma = 1 - max rho clears ``GAMMA_MIN``.

    The stepsize widens with the captured curvature: alpha =
    min(CONTRACTION_C * eta / sketch_residual, ALPHA_CAP), where the
    residual is measured at the start via the dense oracle. k = 0, the
    gradient step, runs at alpha / eta, the step of the damped inverse of
    the empty sketch, 1 / eta; the report keeps alpha. Windows whose
    starting gap is below ``WINDOW_FLOOR`` are excluded.
    """
    if problem.meta.pl_mu is None or problem.meta.f_star is None:
        raise OracleUnavailableError("contraction check needs pl_mu and f_star metadata")
    f_star = problem.meta.f_star
    theta0 = problem.initial_point(seed)
    probe = block_lanczos(problem.hvp_closure(theta0, FULL_BATCH), problem.dim, k,
                          CaoConfig.t_pow, int(seed) + 9999)
    lam_perp = sketch_residual(probe, problem.dense_hessian(theta0))
    alpha = min(CONTRACTION_C * eta / max(lam_perp, 1e-12), ALPHA_CAP)
    state, records = _run_cao(problem, theta0, m * num_windows, seed,
                              alpha=alpha if k else alpha / eta, k=k, m=m, eta=eta)
    refresh_f = [records[r * m].loss for r in range(num_windows)]
    refresh_f.append(problem.loss(state.theta))
    ratios = []
    for r in range(num_windows):
        gap = refresh_f[r] - f_star
        if gap < WINDOW_FLOOR:
            continue
        ratios.append((refresh_f[r + 1] - f_star) / gap)
    if not ratios:
        return TheoryReport(
            check=f"pl_contraction[{problem.meta.name},k={k}]",
            passed=True,
            measured={"alpha": alpha, "lambda_perp": lam_perp, "gamma": 1.0,
                      "windows_used": 0},
            tolerance=GAMMA_MIN,
            notes="all windows below floating-point floor; fully converged",
        )
    max_rho = max(ratios)
    gamma = 1.0 - max_rho
    return TheoryReport(
        check=f"pl_contraction[{problem.meta.name},k={k}]",
        passed=bool(max_rho < 1.0 and gamma >= GAMMA_MIN),
        measured={"alpha": alpha, "lambda_perp": lam_perp, "gamma": gamma,
                  "max_rho": max_rho, "windows_used": len(ratios),
                  "ratios": ratios},
        tolerance=GAMMA_MIN,
    )


def _contraction_reports(problem, ks, seeds, **knobs) -> dict:
    """``check_pl_contraction``'s report per (k, seed), k-major; a repeated seed runs once."""
    return {(k, seed): check_pl_contraction(problem, k=k, seed=seed, **knobs)
            for k in ks for seed in dict.fromkeys(seeds)}


def measure_gamma_over_ranks(problem: QuadraticProblem, ks=(0, 1, 3), seeds=(0, 1, 2),
                             eta: float = 1.0, m: int = REFRESH_M,
                             num_windows: int = 6) -> dict:
    """Measured gamma per (k, seed); k = 0 takes alpha / eta (see ``check_pl_contraction``)."""
    reports = _contraction_reports(problem, ks, seeds, eta=eta, m=m, num_windows=num_windows)
    return {key: rep.measured["gamma"] for key, rep in reports.items()}


# ---------------------------------------------------------------------------
# the standard suite


def suite_quadratics():
    """Gradient-dominated problems used by the stepsize and contraction checks."""
    return [
        quadratic([8.0, 2.0], seed=11, name="quad-easy"),
        quadratic([100.0, 10.0] + [1.0] * 48, seed=7, name="quad-skew"),
        quadratic(np.geomspace(1000.0, 1.0, 40), seed=13, name="quad-cond1000"),
    ]


def _negative_control(check, report, notes, tolerance=0.0) -> TheoryReport:
    """``report`` named ``check``, passed exactly when ``report`` failed."""
    return TheoryReport(check, not report.passed, report.measured, tolerance, notes)


def run_theory_suite(seed: int = 0) -> list[TheoryReport]:
    """Run every check once; returns the reports in a fixed order."""
    reports = []
    quads = suite_quadratics()
    reports.append(check_descent_lemma(quads[1], seed=seed))
    reports.append(check_descent_lemma(rosenbrock(10), seed=seed, radius=1.0,
                                       alpha_max=0.05))
    for prob in quads:
        reports.append(check_sufficient_descent(prob, k=1, seed=seed))
        reports.append(check_sufficient_descent(prob, k=0, seed=seed))
    negative = check_sufficient_descent(quads[2], k=0, seed=seed, alpha_scale=50.0)
    reports.append(_negative_control(
        "sufficient_descent_negative_control[quad-cond1000,x50]", negative,
        "inverted: the 50x stepsize must violate the per-step bound", negative.tolerance))
    stationarity = check_stationarity_rate(rosenbrock(10), seed=seed)
    reports.append(stationarity)
    negative = check_stationarity_rate(rosenbrock(10), seed=seed,
                                       alpha=10.0 / stationarity.measured["L"], eta=0.01)
    reports.append(_negative_control(
        "stationarity_negative_control[rosenbrock10,10/L]", negative,
        "inverted: the unstable stepsize must fail the trend check"))
    # the contraction reports at the suite's seed, and gamma over ranks at seeds 0-2
    ks, seeds = (0, 1, 3), (0, 1, 2)
    contraction = _contraction_reports(quads[1], ks, (seed, *seeds))
    reports.extend(contraction[(k, seed)] for k in ks)
    gammas = {key: rep.measured["gamma"] for key, rep in contraction.items()
              if key[1] in seeds}
    monotone = all(
        gammas[(0, s)] <= gammas[(1, s)] + 1e-9 and gammas[(1, s)] <= gammas[(3, s)] + 1e-9
        for s in seeds
    )
    reports.append(TheoryReport(
        check="gamma_monotone_in_k[quad-skew]",
        passed=monotone,
        measured={f"gamma_k{k}_seed{s}": g for (k, s), g in gammas.items()},
        tolerance=1e-9,
    ))
    return reports
