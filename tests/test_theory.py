import json

import numpy as np
import pytest

from cao import optim
from cao.errors import OracleUnavailableError
from cao.problems import QuadraticProblem, quadratic, rosenbrock
from cao.sketch import Sketch, block_lanczos, sketch_residual
from cao.theory import (
    WINDOW_FLOOR,
    TheoryReport,
    check_descent_lemma,
    check_pl_contraction,
    check_stationarity_rate,
    check_sufficient_descent,
    estimate_smoothness,
    measure_gamma_over_ranks,
    run_theory_suite,
    sufficient_stepsize,
    suite_quadratics,
)


class TestSufficientStepsize:
    def test_known_values(self):
        assert sufficient_stepsize(4.0, 1.0) == pytest.approx(0.05)
        assert sufficient_stepsize(1.0, 1.0) == pytest.approx(0.5)

    def test_monotone_in_eta(self):
        values = [sufficient_stepsize(4.0, eta) for eta in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(Exception):
            sufficient_stepsize(0.0, 1.0)


class TestDescentLemma:
    def test_quadratic_equality_along_top_eigenvector(self):
        # the second-order expansion is exact on a quadratic
        p = QuadraticProblem([2.0, 8.0], rotate=False)
        L = 8.0
        theta = np.array([0.7, -0.4])
        d = np.array([0.0, 1.0])  # top eigenvector
        alpha = 0.05
        f0, g = p.loss(theta), p.grad(theta)
        f1 = p.loss(theta - alpha * d)
        rhs = f0 - alpha * float(g @ d) + 0.5 * L * alpha**2
        assert f1 == pytest.approx(rhs, abs=1e-12)

    def test_alpha_zero_equality(self):
        p = quadratic([3.0, 1.0], seed=1)
        theta = p.initial_point(0)
        assert p.loss(theta - 0.0 * theta) == p.loss(theta)

    def test_passes_on_quadratic(self):
        rep = check_descent_lemma(quadratic([9.0, 1.0], seed=2), seed=0)
        assert rep.passed
        assert rep.measured["min_margin"] >= -1e-9

    def test_passes_on_rosenbrock_with_estimated_L(self):
        rep = check_descent_lemma(rosenbrock(10), seed=0, radius=1.0, alpha_max=0.05)
        assert rep.passed


class TestSufficientDescent:
    def test_all_suite_quadratics_pass(self):
        for prob in suite_quadratics():
            for k in (0, 1):
                rep = check_sufficient_descent(prob, k=k, seed=0)
                assert rep.passed, rep.check

    def test_negative_control_fails(self):
        worst = suite_quadratics()[2]
        rep = check_sufficient_descent(worst, k=0, seed=0, alpha_scale=50.0)
        assert not rep.passed
        assert rep.measured["min_margin"] < 0

    def test_zero_gradient_equality(self):
        p = quadratic([4.0, 1.0], seed=3)
        # start at the optimum: zero decrease, zero bound
        from cao.optim import CaoConfig, CaoState, cao_step
        from cao.problems import FULL_BATCH

        cfg = CaoConfig(alpha=sufficient_stepsize(4.0, 1.0), k=0, eta=1.0)
        state = CaoState(theta=np.zeros(p.dim))
        state, rec = cao_step(state, p, FULL_BATCH, cfg)
        assert rec.loss == 0.0 and rec.grad_norm == 0.0
        assert p.loss(state.theta) == 0.0

    def test_requires_smoothness(self):
        with pytest.raises(OracleUnavailableError):
            check_sufficient_descent(rosenbrock(4), k=0)

    def test_a_wrapper_on_cao_step_sees_every_step(self, monkeypatch):
        # the checks build their runs with make_runner, as every experiment run does
        calls = []
        step = optim.cao_step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(optim, "cao_step", counted)
        check_sufficient_descent(quadratic([8.0, 2.0], seed=11), k=1, steps=20)
        assert len(calls) == 20

    def test_failed_refreshes_take_lambda_min_one(self):
        # no refresh succeeds, so every step is the gradient step and M_t = I
        class NanCurvature(QuadraticProblem):
            def _linearize(self, theta, batch):
                return lambda v: np.full_like(v, np.nan)

        rep = check_sufficient_descent(NanCurvature([8.0, 2.0], seed=11), k=1, steps=50)
        plain = check_sufficient_descent(quadratic([8.0, 2.0], seed=11), k=0, steps=50)
        assert rep.passed
        assert rep.measured["min_margin"] == pytest.approx(0.003795, abs=5e-7)
        assert rep.measured == plain.measured

    @pytest.mark.parametrize("k", [0, 1])
    def test_diverging_run_fails_with_its_step(self, k):
        rep = check_sufficient_descent(suite_quadratics()[0], k=k, seed=0, alpha_scale=1e5)
        assert rep.passed is False
        assert rep.notes == "run diverged"
        assert sorted(rep.measured) == ["alpha", "diverged_at", "eta"]
        assert 0 < rep.measured["diverged_at"] < 200
        assert json.loads(rep.to_json())["passed"] is False


class TestStationarity:
    def test_quadratic_trivially_bounded(self):
        rep = check_stationarity_rate(quadratic([5.0, 1.0], seed=4),
                                      horizons=(50, 100), seed=0)
        assert rep.passed

    def test_rosenbrock_trend(self):
        rep = check_stationarity_rate(rosenbrock(10), seed=0)
        assert rep.passed
        assert all(c <= b for c, b in zip(rep.measured["c_T"], rep.measured["bound_T"]))

    def test_unstable_alpha_fails(self):
        ros = rosenbrock(10)
        L = estimate_smoothness(ros, ros.initial_point(0), seed=0)
        rep = check_stationarity_rate(ros, seed=0, alpha=10.0 / L, eta=0.01)
        assert not rep.passed

    def test_loss_past_ten_times_f0_fails_without_diverging(self):
        # the top direction grows by |1 - 5 * 5 / 6| per step: 1e22 after 20, still finite
        rep = check_stationarity_rate(quadratic([5.0, 1.0], seed=4), horizons=(10, 20),
                                      alpha=5.0)
        assert rep.passed is False
        assert rep.notes == "loss exceeded 10x initial value"
        assert sorted(rep.measured) == ["L", "alpha", "f0", "max_loss"]
        assert 10.0 * rep.measured["f0"] < rep.measured["max_loss"] < np.inf


class TestPlContraction:
    def test_skew_quadratic_contracts_every_window(self):
        skew = quadratic([100.0, 10.0] + [1.0] * 48, seed=7, name="quad-skew")
        rep = check_pl_contraction(skew, k=1, eta=1.0, m=50, seed=0)
        assert rep.passed
        assert all(r < 1.0 for r in rep.measured["ratios"])
        assert rep.measured["gamma"] > 0

    def test_full_rank_sketch_near_newton(self):
        p = quadratic([8.0, 2.0], seed=5)
        rep = check_pl_contraction(p, k=2, eta=1e-3, m=50, num_windows=3, seed=0)
        assert rep.passed
        # damped-Newton contraction drives every usable ratio essentially to zero
        if rep.measured["windows_used"]:
            assert rep.measured["max_rho"] < 1e-10

    def test_gamma_monotone_in_rank(self):
        skew = quadratic([100.0, 10.0] + [1.0] * 48, seed=7, name="quad-skew")
        gammas = measure_gamma_over_ranks(skew, ks=(0, 1, 3), seeds=(0,))
        assert gammas[(0, 0)] <= gammas[(1, 0)] + 1e-9
        assert gammas[(1, 0)] <= gammas[(3, 0)] + 1e-9

    def test_requires_pl_metadata(self):
        with pytest.raises(OracleUnavailableError):
            check_pl_contraction(rosenbrock(4), k=1)

    @pytest.mark.parametrize("k", [0, 1])
    def test_every_window_below_the_floor(self, k):
        # f0 is about 1e-30, below WINDOW_FLOOR from the first window on
        rep = check_pl_contraction(quadratic([1e-30, 1e-30], seed=3), k=k)
        assert rep.passed is True
        assert rep.notes == "all windows below floating-point floor; fully converged"
        assert sorted(rep.measured) == ["alpha", "gamma", "lambda_perp", "windows_used"]
        assert rep.measured["gamma"] == 1.0 and rep.measured["windows_used"] == 0
        assert 0.0 < rep.measured["lambda_perp"] < WINDOW_FLOOR


class TestResidualCurvature:
    def test_delegates_to_sketch_residual(self):
        p = QuadraticProblem([5.0, 2.0, 1.0], rotate=False)
        sk = Sketch(np.array([5.0]), np.eye(3)[:, :1])
        assert sketch_residual(sk, p.dense_hessian(np.zeros(3))) == pytest.approx(2.0, abs=1e-12)

    def test_matches_probe_sketch(self):
        p = quadratic([9.0, 3.0, 1.0, 0.5], seed=6)
        theta = p.initial_point(0)
        sk = block_lanczos(p.hvp_closure(theta), 4, k=1, iters=30, seed=1)
        assert sketch_residual(sk, p.dense_hessian(theta)) == pytest.approx(3.0, rel=1e-6)


class TestReportSerialization:
    def test_json_round_trip(self):
        rep = TheoryReport(check="x", passed=True,
                           measured={"a": 1.0, "b": [1.0, 2.0]}, tolerance=1e-9)
        obj = json.loads(rep.to_json())
        assert obj["check"] == "x" and obj["passed"] is True
        assert obj["measured"]["b"] == [1.0, 2.0]

    def test_deterministic_bytes(self):
        rep = TheoryReport(check="x", passed=False, measured={"z": 1.0, "a": 2.0})
        assert rep.to_json() == rep.to_json()


@pytest.mark.slow
def test_full_suite_passes():
    reports = run_theory_suite(seed=0)
    failed = [r.check for r in reports if not r.passed]
    assert failed == []


@pytest.mark.parametrize("seed", [0, 5], ids=["reused-runs", "fresh-runs"])
def test_suite_reports_the_gammas_of_measure_gamma_over_ranks(seed):
    # at seed 0 the suite reuses its seed-0 contraction runs; at seed 5 it reuses none
    report = run_theory_suite(seed=seed)[-1]
    assert report.check == "gamma_monotone_in_k[quad-skew]"
    gammas = measure_gamma_over_ranks(suite_quadratics()[1], ks=(0, 1, 3), seeds=(0, 1, 2))
    assert report.measured == {f"gamma_k{k}_seed{s}": g for (k, s), g in gammas.items()}
