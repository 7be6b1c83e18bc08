import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cao
from cao.errors import ContractViolationError, DivergenceError
from cao.optim import (
    AdamState,
    CaoConfig,
    CaoState,
    SgdState,
    adam_step,
    cao_step,
    make_runner,
    sgd_step,
)
from cao.precondition import DampedPreconditioner
from cao.problems import FULL_BATCH, Problem, ProblemMeta, QuadraticProblem, quadratic
from cao.sketch import Sketch


def make_state(problem, seed=0):
    return CaoState(theta=problem.initial_point(seed))


class NanHvpQuadratic(QuadraticProblem):
    """A quadratic whose Hessian products come back NaN while ``fail`` is set."""

    fail = False

    def _linearize(self, theta, batch):
        kernel = super()._linearize(theta, batch)
        return lambda v: np.full(v.shape, np.nan) if self.fail else kernel(v)


class TestCaoStep:
    def test_k0_is_plain_gradient_descent(self):
        p = quadratic([4.0, 1.0], seed=1)
        theta0 = p.initial_point(0)
        cfg = CaoConfig(alpha=0.05, k=0)
        state, rec = cao_step(CaoState(theta=theta0.copy()), p, FULL_BATCH, cfg)
        expected = theta0 - 0.05 * p.grad(theta0)
        assert state.theta.tobytes() == expected.tobytes()
        assert not rec.refreshed and rec.eigvals == ()

    def test_exact_sketch_approaches_newton(self):
        p = QuadraticProblem([2.0, 8.0], rotate=False)
        theta0 = np.array([1.0, 1.0])
        eta = 0.01
        cfg = CaoConfig(alpha=1.0, k=2, eta=eta, t_pow=30)
        state = CaoState(theta=theta0.copy())
        state, rec = cao_step(state, p, FULL_BATCH, cfg)
        g = p.grad(theta0)
        newton = np.linalg.solve(p.matrix, g)
        d = (theta0 - state.theta) / cfg.alpha
        rel = np.linalg.norm(d - newton) / np.linalg.norm(newton)
        assert rel <= eta * 0.5 + 1e-9  # eta / lambda_min bound

    def test_clip_contract(self):
        p = quadratic([100.0, 1.0], seed=2)
        cfg = CaoConfig(alpha=0.01, k=1, eta=0.1, clip_c=1.0)
        state, rec = cao_step(make_state(p, 3), p, FULL_BATCH, cfg)
        assert rec.update_norm <= 1.0 + 1e-12

    def test_refresh_cadence(self):
        p = quadratic(np.linspace(1.0, 5.0, 8), seed=4)
        cfg = CaoConfig(alpha=1e-3, k=1, m=400, eta=1.0, t_pow=3)
        state = make_state(p)
        refreshed_at = []
        for t in range(1000):
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
            if rec.refreshed:
                refreshed_at.append(t)
        assert refreshed_at == [0, 400, 800]

    def test_first_step_refreshes_when_sketch_absent(self):
        p = quadratic([3.0, 1.0], seed=5)
        cfg = CaoConfig(alpha=1e-3, k=1, m=7, eta=1.0, t_pow=2)
        state, rec = cao_step(make_state(p), p, FULL_BATCH, cfg)
        assert rec.refreshed and state.precond is not None

    def test_warm_steps_delay_first_refresh(self):
        p = quadratic([3.0, 1.0], seed=5)
        cfg = CaoConfig(alpha=1e-3, k=1, m=100, eta=1.0, t_pow=2, warm_steps=5)
        state = make_state(p)
        refreshed_at = []
        for t in range(12):
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
            if rec.refreshed:
                refreshed_at.append(t)
        assert refreshed_at == [5]

    def test_hvp_budget_over_run(self):
        p = quadratic(np.linspace(1.0, 5.0, 10), seed=6)
        cfg = CaoConfig(alpha=1e-3, k=2, m=50, eta=1.0, t_pow=4)
        state = make_state(p)
        steps = 230
        for _ in range(steps):
            state, _ = cao_step(state, p, FULL_BATCH, cfg)
        expected = -(-steps // cfg.m) * (cfg.t_pow + 1) * cfg.k  # ceil division
        assert state.hvp_calls == expected

    def test_sketch_reused_between_refreshes(self):
        p = quadratic([5.0, 1.0], seed=7)
        cfg = CaoConfig(alpha=1e-3, k=1, m=10, eta=1.0, t_pow=2)
        state = make_state(p)
        state, _ = cao_step(state, p, FULL_BATCH, cfg)
        first = state.precond
        for _ in range(9):
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
            assert state.precond is first and not rec.refreshed
        state, rec = cao_step(state, p, FULL_BATCH, cfg)
        assert rec.refreshed and state.precond.sketch is not first.sketch

    def test_one_sketch_per_refresh(self, monkeypatch):
        built = []
        check = Sketch.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Sketch, "__post_init__", counting)
        p = quadratic([5.0, 2.0, 1.0], seed=7)
        cfg = CaoConfig(alpha=1e-3, k=2, m=4, eta=1.0, t_pow=2)
        state = make_state(p)
        refreshes = []
        for step in range(9):
            built.clear()
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
            if rec.refreshed:
                refreshes.append(step)
                assert len(built) == 1 and built[0] is state.precond.sketch
            else:
                assert built == []
        assert refreshes == [0, 4, 8]

    def test_preconditioner_built_once_per_sketch(self):
        class Saddle(Problem):
            # negative curvature, so the sketches clamp
            meta = ProblemMeta(dim=5, name="saddle")
            a = np.diag([5.0, 2.0, 0.5, -0.3, -2.0])

            def _loss_and_grad(self, theta, batch):
                g = self.a @ theta
                return 0.5 * float(theta @ g), g

            def _linearize(self, theta, batch):
                return lambda v: self.a @ v

        p = Saddle()
        cfg = CaoConfig(alpha=1e-3, k=3, m=4, eta=0.5, t_pow=3)
        state = make_state(p)
        built, clamped = [], []
        for t in range(13):
            previous = state.precond
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
            pc = state.precond
            if rec.refreshed:
                assert pc is not previous
                built.append(t)
            else:
                assert pc is previous
            fresh = DampedPreconditioner(pc.sketch, cfg.eta)
            assert rec.clamped == fresh.clamped
            assert rec.eigvals == tuple(float(x) for x in pc.sketch.eigvals)
            assert pc.eigvals == rec.eigvals
            assert pc.denominators.tobytes() == fresh.denominators.tobytes()
            clamped.append(rec.clamped)
        assert built == [0, 4, 8, 12]
        assert any(clamped)

    def test_failed_refresh_keeps_preconditioner(self):
        p = NanHvpQuadratic(np.linspace(1.0, 5.0, 6), seed=3)
        cfg = CaoConfig(alpha=1e-3, k=2, m=3, eta=1.0, t_pow=2)
        state = make_state(p)
        for _ in range(3):
            state, _ = cao_step(state, p, FULL_BATCH, cfg)
        kept = state.precond
        p.fail = True
        theta = state.theta
        state, rec = cao_step(state, p, FULL_BATCH, cfg)
        assert rec.refresh_failed and state.precond is kept
        expected = theta - cfg.alpha * cao.precondition(p.grad(theta), kept)
        assert state.theta.tobytes() == expected.tobytes()
        p.fail = False
        for _ in range(3):
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
        assert rec.refreshed and state.precond is not kept

    def test_checkpointed_state_rebuilds_preconditioner(self):
        # a loader's state: copies of the stored fields, the preconditioner rebuilt from
        # the stored sketch with the run's eta
        p = quadratic([6.0, 3.0, 1.0], seed=14)
        cfg = CaoConfig(alpha=0.01, k=2, m=10, eta=0.5, t_pow=3)
        state = make_state(p, 2)
        for _ in range(3):
            state, _ = cao_step(state, p, FULL_BATCH, cfg)
        stored = state.precond.sketch
        loaded = CaoState(theta=state.theta.copy(), step=state.step, hvp_calls=state.hvp_calls,
                          precond=DampedPreconditioner(
                              Sketch(stored.eigvals.copy(), stored.basis.copy()), cfg.eta))
        for _ in range(12):  # across the refresh at step 10
            state, rec_cont = cao_step(state, p, FULL_BATCH, cfg)
            loaded, rec_resumed = cao_step(loaded, p, FULL_BATCH, cfg)
            assert rec_resumed == rec_cont
            assert loaded.theta.tobytes() == state.theta.tobytes()
            assert (loaded.step, loaded.hvp_calls) == (state.step, state.hvp_calls)
            for field in ("eigvals", "basis"):
                assert (getattr(loaded.precond.sketch, field).tobytes()
                        == getattr(state.precond.sketch, field).tobytes())
        assert state.hvp_calls == 2 * (cfg.t_pow + 1) * cfg.k

    def test_one_preconditioner_per_successful_refresh(self, monkeypatch):
        built = []
        derive = DampedPreconditioner.__post_init__

        def counting(self):
            built.append(self)
            derive(self)

        monkeypatch.setattr(DampedPreconditioner, "__post_init__", counting)
        p = NanHvpQuadratic(np.linspace(1.0, 5.0, 6), seed=3)
        for k, flags in ((2, ["refreshed", "", "", "refresh_failed", "", "", "refreshed", ""]),
                         (0, [""] * 8)):
            cfg = CaoConfig(alpha=1e-3, k=k, m=3, eta=1.0, t_pow=2)
            state = make_state(p)
            for step, flag in enumerate(flags):
                built.clear()
                p.fail = step == 3
                state, rec = cao_step(state, p, FULL_BATCH, cfg)
                assert (rec.refreshed, rec.refresh_failed) == (flag == "refreshed",
                                                              flag == "refresh_failed")
                assert built == ([state.precond] if rec.refreshed else [])

    def test_divergence_raises_with_record(self):
        p = quadratic([100.0, 1.0], seed=9)
        cfg = CaoConfig(alpha=10.0, k=0)
        state = make_state(p)
        with pytest.raises(DivergenceError) as excinfo:
            for _ in range(400):
                state, _ = cao_step(state, p, FULL_BATCH, cfg)
        assert excinfo.value.record is not None

    def test_refresh_failure_keeps_previous_and_falls_back(self):
        class BadHvp(Problem):
            meta = ProblemMeta(dim=2, name="bad-hvp")

            def _loss_and_grad(self, theta, batch):
                return float(theta @ theta), 2.0 * theta

            def _linearize(self, theta, batch):
                return lambda v: np.full(v.shape, np.nan)

        p = BadHvp()
        cfg = CaoConfig(alpha=0.1, k=1, eta=1.0, t_pow=2)
        theta0 = np.array([1.0, -1.0])
        state, rec = cao_step(CaoState(theta=theta0.copy()), p, FULL_BATCH, cfg)
        assert rec.refresh_failed and not rec.refreshed
        assert state.precond is None
        # fell back to the plain gradient direction
        np.testing.assert_array_equal(state.theta, theta0 - 0.1 * (2.0 * theta0))

    def test_nan_mid_sketch_keeps_previous_and_counts_columns(self):
        class FlakyQuadratic(QuadraticProblem):
            fail_on = None  # index of the block product that comes back NaN
            blocks = 0

            def _linearize(self, theta, batch):
                kernel = super()._linearize(theta, batch)

                def flaky(v):
                    self.blocks += 1
                    return np.full(v.shape, np.nan) if self.blocks == self.fail_on else kernel(v)

                return flaky

        p = FlakyQuadratic(np.linspace(1.0, 5.0, 6), seed=3)
        cfg = CaoConfig(alpha=1e-3, k=2, m=5, eta=1.0, t_pow=3)
        state = make_state(p)
        for _ in range(5):
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
        previous = state.precond
        assert previous is not None and state.hvp_calls == (cfg.t_pow + 1) * cfg.k
        p.fail_on = p.blocks + 2  # the second block of the next refresh
        state, rec = cao_step(state, p, FULL_BATCH, cfg)
        assert rec.refresh_failed and not rec.refreshed
        assert state.precond is previous
        # every column submitted is counted, the failing block's included
        assert state.hvp_calls == (cfg.t_pow + 1) * cfg.k + 2 * cfg.k

    def test_records_per_batch(self):
        p = cao.logreg(5, 40, seed=1)
        schedule = [cao.Batch(indices=np.arange(i * 10, (i + 1) * 10)) for i in range(4)]
        cfg = CaoConfig(alpha=0.05, k=1, m=2, eta=1.0, t_pow=2)
        state, records = make_state(p), []
        for batch in schedule:
            state, rec = cao_step(state, p, batch, cfg)
            records.append(rec)
        assert len(records) == 4
        assert [r.step for r in records] == [0, 1, 2, 3]

    def test_deterministic_trajectory(self):
        p = quadratic([6.0, 2.0, 1.0], seed=10)
        cfg = CaoConfig(alpha=0.01, k=1, m=5, eta=0.5, t_pow=3, sketch_seed=42)
        outs = []
        for _ in range(2):
            state = make_state(p, 4)
            for _ in range(25):
                state, _ = cao_step(state, p, FULL_BATCH, cfg)
            outs.append(state.theta.tobytes())
        assert outs[0] == outs[1]


class TestPlannedRefreshes:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equals_the_refreshes_a_run_makes(self, k):
        p = quadratic([4.0, 2.0, 1.0], seed=2)
        for m in (1, 3, 5):
            for warm in (0, 2, 3, 5, 7, 12):
                cfg = CaoConfig(alpha=0.1, k=k, m=m, t_pow=2, warm_steps=warm)
                state, refreshed = make_state(p), []
                for steps in range(1, 12):
                    state, rec = cao_step(state, p, FULL_BATCH, cfg)
                    refreshed.append(rec.refreshed)
                    assert cfg.planned_refreshes(steps) == sum(refreshed), (m, warm, steps)
                    assert state.hvp_calls == sum(refreshed) * (cfg.t_pow + 1) * k


class TestSgd:
    def test_momentum_zero_is_gd(self):
        p = quadratic([4.0, 1.0], seed=1)
        theta0 = p.initial_point(0)
        state, _ = sgd_step(SgdState(theta=theta0.copy()), p, FULL_BATCH, lr=0.05)
        expected = theta0 - 0.05 * p.grad(theta0)
        assert state.theta.tobytes() == expected.tobytes()

    def test_two_steps_match_hand_recurrence(self):
        p = QuadraticProblem([2.0, 8.0], rotate=False)
        theta = np.array([1.0, -1.0])
        lr, mom = 0.05, 0.9
        state = SgdState(theta=theta.copy())
        for _ in range(2):
            state, _ = sgd_step(state, p, FULL_BATCH, lr=lr, momentum=mom)
        # hand-rolled heavy-ball oracle
        t = theta.copy()
        buf = np.zeros(2)
        for _ in range(2):
            buf = mom * buf + p.matrix @ t
            t = t - lr * buf
        np.testing.assert_array_equal(state.theta, t)

    def test_first_velocity_is_a_sum(self):
        class LinearProblem(Problem):
            meta = ProblemMeta(dim=2, name="linear")

            def _loss_and_grad(self, theta, batch):
                return float(theta[1]), np.array([-0.0, 1.0])

            def _linearize(self, theta, batch):
                return lambda v: np.zeros(v.shape)

        state, _ = sgd_step(SgdState(theta=np.zeros(2)), LinearProblem(), FULL_BATCH,
                            lr=0.1)
        assert state.velocity.tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_clip(self):
        p = quadratic([100.0, 1.0], seed=3)
        state, rec = sgd_step(SgdState(theta=p.initial_point(1)), p, FULL_BATCH,
                              lr=0.1, clip=1.0)
        assert rec.update_norm <= 1.0 + 1e-12

    def test_bit_identical_to_cao_k0(self):
        p = cao.logreg(6, 50, seed=2)
        theta0 = p.initial_point(5)
        batches = [cao.Batch(indices=np.random.default_rng([3, e]).permutation(50)[:10])
                   for e in range(100)]
        cfg = CaoConfig(alpha=0.2, k=0)
        cao_state = CaoState(theta=theta0.copy())
        sgd_state = SgdState(theta=theta0.copy())
        for b in batches:
            cao_state, _ = cao_step(cao_state, p, b, cfg)
            sgd_state, _ = sgd_step(sgd_state, p, b, lr=0.2, momentum=0.0)
            assert cao_state.theta.tobytes() == sgd_state.theta.tobytes()


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = quadratic([4.0, 1.0], seed=4)
        theta0 = p.initial_point(2)
        lr = 1e-3
        state, _ = adam_step(AdamState(theta=theta0.copy()), p, FULL_BATCH, lr=lr)
        step = np.abs(state.theta - theta0)
        assert np.all(step <= lr * (1 + 1e-6))
        g = p.grad(theta0)
        assert np.all(step[np.abs(g) > 1e-8] >= lr * 0.99)

    def test_constant_gradient_limit(self):
        class LinearProblem(Problem):
            meta = ProblemMeta(dim=3, name="linear")
            c = np.array([2.0, -0.5, 1.0])

            def _loss_and_grad(self, theta, batch):
                return float(self.c @ theta), self.c.copy()

            def _linearize(self, theta, batch):
                return lambda v: np.zeros(v.shape)

        p = LinearProblem()
        lr, eps = 0.01, 1e-8
        state = AdamState(theta=np.zeros(3))
        prev = state.theta
        for _ in range(200):
            prev = state.theta
            state, _ = adam_step(state, p, FULL_BATCH, lr=lr, eps=eps)
        update = prev - state.theta
        limit = lr * p.c / (np.abs(p.c) + eps)
        np.testing.assert_allclose(update, limit, rtol=1e-6)

    def test_zero_gradient_stream(self):
        p = QuadraticProblem([2.0, 8.0], rotate=False)
        state = AdamState(theta=np.zeros(2))  # the exact optimum
        for _ in range(5):
            state, rec = adam_step(state, p, FULL_BATCH, lr=0.1)
            np.testing.assert_array_equal(state.theta, np.zeros(2))
            assert rec.update_norm == 0.0


class TestClipProperty:
    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, 6, elements=st.floats(-1e3, 1e3)), st.floats(0.1, 5.0))
    def test_clip_never_exceeds_c(self, g, c):
        from cao.optim import _clip

        d = _clip(g.copy(), c)
        assert np.linalg.norm(d) <= c * (1 + 1e-12) or np.array_equal(d, g)


class TestNorm:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(0, 12),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_bitwise_equal_to_linalg_norm(self, v):
        from cao.optim import _norm

        with np.errstate(over="ignore"):
            got, want = _norm(v), float(np.linalg.norm(v))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("v", [[1e200, 1e200], [np.nan, 1.0], [-np.nan], [np.inf, 3.0],
                                   [5e-324, -5e-324], [-0.0], []],
                             ids=["overflow", "nan", "negative-nan", "inf", "subnormal",
                                  "negative-zero", "empty"])
    def test_edge_vectors(self, v):
        from cao.optim import _norm

        v = np.array(v, dtype=np.float64)
        with np.errstate(over="ignore"):
            assert (np.float64(_norm(v)).tobytes()
                    == np.float64(np.linalg.norm(v)).tobytes())


class TestRunner:
    @pytest.mark.parametrize("kind, params", [
        ("cao", {"alpha": 0.05, "k": 1, "m": 3, "t_pow": 2}),
        ("sgd", {"alpha": 0.05, "momentum": 0.5}),
        ("adam", {"alpha": 0.01, "eps": 1e-6}),
    ])
    def test_step_function_looked_up_at_call_time(self, monkeypatch, kind, params):
        calls = []
        original = getattr(cao.optim, f"{kind}_step")

        def wrapper(*args, **kwargs):
            calls.append(kind)
            return original(*args, **kwargs)

        monkeypatch.setattr(cao.optim, f"{kind}_step", wrapper)
        p = quadratic([4.0, 1.0], seed=1)
        step, state = make_runner(kind, p.initial_point(0), params, seed=0)
        for _ in range(4):
            state, _ = step(state, p, FULL_BATCH)
        assert calls == [kind] * 4
        assert state.step == 4

    def test_runner_matches_step_functions(self):
        p = quadratic([4.0, 1.0], seed=1)
        theta0 = p.initial_point(0)
        steps, states = zip(
            make_runner("sgd", theta0, {"alpha": 0.05, "momentum": 0.9}, seed=0),
            make_runner("adam", theta0, {"alpha": 0.01, "beta1": 0.8, "eps": 1e-6}, seed=0),
            make_runner("cao", theta0, {"alpha": 0.05, "k": 1, "m": 3}, seed=4))
        s, a, c = SgdState(theta=theta0), AdamState(theta=theta0), CaoState(theta=theta0)
        cfg = CaoConfig(alpha=0.05, k=1, m=3, sketch_seed=4)
        for _ in range(5):
            s, _ = sgd_step(s, p, FULL_BATCH, lr=0.05, momentum=0.9)
            a, _ = adam_step(a, p, FULL_BATCH, lr=0.01, beta1=0.8, eps=1e-6)
            c, _ = cao_step(c, p, FULL_BATCH, cfg)
            states = [step(state, p, FULL_BATCH)[0] for step, state in zip(steps, states)]
        sgd, adam, cao_run = states
        assert sgd.theta.tobytes() == s.theta.tobytes()
        assert adam.theta.tobytes() == a.theta.tobytes()
        assert cao_run.theta.tobytes() == c.theta.tobytes()
        assert cao_run.hvp_calls == c.hvp_calls > 0
        assert not hasattr(sgd, "hvp_calls") and not hasattr(adam, "hvp_calls")

    def test_theta0_is_copied(self):
        theta0 = np.ones(2)
        step, state = make_runner("sgd", theta0, {"alpha": 0.1}, seed=0)
        step(state, quadratic([4.0, 1.0], seed=1), FULL_BATCH)
        assert state.theta is not theta0
        assert np.array_equal(theta0, np.ones(2))

    def test_seed_is_the_sketch_seed(self):
        step, _ = make_runner("cao", np.ones(2), {"alpha": 0.1}, seed=3)
        assert step.keywords["cfg"].sketch_seed == 3
        with pytest.raises(ContractViolationError, match=r"unknown keys \['sketch_seed'\]"):
            make_runner("cao", np.ones(2), {"alpha": 0.1, "sketch_seed": 7}, seed=3)

    def test_bad_kind_and_knob(self):
        with pytest.raises(ContractViolationError):
            make_runner("lbfgs", np.ones(2), {"alpha": 0.1}, seed=0)
        with pytest.raises(ContractViolationError, match="momentum"):
            make_runner("sgd", np.ones(2), {"alpha": 0.1, "momentum": 1.0}, seed=0)
        with pytest.raises(ContractViolationError, match="lr"):
            make_runner("sgd", np.ones(2), {"lr": 0.1}, seed=0)
        # a knob of another kind: adam's beta1 is no sgd knob
        with pytest.raises(ContractViolationError, match=r"unknown keys \['beta1'\]"):
            make_runner("sgd", np.ones(2), {"alpha": 0.1, "beta1": 0.9}, seed=0)
        for kind in ("sgd", "cao"):
            with pytest.raises(ContractViolationError, match="alpha"):
                make_runner(kind, np.ones(2), {}, seed=0)


class TestConfigValidation:
    def test_bad_knobs(self):
        with pytest.raises(ContractViolationError):
            CaoConfig(alpha=0.0)
        with pytest.raises(ContractViolationError):
            CaoConfig(alpha=0.1, k=-1)
        with pytest.raises(ContractViolationError):
            CaoConfig(alpha=0.1, m=0)
        with pytest.raises(ContractViolationError):
            CaoConfig(alpha=0.1, eta=0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ContractViolationError, match="alpha must be finite"):
                CaoConfig(alpha=bad)
            with pytest.raises(ContractViolationError, match="eta must be finite"):
                CaoConfig(alpha=0.1, eta=bad)
        with pytest.raises(ContractViolationError):
            CaoConfig(alpha=0.1, t_pow=0)
        for knobs in ({"k": 1.5}, {"t_pow": 2.5}, {"m": 2.5}, {"warm_steps": 0.5},
                      {"k": True}, {"alpha": True}, {"eta": np.nan}):
            with pytest.raises(ContractViolationError, match=f"{next(iter(knobs))} must be"):
                CaoConfig(**{"alpha": 0.1, **knobs})
