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
    load_checkpoint,
    run_epoch,
    save_checkpoint,
    sgd_step,
)
from cao.problems import FULL_BATCH, Problem, ProblemMeta, QuadraticProblem, quadratic


def make_state(problem, seed=0):
    return CaoState(theta=problem.initial_point(seed))


class TestCaoStep:
    def test_k0_is_plain_gradient_descent(self):
        p = quadratic([4.0, 1.0], seed=1)
        theta0 = p.initial_point(0)
        cfg = CaoConfig(alpha=0.05, k=0)
        state, rec = cao_step(CaoState(theta=theta0.copy()), p, FULL_BATCH, cfg)
        expected = theta0 - 0.05 * p.grad(theta0)
        assert state.theta.tobytes() == expected.tobytes()
        assert not rec.refreshed and rec.eigvals == ()

    def test_k0_eta_scaled_variant(self):
        p = quadratic([4.0, 1.0], seed=1)
        theta0 = p.initial_point(0)
        cfg = CaoConfig(alpha=0.05, k=0, eta=0.5, k0_eta_scaled=True)
        state, _ = cao_step(CaoState(theta=theta0.copy()), p, FULL_BATCH, cfg)
        expected = theta0 - 0.05 * (p.grad(theta0) / 0.5)
        np.testing.assert_array_equal(state.theta, expected)

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
        assert rec.refreshed and state.sketch is not None

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
        first = state.sketch
        for _ in range(9):
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
            assert state.sketch is first and not rec.refreshed
        state, rec = cao_step(state, p, FULL_BATCH, cfg)
        assert rec.refreshed and state.sketch is not first

    def test_weight_decay_coupled(self):
        p = quadratic([4.0, 1.0], seed=8)
        theta0 = p.initial_point(1)
        cfg = CaoConfig(alpha=0.1, k=0, weight_decay=0.5)
        state, _ = cao_step(CaoState(theta=theta0.copy()), p, FULL_BATCH, cfg)
        expected = theta0 - 0.1 * (p.grad(theta0) + 0.5 * theta0)
        np.testing.assert_array_equal(state.theta, expected)

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

            def _loss(self, theta, batch):
                return float(theta @ theta)

            def _grad(self, theta, batch):
                return 2.0 * theta

            def _hvp_block(self, theta, v, batch):
                return np.full(v.shape, np.nan)

        p = BadHvp()
        cfg = CaoConfig(alpha=0.1, k=1, eta=1.0, t_pow=2)
        theta0 = np.array([1.0, -1.0])
        state, rec = cao_step(CaoState(theta=theta0.copy()), p, FULL_BATCH, cfg)
        assert rec.refresh_failed and not rec.refreshed
        assert state.sketch is None
        # fell back to the plain gradient direction
        np.testing.assert_array_equal(state.theta, theta0 - 0.1 * (2.0 * theta0))

    def test_nan_mid_sketch_keeps_previous_and_counts_columns(self):
        class FlakyQuadratic(QuadraticProblem):
            fail_on = None  # index of the block product that comes back NaN
            blocks = 0

            def _hvp_block(self, theta, v, batch):
                self.blocks += 1
                if self.blocks == self.fail_on:
                    return np.full(v.shape, np.nan)
                return super()._hvp_block(theta, v, batch)

        p = FlakyQuadratic(np.linspace(1.0, 5.0, 6), seed=3)
        cfg = CaoConfig(alpha=1e-3, k=2, m=5, eta=1.0, t_pow=3)
        state = make_state(p)
        for _ in range(5):
            state, rec = cao_step(state, p, FULL_BATCH, cfg)
        previous = state.sketch
        assert previous is not None and state.hvp_calls == (cfg.t_pow + 1) * cfg.k
        p.fail_on = p.blocks + 2  # the second block of the next refresh
        state, rec = cao_step(state, p, FULL_BATCH, cfg)
        assert rec.refresh_failed and not rec.refreshed
        assert state.sketch is previous
        # every column submitted is counted, the failing block's included
        assert state.hvp_calls == (cfg.t_pow + 1) * cfg.k + 2 * cfg.k

    def test_dedicated_sketch_batch(self):
        p = cao.logreg(5, 60, seed=3)
        theta0 = p.initial_point(0)
        batch = cao.Batch(indices=np.arange(10))
        base = CaoConfig(alpha=0.05, k=1, eta=1.0, t_pow=3, sketch_seed=1)
        dedicated = CaoConfig(alpha=0.05, k=1, eta=1.0, t_pow=3, sketch_seed=1,
                              sketch_batch_size=40)
        s1, _ = cao_step(CaoState(theta=theta0.copy()), p, batch, base)
        s2, _ = cao_step(CaoState(theta=theta0.copy()), p, batch, dedicated)
        # the refresh saw different data, so the sketches differ
        assert not np.allclose(s1.sketch.eigvals, s2.sketch.eigvals)
        # both remain deterministic
        s3, _ = cao_step(CaoState(theta=theta0.copy()), p, batch, dedicated)
        assert s2.theta.tobytes() == s3.theta.tobytes()

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


class TestRunEpoch:
    def test_records_per_batch(self):
        p = cao.logreg(5, 40, seed=1)
        schedule = [cao.Batch(indices=np.arange(i * 10, (i + 1) * 10)) for i in range(4)]
        cfg = CaoConfig(alpha=0.05, k=1, m=2, eta=1.0, t_pow=2)
        state, records = run_epoch(make_state(p), p, schedule, cfg, epoch=3)
        assert len(records) == 4
        assert [r.step for r in records] == [0, 1, 2, 3]
        assert all(r.epoch == 3 for r in records)


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

            def _loss(self, theta, batch):
                return float(self.c @ theta)

            def _grad(self, theta, batch):
                return self.c.copy()

            def _hvp_block(self, theta, v, batch):
                return np.zeros(v.shape)

        p = LinearProblem()
        lr, eps = 0.01, 1e-8
        state = AdamState(theta=np.zeros(3))
        prev = state.theta
        for _ in range(200):
            prev = state.theta
            state, _ = adam_step(state, p, FULL_BATCH, lr=lr, eps_adam=eps)
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


class TestCheckpoints:
    def test_cao_roundtrip(self, tmp_path):
        p = quadratic([5.0, 2.0, 1.0], seed=11)
        cfg = CaoConfig(alpha=0.01, k=2, m=5, eta=0.5, t_pow=4)
        state = make_state(p, 6)
        for _ in range(7):
            state, _ = cao_step(state, p, FULL_BATCH, cfg)
        path = tmp_path / "cao.npz"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.step == state.step
        assert loaded.hvp_calls == state.hvp_calls
        assert loaded.theta.tobytes() == state.theta.tobytes()
        assert loaded.sketch.eigvals.tobytes() == state.sketch.eigvals.tobytes()
        assert loaded.sketch.basis.tobytes() == state.sketch.basis.tobytes()
        assert loaded.sketch.refreshed_at == state.sketch.refreshed_at
        # resuming produces the same trajectory as continuing
        cont, _ = cao_step(state, p, FULL_BATCH, cfg)
        resumed, _ = cao_step(loaded, p, FULL_BATCH, cfg)
        assert cont.theta.tobytes() == resumed.theta.tobytes()

    def test_sgd_and_adam_roundtrip(self, tmp_path):
        p = quadratic([5.0, 2.0], seed=12)
        sgd_state = SgdState(theta=p.initial_point(0))
        sgd_state, _ = sgd_step(sgd_state, p, FULL_BATCH, lr=0.01, momentum=0.9)
        save_checkpoint(tmp_path / "sgd.npz", sgd_state)
        loaded = load_checkpoint(tmp_path / "sgd.npz")
        assert loaded.velocity.tobytes() == sgd_state.velocity.tobytes()

        adam_state = AdamState(theta=p.initial_point(0))
        adam_state, _ = adam_step(adam_state, p, FULL_BATCH, lr=0.01)
        save_checkpoint(tmp_path / "adam.npz", adam_state)
        loaded = load_checkpoint(tmp_path / "adam.npz")
        assert loaded.m1.tobytes() == adam_state.m1.tobytes()
        assert loaded.m2.tobytes() == adam_state.m2.tobytes()
        assert loaded.step == 1


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
        with pytest.raises(ContractViolationError):
            CaoConfig(alpha=0.1, t_pow=0)
