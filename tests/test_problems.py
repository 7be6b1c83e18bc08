import json
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cao
from cao.errors import (
    ContractViolationError,
    DegenerateStepError,
    NumericOverflowError,
    OracleUnavailableError,
)
from cao.optim import CaoConfig, CaoState, cao_step
from cao.problems import (
    FULL_BATCH,
    Batch,
    MlpProblem,
    ProblemMeta,
    QuadraticProblem,
    _row_sum,
    fd_hvp,
    from_config,
    logreg,
    mlp_synthetic,
    quadratic,
    rosenbrock,
)
from cao.harness import build_schedule
from layouts import BLOCK_LAYOUTS, FINITE_SPECIAL, VECTOR_LAYOUTS, bits, laid_out, with_specials

MLP_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "mlp_speedup.json"


def all_problems():
    return [
        quadratic([3.0, 1.0, 0.5], seed=5),
        rosenbrock(6),
        logreg(8, 60, seed=2),
        mlp_synthetic([4, 5, 2], seed=0, n_samples=30),
    ]


def diag28():
    return QuadraticProblem([2.0, 8.0], rotate=False)


class TestQuadratic:
    def test_minimum_is_zero(self):
        assert diag28().loss(np.zeros(2)) == 0.0

    def test_loss_at_ones(self):
        # 0.5 * (2 + 8)
        assert diag28().loss(np.array([1.0, 1.0])) == pytest.approx(5.0)

    def test_grad_is_a_theta(self):
        g = diag28().grad(np.array([1.0, 1.0]))
        np.testing.assert_allclose(g, [2.0, 8.0])

    def test_hvp_picks_column(self):
        hv = diag28().hvp(np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(hv, [2.0, 0.0])

    def test_dense_hessian(self):
        np.testing.assert_array_equal(diag28().dense_hessian(np.zeros(2)),
                                      np.diag([2.0, 8.0]))

    def test_rotated_spectrum_exact(self):
        p = quadratic([7.0, 4.0, 1.0], seed=3)
        np.testing.assert_allclose(np.linalg.eigvalsh(p.matrix), [1.0, 4.0, 7.0],
                                   atol=1e-12)
        assert p.meta.smoothness_L == 7.0
        assert p.meta.pl_mu == 1.0
        assert p.meta.f_star == 0.0


class TestQuadraticProducts:
    """The quadratic's products on any layout and on special entries.

    The references are the matrix itself, NumPy's own ``einsum`` loops (no
    BLAS) and fixed values.
    """

    @pytest.mark.parametrize("layout", VECTOR_LAYOUTS)
    def test_loss_and_grad_on_any_theta(self, layout):
        for n in (2, 7, 50, 97):
            p = quadratic(np.linspace(1.0, 10.0, n), seed=n)
            for seed in range(4):
                theta = laid_out(with_specials(np.random.default_rng(seed), (n,), 0.2,
                                               FINITE_SPECIAL[np.abs(FINITE_SPECIAL) < 1e100]),
                                 layout)
                loss, g = p.loss_and_grad(theta)
                want_g = np.einsum("ij,j->i", p.matrix, theta)
                np.testing.assert_allclose(g, want_g, rtol=1e-12, atol=1e-12)
                assert loss == pytest.approx(0.5 * np.einsum("i,i->", theta, want_g), rel=1e-12)
                assert bits(p.grad(theta)) == bits(g)

    @pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
    def test_hvp_closure_on_any_block(self, layout):
        for n in (2, 7, 50, 97):
            p = quadratic(np.linspace(1.0, 10.0, n), seed=n)
            apply = p.hvp_closure(p.initial_point(0))
            for j in (1, 2, 3, 8):
                block = laid_out(np.random.default_rng([n, j]).standard_normal((n, j)), layout)
                np.testing.assert_allclose(apply(block), np.einsum("ij,jk->ik", p.matrix, block),
                                           rtol=1e-12, atol=1e-12)

    def test_dense_hessian_and_hvp(self):
        for n in (1, 2, 9, 50):
            for rotate in (True, False):
                p = quadratic(np.linspace(1.0, 10.0, n), seed=n, rotate=rotate)
                # each column is A times a unit vector: a sum of one exact product and zeros
                assert bits(p.dense_hessian(np.zeros(n))) == bits(p.matrix)
                v = p.initial_point(1)
                np.testing.assert_allclose(p.hvp(np.zeros(n), v),
                                           np.einsum("ij,j->i", p.matrix, v), rtol=1e-12)

    @pytest.mark.parametrize("rotate", [True, False])
    def test_one_entry_spectrum(self, rotate):
        # a sum of one term: BLAS adds a -0.0 product to +0.0
        p = quadratic([2.0], rotate=rotate)
        for theta, loss_want, g_want in (([-0.0], 0.0, [0.0]), ([0.0], 0.0, [0.0]),
                                         ([-5e-324], 0.0, [-1e-323]), ([3.0], 9.0, [6.0])):
            loss, g = p.loss_and_grad(np.array(theta))
            assert bits(g) == bits(g_want) and bits(loss) == bits(loss_want)
            hv = p.hvp_closure(np.zeros(1))(np.array([theta]))
            assert bits(hv) == bits([g_want])

    @pytest.mark.parametrize("n", [1, 50])
    def test_pickle_round_trip(self, n):
        p = quadratic(np.linspace(1.0, 10.0, n), seed=n)
        q = pickle.loads(pickle.dumps(p))
        theta, block = p.initial_point(0), np.eye(n)[:, :1]
        assert bits(q.loss_and_grad(theta)[1]) == bits(p.loss_and_grad(theta)[1])
        assert bits(q.hvp_closure(theta)(block)) == bits(p.hvp_closure(theta)(block))
        q.matrix[...] = 0.0  # the copy's products use the copy's matrix
        assert bits(q.grad(theta)) == bits(np.zeros(n))


class TestRosenbrock:
    def test_global_minimum(self):
        assert rosenbrock(5).loss(np.ones(5)) == 0.0

    def test_gradient_zero_at_minimum(self):
        np.testing.assert_allclose(rosenbrock(5).grad(np.ones(5)), np.zeros(5))

    def test_hvp_matches_fd_at_origin(self):
        p = rosenbrock(4)
        theta = np.zeros(4)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        fd = fd_hvp(p, theta, v, eps=1e-4)
        np.testing.assert_allclose(p.hvp(theta, v), fd, rtol=1e-4)

    def test_hessian_eigenvalues_at_minimum(self):
        # frozen from the dense eigendecomposition oracle at the all-ones point
        p = rosenbrock(2)
        h = p.dense_hessian(np.ones(2))
        np.testing.assert_allclose(np.linalg.eigvalsh(h),
                                   [0.3993607674876216, 1001.6006392325123], rtol=1e-10)


class TestHvpContracts:
    def test_hvp_of_zero_direction(self):
        for p in all_problems():
            theta = p.initial_point(1)
            np.testing.assert_array_equal(p.hvp(theta, np.zeros(p.dim)),
                                          np.zeros(p.dim))

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for p in all_problems():
            theta = p.initial_point(3)
            for _ in range(20):
                u = rng.standard_normal(p.dim)
                v = rng.standard_normal(p.dim)
                uhv = float(u @ p.hvp(theta, v))
                vhu = float(v @ p.hvp(theta, u))
                assert abs(uhv - vhu) <= 1e-8 * (1.0 + abs(uhv))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for p in all_problems():
            theta = p.initial_point(4)
            u = rng.standard_normal(p.dim)
            v = rng.standard_normal(p.dim)
            a, b = 0.7, -1.3
            combo = p.hvp(theta, a * u + b * v)
            split = a * p.hvp(theta, u) + b * p.hvp(theta, v)
            np.testing.assert_allclose(combo, split, rtol=1e-10, atol=1e-12)

    def test_dense_columns_equal_hvp_exactly(self):
        for p in all_problems():
            theta = p.initial_point(5)
            h = p.dense_hessian(theta)
            eye = np.eye(p.dim)
            for j in range(0, p.dim, max(1, p.dim // 5)):
                np.testing.assert_array_equal(h[:, j], p.hvp(theta, eye[:, j]))

    @pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.meta.name)
    def test_hvp_block_matches_stacked_hvp(self, problem):
        theta = problem.initial_point(6)
        rng = np.random.default_rng(12)
        batches = [FULL_BATCH]
        if problem.num_samples:
            batches.append(Batch(indices=rng.choice(problem.num_samples, 9, replace=False)))
        for batch in batches:
            # a random block, and the identity: one product gives the dense Hessian
            for block in (rng.standard_normal((problem.dim, 3)), np.eye(problem.dim)):
                hv = problem.hvp_closure(theta, batch)(block)
                stacked = np.column_stack([problem.hvp(theta, col, batch) for col in block.T])
                assert hv.shape == block.shape
                np.testing.assert_allclose(hv, stacked, rtol=1e-12,
                                           atol=1e-12 * np.abs(stacked).max())
            np.testing.assert_array_equal(stacked, problem.dense_hessian(theta, batch))

    def test_dense_cap(self):
        class Big(cao.Problem):
            meta = ProblemMeta(dim=501, name="big")

        with pytest.raises(OracleUnavailableError):
            Big().dense_hessian(np.zeros(501))


def batches_of(problem, rng):
    """The full batch and, for a problem with samples, one mini-batch of 9."""
    batches = [FULL_BATCH]
    if problem.num_samples:
        batches.append(Batch(indices=rng.choice(problem.num_samples, 9, replace=False)))
    return batches


class TestHvpClosure:
    @pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.meta.name)
    def test_products_bitwise_equal_hvp_block_and_dense_columns(self, problem):
        rng = np.random.default_rng(40)
        theta = problem.initial_point(7)
        eye = np.eye(problem.dim)
        for batch in batches_of(problem, rng):
            apply = problem.hvp_closure(theta, batch)
            for block in (rng.standard_normal((problem.dim, 3)), eye):
                assert (apply(block).tobytes()
                        == problem.hvp_closure(theta, batch)(block).tobytes())
            dense = problem.dense_hessian(theta, batch)
            for j in range(problem.dim):
                column = apply(eye[:, j:j + 1])[:, 0]
                assert column.tobytes() == dense[:, j].tobytes()
                assert column.tobytes() == problem.hvp(theta, eye[:, j], batch).tobytes()

    @pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.meta.name)
    def test_later_changes_to_theta_do_not_reach_the_closure(self, problem):
        rng = np.random.default_rng(41)
        block = rng.standard_normal((problem.dim, 2))
        for batch in batches_of(problem, rng):
            theta = problem.initial_point(8)
            original = theta.copy()
            apply = problem.hvp_closure(theta, batch)
            theta += 0.5
            assert (apply(block).tobytes()
                    == problem.hvp_closure(original, batch)(block).tobytes())

    def test_block_contracts_checked_on_every_call(self):
        p = logreg(4, 20, seed=1)
        apply = p.hvp_closure(np.zeros(4))
        for bad in (np.zeros(4), np.zeros((3, 2)), np.zeros((4, 2, 1))):
            with pytest.raises(ContractViolationError):
                apply(bad)
        block = np.ones((4, 3))
        block[2, 1] = np.inf
        with pytest.raises(NumericOverflowError, match="^non-finite hvp direction$"):
            apply(block)
        assert apply(np.ones((4, 3))).shape == (4, 3)  # still usable after a rejection

    def test_nonfinite_product_raises(self):
        # 1200 x^2 overflows in the Hessian's diagonal band
        apply = rosenbrock(4).hvp_closure(np.full(4, 1e200))
        with pytest.raises(NumericOverflowError, match="^non-finite hvp on rosenbrock4$"):
            apply(np.ones((4, 2)))
        with pytest.raises(NumericOverflowError, match="^non-finite hvp on rosenbrock4$"):
            rosenbrock(4).hvp(np.full(4, 1e200), np.ones(4))

    def test_point_validated_when_built(self):
        p = logreg(4, 20, seed=1)
        with pytest.raises(ContractViolationError):
            p.hvp_closure(np.zeros(5))
        with pytest.raises(ContractViolationError):
            p.hvp_closure(np.zeros(4), Batch(indices=np.array([20])))

    def test_one_forward_pass_per_refresh(self, monkeypatch):
        calls = []
        forward = MlpProblem._forward

        def counted(self, theta, batch):
            calls.append(1)
            return forward(self, theta, batch)

        monkeypatch.setattr(MlpProblem, "_forward", counted)
        p = mlp_synthetic([4, 5, 3], seed=2, n_samples=40)
        batch = Batch(indices=np.arange(10))
        cfg = CaoConfig(alpha=0.05, k=2, m=3, eta=1.0, t_pow=4)
        state = CaoState(theta=p.initial_point(0))
        for _ in range(6):
            del calls[:]
            state, rec = cao_step(state, p, batch, cfg)
            # one pass linearizes the refresh, one gives the step's loss and gradient
            assert len(calls) == (2 if rec.refreshed else 1)
        assert state.hvp_calls == 2 * (cfg.t_pow + 1) * cfg.k


def reference_mlp_loss(problem, theta, batch):
    """The mlp loss as computed with row maxima by ``max(axis=1)``, the softmax
    probabilities formed and ``np.mean``; returns (loss, probabilities)."""
    w1, b1, w2, b2 = problem._unpack(theta)
    x, y = problem._select(batch)
    hid = np.tanh(x @ w1.T + b1)
    logits = hid @ w2.T + b2
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(logits - zmax), axis=1))
    probs = np.exp(logits - lse[:, None])
    return float(np.mean(lse - logits[np.arange(y.size), y])), probs


class TestMlpLossKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_reference(self, data):
        d = data.draw(st.integers(1, 5), label="n_in")
        h = data.draw(st.integers(1, 6), label="n_hidden")
        c = data.draw(st.integers(2, 12), label="n_classes")
        n = data.draw(st.integers(c, 40), label="n_samples")
        p = mlp_synthetic([d, h, c], seed=data.draw(st.integers(0, 3)), n_samples=n)
        # a scale of up to 700 puts logits near +-700 once tanh saturates
        scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0, 350.0, 700.0]), label="scale")
        theta = scale * p.initial_point(data.draw(st.integers(0, 3)))
        w1, b1, w2, b2 = p._unpack(theta)  # views: edits below change theta
        if data.draw(st.booleans(), label="ties"):
            # zeroed W2 rows and repeated biases give exactly tied logits
            w2[: data.draw(st.integers(1, c))] = 0.0
            b2[:] = np.array(data.draw(st.lists(st.sampled_from([-700.0, 0.0, 1.5, 700.0]),
                                                min_size=c, max_size=c)))
        batch = data.draw(st.sampled_from(
            [FULL_BATCH, Batch(indices=np.arange(0, n, 2)), Batch(indices=np.array([n - 1]))]))

        expected, probs = reference_mlp_loss(p, theta, batch)
        loss = p.loss(theta, batch)
        assert loss == expected and np.isfinite(loss)
        assert p._forward(theta, batch)[6].tobytes() == probs.tobytes()
        assert p.loss_and_grad(theta, batch)[0] == expected


def reference_logreg(p, theta, batch, v):
    """Loss, gradient and H @ v from the expressions LogregProblem used to have."""
    x, y = (p.x, p.y) if batch.is_full else (p.x[batch.indices], p.y[batch.indices])
    m = y * (x @ theta)
    z = x @ theta
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean(np.logaddexp(0.0, -m))) + 0.5 * p.reg * float(theta @ theta)
        s = np.where(m >= 0, np.exp(-m) / (1 + np.exp(-m)), 1.0 / (1 + np.exp(m)))
        prob = np.where(z >= 0, 1.0 / (1 + np.exp(-z)), np.exp(z) / (1 + np.exp(z)))
    grad = -(x.T @ (y * s)) / x.shape[0] + p.reg * theta
    w = (prob * (1.0 - prob))[:, None]
    return loss, grad, (x.T @ (w * (x @ v))) / x.shape[0] + p.reg * v


class TestLogregKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_reference(self, data):
        d = data.draw(st.integers(1, 12), label="n_features")
        n = data.draw(st.integers(2, 60), label="n_samples")
        p = logreg(d, n, seed=data.draw(st.integers(0, 3)))
        # theta = 0 gives margins of +-0.0; scales of 1e3 and more give |margin| > 745,
        # where exp(-|m|) underflows to 0 and the old exp(|m|) overflowed
        scale = data.draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3, 4e3]), label="scale")
        theta = scale * p.initial_point(data.draw(st.integers(0, 3)))
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n), label="rows")
        batch = data.draw(st.sampled_from([FULL_BATCH, Batch(indices=np.array(rows))]))
        j = data.draw(st.integers(1, min(d, 9)), label="block_width")
        v = np.random.default_rng(data.draw(st.integers(0, 3))).standard_normal((d, j))

        loss, grad, hv = reference_logreg(p, theta, batch, v)
        assert p.loss(theta, batch) == loss
        assert p.grad(theta, batch).tobytes() == grad.tobytes()
        both = p.loss_and_grad(theta, batch)
        assert both[0] == loss and both[1].tobytes() == grad.tobytes()
        product = p.hvp_closure(theta, batch)(v)
        assert product.tobytes() == hv.tobytes()
        assert product.flags.c_contiguous
        v_f = np.asfortranarray(v)  # same values, another memory order
        assert (p.hvp_closure(theta, batch)(v_f).tobytes()
                == reference_logreg(p, theta, batch, v_f)[2].tobytes())


def outer_product_data(n_features, n_samples, seed, class_sep):
    """Logreg's (x, labels), built as they were with an n x d ``np.outer`` beside x."""
    rng = np.random.default_rng([seed, 211])
    direction = rng.standard_normal(n_features)
    direction /= np.linalg.norm(direction)
    labels = np.where(np.arange(n_samples) % 2 == 0, 1.0, -1.0)
    rng.shuffle(labels)
    x = rng.standard_normal((n_samples, n_features))
    x += np.outer(labels * (class_sep / 2.0), direction)
    return x, labels


class TestLogregData:
    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 12), n=st.integers(2, 80), seed=st.integers(0, 2**40),
           reg=st.sampled_from([0.0, 1e-2, 3.0]),
           class_sep=st.one_of(st.sampled_from([0.0, -0.0, -3.5, 2.0, 1e150, 5e-324]),
                               st.floats(-1e150, 1e150)))
    def test_x_equals_outer_product_construction(self, d, n, seed, reg, class_sep):
        p = logreg(d, n, seed=seed, reg=reg, class_sep=class_sep)
        x, labels = outer_product_data(d, n, seed, class_sep)
        assert p.x.tobytes() == x.tobytes() and p.x.flags.c_contiguous
        assert p.y.tobytes() == labels.tobytes()
        gram_top = float(np.linalg.eigvalsh(x.T @ x)[-1])
        assert p.meta.smoothness_L == gram_top / (4.0 * n) + reg

    @pytest.mark.parametrize("class_sep", [1e200, -1e200, 1.7976931348623157e308])
    def test_overflowing_class_sep_raises_as_before(self, class_sep):
        with pytest.raises(ContractViolationError) as info:
            logreg(5, 40, seed=1, class_sep=class_sep)
        assert str(info.value) == f"problem 'logreg': class_sep {class_sep!r} overflows X^T X"


class TestOverflowingData:
    """A section whose data overflows is refused by its constructor, naming the knob."""

    @pytest.mark.parametrize("build, message", [
        (lambda: quadratic([1.7e308, 1.0], seed=0),
         "problem 'quadratic': spectrum entry 1.7e+308 overflows the matrix"
         " Q diag(spectrum) Q^T"),
        (lambda: mlp_synthetic([3, 4, 2], n_samples=20, class_sep=1e308),
         "problem 'mlp': class_sep 1e+308 overflows the inputs"),
        (lambda: mlp_synthetic([3, 4, 2], n_samples=20, class_sep=-1e308),
         "problem 'mlp': class_sep -1e+308 overflows the inputs"),
        (lambda: mlp_synthetic([3, 4, 2], n_samples=20, class_sep=1e300, input_gain=1e300),
         "problem 'mlp': input_gain 1e+300 with class_sep 1e+300 overflows the inputs"),
    ], ids=["quadratic-spectrum", "mlp-class-sep", "mlp-negative-class-sep",
            "mlp-input-gain"])
    def test_raises_without_a_warning(self, build, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError) as info:
                build()
        assert str(info.value) == message

    def test_huge_finite_data_is_built(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = quadratic([1e300, 1.0], seed=0)
            mlp = mlp_synthetic([3, 4, 2], n_samples=20, class_sep=1e300)
        assert np.isfinite(p.matrix).all() and np.isfinite(mlp.x).all()


def traced_peak(fn):
    """``fn()`` and the most bytes it held traced at once beyond what was held before.

    NumPy reports its buffers to tracemalloc, so array temporaries count."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestLogregMemory:
    MB = 2**20

    def test_construction_makes_no_copy_of_the_data(self):
        logreg(3, 20)  # first-call work (imports, LAPACK set-up) outside the trace
        p, peak = traced_peak(lambda: logreg(100, 4000))
        assert p.x.nbytes == 3_200_000
        assert peak <= p.x.nbytes + 0.25 * self.MB, peak

    def test_hvp_block_holds_one_n_by_j_temporary(self):
        p = logreg(100, 4000)
        hvp = p.hvp_closure(p.initial_point(0))
        v = np.random.default_rng(0).standard_normal((100, 8))
        want = hvp(v)
        got, peak = traced_peak(lambda: hvp(v))
        assert got.tobytes() == want.tobytes()
        block = 4000 * 8 * 8  # one n x j float64 block
        assert peak <= 1.25 * block + 64 * 1024, peak


class TestLossAndGrad:
    @pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.meta.name)
    def test_equals_separate_calls_bitwise(self, problem):
        rng = np.random.default_rng(30)
        batches = [FULL_BATCH]
        if problem.num_samples:
            batches.append(Batch(indices=rng.choice(problem.num_samples, 9, replace=False)))
        for batch in batches:
            for seed in range(3):
                theta = problem.initial_point(seed)
                loss, grad = problem.loss_and_grad(theta, batch)
                assert type(loss) is float
                assert loss == problem.loss(theta, batch)
                assert grad.tobytes() == problem.grad(theta, batch).tobytes()

    @pytest.mark.parametrize("problem", all_problems()[:3], ids=lambda p: p.meta.name)
    def test_nonfinite_loss_raises(self, problem):
        message = f"^non-finite loss on {problem.meta.name}$"
        with pytest.raises(NumericOverflowError, match=message):
            problem.loss_and_grad(np.full(problem.dim, 1e200))
        with pytest.raises(NumericOverflowError, match=message):
            problem.loss(np.full(problem.dim, 1e200))
        with pytest.raises(NumericOverflowError, match=message):
            problem.grad(np.full(problem.dim, 1e200))

    def test_nonfinite_gradient_raises(self):
        class InfGrad(cao.Problem):
            meta = ProblemMeta(dim=2, name="inf-grad")

            def _loss_and_grad(self, theta, batch):
                return 0.0, np.array([np.inf, 0.0])

        with pytest.raises(NumericOverflowError, match="^non-finite gradient on inf-grad$"):
            InfGrad().loss_and_grad(np.zeros(2))
        with pytest.raises(NumericOverflowError, match="^non-finite gradient on inf-grad$"):
            InfGrad().grad(np.zeros(2))

    def test_validates_inputs(self):
        with pytest.raises(ContractViolationError):
            quadratic([1.0, 2.0]).loss_and_grad(np.zeros(3))
        with pytest.raises(ContractViolationError):
            logreg(3, 10).loss_and_grad(np.zeros(3), Batch(indices=np.array([10])))


class TestGradChecks:
    @pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.meta.name)
    def test_directional_derivative(self, problem):
        rng = np.random.default_rng(20)
        h = 1e-5
        for _ in range(20):
            theta = problem.initial_point(2) + 0.3 * rng.standard_normal(problem.dim)
            u = rng.standard_normal(problem.dim)
            g = problem.grad(theta)
            fd = (problem.loss(theta + h * u) - problem.loss(theta - h * u)) / (2 * h)
            assert abs(float(g @ u) - fd) <= 1e-5 * (1.0 + abs(fd))

    @pytest.mark.parametrize("problem", all_problems(), ids=lambda p: p.meta.name)
    def test_fd_hvp_agreement(self, problem):
        rng = np.random.default_rng(21)
        for _ in range(5):
            theta = problem.initial_point(2) + 0.3 * rng.standard_normal(problem.dim)
            v = rng.standard_normal(problem.dim)
            an = problem.hvp(theta, v)
            fd = fd_hvp(problem, theta, v, eps=1e-4)
            assert np.linalg.norm(fd - an) <= 1e-4 * (1.0 + np.linalg.norm(an))


class TestFdHvp:
    def test_quadratic_fd_is_exact(self):
        p = quadratic([5.0, 2.0], seed=1)
        theta = np.array([0.3, -0.7])
        v = np.array([1.0, 2.0])
        np.testing.assert_allclose(fd_hvp(p, theta, v, eps=1e-3), p.hvp(theta, v),
                                   rtol=1e-9)

    def test_zero_direction(self):
        p = quadratic([5.0, 2.0], seed=1)
        np.testing.assert_array_equal(fd_hvp(p, np.ones(2), np.zeros(2)), np.zeros(2))

    def test_degenerate_step(self):
        p = quadratic([5.0, 2.0], seed=1)
        with pytest.raises(DegenerateStepError):
            fd_hvp(p, np.ones(2), np.ones(2), eps=1e-300)

    def test_bad_eps(self):
        p = quadratic([5.0, 2.0], seed=1)
        with pytest.raises(ContractViolationError):
            fd_hvp(p, np.ones(2), np.ones(2), eps=0.0)


class TestBatches:
    def test_minibatch_changes_loss(self):
        p = logreg(6, 40, seed=3)
        theta = p.initial_point(0)
        full = p.loss(theta)
        sub = p.loss(theta, Batch(indices=np.arange(10)))
        assert full != sub

    def test_out_of_range_indices(self):
        p = logreg(6, 40, seed=3)
        with pytest.raises(ContractViolationError):
            p.loss(p.initial_point(0), Batch(indices=np.array([40])))

    def test_index_range_reduced_once_and_frozen(self):
        schedule = build_schedule(40, 10, 8, seed=0)[0]
        assert all("span" not in b.__dict__ for b in schedule)  # a schedule pays nothing
        p, b = logreg(6, 40, seed=3), schedule[0]
        p.loss(p.initial_point(0), b)
        assert b.__dict__["span"] == (b.indices.min(), b.indices.max())
        # the indices are the batch's own copy and read-only, so the range cannot go stale
        idx = np.array([0, 5])
        b = Batch(indices=idx)
        idx[1] = 40
        assert b.span == (0, 5)
        with pytest.raises(ValueError):
            b.indices[1] = 40

    def test_deterministic_problem_rejects_batches(self):
        p = quadratic([2.0, 1.0], seed=0)
        with pytest.raises(ContractViolationError):
            p.loss(np.zeros(2), Batch(indices=np.array([0])))

    def test_batch_determinism(self):
        p = mlp_synthetic([4, 5, 2], seed=9, n_samples=30)
        theta = p.initial_point(1)
        b = Batch(indices=np.arange(7))
        g1 = p.grad(theta, b)
        g2 = p.grad(theta, b)
        assert g1.tobytes() == g2.tobytes()


class TestThreadSafety:
    def test_concurrent_evaluation_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        p = mlp_synthetic([4, 6, 2], seed=3, n_samples=40)
        thetas = [p.initial_point(s) for s in range(8)]
        serial = [p.grad(t).tobytes() for t in thetas]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [g.tobytes() for g in pool.map(p.grad, thetas)]
        assert serial == threaded


class TestRowSum:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_np_sum(self, data):
        c = data.draw(st.integers(2, 12), label="axis length")
        shape = (data.draw(st.integers(1, 601), label="rows"), c)
        if data.draw(st.booleans(), label="3-d"):
            shape = (data.draw(st.integers(1, 5), label="stack"), *shape)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        with np.errstate(over="ignore", invalid="ignore"):
            # signed zeros (a row of -0.0 sums to +0.0), tiny and huge terms,
            # infinities and the NaN of inf - inf mixed in
            a = rng.standard_normal(shape) * rng.choice(
                [0.0, -0.0, 1e-300, 1.0, 1e300, 1.7e308], size=shape)
            assert _row_sum(a).tobytes() == np.sum(a, axis=-1).tobytes()


def mlp_outputs(p, theta, batch, v):
    """The bytes of loss_and_grad and of an hvp_closure block at (theta, batch)."""
    loss, g = p.loss_and_grad(theta, batch)
    return [np.float64(loss).tobytes(), g.tobytes(), p.hvp_closure(theta, batch)(v).tobytes()]


class TestMlpMemo:
    """A batch call after a full-set pass at the same theta takes that pass's
    rows; it must give the bytes of an instance that has made no full pass.
    So each expected value comes from a new instance, before any full-set call."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_batch_after_full_pass_equals_fresh(self, data):
        if data.draw(st.booleans(), label="shipped"):
            args = json.loads(MLP_CONFIG.read_text())["problem"]
            del args["name"]
        else:
            # inner dimensions of 32 and more, and one hidden unit, are
            # drawn too: there rows are not reused
            c = data.draw(st.integers(2, 12), label="n_classes")
            args = {"widths": [data.draw(st.sampled_from([1, 2, 5, 10, 31, 32, 40])),
                               data.draw(st.sampled_from([1, 2, 6, 16, 31, 32, 33])), c],
                    "seed": data.draw(st.integers(0, 3)),
                    "n_samples": data.draw(st.integers(c, 80), label="n_samples")}
        p = mlp_synthetic(**args)
        n = p.num_samples
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        theta = data.draw(st.sampled_from([1e-3, 1.0, 30.0]), label="scale") * \
            p.initial_point(data.draw(st.integers(0, 3)))
        size = data.draw(st.sampled_from([1, 2, n // 10 + 1, n - 1, n]), label="batch size")
        batch = Batch(indices=rng.permutation(n)[:size])
        v = rng.standard_normal((p.dim, data.draw(st.integers(1, 3), label="block")))

        assert p.loss(theta) == mlp_synthetic(**args).loss(theta)
        assert mlp_outputs(p, theta, batch, v) == mlp_outputs(mlp_synthetic(**args), theta,
                                                              batch, v)
        # and a second full-set call, which takes the whole pass
        assert mlp_outputs(p, theta, FULL_BATCH, v) == \
            mlp_outputs(mlp_synthetic(**args), theta, FULL_BATCH, v)

    def test_shipped_schedule_batches(self):
        args = json.loads(MLP_CONFIG.read_text())["problem"]
        del args["name"]
        p, fresh = mlp_synthetic(**args), mlp_synthetic(**args)
        schedule = build_schedule(p.num_samples, 60, 50, seed=1)[0]
        v = np.random.default_rng(0).standard_normal((p.dim, 2))
        for s in range(5):
            theta = p.initial_point(s)
            for batch in schedule:
                p.loss(theta)
                assert mlp_outputs(p, theta, batch, v) == mlp_outputs(fresh, theta, batch, v)

    @pytest.mark.parametrize("widths", [[10, 1, 3], [32, 16, 3], [10, 32, 3], [10, 16, 3]],
                             ids=["one-hidden-unit", "n-in-32", "n-hidden-32", "shipped"])
    def test_edges_of_the_reuse_rule(self, widths):
        # one row or one hidden unit (gemv), or an inner dimension of 32 (row
        # tiles), is where OpenBLAS rounds a row by the row count
        def fresh():
            return mlp_synthetic(widths, seed=1, n_samples=120)

        p = fresh()
        rng = np.random.default_rng(0)
        v = rng.standard_normal((p.dim, 2))
        for s in range(3):
            theta = p.initial_point(s)
            for size in (1, 2, 5, 9, 17, 33, 59):
                batch = Batch(indices=rng.permutation(120)[:size])
                p.loss(theta)
                assert mlp_outputs(p, theta, batch, v) == mlp_outputs(fresh(), theta, batch, v)

    def test_theta_changed_in_place_recomputes(self):
        def fresh():
            return mlp_synthetic([10, 16, 3], seed=3, n_samples=600)

        p = fresh()
        batch = Batch(indices=np.arange(0, 600, 10))
        v = np.ones((p.dim, 1))
        theta = p.initial_point(0)
        p.loss(theta)
        theta[3] += 0.5
        assert mlp_outputs(p, theta, batch, v) == mlp_outputs(fresh(), theta, batch, v)
        p.loss(theta)
        theta[-1] -= 0.25
        assert p.loss(theta) == fresh().loss(theta)
        theta[0] *= 2.0
        assert mlp_outputs(p, theta, batch, v) == mlp_outputs(fresh(), theta, batch, v)

    def test_threads_mixing_full_and_batch_calls_match_serial(self):
        p = mlp_synthetic([10, 16, 3], seed=3, n_samples=600)
        thetas = [p.initial_point(s) for s in range(6)]
        batches = [Batch(indices=np.arange(i, 600, 7)) for i in range(3)]
        v = np.ones((p.dim, 1))

        def call(task):
            problem, (i, j) = task
            if j is None:
                return [np.float64(problem.loss(thetas[i])).tobytes()]
            return mlp_outputs(problem, thetas[i], batches[j], v)

        tasks = [(i, j) for _ in range(3) for i in range(6) for j in (None, 0, None, 1, 2)]
        expected = [call((mlp_synthetic([10, 16, 3], seed=3, n_samples=600), task))
                    for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the kernels too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(call, [(p, task) for task in tasks], timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestConstructionDeterminism:
    def test_same_seed_bit_identical(self):
        a = mlp_synthetic([4, 5, 2], seed=7, n_samples=30)
        b = mlp_synthetic([4, 5, 2], seed=7, n_samples=30)
        theta = a.initial_point(2)
        assert a.loss(theta) == b.loss(theta)
        assert a.grad(theta).tobytes() == b.grad(theta).tobytes()

    def test_different_seed_differs(self):
        a = logreg(6, 40, seed=1)
        b = logreg(6, 40, seed=2)
        assert not np.array_equal(a.x, b.x)


class TestContracts:
    def test_dimension_mismatch(self):
        p = quadratic([2.0, 1.0], seed=0)
        with pytest.raises(ContractViolationError):
            p.loss(np.zeros(3))
        with pytest.raises(ContractViolationError):
            p.hvp(np.zeros(2), np.zeros(3))

    def test_nonfinite_input_direction(self):
        p = quadratic([2.0, 1.0], seed=0)
        with pytest.raises(NumericOverflowError):
            p.hvp(np.zeros(2), np.array([np.inf, 0.0]))

    def test_hvp_block_shape_contract(self):
        p = quadratic([2.0, 1.0], seed=0)
        for bad in (np.zeros(2), np.zeros((3, 2)), np.zeros((2, 2, 1))):
            with pytest.raises(ContractViolationError):
                p.hvp_closure(np.zeros(2))(bad)

    def test_hvp_block_nonfinite_direction(self):
        p = logreg(4, 20, seed=1)
        block = np.ones((4, 3))
        block[2, 1] = np.nan
        with pytest.raises(NumericOverflowError):
            p.hvp_closure(np.zeros(4))(block)

    def test_meta_invariants(self):
        with pytest.raises(ContractViolationError):
            ProblemMeta(dim=2, name="bad", pl_mu=0.5)  # pl_mu without f_star
        with pytest.raises(ContractViolationError):
            ProblemMeta(dim=2, name="bad", smoothness_L=1.0, pl_mu=2.0, f_star=0.0)

    def test_meta_dim_must_be_positive(self):
        with pytest.raises(ContractViolationError, match=r"^dim must be positive, got 0$"):
            ProblemMeta(dim=0, name="bad")

    def test_meta_pl_mu_must_be_positive(self):
        with pytest.raises(ContractViolationError, match=r"^pl_mu must be > 0$"):
            ProblemMeta(dim=2, name="bad", pl_mu=0.0, f_star=0.0)

    def test_logreg_smoothness_bound(self):
        p = logreg(6, 50, seed=4)
        rng = np.random.default_rng(0)
        for _ in range(3):
            h = p.dense_hessian(rng.standard_normal(6))
            assert np.linalg.eigvalsh(h)[-1] <= p.meta.smoothness_L + 1e-10


class TestFromConfig:
    def test_dispatch(self):
        p = from_config({"name": "quadratic", "spectrum": [4.0, 1.0], "seed": 2})
        assert p.dim == 2
        p = from_config({"name": "rosenbrock", "n": 5})
        assert p.dim == 5
        p = from_config({"name": "logreg", "n_features": 3, "n_samples": 20, "seed": 1})
        assert p.num_samples == 20
        p = from_config({"name": "mlp", "widths": [3, 4, 2], "seed": 1,
                         "n_samples": 12})
        assert p.dim == 3 * 4 + 4 + 4 * 2 + 2

    def test_unknown_name(self):
        with pytest.raises(ContractViolationError):
            from_config({"name": "nope"})

    def test_missing_parameter(self):
        with pytest.raises(ContractViolationError):
            from_config({"name": "quadratic"})

    @pytest.mark.parametrize("section, typo", [
        ({"name": "quadratic", "spectrum": [4.0, 1.0], "regg": 3}, "regg"),
        ({"name": "rosenbrock", "n": 3, "seed": 1}, "seed"),
        ({"name": "logreg", "n_features": 3, "n_samples": 20, "regg": 0.5}, "regg"),
        ({"name": "mlp", "widths": [3, 4, 2], "width": 4}, "width"),
    ], ids=["quadratic", "rosenbrock", "logreg", "mlp"])
    def test_unknown_key(self, section, typo):
        with pytest.raises(ContractViolationError, match=f"unknown keys \\['{typo}'\\]"):
            from_config(section)

    def test_every_documented_key_accepted(self):
        from_config({"name": "quadratic", "spectrum": [4.0, 1.0], "seed": 2})
        from_config({"name": "logreg", "n_features": 3, "n_samples": 20, "seed": 1,
                     "reg": 0.1, "class_sep": 1.0})
        from_config({"name": "mlp", "widths": [3, 4, 2], "seed": 1, "n_samples": 12,
                     "class_sep": 1.0, "input_gain": 2.0})
