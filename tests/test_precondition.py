import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cao.errors import ContractViolationError, NumericOverflowError
from cao.precondition import (
    FLOOR,
    DampedPreconditioner,
    precondition,
    quadratic_form,
)
from cao.sketch import Sketch, qr_orthonormalize


def random_case(seed, n_max=200, k_max=8, allow_negative=True, dense_comparable=False):
    """Random (preconditioner, gradient) pair plus its dense clamped operator.

    ``dense_comparable`` keeps every denominator at least 1e-2 so an LU solve
    of the dense system stays far below the 1e-10 comparison tolerance; a
    floored denominator (``FLOOR``) makes the system condition ~1e9 and no
    dense solve can certify that regime. Negative eigenvalues still occur.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(0, min(k_max, n) + 1))
    eta = float(rng.uniform(0.05, 2.0))
    if k:
        basis = qr_orthonormalize(rng.standard_normal((n, k)), rng)
        if not allow_negative:
            lo = 0.0
        elif dense_comparable:
            lo = -eta + 1e-2
        else:
            lo = -2.0 * eta
        vals = np.sort(rng.uniform(lo, 10.0, size=k))[::-1]
        sk = Sketch(vals, basis)
    else:
        sk = Sketch.empty(n)
    pc = DampedPreconditioner(sk, eta)
    g = rng.standard_normal(n)
    # dense route: eigenvalues clamped so lam + eta >= FLOOR
    if k:
        clamped = np.maximum(sk.eigvals, FLOOR - eta)
        b = (sk.basis * clamped) @ sk.basis.T
    else:
        b = np.zeros((n, n))
    dense = b + eta * np.eye(n)
    return pc, g, dense


class TestClosedFormExamples:
    def test_k0_identity_scaling(self):
        pc = DampedPreconditioner(Sketch.empty(3), eta=1.0)
        g = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(precondition(g, pc), g)
        assert quadratic_form(g, pc) == pytest.approx(float(g @ g))

    def test_rank_one_example(self):
        basis = np.eye(2)[:, :1]
        pc = DampedPreconditioner(Sketch(np.array([3.0]), basis), eta=1.0)
        g = np.array([2.0, 4.0])
        np.testing.assert_allclose(precondition(g, pc), [0.5, 4.0])
        # 4/4 + 16/1
        assert quadratic_form(g, pc) == pytest.approx(17.0)

    def test_clamped_negative_curvature(self):
        basis = np.eye(2)[:, :1]
        sk = Sketch(np.array([-0.5]), basis)
        pc = DampedPreconditioner(sk, eta=0.2)
        assert pc.clamped
        g = basis[:, 0].copy()
        d = precondition(g, pc)
        np.testing.assert_allclose(d, g / FLOOR)

    def test_perpendicular_gradient(self):
        basis = np.eye(3)[:, :1]
        pc = DampedPreconditioner(Sketch(np.array([3.0]), basis), eta=0.5)
        g = np.array([0.0, 1.0, 2.0])
        assert quadratic_form(g, pc) == pytest.approx(float(g @ g) / 0.5)


def dense_map(pc):
    """The preconditioner as a dense matrix, one column per unit vector."""
    n = pc.sketch.basis.shape[0]
    return np.column_stack([precondition(e, pc) for e in np.eye(n)])


class TestOperatorNormBound:
    def test_nonnegative_eigenvalues(self):
        basis = np.eye(3)[:, :2]
        pc = DampedPreconditioner(Sketch(np.array([5.0, 0.0]), basis), eta=0.1)
        assert np.linalg.norm(dense_map(pc), 2) == pytest.approx(10.0)

    def test_empty(self):
        pc = DampedPreconditioner(Sketch.empty(4), eta=0.25)
        assert np.linalg.norm(dense_map(pc), 2) == pytest.approx(4.0)

    def test_negative_eigenvalue(self):
        basis = np.eye(2)[:, :1]
        pc = DampedPreconditioner(Sketch(np.array([-0.05]), basis), eta=0.1)
        assert np.linalg.norm(dense_map(pc), 2) == pytest.approx(20.0)


class TestOracleEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_dense_clamped_solve(self, seed):
        pc, g, dense = random_case(seed, dense_comparable=True)
        d = precondition(g, pc)
        d_oracle = np.linalg.solve(dense, g)
        assert np.linalg.norm(d - d_oracle) <= 1e-10 * max(1.0, np.linalg.norm(d_oracle))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_quadratic_form_positive(self, seed):
        pc, g, _ = random_case(seed)
        if not np.any(g):
            g[0] = 1.0
        assert quadratic_form(g, pc) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lemma_bound_nonnegative_case(self, seed):
        pc, g, _ = random_case(seed, allow_negative=False)
        d = precondition(g, pc)
        assert np.linalg.norm(d) <= np.linalg.norm(g) / pc.eta * (1 + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_norm_bound_all_cases(self, seed):
        pc, g, _ = random_case(seed)
        d = precondition(g, pc)
        bound = max(1.0 / pc.eta, 1.0 / float(np.min(pc.denominators, initial=np.inf)))
        assert np.linalg.norm(d) <= bound * np.linalg.norm(g) * (1 + 1e-12)


class TestStructure:
    def test_symmetry(self):
        rng = np.random.default_rng(5)
        pc, _, _ = random_case(17)
        n = pc.sketch.basis.shape[0]
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        upv = float(u @ precondition(v, pc))
        vpu = float(v @ precondition(u, pc))
        assert abs(upv - vpu) <= 1e-12 * (1 + abs(upv))

    def test_eigen_action(self):
        rng = np.random.default_rng(6)
        basis = qr_orthonormalize(rng.standard_normal((10, 3)), rng)
        vals = np.array([4.0, 2.0, 0.5])
        pc = DampedPreconditioner(Sketch(vals, basis), eta=0.3)
        for i in range(3):
            out = precondition(basis[:, i], pc)
            np.testing.assert_allclose(out, basis[:, i] / (vals[i] + 0.3), atol=1e-10)
        w = rng.standard_normal(10)
        w -= basis @ (basis.T @ w)
        np.testing.assert_allclose(precondition(w, pc), w / 0.3, atol=1e-10)

    def test_min_eigenvalue(self):
        basis = np.eye(3)[:, :1]
        pc = DampedPreconditioner(Sketch(np.array([4.0]), basis), eta=1.0)
        assert np.linalg.eigvalsh(dense_map(pc))[0] == pytest.approx(1.0 / 5.0)
        pc = DampedPreconditioner(Sketch.empty(3), eta=0.5)
        assert np.linalg.eigvalsh(dense_map(pc))[0] == pytest.approx(2.0)


class TestValidation:
    def test_eta_must_be_positive(self):
        for eta in (0.0, np.inf, np.nan):
            with pytest.raises(ContractViolationError):
                DampedPreconditioner(Sketch.empty(2), eta=eta)

    @pytest.mark.parametrize("k", [0, 1])
    def test_wrong_gradient_shape(self, k):
        sk = Sketch(np.array([2.0]), np.eye(3)[:, :1]) if k else Sketch.empty(3)
        pc = DampedPreconditioner(sk, eta=1.0)
        for bad in (np.ones(2), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ContractViolationError, match="gradient shape"):
                precondition(bad, pc)
            with pytest.raises(ContractViolationError, match="gradient shape"):
                quadratic_form(bad, pc)

    def test_nonfinite_gradient(self):
        pc = DampedPreconditioner(Sketch.empty(2), eta=1.0)
        with pytest.raises(NumericOverflowError):
            precondition(np.array([np.nan, 0.0]), pc)
