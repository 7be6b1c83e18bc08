import pickle

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
from cao.sketch import Sketch, _orthonormalize, _positive_first
from layouts import BLOCK_LAYOUTS, FINITE_SPECIAL, VECTOR_LAYOUTS, bits, laid_out, with_specials


def empty_sketch(n):
    return Sketch(np.empty(0), np.empty((n, 0)))


def orthonormal(m, rng):
    """The signed orthonormal basis a sketch build makes of the block ``m``."""
    return _positive_first(_orthonormalize(m, rng))


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
        basis = orthonormal(rng.standard_normal((n, k)), rng)
        if not allow_negative:
            lo = 0.0
        elif dense_comparable:
            lo = -eta + 1e-2
        else:
            lo = -2.0 * eta
        vals = np.sort(rng.uniform(lo, 10.0, size=k))[::-1]
        sk = Sketch(vals, basis)
    else:
        sk = empty_sketch(n)
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
        pc = DampedPreconditioner(empty_sketch(3), eta=1.0)
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
        pc = DampedPreconditioner(empty_sketch(4), eta=0.25)
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
        basis = orthonormal(rng.standard_normal((10, 3)), rng)
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
        pc = DampedPreconditioner(empty_sketch(3), eta=0.5)
        assert np.linalg.eigvalsh(dense_map(pc))[0] == pytest.approx(2.0)


class TestValidation:
    def test_eta_must_be_positive(self):
        for eta in (0.0, np.inf, np.nan):
            with pytest.raises(ContractViolationError):
                DampedPreconditioner(empty_sketch(2), eta=eta)

    @pytest.mark.parametrize("k", [0, 1])
    def test_wrong_gradient_shape(self, k):
        sk = Sketch(np.array([2.0]), np.eye(3)[:, :1]) if k else empty_sketch(3)
        pc = DampedPreconditioner(sk, eta=1.0)
        for bad in (np.ones(2), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ContractViolationError, match="gradient shape"):
                precondition(bad, pc)
            with pytest.raises(ContractViolationError, match="gradient shape"):
                quadratic_form(bad, pc)

    def test_nonfinite_gradient(self):
        pc = DampedPreconditioner(empty_sketch(2), eta=1.0)
        with pytest.raises(NumericOverflowError):
            precondition(np.array([np.nan, 0.0]), pc)


def signed_unit_basis(rng, n, k):
    """k distinct signed unit columns: orthonormal, and every other entry a zero of either sign."""
    basis = np.zeros((n, k)) * rng.choice([1.0, -1.0], size=(n, k))
    basis[rng.permutation(n)[:k], np.arange(k)] = rng.choice([1.0, -1.0], size=k)
    return basis


class TestDotProducts:
    """``precondition``'s products with the basis on every layout, against the dense
    inverse and the closed form of a signed unit basis."""

    @pytest.mark.parametrize("basis_layout", BLOCK_LAYOUTS)
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_every_basis_and_gradient_layout(self, basis_layout, k):
        for n in (8, 20, 50, 97):
            rng = np.random.default_rng([n, k])
            basis = laid_out(orthonormal(rng.standard_normal((n, k)), rng), basis_layout)
            vals = np.arange(k, 0, -1.0)
            pc = DampedPreconditioner(Sketch(vals, basis), 0.1)
            dense = (basis * vals) @ basis.T + 0.1 * np.eye(n)
            for layout in VECTOR_LAYOUTS:
                g = laid_out(rng.standard_normal(n), layout)
                np.testing.assert_allclose(precondition(g, pc), np.linalg.solve(dense, g),
                                           rtol=1e-10, atol=1e-10)

    def test_one_row(self):
        # basis [+-1], denominator 2.5: the complement is empty, and a zero comes out +0.0
        for entry in (1.0, -1.0):
            pc = DampedPreconditioner(Sketch(np.array([2.0]), np.array([[entry]])), 0.5)
            for g in (-0.0, 0.0, 5e-324, -3.0):
                assert bits(precondition([g], pc)) == bits([g / 2.5 + 0.0])

    def test_rank_one_on_signed_zeros(self):
        # zeros of either sign in the basis and in g, through the k = 1 products: g_j at
        # the basis's unit entry j is divided by the denominator, every other g_i by eta,
        # and a zero comes out +0.0
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            basis = signed_unit_basis(rng, n, 1)
            pc = DampedPreconditioner(Sketch(np.array([float(rng.uniform(-1, 5))]), basis),
                                      float(rng.uniform(0.05, 2.0)))
            g = with_specials(rng, (n,), 0.7, FINITE_SPECIAL[np.abs(FINITE_SPECIAL) < 1e100])
            want = g / pc.eta
            j = int(np.flatnonzero(basis[:, 0])[0])
            want[j] = g[j] / pc.denominators[0]
            assert bits(precondition(g, pc)) == bits(want + 0.0)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_pickle_round_trip(self, k):
        rng = np.random.default_rng(k)
        basis = orthonormal(rng.standard_normal((20, k)), rng) if k else np.empty((20, 0))
        pc = DampedPreconditioner(Sketch(np.arange(k, 0, -1.0), basis), 0.1)
        copy = pickle.loads(pickle.dumps(pc))
        g = rng.standard_normal(20)
        assert copy.eta == pc.eta and bits(copy.sketch.basis) == bits(pc.sketch.basis)
        assert bits(precondition(g, copy)) == bits(precondition(g, pc))

    def test_rank_one_underflow_keeps_the_sign_of_zero(self):
        # k = 1: -5e-324 * 0.2 underflows to -0.0, which BLAS's sum of one term makes
        # +0.0, and (g - basis @ coef) / eta is -0.0 (-5e-324 / 2 rounds to it): +0.0 in all
        pc = DampedPreconditioner(Sketch(np.array([3.0]), np.array([[1.0], [-5e-324]])), 2.0)
        g = np.array([1.0, -1e-323])
        assert bits(precondition(g, pc)) == bits([0.2, 0.0])
