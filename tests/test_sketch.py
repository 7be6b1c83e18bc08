import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cao import Batch, logreg, mlp_synthetic, quadratic, rosenbrock
from cao.errors import ContractViolationError, NumericOverflowError, OracleUnavailableError
from cao.sketch import (
    ORTHO_TOL,
    RANK_DEFICIENCY_TOL,
    Sketch,
    _orthonormalize,
    _positive_first,
    block_lanczos,
    sketch_residual,
)
from layouts import BLOCK_LAYOUTS, FINITE_SPECIAL, laid_out, with_specials


def counting_closure(h):
    calls = [0]

    def hvp(v):
        calls[0] += v.shape[1]  # one product per column of the block
        return h @ v

    return hvp, calls


def gapped_symmetric(n=100, seed=0, ratio=0.6, top=10):
    """Random symmetric matrix whose top eigenvalues decay geometrically."""
    rng = np.random.default_rng(seed)
    head = 10.0 * ratio ** np.arange(top)
    tail = np.linspace(head[-1] * 0.8, 0.0, n - top)
    spectrum = np.concatenate([head, tail])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = (q * spectrum) @ q.T
    return (h + h.T) / 2.0


@st.composite
def deficient_matrices(draw):
    """Random n x k matrices where some columns are zero or repeat an earlier one."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, k))
    for j in range(k):
        kind = draw(st.sampled_from(["keep", "zero", "repeat"]))
        if kind == "zero":
            m[:, j] = 0.0
        elif kind == "repeat" and j > 0:
            m[:, j] = m[:, draw(st.integers(0, j - 1))]
    return m


class TestQrOrthonormalize:
    """The orthonormalization of the block that enters Rayleigh-Ritz, signed."""

    def test_orthonormal_input_up_to_sign(self):
        q0 = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 3)))[0]
        q = _positive_first(_orthonormalize(q0, None))
        np.testing.assert_allclose(np.abs(q.T @ q0), np.eye(3), atol=1e-12)

    def test_rank_deficiency_repair(self):
        e1 = np.zeros(5)
        e1[0] = 1.0
        m = np.column_stack([e1, e1])
        q = _positive_first(_orthonormalize(m, np.random.default_rng(3)))
        np.testing.assert_allclose(q[:, 0], e1)
        assert abs(q[:, 1] @ e1) < 1e-12
        assert np.linalg.norm(q[:, 1]) == pytest.approx(1.0)

    def test_sign_convention(self):
        m = -np.eye(4)[:, :2]
        q = _positive_first(_orthonormalize(m, None))
        assert q[0, 0] > 0 and q[1, 1] > 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_matrices_orthonormal(self, seed):
        m = np.random.default_rng(seed).standard_normal((50, 3))
        q = _positive_first(_orthonormalize(m, None))
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)
        # span preserved: original columns stay inside span(q)
        resid = m - q @ (q.T @ m)
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(m)

    @settings(max_examples=60, deadline=None)
    @given(deficient_matrices())
    def test_orthonormal_signed_and_repaired(self, m):
        k = m.shape[1]
        q = _positive_first(_orthonormalize(m, np.random.default_rng(0)))
        np.testing.assert_allclose(q.T @ q, np.eye(k), atol=1e-10)
        first = q[(q != 0).argmax(axis=0), np.arange(k)]
        assert np.all(first > 0)
        # zero and repeated columns already lie in the span of earlier ones
        assert np.linalg.norm(m - q @ (q.T @ m)) <= 1e-8 * (1.0 + np.linalg.norm(m))


class TestSketchType:
    def test_empty(self):
        sk = Sketch(np.empty(0), np.empty((7, 0)))
        assert sk.k == 0
        assert not sk.has_negative

    def test_rejects_nonorthonormal_basis(self):
        with pytest.raises(ContractViolationError):
            Sketch(np.array([1.0]), np.full((4, 1), 0.9))

    def test_rejects_unsorted(self):
        basis = np.eye(4)[:, :2]
        with pytest.raises(ContractViolationError):
            Sketch(np.array([1.0, 2.0]), basis)

    @pytest.mark.parametrize("vals, basis, match", [
        ([2.0], [[np.nan], [0.0]], "not orthonormal"),
        ([2.0], [[np.inf], [0.0]], "not orthonormal"),
        ([2.0, 1.0], [[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]], "not orthonormal"),
        ([np.nan], [[1.0], [0.0]], "eigvals must be finite"),
        ([2.0, np.nan], np.eye(3)[:, :2], "eigvals must be finite"),
        ([np.nan, 2.0], np.eye(3)[:, :2], "eigvals must be finite"),
        ([np.inf, 1.0], np.eye(3)[:, :2], "eigvals must be finite"),
        ([1.0, -np.inf], np.eye(3)[:, :2], "eigvals must be finite"),
    ], ids=["nan-basis", "inf-basis", "nan-basis-k2", "nan-eigval", "nan-last-eigval",
            "nan-first-eigval", "inf-eigval", "minus-inf-eigval"])
    def test_rejects_non_finite(self, vals, basis, match):
        with pytest.raises(ContractViolationError, match=match):
            Sketch(np.array(vals), np.array(basis))

    def test_rejects_basis_of_another_rank(self):
        with pytest.raises(ContractViolationError,
                           match=r"^basis shape \(3, 2\) inconsistent with 1 eigenvalues$"):
            Sketch(np.array([1.0]), np.eye(3)[:, :2])

    def test_huge_finite_eigenvalues_build(self):
        # squares that overflow are no reason to refuse
        assert Sketch(np.array([1e300, -1e300]), np.eye(2)).k == 2


def gram_refuses(basis):
    """``Sketch``'s test of a one-column basis on the whole 1 x 1 Gram matrix; NaN refuses."""
    return not np.max(np.abs(basis.T @ basis - np.eye(1))) <= ORTHO_TOL


def assert_gram_verdict(basis):
    if gram_refuses(basis):
        with pytest.raises(ContractViolationError, match="not orthonormal"):
            Sketch(np.array([1.0]), basis)
    else:
        Sketch(np.array([1.0]), basis)


class TestRankOneCheck:
    """At k = 1, ``Sketch`` compares its 1 x 1 Gram matrix with 1, as the general check did."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 120), layout=st.sampled_from(BLOCK_LAYOUTS),
           scale=st.sampled_from([1.0, 1.0 + 0.9 * ORTHO_TOL, 1.0 - 0.9 * ORTHO_TOL,
                                  1.0 + 1.1 * ORTHO_TOL, 0.99, 2.0, 0.0, 1e-200, 1e200,
                                  np.inf, np.nan]),
           share=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1))
    def test_same_verdict_and_value_as_the_gram_matrix(self, n, layout, scale, share, seed):
        rng = np.random.default_rng(seed)
        col = with_specials(rng, (n, 1), share, FINITE_SPECIAL[np.abs(FINITE_SPECIAL) < 1])
        norm = np.linalg.norm(col)
        with np.errstate(all="ignore"):
            assert_gram_verdict(laid_out(col / norm * np.sqrt(scale) if norm else col, layout))

    @pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
    def test_a_column_on_the_tolerance(self, layout):
        # squared norm 1 + ORTHO_TOL within rounding: the Gram product of the column laid
        # out reversed and a dot product of it round to opposite sides of the tolerance
        col = np.array([float.fromhex(x) for x in (
            "0x1.4a8b269e2a5b3p-3", "0x1.0b9c6550b2548p-2", "-0x1.c74379b85007ap-2",
            "-0x1.fcd0e4e1e5237p-3", "-0x1.4f98c4af6f339p-3", "-0x1.c1c268c9bb079p-2",
            "0x1.4e5f213861d64p-1")])[:, None]
        flat = col.ravel()
        assert not gram_refuses(laid_out(col, "reversed")) and abs(flat.dot(flat) - 1) > ORTHO_TOL
        assert_gram_verdict(laid_out(col, layout))


class TestBlockLanczos:
    def test_v0_of_the_wrong_shape_refused(self):
        h, calls = counting_closure(np.eye(3))
        with pytest.raises(ContractViolationError, match=r"^v0 shape \(3, 2\) != \(3, 1\)$"):
            block_lanczos(h, 3, k=1, iters=2, seed=0, v0=np.ones((3, 2)))
        assert calls == [0]

    def test_closure_of_the_wrong_shape_refused(self):
        with pytest.raises(ContractViolationError,
                           match=r"^block closure returned shape \(2, 1\), expected \(3, 1\)$"):
            block_lanczos(lambda v: v[:2], 3, k=1, iters=2, seed=0)

    def test_dominant_eigenpair(self):
        h = np.diag([5.0, 2.0, 1.0])
        sk = block_lanczos(lambda v: h @ v, 3, k=1, iters=30, seed=0)
        assert sk.eigvals[0] == pytest.approx(5.0, rel=1e-6)
        assert abs(sk.basis[0, 0]) >= 0.999

    def test_degenerate_spectrum(self):
        h = np.eye(10)
        sk = block_lanczos(lambda v: h @ v, 10, k=3, iters=10, seed=1)
        np.testing.assert_allclose(sk.eigvals, np.ones(3), rtol=1e-10)

    def test_negative_dominant_value_ordering(self):
        h = np.diag([-4.0, 1.0, 0.5])
        # k=1 converges to the magnitude-dominant pair, which is negative
        sk = block_lanczos(lambda v: h @ v, 3, k=1, iters=50, seed=2)
        assert sk.eigvals[0] == pytest.approx(-4.0, rel=1e-6)
        assert sk.has_negative
        # with k=2 the signed ordering puts the negative value last
        sk = block_lanczos(lambda v: h @ v, 3, k=2, iters=50, seed=2)
        np.testing.assert_allclose(sk.eigvals, [1.0, -4.0], rtol=1e-6)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_ritz_accuracy_on_gapped_matrices(self, k):
        h = gapped_symmetric(seed=4)
        dense_vals, dense_vecs = np.linalg.eigh(h)
        dense_vals, dense_vecs = dense_vals[::-1], dense_vecs[:, ::-1]
        sk = block_lanczos(lambda v: h @ v, 100, k=k, iters=30, seed=7)
        rel = np.abs(sk.eigvals - dense_vals[:k]) / np.abs(dense_vals[:k])
        assert np.max(rel) <= 1e-6
        for i in range(k):
            assert abs(sk.basis[:, i] @ dense_vecs[:, i]) >= 0.999

    def test_monotone_refinement(self):
        h = gapped_symmetric(seed=9, ratio=0.8)
        prev = np.inf
        for iters in (1, 5, 10, 30):
            sk = block_lanczos(lambda v: h @ v, 100,
                               k=1, iters=iters, seed=11)
            resid = np.linalg.norm(h @ sk.basis[:, 0] - sk.eigvals[0] * sk.basis[:, 0])
            assert resid <= prev * (1 + 1e-9) + 1e-15
            prev = resid

    def test_rotation_invariance(self):
        h = gapped_symmetric(n=40, seed=12, top=6)
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        v0 = rng.standard_normal((40, 3))
        cfg = dict(k=3, iters=30, seed=0)
        plain = block_lanczos(lambda v: h @ v, 40, v0=v0, **cfg)
        rotated = block_lanczos(lambda v: q @ (h @ (q.T @ v)), 40, v0=q @ v0, **cfg)
        np.testing.assert_allclose(plain.eigvals, rotated.eigvals, atol=1e-8)

    def test_hvp_budget(self):
        h = np.diag(np.linspace(1.0, 6.0, 20))
        for k, iters in [(1, 5), (3, 10), (5, 7)]:
            hvp, calls = counting_closure(h)
            block_lanczos(hvp, 20, k=k, iters=iters, seed=3)
            assert calls[0] == (iters + 1) * k

    def test_nonfinite_product_aborts(self):
        def bad(v):
            return np.full_like(v, np.nan)

        with pytest.raises(NumericOverflowError):
            block_lanczos(bad, 5, k=1, iters=3, seed=0)

    def test_nonfinite_second_block_aborts(self):
        h = np.diag([3.0, 2.0, 1.0])
        calls = [0]

        def flaky(v):
            calls[0] += 1
            return np.full_like(v, np.nan) if calls[0] == 2 else h @ v

        with pytest.raises(NumericOverflowError):
            block_lanczos(flaky, 3, k=2, iters=3, seed=0)
        assert calls[0] == 2

    def test_determinism(self):
        h = gapped_symmetric(n=30, seed=14, top=5)
        cfg = dict(k=2, iters=10, seed=21)
        a = block_lanczos(lambda v: h @ v, 30, **cfg)
        b = block_lanczos(lambda v: h @ v, 30, **cfg)
        assert a.eigvals.tobytes() == b.eigvals.tobytes()
        assert a.basis.tobytes() == b.basis.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([-4.0, -1.0, 0.0, 1.0, 2.5]), min_size=2, max_size=9),
           st.data())
    def test_diagonal_repeated_and_negative_spectra(self, diag, data):
        n = len(diag)
        k = data.draw(st.integers(1, n), label="k")
        h = np.diag(diag)
        sk = block_lanczos(lambda v: h @ v, n, k=k, iters=8, seed=5)
        assert np.all(np.diff(sk.eigvals) <= 0)
        np.testing.assert_allclose(sk.basis.T @ sk.basis, np.eye(k), atol=1e-10)
        # Rayleigh-Ritz: the basis diagonalizes the operator it spans
        np.testing.assert_allclose(sk.basis.T @ h @ sk.basis, np.diag(sk.eigvals),
                                   atol=1e-9)
        if k == n:
            np.testing.assert_allclose(sk.eigvals, np.sort(diag)[::-1], atol=1e-9)

    def test_k_bounds(self):
        h = np.eye(3)
        hvp, calls = counting_closure(h)
        sk = block_lanczos(hvp, 3, k=0, iters=5, seed=0)  # k = 0: the empty sketch
        assert sk.k == 0 and sk.basis.shape == (3, 0) and calls == [0]
        with pytest.raises(ContractViolationError, match=r"^k = 4 exceeds dimension n = 3$"):
            block_lanczos(lambda v: h @ v, 3, k=4, iters=5, seed=0)

    @pytest.mark.parametrize("knobs, key", [
        ({"k": 1.5}, "k"), ({"k": True}, "k"), ({"k": -1}, "k"),
        ({"k": 1, "iters": 2.5}, "iters"), ({"k": 1, "iters": True}, "iters"),
        ({"k": 1, "iters": 0}, "iters"), ({"k": 1, "seed": -1}, "seed"),
    ], ids=["k-float", "k-as-bool", "k-negative", "iters-float", "iters-as-bool",
            "iters-zero", "seed-negative"])
    def test_config_rejects_bad_knob(self, knobs, key):
        def hvp(v):
            raise AssertionError("a bad knob reached the closure")

        with pytest.raises(ContractViolationError,
                           match=f"^sketch 'lanczos': {key} must be an integer"):
            block_lanczos(hvp, 3, **knobs)

    def test_full_rank_recovers_spectrum(self):
        h = gapped_symmetric(n=12, seed=15, top=4)
        sk = block_lanczos(lambda v: h @ v, 12, k=12, iters=5, seed=1)
        np.testing.assert_allclose(sk.eigvals, np.sort(np.linalg.eigvalsh(h))[::-1],
                                   atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_products_at_k1(self, caplog):
        # a squared norm of about 1e400 overflows; the column is normalized by QR
        p = quadratic([1e200, 1.0], seed=0)
        with caplog.at_level("WARNING", logger="cao.sketch"):
            sk = block_lanczos(p.hvp_closure(np.zeros(2)), 2, k=1, seed=3)
            # the start block itself: its squared norm overflows
            start = block_lanczos(lambda v: v, 2, k=1, iters=1,
                                  v0=np.array([[3e200], [4e200]]))
        assert caplog.records == []
        assert abs(sk.eigvals[0] - 1e200) <= 1e-12 * 1e200
        np.testing.assert_allclose(start.basis[:, 0], [0.6, 0.8], rtol=1e-15)


def signed(q):
    first = q[(q != 0).argmax(axis=0), np.arange(q.shape[1])]
    return q * np.copysign(1.0, first)


def signed_qr(m, rng):
    """Reference orthonormalization: a one-column norm or Householder QR, signed."""

    def factor(m):
        if m.shape[1] == 1:
            norm = np.linalg.norm(m)
            return m / max(norm, RANK_DEFICIENCY_TOL), np.full((1, 1), norm)
        return np.linalg.qr(m)

    q, r = factor(m)
    while abs(r.diagonal()).min(initial=np.inf) < RANK_DEFICIENCY_TOL:
        j = int(np.argmax(abs(r.diagonal()) < RANK_DEFICIENCY_TOL))
        m = m.copy()
        m[:, j] = rng.standard_normal(m.shape[0])
        q, r = factor(m)
    return signed(q)


def signed_every_iterate(hvp, n, k, iters, seed, v0=None):
    """Reference subspace iteration that fixes the signs of every iterate."""
    rng = np.random.default_rng(seed)
    v = signed_qr(rng.standard_normal((n, k)) if v0 is None else v0, rng)
    for _ in range(iters):
        v = signed_qr(hvp(v), rng)
    projected = v.T @ hvp(v)
    vals, small_vecs = np.linalg.eigh((projected + projected.T) / 2.0)
    return vals[::-1], signed(v @ small_vecs[:, ::-1])


SIGN_CASES = {
    "quadratic": (quadratic([9.0, 5.0, 3.0, 2.0, 1.5] + [1.0] * 15, seed=3), Batch()),
    # numerically rank 2, so the iterates of k > 2 lose rank and are repaired mid-build
    "quadratic-rank-2": (quadratic([4.0, 1.0] + [1e-20] * 10, seed=5), Batch()),
    "rosenbrock": (rosenbrock(10), Batch()),
    "logreg-full": (logreg(12, 80, seed=2), Batch()),
    "logreg-minibatch": (logreg(12, 80, seed=2),
                         Batch(indices=np.random.default_rng(4).permutation(80)[:24])),
    "mlp": (mlp_synthetic([6, 8, 3], seed=1, n_samples=60),
            Batch(indices=np.arange(0, 60, 2))),
}


@pytest.mark.parametrize("case", list(SIGN_CASES))
def test_rank_zero_on_every_problem(case):
    """Every closure maps an n x 0 block to n x 0; a k = 0 build sends 0 columns."""
    problem, batch = SIGN_CASES[case]
    hvp = problem.hvp_closure(problem.initial_point(0), batch)
    assert hvp(np.empty((problem.dim, 0))).shape == (problem.dim, 0)
    widths = []

    def counted(v):
        widths.append(v.shape[1])
        return hvp(v)

    sketch = block_lanczos(counted, problem.dim, k=0, iters=4, seed=1)
    assert widths == [0] * 5
    assert sketch.k == 0 and sketch.eigvals.shape == (0,)
    assert sketch.basis.shape == (problem.dim, 0)


class TestSignsFixedOncePerBuild:
    """``block_lanczos`` equals, bit for bit, the loop that signs every iterate."""

    @staticmethod
    def assert_same(sketch, want):
        vals, basis = want
        assert sketch.basis.shape == basis.shape
        assert sketch.eigvals.tobytes() == vals.tobytes()
        assert sketch.basis.tobytes() == basis.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("case", list(SIGN_CASES))
    def test_problems(self, case, k):
        problem, batch = SIGN_CASES[case]
        for seed in range(3):
            hvp = problem.hvp_closure(problem.initial_point(seed), batch)
            for iters in (1, 3, 10):
                cfg = dict(k=k, iters=iters, seed=seed)
                self.assert_same(block_lanczos(hvp, problem.dim, **cfg),
                                 signed_every_iterate(hvp, problem.dim, **cfg))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_rank_deficient_start(self, k):
        problem = SIGN_CASES["quadratic"][0]
        hvp = problem.hvp_closure(problem.initial_point(0))
        v0 = np.random.default_rng(k).standard_normal((problem.dim, k))
        v0[:, 0] = 0.0  # a zero column, and for k > 2 a repeated one
        v0[:, -1] = -v0[:, k // 2]
        for seed in range(3):
            cfg = dict(k=k, iters=4, seed=seed)
            self.assert_same(block_lanczos(hvp, problem.dim, v0=v0, **cfg),
                             signed_every_iterate(hvp, problem.dim, v0=v0, **cfg))


def eigh_rayleigh_ritz(hvp, n, k, iters, seed):
    """The build as it was with LAPACK's ``eigh`` at every k, the order-1 case included."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        v = _orthonormalize(rng.standard_normal((n, k)), rng)
        for _ in range(iters - 1):
            v = _orthonormalize(hvp(v), rng)
        v = _positive_first(_orthonormalize(hvp(v), rng))
    projected = v.T @ hvp(v)
    projected = (projected + projected.T) / 2.0
    vals, small_vecs = np.linalg.eigh(projected)
    return vals[::-1], _positive_first(v @ small_vecs[:, ::-1])


class TestOrderOneRayleighRitz:
    """At k = 1 the build skips ``eigh`` and keeps every bit of the ``eigh`` build."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_random_symmetric(self, n):
        for seed in range(3):
            a = np.random.default_rng([n, seed]).standard_normal((n, n))
            h = (a + a.T) / 2.0
            for iters in (1, 2, 5):
                cfg = dict(k=1, iters=iters, seed=seed)
                hvp = lambda v: h @ v  # noqa: E731
                TestSignsFixedOncePerBuild.assert_same(block_lanczos(hvp, n, **cfg),
                                                       eigh_rayleigh_ritz(hvp, n, **cfg))

    @pytest.mark.parametrize("entry", [-0.0, 0.0, -3.5, 5e-324, 1e300, -1e300])
    def test_one_by_one(self, entry):
        for seed in range(3):
            cfg = dict(k=1, iters=3, seed=seed)
            hvp = lambda v: entry * v  # noqa: E731
            sketch = block_lanczos(hvp, 1, **cfg)
            TestSignsFixedOncePerBuild.assert_same(sketch, eigh_rayleigh_ritz(hvp, 1, **cfg))
            assert sketch.basis.tolist() == [[1.0]]

    def test_zero_entries_of_either_sign(self):
        # a diagonal closure keeps exact zeros, which the signed block holds as
        # -0.0 where their column was flipped; the eigh build's product makes them +0.0
        d = np.array([3.0, 0.0, -2.0, 0.0, 1.0, 0.0])
        hvp = lambda v: d[:, None] * v  # noqa: E731
        for seed in range(8):
            cfg = dict(k=1, iters=2, seed=seed)
            TestSignsFixedOncePerBuild.assert_same(block_lanczos(hvp, d.size, **cfg),
                                                   eigh_rayleigh_ritz(hvp, d.size, **cfg))

    def test_no_lapack_eigensolver_at_k1(self, monkeypatch):
        def refused(a):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        h = gapped_symmetric(n=12)
        block_lanczos(lambda v: h @ v, 12, k=1, iters=3)
        with pytest.raises(AssertionError, match="eigh called"):
            block_lanczos(lambda v: h @ v, 12, k=2, iters=3)


class TestSketchResidual:
    def test_exact_top1_leaves_second(self):
        h = np.diag([5.0, 2.0, 1.0])
        basis = np.eye(3)[:, :1]
        sk = Sketch(np.array([5.0]), basis)
        assert sketch_residual(sk, h) == pytest.approx(2.0, abs=1e-12)

    def test_full_rank_leaves_nothing(self):
        h = np.diag([5.0, 2.0, 1.0])
        sk = Sketch(np.array([5.0, 2.0, 1.0]), np.eye(3))
        assert sketch_residual(sk, h) == pytest.approx(0.0, abs=1e-12)

    def test_non_square_refused(self):
        with pytest.raises(OracleUnavailableError,
                           match=r"^sketch_residual needs the square dense Hessian$"):
            sketch_residual(Sketch(np.empty(0), np.empty((3, 0))), np.ones((3, 2)))

    def test_empty_sketch_gives_spectral_norm(self):
        h = np.diag([5.0, 2.0, -6.0])
        assert sketch_residual(Sketch(np.empty(0), np.empty((3, 0))), h) == pytest.approx(6.0)


class TestProjectionProducts:
    """The build on a closure whose products come laid out any way: at k = 1 with every
    bit of the ``eigh`` build, at any k within rounding of the contiguous products'."""

    @staticmethod
    def assert_close(sketch, want):
        np.testing.assert_allclose(sketch.eigvals, want.eigvals, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sketch.basis, want.basis, rtol=1e-9, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 60), iters=st.integers(1, 3), layout=st.sampled_from(BLOCK_LAYOUTS),
           share=st.sampled_from([0.0, 0.2]), seed=st.integers(0, 2**32 - 1))
    def test_any_product_layout(self, n, iters, layout, share, seed):
        a = with_specials(np.random.default_rng(seed), (n, n), share,
                          FINITE_SPECIAL[np.abs(FINITE_SPECIAL) < 1])
        h = (a + a.T) / 2.0
        hvp = lambda v: laid_out(h @ v, layout)  # noqa: E731
        cfg = dict(k=1, iters=iters, seed=seed % 1000)
        TestSignsFixedOncePerBuild.assert_same(block_lanczos(hvp, n, **cfg),
                                               eigh_rayleigh_ritz(hvp, n, **cfg))

    @pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_closure_output_laid_out_any_way(self, layout, k):
        for n in (12, 30, 97):
            h = gapped_symmetric(n=n, seed=k)
            hvp = lambda v: laid_out(h @ v, layout)  # noqa: E731
            for seed in range(3):
                cfg = dict(k=k, iters=3, seed=seed)
                sketch = block_lanczos(hvp, n, **cfg)
                self.assert_close(sketch, block_lanczos(lambda v: h @ v, n, **cfg))
                if k == 1:
                    TestSignsFixedOncePerBuild.assert_same(sketch,
                                                           eigh_rayleigh_ritz(hvp, n, **cfg))
