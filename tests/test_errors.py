import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cao.errors import all_finite, dot_ready, matmul, matmul_by
from layouts import BLOCK_LAYOUTS, VECTOR_LAYOUTS, bits, laid_out, with_specials

SPECIAL = [np.nan, np.inf, -np.inf, 1.7976931348623157e308, -1.7976931348623157e308,
           5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-310, 0.0, -0.0]
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


@st.composite
def arrays(draw):
    """Float arrays of 0 to 2 axes, possibly empty, in C or F order or as a strided view."""
    shape = tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=2)))
    values = draw(st.lists(ENTRIES, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    a = np.array(values, dtype=np.float64).reshape(shape)
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed", "transposed"]))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "strided":
        a = a[::2] if a.ndim == 1 else a[::2, ::3]
    elif layout == "reversed":
        a = a[::-1]
    elif layout == "transposed":
        a = a.T
    return a


@settings(max_examples=150, deadline=None)
@given(arrays())
def test_all_finite_equals_isfinite_all(a):
    want = bool(np.isfinite(a).all())
    assert bool(all_finite(a)) is want
    # the sum of squares overflows or turns NaN silently: no flag is checked
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert bool(all_finite(a)) is want


@pytest.mark.parametrize("a, want", [
    (np.array([1e200, -1e200, 3.0]), True),  # squares overflow: the exact count decides
    (np.array([1.7976931348623157e308] * 4), True),
    (np.array([1e200, np.nan]), False),
    (np.array([np.inf, -np.inf]), False),  # a NaN sum
    (np.array([5e-324, -0.0]), True),
    (np.empty((0, 3)), True),
])
def test_all_finite_past_an_overflowing_sum(a, want):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert bool(all_finite(a)) is want


# the operand shapes of the products that the step and the refresh send through matmul;
# "T" marks a left operand used transposed, as ``basis.T`` and ``v.T`` are
PRODUCTS = {
    "A @ v": lambda n, k: ((n, n), "", (n,)),
    "v @ v": lambda n, k: ((n,), "", (n,)),
    "B.T @ v": lambda n, k: ((n, k), "T", (n,)),
    "B @ c": lambda n, k: ((n, k), "", (k,)),
    "A @ V": lambda n, k: ((n, n), "", (n, k)),
    "B.T @ V": lambda n, k: ((n, k), "T", (n, k)),
    "B.T @ B": lambda n, k: ((n, k), "T", None),
}


class Route(np.ndarray):
    """An array that records which of ``dot`` and ``@`` computed a product with it."""

    taken = []

    def dot(self, other):
        Route.taken.append("dot")
        return np.asarray(self).dot(np.asarray(other))

    def __matmul__(self, other):
        Route.taken.append("@")
        return np.asarray(self) @ np.asarray(other)


def operand(rng, shape, layout, share):
    layouts = VECTOR_LAYOUTS if len(shape) == 1 else BLOCK_LAYOUTS
    return laid_out(with_specials(rng, shape, share), layouts[layout % len(layouts)])


def route(product, a, b):
    """The bits of ``product(a, b)`` and the one route it took, ``dot`` or ``@``."""
    Route.taken = []
    out = product(a.view(Route), b)
    assert len(Route.taken) == 1
    return bits(out), Route.taken[0]


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(PRODUCTS)), n=st.integers(1, 120), k=st.integers(1, 8),
       layouts=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       share=st.sampled_from([0.0, 0.05, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_matmul_gives_the_bits_of_the_operator(name, n, k, layouts, share, seed):
    rng = np.random.default_rng(seed)
    left_shape, transposed, right_shape = PRODUCTS[name](n, k)
    left = operand(rng, left_shape, layouts[0], share)
    a = left.T if transposed else left
    b = left if right_shape is None else operand(rng, right_shape, layouts[1], share)
    with np.errstate(all="ignore"):
        want = bits(a @ b)
        # .dot exactly where the rule allows it, and then .dot has the bits of @
        ready = a.shape[-1] > 1 and dot_ready(a) and dot_ready(b)
        if ready:
            assert bits(a.dot(b)) == want
        for product in (matmul, lambda a, b: matmul_by(a)(b)):
            assert route(product, a, b) == (want, "dot" if ready else "@")


def test_matmul_by_decides_the_fixed_operand_once():
    a = np.random.default_rng(1).standard_normal((5, 5))
    times = matmul_by(a.view(Route))
    Route.taken = []
    for b in (np.ones(5), np.ones(9)[::2], np.ones((5, 2))):
        assert bits(times(b)) == bits(a @ b)
    assert Route.taken == ["dot", "@", "dot"]
    for fixed in (a[:, ::2], a[:, :1], np.ones((1, 1))):  # strided, one column, one element
        Route.taken = []
        times = matmul_by(fixed.view(Route))
        times(np.ones((fixed.shape[1], 3)))
        assert Route.taken == ["@"]


def test_dot_ready_refuses_the_layouts_that_round_otherwise():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 3))
    for basis in (rows[::2], rows[20:][::-1], laid_out(rows[:20], "unaligned")):
        assert not dot_ready(basis)
    g = rng.standard_normal(20)
    assert not dot_ready(g[::-1]) and dot_ready(g) and dot_ready(rows.T)
    assert not dot_ready(np.ones(3)[::2]) and not dot_ready(laid_out(g, "unaligned"))
    assert dot_ready(np.frombuffer(g.tobytes())) and not dot_ready(np.empty((3, 6))[:, ::2])
    # each refused layout does round otherwise on these draws
    assert bits(rows[::2].T @ g) != bits(rows[::2].T.dot(g))
    assert bits(rows[:20].T @ g[::-1]) != bits(rows[:20].T.dot(g[::-1]))
    # a sum of one term: .dot keeps the -0.0 product that BLAS adds to +0.0
    one, zero = np.array([[2.0]]), np.array([-0.0])
    assert bits(one @ zero) == bits([0.0]) and bits(one.dot(zero)) == bits([-0.0])
    # an outer product, whose -5e-324 * 5e-324 underflows to -0.0
    column, row = np.array([[-5e-324], [1.0]]), np.array([[5e-324, 1.0]])
    assert bits(column @ row) == bits([[0.0, -5e-324], [5e-324, 1.0]])
    assert bits(column.dot(row)) == bits([[-0.0, -5e-324], [5e-324, 1.0]])
    # matmul keeps @ on each of them
    for a, b in ((rows[::2].T, g), (rows[:20].T, g[::-1]), (one, zero), (column, row)):
        assert bits(matmul(a, b)) == bits(a @ b) == bits(matmul_by(a)(b))
