import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cao.errors import all_finite

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
