import numpy as np
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
    assert bool(all_finite(a)) is bool(np.isfinite(a).all())
