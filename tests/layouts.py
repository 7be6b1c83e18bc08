"""Arrays with chosen entries and memory layouts, for the tests of the small products.

The products take any layout a caller passes, so their tests run on each layout here.
"""

import numpy as np

# signed zeros, subnormals, huge values and non-finite ones; the rest are normal draws
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1.7e308,
                    np.inf, -np.inf, np.nan])
FINITE_SPECIAL = SPECIAL[np.isfinite(SPECIAL)]

VECTOR_LAYOUTS = ["contiguous", "strided", "reversed", "unaligned"]
BLOCK_LAYOUTS = ["C", "F", "row-strided", "column-strided", "reversed", "unaligned"]


def with_specials(rng, shape, share, pool=SPECIAL):
    """Normal draws of ``shape`` with a ``share`` of the entries taken from ``pool``."""
    a = rng.standard_normal(shape)
    mask = rng.random(shape) < share
    a[mask] = rng.choice(pool, size=int(mask.sum()))
    return a


def laid_out(a, layout):
    """A float64 array equal to ``a`` entry for entry, laid out as ``layout`` names."""
    a = np.asarray(a, dtype=np.float64)
    if layout in ("contiguous", "C"):
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout in ("strided", "row-strided"):
        out = np.empty((2 * a.shape[0],) + a.shape[1:])[::2]
    elif layout == "column-strided":
        out = np.empty((a.shape[0], 2 * a.shape[1]))[:, ::2]
    elif layout == "reversed":
        out = np.empty_like(a)[::-1]
    elif layout == "unaligned":
        raw = np.empty(a.nbytes + 8, dtype=np.uint8)
        out = raw[1:1 + a.nbytes].view(np.float64).reshape(a.shape)
        assert a.size == 0 or not out.flags.aligned
    else:
        raise ValueError(layout)
    out[...] = a
    return out


def bits(a) -> bytes:
    """The bytes of ``a`` as float64: equal bytes are equal bits, NaN payloads and zero signs."""
    return np.asarray(a, dtype=np.float64).tobytes()
