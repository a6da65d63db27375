"""The bit-equality gate for fast paths that claim the slow path's every bit.

`np.array_equal(..., equal_nan=True)` cannot see the sign of a zero or of a
NaN, nor a NaN's payload; comparing the bytes sees all of them.
"""
import numpy as np


def assert_same_bits(a, b) -> None:
    """Assert that two arrays have the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"shape {a.shape} != {b.shape}"
    if a.tobytes() != b.tobytes():
        ua, ub = (x.reshape(-1).view(f"u{x.itemsize}") for x in (a, b))
        i = int(np.flatnonzero(ua != ub)[0])
        raise AssertionError(f"{int((ua != ub).sum())} entries differ in their bits; first at "
                             f"flat index {i}: {a.reshape(-1)[i]!r} != {b.reshape(-1)[i]!r}")


def special_values(dtype) -> np.ndarray:
    """NaN, -NaN, +-0, +-inf, the smallest subnormal and +-tiny/2 in `dtype`."""
    f = np.finfo(dtype)
    return np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, f.smallest_subnormal,
                     f.tiny / 2, -f.tiny / 2], dtype=dtype)
