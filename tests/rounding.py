"""The tolerance gate for fast paths that change the last bits.

A fast path that sums in another order or precision than the slow path it
replaces is accepted when, at every output, the two differ by at most

    gamma_n * sum |terms|,    gamma_n = n u / (1 - n u)

(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3):
u is the unit roundoff of the dtype compared in, `terms` are the products
the output sums in exact arithmetic, and n counts the roundings a term can
take on both paths together (each product, each add, each weight rounded to
a narrower dtype, each final cast). A sum of k nonzero terms in any order
takes at most k roundings per term, whether or not zero terms are added in
between, since adding an exact zero rounds nothing. The bound ignores
underflow, so compare on data away from the subnormal range. No rtol is
chosen by hand: the bound follows from the dtype and the count.
"""
import numpy as np


def gamma(n, dtype):
    """Higham's gamma_n for the unit roundoff of `dtype`; `n` may be an array."""
    nu = np.asarray(n, dtype=np.float64) * (float(np.finfo(dtype).eps) / 2)
    if not (nu < 1).all():
        raise ValueError(f"n u must stay below 1, got {nu.max()}")
    return nu / (1 - nu)


def assert_within_rounding(fast, reference, abs_terms, n, dtype) -> None:
    """Assert |fast - reference| <= gamma_n(dtype) * abs_terms at every output.

    `abs_terms` is sum |terms| per output and `n` the roundings per output,
    both broadcast against `fast`; the difference is taken in float64.
    """
    fast = np.asarray(fast)
    reference = np.asarray(reference)
    assert fast.shape == reference.shape, (fast.shape, reference.shape)
    diff = np.abs(fast.astype(np.float64) - reference.astype(np.float64))
    bound = np.broadcast_to(gamma(n, dtype) * abs_terms, diff.shape)
    over = diff > bound
    if over.any():
        i = tuple(int(v) for v in np.argwhere(over)[0])
        raise AssertionError(
            f"{int(over.sum())} of {diff.size} outputs exceed gamma_n * sum|terms|; "
            f"first at {i}: |{fast[i]!r} - {reference[i]!r}| = {diff[i]:.3e} > "
            f"{bound[i]:.3e}")


def separable_terms(arr: np.ndarray, rh: np.ndarray, rw: np.ndarray):
    """sum |terms| and the nonzero tap count per output of `rh @ arr @ rw.T`
    over the first two axes of an (H, W, C) array.

    Output (o, p, c) sums rh[o, i] * arr[i, j, c] * rw[p, j] in two passes:
    each term takes the roundings of a k_h-tap sum and of a k_w-tap sum, k
    counted from the nonzero entries of row o of rh and row p of rw.
    Returns (sum |terms| of shape (out_h, out_w, C), taps of shape
    (out_h, out_w, 1)), both computed in float64.
    """
    a = np.abs(np.asarray(arr, dtype=np.float64))
    ah = np.abs(np.asarray(rh, dtype=np.float64))
    aw = np.abs(np.asarray(rw, dtype=np.float64))
    abs_terms = np.einsum("oi,ijc,pj->opc", ah, a, aw, optimize=True)
    taps = (ah != 0).sum(axis=1)[:, None, None] + (aw != 0).sum(axis=1)[None, :, None]
    return abs_terms, taps


def two_pass_roundings(taps, dtype):
    """Roundings per term between a two-pass sum computed in `dtype` and the
    same sums taken in float64 and cast back, over float64 weights.

    In float64 each path takes `taps` roundings. In float32 the fast path
    also rounds its two weights to float32, and the reference's float64
    sums (well under one float32 rounding) and its cast back add one each.
    """
    return 2 * taps if np.dtype(dtype) == np.float64 else taps + 4


# Every resize of a 128x128 refine request and of a 64x64 training sample
# (the default architecture at scale 2), as (input shape, output height,
# output width); the adjoint runs each one backward.
PIPELINE_RESIZES = [
    ((32, 32, 32), 64, 64), ((64, 64, 16), 128, 128), ((128, 128, 8), 64, 64),
    ((128, 128, 2), 64, 64), ((64, 64, 2), 128, 128),
    ((16, 16, 32), 32, 32), ((32, 32, 16), 64, 64), ((64, 64, 8), 32, 32),
    ((64, 64, 2), 32, 32), ((32, 32, 2), 64, 64),
]


# Size-1 axes on the input and the output side.
EDGE_RESIZES = [
    ((1, 1, 1), 1, 1), ((1, 1, 3), 4, 5), ((1, 6, 2), 3, 1), ((6, 1, 32), 1, 9),
    ((5, 7, 1), 1, 1), ((2, 2, 4), 1, 3),
]


def resize_cases(seed: int, count: int = 60):
    """The pipeline's and the edge resizes, then `count` random ones: up and
    down, each axis 1 to 12 long, 1 to 32 channels."""
    rng = np.random.default_rng(seed)
    cases = PIPELINE_RESIZES + EDGE_RESIZES
    for _ in range(count):
        h, w, oh, ow = (int(v) for v in rng.integers(1, 13, size=4))
        cases.append(((h, w, int(rng.integers(1, 33))), oh, ow))
    return cases
