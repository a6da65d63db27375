"""Central-difference gradient checking.

The checker perturbs individual coordinates of a 64-bit input and compares
the numerical slope against an analytic gradient. Piecewise branches (max
pooling winners, clamp active sets, relu signs) make the numerical slope
meaningless when a perturbation crosses a branch point. So one model run,
`probe(a)`, returns the value and the branch it took; coordinates whose branch
changes under either perturbation are skipped and reported, not failed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


@dataclass
class GradCheckResult:
    checked: int = 0
    skipped: int = 0
    max_rel_err: float = 0.0
    worst_coord: int = -1
    worst_numeric: float = 0.0
    worst_analytic: float = 0.0

    def __str__(self):
        return (f"checked {self.checked} coords (skipped {self.skipped}), "
                f"max rel err {self.max_rel_err:.3e} at flat index "
                f"{self.worst_coord} (numeric {self.worst_numeric:.6e}, "
                f"analytic {self.worst_analytic:.6e})")


def check_gradient(probe, x: np.ndarray, analytic: np.ndarray, rng,
                   num: int = 100, eps: float = 1e-4, mask=None) -> GradCheckResult:
    """Compare analytic against central differences at sampled coordinates.

    probe maps an array like `x` to (float, branch), where branch is any value
    compared with `!=` (bytes, a tuple, or None when the model has no branch);
    it runs once at `x` and twice per sampled coordinate. `mask` limits which
    coordinates may be perturbed (boundary-pinned entries are not free
    parameters). Everything runs in float64; a non-f64 input is a caller bug.
    """
    if x.dtype != np.float64:
        raise DimensionError("gradient checks must run on float64 inputs")
    if analytic.shape != x.shape:
        raise DimensionError("analytic gradient shape does not match input")
    if mask is None:
        pool = np.arange(x.size)
    else:
        pool = np.flatnonzero(np.asarray(mask).reshape(-1))
    if pool.size == 0:
        raise DimensionError("no eligible coordinates to check")
    if pool.size > num:
        pool = rng.choice(pool, size=num, replace=False)
    base_branch = probe(x)[1]
    res = GradCheckResult()
    flat_analytic = analytic.reshape(-1)
    for idx in pool:
        xp = x.copy()
        xp.flat[idx] += eps
        xm = x.copy()
        xm.flat[idx] -= eps
        (fp, bp), (fm, bm) = probe(xp), probe(xm)
        if bp != base_branch or bm != base_branch:
            res.skipped += 1
            continue
        numeric = (fp - fm) / (2.0 * eps)
        err = relative_error(numeric, float(flat_analytic[idx]))
        res.checked += 1
        if err > res.max_rel_err:
            res.max_rel_err = err
            res.worst_coord = int(idx)
            res.worst_numeric = float(numeric)
            res.worst_analytic = float(flat_analytic[idx])
    return res
