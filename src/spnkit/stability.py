"""Gate normalization and stability diagnostics.

Each pixel's gates for one scan direction form a row of the scan's one-step
transfer matrix. Keeping the absolute row sum at or below one bounds every
eigenvalue of that matrix by one (circle bound on the rows), so repeated
propagation cannot blow up. `project_gates` rescales offending rows onto the
unit ball; it preserves signs and ratios and leaves stable rows untouched.

In training the bound rarely binds, so the projection's cost is the row sums
themselves: they add the K slots in slot order, the order a reduction over
the slot axis uses, so they are the same bits at a fraction of its cost.
When no row exceeds one, `project_gates_cached` passes the gates through
without dividing, and its backward passes the gradient through the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .propagation import ConnectionKind, Direction, DIRECTION_NAMES

STABILITY_TOL = 1e-6


def _check_gate_shape(gate_data: np.ndarray, kind: ConnectionKind):
    k = kind.gates_per_direction
    if gate_data.ndim != 5 or gate_data.shape[3] != 4 or gate_data.shape[4] != k:
        raise DimensionError(
            f"gates shaped {gate_data.shape}, expected (H, W, C, 4, {k})")


def gate_abs_sums(gate_data: np.ndarray, kind: ConnectionKind) -> np.ndarray:
    """Per-pixel absolute gate sums, (H, W, C, 4).

    The K slots are added in slot order, which gives the same bits as
    `np.abs(gate_data).sum(axis=4)` without its reduction over a length-K
    axis.
    """
    _check_gate_shape(gate_data, kind)
    s = np.abs(gate_data[..., 0])
    term = np.empty_like(s)
    for k in range(1, kind.gates_per_direction):
        s += np.abs(gate_data[..., k], out=term)
    return s


def project_gates(gate_data: np.ndarray, kind: ConnectionKind) -> np.ndarray:
    """Rescale each pixel's gates so their absolute sum is at most one.
    Always returns a new array."""
    out, _ = project_gates_cached(gate_data, kind)
    return out.copy() if out is gate_data else out


def project_gates_cached(gate_data: np.ndarray, kind: ConnectionKind):
    """`project_gates` plus the cache (raw, out, denom, active) for the
    backward; `active` is True on the rows that were rescaled. When no row
    is, `out` is `gate_data` itself and `denom` is 1."""
    s = gate_abs_sums(gate_data, kind)
    active = s > 1.0
    if not active.any():
        return gate_data, (gate_data, gate_data, 1.0, active)
    denom = np.where(active, s, 1.0)[..., None]
    out = gate_data / denom
    return out, (gate_data, out, denom, active)


def project_gates_backward(grad: np.ndarray, cache) -> np.ndarray:
    """Gradient through the rescaling, in `grad`'s dtype. Identity on rows
    that were not scaled; returns `grad` itself when no row was scaled."""
    raw, out, denom, active = cache
    if not active.any():
        return grad
    dot = (grad * out).sum(axis=4, keepdims=True)
    scaled = (grad - dot * np.sign(raw)) / denom
    return np.where(active[..., None], scaled, grad).astype(grad.dtype, copy=False)


@dataclass(frozen=True)
class StabilityReport:
    """Gate-health summary: the max absolute row sum per direction and overall."""

    max_abs_sum: float
    per_direction: tuple
    pixels_exceeding: int
    worst_position: tuple

    @property
    def ok(self) -> bool:
        return self.max_abs_sum <= 1.0 + STABILITY_TOL

    def to_csv(self) -> str:
        lines = ["direction,max_abs_gate_sum,pixels_exceeding"]
        for name, mx, n in self.per_direction:
            lines.append(f"{name},{mx:.17g},{n}")
        lines.append(f"all,{self.max_abs_sum:.17g},{self.pixels_exceeding}")
        return "\n".join(lines) + "\n"

    def __str__(self):
        state = "stable" if self.ok else "UNSTABLE"
        return (f"{state}: max |gate| row sum {self.max_abs_sum:.6g} "
                f"(limit {1.0 + STABILITY_TOL:.6g}), {self.pixels_exceeding} "
                f"position(s) above 1 at tolerance, worst at {self.worst_position}")


def verify_stability(gate_data: np.ndarray, kind: ConnectionKind) -> StabilityReport:
    """Check the circle bound over every pixel, channel, and direction."""
    sums = gate_abs_sums(gate_data, kind)
    per_direction = []
    for d in Direction:
        sd = sums[:, :, :, d]
        per_direction.append((DIRECTION_NAMES[d], float(sd.max()),
                              int((sd > 1.0 + STABILITY_TOL).sum())))
    worst_flat = int(np.argmax(sums))
    worst = tuple(int(v) for v in np.unravel_index(worst_flat, sums.shape))
    return StabilityReport(
        max_abs_sum=float(sums.max()),
        per_direction=tuple(per_direction),
        pixels_exceeding=int((sums > 1.0 + STABILITY_TOL).sum()),
        worst_position=worst,
    )
