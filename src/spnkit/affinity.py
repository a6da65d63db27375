"""Dense global view of a directional scan, for verification and analysis.

A whole scan is one linear map on the vectorized grid. Stacking the scan's
steps in order, each step's lines in order within it, gives a block
lower-triangular matrix G: block (t, k) with k < t is the product of the
one-step transfer matrices between steps k and t applied to step k's
retention, and block (t, t) is the retention itself (identity minus the
pixel's total gate mass). Every row of G sums to one by construction.

This module builds G entry by entry from the gates, never running the scan
recurrence, so comparing `oracle_propagate` against the scan output checks two
independent computation routes. Zeroing G's diagonal splits it as G = I - D + A
with D diagonal and A carrying the affinities; L = D - A is then a Laplacian
(zero row sums) and applying G is one diffusion step under L.

Dense matrices cost N^2 memory for N pixels, so builds are capped at N <= 400.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .propagation import (
    ConnectionKind,
    Direction,
    _step_major,
    check_boundary_zeros,
    step_matrix,
)

MAX_ORACLE_PIXELS = 400


def check_dense_size(height: int, width: int) -> None:
    """Raise DimensionError if an (H, W) grid is empty or exceeds the dense cap."""
    if height < 1 or width < 1:
        raise DimensionError("grid dimensions must be >= 1")
    total = height * width
    if total > MAX_ORACLE_PIXELS:
        raise DimensionError(
            f"dense views need {total} pixels, capped at {MAX_ORACLE_PIXELS}")


def vec_map(x: np.ndarray, direction: Direction) -> np.ndarray:
    """Vectorize (H, W, C) in scan order: with n lines, step t occupies rows
    t*n..(t+1)*n, line i of it row t*n + i."""
    if x.ndim != 3:
        raise DimensionError("vec_map expects (H, W, C)")
    return _step_major(x, direction).reshape(x.shape[0] * x.shape[1], x.shape[2])


def unvec_map(v: np.ndarray, height: int, width: int,
              direction: Direction) -> np.ndarray:
    """Inverse of vec_map; v is (N, C)."""
    if v.ndim != 2 or v.shape[0] != height * width:
        raise DimensionError("unvec_map expects (H*W, C)")
    out = np.empty((height, width, v.shape[1]), dtype=v.dtype)
    view = _step_major(out, direction)
    view[...] = v.reshape(view.shape)
    return out


def scan_permutation(height: int, width: int, direction: Direction) -> np.ndarray:
    """perm such that vec_map(x)[j, c] == x[..., c].flat[perm[j]]."""
    return _step_major(np.arange(height * width).reshape(height, width),
                       direction).ravel()


@dataclass(frozen=True)
class DenseAffinity:
    """Per-channel dense transforms G, (C, N, N), in float64."""

    G: np.ndarray
    height: int
    width: int
    direction: Direction

    @property
    def channels(self) -> int:
        return self.G.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.G.sum(axis=2)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G applied to an (H, W, C) grid, channel by channel, in float64."""
        if x.shape != (self.height, self.width, self.channels):
            raise DimensionError("input and gate grids disagree")
        v = vec_map(x.astype(np.float64), self.direction)
        out = np.empty_like(v)
        for c in range(self.channels):
            out[:, c] = self.G[c] @ v[:, c]
        return unvec_map(out, self.height, self.width, self.direction)


def _dense_scan_gates(gates_dir: np.ndarray, direction: Direction,
                      kind: ConnectionKind) -> np.ndarray:
    """One direction's (H, W, C, K) gates, checked against the dense cap,
    as a float64 step-major (steps, lines, C, K) array."""
    if gates_dir.ndim != 4 or gates_dir.shape[3] != kind.gates_per_direction:
        raise DimensionError(
            f"gates shaped {gates_dir.shape}, expected (H, W, C, {kind.gates_per_direction})")
    check_dense_size(gates_dir.shape[0], gates_dir.shape[1])
    return np.ascontiguousarray(_step_major(gates_dir, direction), dtype=np.float64)


def build_dense_affinity(gates_dir: np.ndarray, direction: Direction,
                         kind: ConnectionKind) -> DenseAffinity:
    """Assemble G from one direction's (H, W, C, K) gates."""
    gs = _dense_scan_gates(gates_dir, direction, kind)
    check_boundary_zeros(gates_dir, kind, direction)
    height, width, channels = gates_dir.shape[:3]
    total = height * width
    steps, n = gs.shape[:2]
    eye = np.eye(n)
    G = np.zeros((channels, total, total))
    for c in range(channels):
        prev_blocks = None
        for t in range(steps):
            if t == 0:
                blocks = [eye]
            else:
                w_t = step_matrix(gs[t, :, c, :], kind)
                lam_t = eye - np.diag(w_t.sum(axis=1))
                blocks = [w_t @ b for b in prev_blocks]
                blocks.append(lam_t)
            r = slice(t * n, (t + 1) * n)
            for k, b in enumerate(blocks):
                G[c, r, k * n:(k + 1) * n] = b
            prev_blocks = blocks
    return DenseAffinity(G, height, width, direction)


def oracle_propagate(x: np.ndarray, gates_dir: np.ndarray, direction: Direction,
                     kind: ConnectionKind) -> np.ndarray:
    """Propagate through the dense transform. Always computes in float64."""
    return build_dense_affinity(gates_dir, direction, kind).apply(x)


def oracle_spn_forward(x: np.ndarray, dense, units: int) -> np.ndarray:
    """`spn_forward` in float64 through `dense`, the four directions'
    `DenseAffinity`s: each unit pools their outputs by node-wise max."""
    cur = x
    for _ in range(units):
        cur = np.max([a.apply(cur) for a in dense], axis=0)
    return cur


def laplacian_decompose(aff: DenseAffinity):
    """Split each channel's G as I - D + A. Returns (D, A, L) with L = D - A.

    A carries G's off-diagonal entries (zero diagonal), D is diagonal, and L
    has exact zero row sums whenever G's rows sum to one.
    """
    C, total, _ = aff.G.shape
    idx = np.arange(total)
    A = aff.G.copy()
    A[:, idx, idx] = 0.0
    D = np.zeros_like(aff.G)
    D[:, idx, idx] = 1.0 - aff.G[:, idx, idx]
    return D, A, D - A


def impulse_response(gates_dir: np.ndarray, direction: Direction,
                     kind: ConnectionKind, row: int, col: int,
                     channel: int = 0) -> np.ndarray:
    """Response of the dense transform to a unit impulse, as an (H, W) grid.

    Read off a column of G rather than running any scan, so this is a second
    route against `propagate_direction` on a delta input.
    """
    aff = build_dense_affinity(gates_dir, direction, kind)
    if not (0 <= row < aff.height and 0 <= col < aff.width):
        raise DimensionError(f"impulse position ({row}, {col}) outside grid")
    perm = scan_permutation(aff.height, aff.width, direction)
    j = int(np.flatnonzero(perm == row * aff.width + col)[0])
    column = aff.G[channel][:, j]
    grid = unvec_map(column[:, None], aff.height, aff.width, direction)
    return grid[:, :, 0]


@dataclass(frozen=True)
class SparsityStats:
    entries: int
    nonzeros: int
    density: float
    block_lower_triangular: bool


def sparsity_stats(aff: DenseAffinity) -> SparsityStats:
    """Count structural nonzeros and confirm the block triangular layout."""
    nz = int((np.abs(aff.G) > 0.0).sum())
    steps, n = _step_major(np.broadcast_to(0, (aff.height, aff.width)),
                           aff.direction).shape
    tri = True
    for t in range(steps):
        upper = aff.G[:, t * n:(t + 1) * n, (t + 1) * n:]
        if upper.size and np.abs(upper).max() > 0.0:
            tri = False
            break
    return SparsityStats(aff.G.size, nz, nz / aff.G.size, tri)


def step_spectra(gates_dir: np.ndarray, direction: Direction,
                 kind: ConnectionKind) -> np.ndarray:
    """Spectral radius of each step's transfer matrix, (steps-1, C).

    Eigenvalues come from dense eigendecomposition; grids small enough for
    the dense cap pose no conditioning concerns.
    """
    gs = _dense_scan_gates(gates_dir, direction, kind)
    steps, _, channels = gs.shape[:3]
    out = np.zeros((max(steps - 1, 0), channels))
    for t in range(1, steps):
        for c in range(channels):
            w_t = step_matrix(gs[t, :, c, :], kind)
            out[t - 1, c] = np.abs(np.linalg.eigvals(w_t)).max()
    return out
