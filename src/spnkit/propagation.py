"""Directional linear propagation over image grids.

A scan sweeps the grid one step at a time. Step t advances with the scan,
and a line is one of its parallel 1-D paths: a row for a left/right scan, a
column for a top/bottom one. `_step_major` views a grid as (steps, lines).
Each output pixel mixes its own input with values from the previous step,
weighted by per-pixel gates:

    h[t] = (1 - sum(p)) * x[t] + sum_j p_j * h_neighbor_j[t-1]

with the first step copied from the input. One-way connections read a
single aligned neighbor, on the pixel's own line; three-way connections
also read the two diagonal neighbors, on the neighbouring lines. Four scan
directions are integrated node-wise by max pooling.

Gates on the first step, and the diagonal gates of the edge lines that
would reach outside the grid, must be exactly zero. That contract keeps
every output a convex-like combination whose coefficients sum to one, which
is what makes a constant input an exact fixed point regardless of gate
values.

All scans run through one time loop over a stack of directions. A scan is
laid out step-major, (steps, lines, C), and directions with the same
(steps, lines) shape are stacked side by side on the line axis: all four on
a square grid, otherwise left/right and top/bottom as two stacks. Stacking
is exact. A one-way pixel reads only its own line, so blocks cannot meet.
A three-way pixel reads the neighbouring lines too, so three-way stacks put
one zero separator line before, between and after the blocks: a block's
edge lines read an exact zero there, as a lone scan reads outside the grid,
whatever the gate values (the boundary contract pins those gates to zero
anyway, but `check=False` callers may not). The loops reset the separator
lines to zero after every step, so they read zero even when an input or
gradient is infinite or NaN (0 * inf is NaN), and such a value stays in its
own direction as it would in a separate scan. Each step performs the same
floating-point operations in the same order as a separate scan per
direction would, so the results equal it exactly (a zero gradient entry may
at most change sign, and a NaN may carry either sign: numpy's vectorised
loops set it by an element's place in the loop).

The reverse pass routes the max pool's gradient straight into each stack:
a direction's block is one multiply of the gradient's bits, as unsigned
integers, by the mask of the nodes that direction won, so every routed bit,
NaN and -0 included, is the gradient's own and the others are +0, with no
(4, H, W, C) routed copy in between. It keeps each stack's gate gradient in
the stack's layout, shaped like its gates, through all units: every unit
adds its part with one subtract, multiply and add per slot over the whole
stack. The result is written to the (H, W, C, 4, K) grid once, after the
last unit; there the slot and direction axes are innermost, so a write per
unit would be a strided one. The pinned gates' gradients are then set to
zero: they are not free parameters, and in the stack they read across block
edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import keep_where


class Direction(IntEnum):
    LEFT_TO_RIGHT = 0
    RIGHT_TO_LEFT = 1
    TOP_TO_BOTTOM = 2
    BOTTOM_TO_TOP = 3


DIRECTION_NAMES = {
    Direction.LEFT_TO_RIGHT: "ltr",
    Direction.RIGHT_TO_LEFT: "rtl",
    Direction.TOP_TO_BOTTOM: "ttb",
    Direction.BOTTOM_TO_TOP: "btt",
}
NAME_TO_DIRECTION = {v: k for k, v in DIRECTION_NAMES.items()}


class ConnectionKind(IntEnum):
    """Number of previous-step neighbors each pixel reads."""

    ONE_WAY = 1
    THREE_WAY = 3

    @property
    def gates_per_direction(self) -> int:
        return int(self)


KIND_NAMES = {ConnectionKind.ONE_WAY: "one", ConnectionKind.THREE_WAY: "three"}
NAME_TO_KIND = {v: k for k, v in KIND_NAMES.items()}

# Gate slot order for THREE_WAY, indexing the previous step's neighbor by
# its line offset: -1, 0, +1.
GATE_PREV = 0
GATE_SAME = 1
GATE_NEXT = 2


def _step_major(arr: np.ndarray, direction: Direction) -> np.ndarray:
    """View grid-ordered (H, W, ...) data as (steps, lines, ...) for a
    direction: axis 0 advances with the scan, axis 1 holds its lines."""
    if direction == Direction.LEFT_TO_RIGHT:
        return arr.swapaxes(0, 1)
    if direction == Direction.RIGHT_TO_LEFT:
        return arr[:, ::-1].swapaxes(0, 1)
    if direction == Direction.TOP_TO_BOTTOM:
        return arr
    return arr[::-1]


def _pinned(gate_data: np.ndarray, kind: ConnectionKind,
            direction: Direction | None = None):
    """Yield views of the gates that the boundary contract pins to zero: the
    first step, and for THREE_WAY the diagonal slot of each edge line that
    points outside the grid.

    `gate_data` holds all directions' (H, W, C, 4, K) gates, or, when
    `direction` is given, that direction's (H, W, C, K) gates.
    """
    if gate_data.shape[0] < 1 or gate_data.shape[1] < 1:
        raise DimensionError("grid dimensions must be >= 1")
    for d in Direction if direction is None else (direction,):
        g = _step_major(gate_data if direction is not None
                        else gate_data[:, :, :, d, :], d)
        yield g[0]
        if kind == ConnectionKind.THREE_WAY:
            yield g[:, 0, :, GATE_PREV]
            yield g[:, -1, :, GATE_NEXT]


def zero_boundary(gate_data: np.ndarray, kind: ConnectionKind) -> np.ndarray:
    """Zero, in place, the gates of (H, W, C, 4, K) `gate_data` that the
    boundary contract pins to zero; returns `gate_data`."""
    for g in _pinned(gate_data, kind):
        g[...] = 0.0
    return gate_data


def boundary_mask(height: int, width: int, kind: ConnectionKind) -> np.ndarray:
    """Boolean (H, W, 4, K) array, True where a gate is required to be zero."""
    free = np.ones((height, width, 1, 4, kind.gates_per_direction), dtype=bool)
    return ~zero_boundary(free, kind)[:, :, 0]


def check_boundary_zeros(gate_data: np.ndarray, kind: ConnectionKind,
                         direction: Direction | None = None) -> None:
    """Raise ContractError if any gate that must be zero is not exactly zero.

    `gate_data` holds all directions' (H, W, C, 4, K) gates, or, when
    `direction` is given, that direction's (H, W, C, K) gates. Only the
    pinned slices are read; the full mask is built to name the first
    offending entry.
    """
    if not any((g != 0.0).any() for g in _pinned(gate_data, kind, direction)):
        return
    mask = boundary_mask(gate_data.shape[0], gate_data.shape[1], kind)[:, :, None]
    where = "(row, col, chan, dir, slot)"
    if direction is not None:
        mask = mask[:, :, :, direction]
        where = f"direction {DIRECTION_NAMES[direction]}, (row, col, chan, slot)"
    i = np.argwhere((gate_data != 0.0) & mask)[0]
    raise ContractError(
        f"boundary gate must be zero at {where}="
        f"{tuple(int(v) for v in i)}, found {gate_data[tuple(i)]!r}")


def _direction_groups(height: int, width: int) -> tuple:
    """Directions whose scans share one (steps, lines) shape, in index order."""
    if height == width:
        return (tuple(Direction),)
    return ((Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT),
            (Direction.TOP_TO_BOTTOM, Direction.BOTTOM_TO_TOP))


class ScanStack:
    """Gates of one or more directions laid out for one fused scan.

    Built from one (H, W, C, K) gate array per direction, cast to `dtype`.
    Each direction is a block of `lines` lines. The blocks sit side by
    side on the line axis in the order of `directions`; three-way stacks put
    one zero separator line before, between and after them. `slots` is
    (K, steps, rows, C) and `coef`, the input weight 1 - sum(p), is
    (steps, rows, C): both are step-major, so one step is contiguous.
    """

    def __init__(self, gate_dirs, directions, kind: ConnectionKind, dtype):
        self.kind = kind
        self.directions = tuple(directions)
        steps, self.lines, channels, k = _step_major(gate_dirs[0], directions[0]).shape
        rows = self.rows(len(directions)).start  # where a next block would start
        self.slots = self._zero_separators(np.empty((k, steps, rows, channels), dtype=dtype))
        for b, (g, d) in enumerate(zip(gate_dirs, directions)):
            self.slots[:, :, self.rows(b)] = np.moveaxis(_step_major(g, d), -1, 0)
        self.coef = 1.0 - self.slots[0]
        for s in self.slots[1:]:
            self.coef -= s

    @property
    def pad(self) -> int:
        """Separator lines before each block: 1 for three-way, else 0."""
        return int(self.kind == ConnectionKind.THREE_WAY)

    def rows(self, block: int) -> slice:
        start = self.pad + block * (self.lines + self.pad)
        return slice(start, start + self.lines)

    @property
    def separators(self) -> slice:
        """Every separator line of a three-way stack, as a row slice."""
        return slice(0, None, self.lines + 1)

    def _zero_separators(self, arr: np.ndarray) -> np.ndarray:
        """Zero the separator lines of (..., rows, C) `arr`; returns `arr`."""
        if self.pad:
            arr[..., self.separators, :] = 0
        return arr

    def stack(self, grids) -> np.ndarray:
        """One (H, W, C) grid per direction, as a zero-separated (steps, rows, C) array."""
        out = self._zero_separators(np.empty_like(self.coef))
        for b, (g, d) in enumerate(zip(grids, self.directions)):
            out[:, self.rows(b)] = _step_major(g, d)
        return out

    def route(self, grad: np.ndarray, winner: np.ndarray) -> np.ndarray:
        """The max pool's gradient in this stack's layout: the block of
        direction d holds (H, W, C) `grad`, every bit kept, where `winner`
        is d, and +0 elsewhere (`keep_where`); separators are zero."""
        out = self._zero_separators(np.empty_like(self.coef))
        grad = grad.astype(out.dtype, copy=False)
        mask = np.empty(grad.shape, dtype=bool)
        for b, d in enumerate(self.directions):
            np.equal(winner, d, out=mask)
            keep_where(_step_major(grad, d), _step_major(mask, d), out=out[:, self.rows(b)])
        return out

    def unstack(self, arr: np.ndarray, grids) -> None:
        """Write each direction's block of a (steps, rows, C) array into its
        (H, W, C) grid in `grids`, one per direction as for `stack`."""
        for b, (g, d) in enumerate(zip(grids, self.directions)):
            _step_major(g, d)[...] = arr[:, self.rows(b)]

    def unstack_slots(self, slots: np.ndarray, grids) -> None:
        """Write each direction's block of a (K, steps, rows, C) array, laid
        out as `slots`, into its (H, W, C, K) grid in `grids`.

        One copy per slot: a copy that put the slot axis innermost would
        run its inner loop over three floats at a time.
        """
        for k, slot in enumerate(slots):
            self.unstack(slot, [g[..., k] for g in grids])


@dataclass
class ScanCache:
    """Input and output of one fused scan, step-major in the stack's layout."""

    stack: ScanStack
    x_scan: np.ndarray
    h_scan: np.ndarray

    @property
    def gates_scan(self) -> np.ndarray:
        """The stacked gates as a (steps, rows, C, K) view."""
        return np.moveaxis(self.stack.slots, 0, -1)


def _scan(stack: ScanStack, grids) -> ScanCache:
    """Scan each direction of `stack` over its (H, W, C) grid in one time loop.

    The input term (1 - sum(p)) * x is formed for every step up front; the
    loop adds the previous step's terms in the order the recurrence is written.
    """
    xs = stack.stack(grids)
    h = stack.coef * xs
    h[0] = xs[0]
    if stack.kind == ConnectionKind.ONE_WAY:
        p = stack.slots[0]
        tmp = np.empty_like(h[0])
        for t in range(1, len(h)):
            np.multiply(p[t], h[t - 1], out=tmp)
            h[t] += tmp
        return ScanCache(stack, xs, h)
    # the rows between the outer separator lines are updated whole and the
    # separators reset each step, so a non-finite value cannot reach the
    # next block through them (0 * inf is NaN)
    pu, pm, pd = stack.slots[:, :, 1:-1]
    sep = stack.separators
    tmp = np.empty_like(h[0, 1:-1])
    for t in range(1, len(h)):
        prev, row = h[t - 1], h[t, 1:-1]
        np.multiply(pu[t], prev[:-2], out=tmp)
        row += tmp
        np.multiply(pm[t], prev[1:-1], out=tmp)
        row += tmp
        np.multiply(pd[t], prev[2:], out=tmp)
        row += tmp
        h[t, sep] = 0.0
    return ScanCache(stack, xs, h)


def _scan_backward(cache: ScanCache, g: np.ndarray, dslots: np.ndarray) -> None:
    """Exact reverse pass of one fused scan, in place.

    `g` is the upstream gradient in the stack's (steps, rows, C) layout, as
    `ScanStack.stack` gives it; it is overwritten with the input gradient in
    the same layout. The gate gradient is added into `dslots`, shaped like
    the stack's `slots`, with one subtract, multiply and add per slot over
    the whole stack. Entries of `dslots` on separator lines, and at gates
    the boundary contract pins to zero, hold no gradient: `spn_backward`
    zeros the pinned ones after writing the blocks to the grid.
    """
    st = cache.stack
    if st.kind == ConnectionKind.ONE_WAY:
        p = st.slots[0]
        carry = np.empty_like(g[0])
        for t in range(len(g) - 1, 0, -1):
            np.multiply(p[t], g[t], out=carry)
            g[t - 1] += carry
    else:
        pu, pm, pd = st.slots
        pu, pd = pu[:, 1:], pd[:, :-1]
        sep = st.separators
        carry = np.empty_like(g[0])
        tmp = np.empty_like(g[0, 1:])
        for t in range(len(g) - 1, 0, -1):
            gt = g[t]
            np.multiply(pm[t], gt, out=carry)
            np.multiply(pu[t], gt[1:], out=tmp)
            carry[:-1] += tmp
            np.multiply(pd[t], gt[:-1], out=tmp)
            carry[1:] += tmp
            g[t - 1] += carry
            g[t - 1, sep] = 0.0
    # g now holds the adjoint of h at every step; slot k of row r reads
    # previous-step row r + k - pad, so the rows between the outer
    # separators see every neighbour they need
    core = slice(st.pad, g.shape[1] - st.pad)
    x, gn = cache.x_scan[1:, core], g[1:, core]
    prev = cache.h_scan[:-1]
    part = np.empty_like(x)
    for k, acc in enumerate(dslots[:, 1:, core]):
        np.subtract(prev[:, k:k + part.shape[1]], x, out=part)
        part *= gn
        acc += part
    # the input gradient: (1 - sum(p)) * g, and g itself on the first step
    np.multiply(st.coef[1:], g[1:], out=g[1:])


def _check_inputs(x: np.ndarray, gates: np.ndarray, slots: tuple) -> None:
    """`x` must be (H, W, C) and `gates` shaped (H, W, C) + `slots`."""
    if x.ndim != 3:
        raise DimensionError(f"input shaped {x.shape}, expected (H, W, C)")
    if gates.shape != x.shape + slots:
        raise DimensionError(
            f"gates shaped {gates.shape}, expected {x.shape + slots}")


def propagate_direction(x: np.ndarray, gates_dir: np.ndarray,
                        direction: Direction, kind: ConnectionKind) -> np.ndarray:
    """Propagate (H, W, C) values along one direction. Gates are (H, W, C, K)."""
    _check_inputs(x, gates_dir, (kind.gates_per_direction,))
    check_boundary_zeros(gates_dir, kind, direction)
    stack = ScanStack([gates_dir], (direction,), kind, x.dtype)
    h = np.empty_like(x)
    stack.unstack(_scan(stack, [x]).h_scan, [h])
    return h


def integrate_max(h_stack: np.ndarray):
    """Node-wise max over the direction axis of a (4, H, W, C) stack.

    Returns (out, winner) where winner (int8) holds the index of the first
    direction attaining the max, as `np.argmax` gives it: ties resolve to the
    lowest direction index, and the first NaN wins. A direction is passed
    over exactly when it is not NaN and differs from the max (which is NaN
    when any direction is), so winner = n0 (1 + n1 (1 + n2)) with n_d that
    test, without branches. `out` is the max itself; it equals
    h_stack[winner] except that a zero may differ in sign.
    """
    h0, h1, h2, h3 = h_stack
    out = np.maximum(h0, h1)
    np.maximum(out, np.maximum(h2, h3), out=out)
    passed = np.empty((3,) + out.shape, dtype=bool)
    is_num = np.empty(out.shape, dtype=bool)
    for d in range(3):
        np.not_equal(h_stack[d], out, out=passed[d])
        np.equal(h_stack[d], h_stack[d], out=is_num)
        passed[d] &= is_num
    n0, n1, n2 = passed.view(np.int8)
    winner = n2 + np.int8(1)
    winner *= n1
    winner += 1
    winner *= n0
    return out, winner


@dataclass
class UnitCache:
    """One propagation unit: a ScanCache per direction group, and the
    direction index that won the max pool at each node."""

    scans: list
    winner: np.ndarray


def spn_forward(x: np.ndarray, gate_data: np.ndarray, kind: ConnectionKind,
                units: int = 1, check: bool = True):
    """Run `units` cascaded propagation units with shared gates.

    Each unit scans in all four directions and max-pools the results; the next
    unit consumes the pooled output. Directions that share a scan shape run
    as one fused scan (see the module docstring). Returns (out, caches).
    """
    if units < 1:
        raise DimensionError("units must be >= 1")
    _check_inputs(x, gate_data, (4, kind.gates_per_direction))
    if check:
        check_boundary_zeros(gate_data, kind)
    stacks = [ScanStack([gate_data[:, :, :, d, :] for d in group], group,
                        kind, x.dtype)
              for group in _direction_groups(x.shape[0], x.shape[1])]
    caches = []
    cur = x
    for _ in range(units):
        hs = np.empty((4,) + x.shape, dtype=x.dtype)
        scans = [_scan(st, [cur] * len(st.directions)) for st in stacks]
        for sc in scans:
            sc.stack.unstack(sc.h_scan, [hs[d] for d in sc.stack.directions])
        cur, winner = integrate_max(hs)
        caches.append(UnitCache(scans, winner))
    return cur, caches


def _unit_backward(unit: UnitCache, grad: np.ndarray, dslots: list) -> np.ndarray:
    """Reverse pass of one propagation unit; returns its input gradient.

    The max pool's gradient goes to each direction's block of its stack
    directly (`ScanStack.route`). Adds each direction group's gate gradient
    into its `dslots` entry. The stacked gradients die on return, before
    the next unit allocates its own: `spn_backward`'s peak memory depends
    on it.
    """
    stacks = [sc.stack for sc in unit.scans]
    gs = [st.route(grad, unit.winner) for st in stacks]
    for sc, g, acc in zip(unit.scans, gs, dslots):
        _scan_backward(sc, g, acc)
    # ((d0 + d1) + d2) + d3, read straight from the directions' blocks
    dx = np.empty(grad.shape, dtype=gs[0].dtype)
    blocks = [(d, g[:, st.rows(b)]) for st, g in zip(stacks, gs)
              for b, d in enumerate(st.directions)]
    (d, block), *rest = blocks
    _step_major(dx, d)[...] = block
    for d, block in rest:
        view = _step_major(dx, d)
        view += block
    return dx


def spn_backward(grad: np.ndarray, caches: list):
    """Gradients of spn_forward: returns (dx, dgates (H, W, C, 4, K)).

    Each direction group's gate gradient is summed over the units in its
    stack's layout and written to the grid once, after the last unit.
    """
    stacks = [sc.stack for sc in caches[0].scans]
    dslots = [np.zeros(st.slots.shape, dtype=grad.dtype) for st in stacks]
    g = grad
    for unit in reversed(caches):
        g = _unit_backward(unit, g, dslots)
    # allocated after the units: the accumulators are as large as dgates,
    # and holding both through the units would raise the peak
    dgates = np.empty(grad.shape + (4, stacks[0].kind.gates_per_direction),
                      dtype=grad.dtype)
    for st, acc in zip(stacks, dslots):
        st.unstack_slots(acc, [dgates[:, :, :, d, :] for d in st.directions])
    return g, zero_boundary(dgates, stacks[0].kind)


def step_matrix(gate_line: np.ndarray, kind: ConnectionKind) -> np.ndarray:
    """Dense (n, n) one-step transfer matrix for one step's gates.

    `gate_line` is (n, K), one row per line, as `_step_major(gates, d)[t]`
    gives it for one channel: entry (i, j) of the result weights line j of
    the previous step, i-1, i or i+1, feeding line i.
    """
    n, k = gate_line.shape
    if k != kind.gates_per_direction:
        raise DimensionError(f"gate line has {k} slots, kind needs {kind.gates_per_direction}")
    if kind == ConnectionKind.ONE_WAY:
        return np.diag(gate_line[:, 0])
    w = np.diag(gate_line[:, GATE_SAME])
    if n > 1:
        w += np.diag(gate_line[1:, GATE_PREV], -1)
        w += np.diag(gate_line[:-1, GATE_NEXT], 1)
    return w


def random_gates(height: int, width: int, channels: int, kind: ConnectionKind,
                 rng: np.random.Generator, low: float = 0.0, high: float = None,
                 project: bool = False) -> np.ndarray:
    """Sample gates uniformly, honoring the boundary contract.

    The default range keeps per-pixel gate sums below one; pass `project=True`
    to clamp arbitrary ranges back into the stable region.
    """
    k = kind.gates_per_direction
    if high is None:
        high = 0.9 / k
    data = rng.uniform(low, high, size=(height, width, channels, 4, k))
    data = zero_boundary(data, kind)
    if project:
        from .stability import project_gates
        data = project_gates(data, kind)
    return data
