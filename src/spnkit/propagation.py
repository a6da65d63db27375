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
a square grid, otherwise left/right and top/bottom as two stacks.
`ScanStack.blocks` owns that layout: it yields each direction's block of
any array laid out like the stack. Stacking is exact. A one-way pixel reads only its own line,
so blocks cannot meet. A three-way pixel reads the neighbouring lines too,
so three-way stacks put one zero separator line before, between and after
the blocks: a block's edge lines read an exact zero there, as a lone scan
reads outside the grid, whatever the gate values (the boundary contract pins
those gates to zero anyway, but `check=False` callers may not). The loops
reset the separator lines to zero after every step, so they read zero even
when an input or gradient is infinite or NaN (0 * inf is NaN), and such a
value stays in its own direction as it would in a separate scan. Each step
performs the same floating-point operations in the same order as a separate
scan per direction would, so the results equal it exactly (a zero gradient
entry may at most change sign, and a NaN may carry either sign: numpy's
vectorised loops set it by an element's place in the loop).

Every pass over a stack-shaped array works on pieces of about
`CHUNK_BYTES`, so that a piece is still in a core's L2 cache when the next
operation reads it. The scan goes by runs of steps (`ScanStack.chunks`): a
chunk's input weight 1 - sum(p) is formed in the output from the slots and
multiplied by the chunk's input, stacked into a chunk buffer, and the time
loop runs over the chunk's steps. Neither the stacked input nor the input
weight is kept: a scan's cache holds the unit's (H, W, C) grid input, and
the reverse pass forms both again chunk by chunk. The copies between the
grid and the stack, of the gates into the slots and of the gate gradient
out to the (H, W, C, 4, K) grid, go by blocks of grid rows
(`ScanStack.row_blocks`): there the direction and slot axes are innermost,
so each block of the grid array is read or written once for all
directions. Chunks change no result: every element gets the same
operations in the same order at any budget.

`spn_forward` lays the slots of all its stacks end to end in one buffer,
which holds at least the H * W * C * 4 * K elements of the gate gradient
(exactly that many for one-way, whose stacks have no separator lines).

The reverse pass routes the max pool's gradient straight into each stack:
a direction's block is one multiply of the gradient's bits, as unsigned
integers, by the mask of the nodes that direction won, so every routed bit,
NaN and -0 included, is the gradient's own and the others are +0, with no
(4, H, W, C) routed copy in between. It keeps each stack's gate gradient in
the stack's layout, shaped like its gates, through all units. Chunk by
chunk, last first, a unit completes the adjoint of the chunk's steps and,
while they are in cache, adds its part of the gate gradient with one
subtract, multiply and add per slot and forms the input gradient with one
multiply. The result is written to the grid once, after the last unit; a
write per unit would be a strided one. The pinned gates' gradients are then
set to zero: they are not free parameters, and in the stack they read
across block edges.

A forward's caches serve one backward, as a framework frees a graph's saved
values after one backward pass. `spn_backward` drops each unit's scan
outputs and inputs as that unit's reverse pass ends, and writes the gate
gradient into the slots' buffer, which no unit reads after the last: no new
array of the gates' size is allocated, and the gradient shares memory with
the caches. Spent caches raise ContractError. The reverse pass runs in the
scan's dtype, the dtype of the forward's input: the upstream gradient is
cast to it as it is routed, and the input and gate gradients come back in
it.
"""
from __future__ import annotations

import math
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


# The bytes of a stack-shaped (steps, rows, C) array that a pass works on at
# a time: a run of its steps, or its part that holds a block of grid rows, is
# about this large, so that it is still in a core's L2 cache when the pass's
# next operation reads it.
CHUNK_BYTES = 256 * 1024


def _grid_rows(direction: Direction, rows: slice, steps: int) -> tuple:
    """The (step, line) slices that pick grid rows `rows` out of a
    direction's step-major view with `steps` steps: `_step_major(a, d)[s, l]`
    is `_step_major(a[rows], d)`."""
    if direction in (Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT):
        return slice(None), rows
    if direction == Direction.TOP_TO_BOTTOM:
        return rows, slice(None)
    return slice(steps - rows.stop, steps - rows.start), slice(None)


class ScanStack:
    """Gates of one or more directions laid out for one fused scan.

    Built from one (H, W, C, K) gate array per direction, cast to `dtype`.
    Each direction is a block of `lines` lines. The blocks sit side by
    side on the line axis in the order of `directions`; three-way stacks put
    one zero separator line before, between and after them. `blocks` is the
    one place that knows where a block starts. `slots` is (K, steps, rows, C),
    step-major, so one step is contiguous. The input weight 1 - sum(p) is
    not stored: `input_weight` forms it for a run of steps where it is used.

    `slots` is a view of the flat `buffer` of `dtype`, from element
    `offset` on; without a `buffer` the stack allocates its own.
    """

    def __init__(self, gate_dirs, directions, kind: ConnectionKind, dtype,
                 buffer: np.ndarray | None = None, offset: int = 0):
        self.kind = kind
        self.directions = tuple(directions)
        self.height = gate_dirs[0].shape[0]
        self.lines = _step_major(gate_dirs[0], directions[0]).shape[1]
        shape = self.slots_shape(gate_dirs[0], directions, kind)
        size = math.prod(shape)
        self.buffer = np.empty(size, dtype=dtype) if buffer is None else buffer
        self.slots = self._zero_separators(self.buffer[offset:offset + size].reshape(shape))
        # a block of grid rows is read once for every direction
        for r in self.row_blocks():
            for g, (d, block) in zip(gate_dirs, self.blocks(self.slots, r)):
                block[...] = np.moveaxis(_step_major(g[r], d), -1, 0)

    @staticmethod
    def slots_shape(gates_dir: np.ndarray, directions, kind: ConnectionKind) -> tuple:
        """(K, steps, rows, C) of the slots of a stack of `directions` built
        from (H, W, C, K) gates shaped like `gates_dir`."""
        steps, lines, channels, k = _step_major(gates_dir, directions[0]).shape
        pad = int(kind == ConnectionKind.THREE_WAY)
        return k, steps, pad + len(directions) * (lines + pad), channels

    @property
    def pad(self) -> int:
        """Separator lines before each block: 1 for three-way, else 0."""
        return int(self.kind == ConnectionKind.THREE_WAY)

    def blocks(self, arr: np.ndarray, rows: slice | None = None):
        """Yield (direction, block view) for each direction of
        (..., steps, rows, C) `arr` laid out like the stack: the slots, a
        scan's output, or its gradient. With `rows`, a slice of grid rows,
        each block holds only those grid rows, as `_step_major` orders
        them."""
        for b, d in enumerate(self.directions):
            start = self.pad + b * (self.lines + self.pad)
            block = arr[..., start:start + self.lines, :]
            if rows is not None:
                block = block[(..., *_grid_rows(d, rows, arr.shape[-3]), slice(None))]
            yield d, block

    @property
    def separators(self) -> slice:
        """Every separator line of a three-way stack, as a row slice."""
        return slice(0, None, self.lines + 1)

    def _zero_separators(self, arr: np.ndarray) -> np.ndarray:
        """Zero the separator lines of (..., rows, C) `arr`; returns `arr`."""
        if self.pad:
            arr[..., self.separators, :] = 0
        return arr

    @property
    def chunk_steps(self) -> int:
        """Steps per chunk: a (steps, rows, C) chunk is about CHUNK_BYTES,
        and at least one step."""
        return max(1, CHUNK_BYTES // self.slots[0, 0].nbytes)

    def chunks(self):
        """(start, stop) of each chunk of steps, in scan order; the last
        may be shorter."""
        steps, n = self.slots.shape[1], self.chunk_steps
        return [(a, min(a + n, steps)) for a in range(0, steps, n)]

    def row_blocks(self):
        """Slices of grid rows whose part of a (steps, rows, C) array is
        about CHUNK_BYTES: at least one row."""
        n = max(1, CHUNK_BYTES * self.height // self.slots[0].nbytes)
        return [slice(r, min(r + n, self.height)) for r in range(0, self.height, n)]

    def stacked_input(self, x: np.ndarray, start: int, out: np.ndarray) -> np.ndarray:
        """The steps from `start` of the (H, W, C) grid `x` in the stack's
        layout, written to (steps, rows, C) `out` with zero separator lines;
        returns `out`."""
        for d, block in self.blocks(self._zero_separators(out)):
            block[...] = _step_major(x, d)[start:start + len(out)]
        return out

    def input_weight(self, start: int, out: np.ndarray) -> np.ndarray:
        """1 - sum(p) of the steps from `start`, written to (steps, rows, C)
        `out`; returns `out`. One on the separator lines."""
        np.subtract(1.0, self.slots[0, start:start + len(out)], out=out)
        for s in self.slots[1:]:
            out -= s[start:start + len(out)]
        return out

    def route(self, grad: np.ndarray, winner: np.ndarray) -> np.ndarray:
        """The max pool's gradient in this stack's layout: the block of
        direction d holds (H, W, C) `grad`, every bit kept, where `winner`
        is d, and +0 elsewhere (`keep_where`); separators are zero."""
        out = self._zero_separators(np.empty_like(self.slots[0]))
        grad = grad.astype(out.dtype, copy=False)
        mask = np.empty(grad.shape, dtype=bool)
        for d, block in self.blocks(out):
            np.equal(winner, d, out=mask)
            keep_where(_step_major(grad, d), _step_major(mask, d), out=block)
        return out


@dataclass
class ScanCache:
    """One fused scan: its stack, its (H, W, C) grid input `x`, which it
    shares with the unit's other scan, and its output `h_scan`, step-major
    in the stack's layout.

    It serves one backward: `spn_backward` sets `x` and `h_scan` to None as
    the unit's reverse pass ends, and writes the gate gradient over the
    stack's slots, so that the stack keeps its shape but not its gates."""

    stack: ScanStack
    x: np.ndarray | None
    h_scan: np.ndarray | None

    @property
    def gates_scan(self) -> np.ndarray:
        """The stacked gates as a (steps, rows, C, K) view."""
        return np.moveaxis(self.stack.slots, 0, -1)


def _scan(stack: ScanStack, x: np.ndarray) -> ScanCache:
    """Scan each direction of `stack` over the (H, W, C) grid `x` in one
    time loop.

    Chunk by chunk (`ScanStack.chunks`), the input term (1 - sum(p)) * x is
    formed in the output, from x stacked into a chunk buffer, and the loop
    adds the previous step's terms in the order the recurrence is written.
    """
    h = np.empty_like(stack.slots[0])
    xs = np.empty_like(h[:stack.chunk_steps])
    if stack.kind == ConnectionKind.ONE_WAY:
        p = stack.slots[0]
        tmp = np.empty_like(h[0])
    else:
        # the rows between the outer separator lines are updated whole and
        # the separators reset each step, so a non-finite value cannot reach
        # the next block through them (0 * inf is NaN)
        pu, pm, pd = stack.slots[:, :, 1:-1]
        sep = stack.separators
        tmp = np.empty_like(h[0, 1:-1])
    for a, b in stack.chunks():
        np.multiply(stack.input_weight(a, h[a:b]), stack.stacked_input(x, a, xs[:b - a]),
                    out=h[a:b])
        if a == 0:
            h[0] = xs[0]
        if stack.kind == ConnectionKind.ONE_WAY:
            for t in range(max(a, 1), b):
                np.multiply(p[t], h[t - 1], out=tmp)
                h[t] += tmp
            continue
        for t in range(max(a, 1), b):
            prev, row = h[t - 1], h[t, 1:-1]
            np.multiply(pu[t], prev[:-2], out=tmp)
            row += tmp
            np.multiply(pm[t], prev[1:-1], out=tmp)
            row += tmp
            np.multiply(pd[t], prev[2:], out=tmp)
            row += tmp
            h[t, sep] = 0.0
    return ScanCache(stack, x, h)


def _scan_backward(cache: ScanCache, g: np.ndarray, dslots: np.ndarray) -> None:
    """Exact reverse pass of one fused scan, in place.

    `g` is the upstream gradient in the stack's (steps, rows, C) layout, as
    `ScanStack.route` gives it; it is overwritten with the input gradient in
    the same layout. The gate gradient is added into `dslots`, shaped like
    the stack's `slots`. Chunk by chunk, last first, the loop completes the
    adjoint of h on the chunk's steps; then, while they are in cache, each
    slot's gate gradient gets one subtract, multiply and add, and the input
    gradient one multiply. Entries of `dslots` on separator lines, and at
    gates the boundary contract pins to zero, hold no gradient:
    `spn_backward` zeros the pinned ones after writing the blocks to the
    grid.
    """
    st = cache.stack
    if st.kind == ConnectionKind.ONE_WAY:
        p = st.slots[0]
        carry = np.empty_like(g[0])
    else:
        pu, pm, pd = st.slots
        pu, pd = pu[:, 1:], pd[:, :-1]
        sep = st.separators
        carry = np.empty_like(g[0])
        tmp = np.empty_like(g[0, 1:])
    # slot k of row r reads previous-step row r + k - pad, so the rows
    # between the outer separators see every neighbour they need
    core = slice(st.pad, g.shape[1] - st.pad)
    buf = np.empty_like(g[:st.chunk_steps])
    part = np.empty_like(buf[:, core])
    for a, b in reversed(st.chunks()):
        lo = max(a, 1)
        if st.kind == ConnectionKind.ONE_WAY:
            for t in range(b - 1, lo - 1, -1):
                np.multiply(p[t], g[t], out=carry)
                g[t - 1] += carry
        else:
            for t in range(b - 1, lo - 1, -1):
                gt = g[t]
                np.multiply(pm[t], gt, out=carry)
                np.multiply(pu[t], gt[1:], out=tmp)
                carry[:-1] += tmp
                np.multiply(pd[t], gt[:-1], out=tmp)
                carry[1:] += tmp
                g[t - 1] += carry
                g[t - 1, sep] = 0.0
        # g now holds the adjoint of h on steps lo..b-1; the first step
        # has no gates, and its input gradient is g itself
        if lo == b:
            continue
        x = st.stacked_input(cache.x, lo, buf[:b - lo])[:, core]
        gn, prev, res = g[lo:b, core], cache.h_scan[lo - 1:b - 1], part[:b - lo]
        for k, acc in enumerate(dslots[:, lo:b, core]):
            np.subtract(prev[:, k:k + res.shape[1]], x, out=res)
            res *= gn
            acc += res
        # the input gradient: (1 - sum(p)) * g
        np.multiply(st.input_weight(lo, buf[:b - lo]), g[lo:b], out=g[lo:b])


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
    for d, block in stack.blocks(_scan(stack, x).h_scan):
        _step_major(h, d)[...] = block
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


def _stacks(gate_data: np.ndarray, kind: ConnectionKind, dtype) -> list:
    """A ScanStack per direction group of (H, W, C, 4, K) `gate_data`,
    their slots end to end in one buffer of `dtype`."""
    groups = _direction_groups(gate_data.shape[0], gate_data.shape[1])
    gate_dirs = [[gate_data[:, :, :, d, :] for d in group] for group in groups]
    sizes = [math.prod(ScanStack.slots_shape(g[0], group, kind))
             for g, group in zip(gate_dirs, groups)]
    buffer = np.empty(sum(sizes), dtype=dtype)
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    return [ScanStack(g, group, kind, dtype, buffer, offset)
            for g, group, offset in zip(gate_dirs, groups, offsets)]


def spn_forward(x: np.ndarray, gate_data: np.ndarray, kind: ConnectionKind,
                units: int = 1, check: bool = True):
    """Run `units` cascaded propagation units with shared gates.

    Each unit scans in all four directions and max-pools the results; the next
    unit consumes the pooled output. Directions that share a scan shape run
    as one fused scan (see the module docstring). Returns (out, caches); the
    caches serve one `spn_backward`.
    """
    if units < 1:
        raise DimensionError("units must be >= 1")
    _check_inputs(x, gate_data, (4, kind.gates_per_direction))
    if check:
        check_boundary_zeros(gate_data, kind)
    stacks = _stacks(gate_data, kind, x.dtype)
    caches = []
    cur = x.copy()  # the first unit's cached input stays apart from the caller's
    for _ in range(units):
        hs = np.empty((4,) + x.shape, dtype=x.dtype)
        scans = [_scan(st, cur) for st in stacks]
        for sc in scans:
            for d, block in sc.stack.blocks(sc.h_scan):
                _step_major(hs[d], d)[...] = block
        cur, winner = integrate_max(hs)
        caches.append(UnitCache(scans, winner))
    return cur, caches


def _unit_backward(unit: UnitCache, grad: np.ndarray, dslots: list) -> np.ndarray:
    """Reverse pass of one propagation unit; returns its input gradient.

    The max pool's gradient goes to each direction's block of its stack
    directly (`ScanStack.route`). Adds each direction group's gate gradient
    into its `dslots` entry, then drops each scan's input and output. The
    stacked gradients die on return, before the next unit allocates its
    own: `spn_backward`'s peak memory depends on it.
    """
    stacks = [sc.stack for sc in unit.scans]
    gs = [st.route(grad, unit.winner) for st in stacks]
    for sc, g, acc in zip(unit.scans, gs, dslots):
        _scan_backward(sc, g, acc)
        sc.x = sc.h_scan = None
    # ((d0 + d1) + d2) + d3, read straight from the directions' blocks
    dx = np.empty(grad.shape, dtype=gs[0].dtype)
    (d, block), *rest = [b for st, g in zip(stacks, gs) for b in st.blocks(g)]
    _step_major(dx, d)[...] = block
    for d, block in rest:
        view = _step_major(dx, d)
        view += block
    return dx


def spn_backward(grad: np.ndarray, caches: list):
    """Gradients of spn_forward: returns (dx, dgates (H, W, C, 4, K)),
    both in the scan's dtype, the dtype of the forward's `x`.

    `caches` serve this one call: each unit's scan inputs and outputs are
    dropped as its reverse pass ends, and dgates is written into the
    stacks' slots, which no unit reads after the last, so it shares memory
    with the caches. Spent caches raise ContractError. Each direction
    group's gate gradient is summed over the units in its stack's layout
    and written to dgates once, after the last unit.
    """
    if any(sc.h_scan is None for unit in caches for sc in unit.scans):
        raise ContractError("spn_backward: these caches have served a backward "
                            "already; run spn_forward again")
    stacks = [sc.stack for sc in caches[0].scans]
    dslots = [np.zeros_like(st.slots) for st in stacks]
    g = grad
    for unit in reversed(caches):
        g = _unit_backward(unit, g, dslots)
    shape = caches[0].winner.shape + (4, stacks[0].kind.gates_per_direction)
    dgates = stacks[0].buffer[:math.prod(shape)].reshape(shape)
    # one copy per slot: a copy that put the slot axis innermost would run
    # its inner loop over three floats at a time
    for st, acc in zip(stacks, dslots):
        for r in st.row_blocks():
            for k, slot in enumerate(acc):
                for d, block in st.blocks(slot, r):
                    _step_major(dgates[r, :, :, d, k], d)[...] = block
    return g, zero_boundary(dgates, stacks[0].kind)


def step_matrix(gate_line: np.ndarray, kind: ConnectionKind) -> np.ndarray:
    """Dense (n, n) one-step transfer matrix for one step's gates.

    `gate_line` is (n, K), one row per line, as `_step_major(gates, d)[t]`
    gives it for one channel: entry (i, j) of the result weights line j of
    the previous step, i-1, i or i+1, feeding line i.
    """
    _, k = gate_line.shape
    if k != kind.gates_per_direction:
        raise DimensionError(f"gate line has {k} slots, kind needs {kind.gates_per_direction}")
    if kind == ConnectionKind.ONE_WAY:
        return np.diag(gate_line[:, 0])
    w = np.diag(gate_line[:, GATE_SAME])
    # on one line the off-diagonals are empty: np.diag gives a 1x1 zero
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
