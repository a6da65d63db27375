import tracemalloc

import numpy as np
import pytest

from spnkit.errors import ContractError, DimensionError
from spnkit.fdcheck import check_gradient
from spnkit.propagation import (
    DIRECTION_NAMES,
    Direction,
    ConnectionKind,
    GATE_PREV,
    GATE_SAME,
    GATE_NEXT,
    boundary_mask,
    check_boundary_zeros,
    ScanStack,
    integrate_max,
    propagate_direction,
    random_gates,
    spn_forward,
    spn_backward,
    step_matrix,
    zero_boundary,
)

from bits import assert_same_bits

ONE = ConnectionKind.ONE_WAY
THREE = ConnectionKind.THREE_WAY


def integrate_max_backward(grad, winner):
    """The max pool's gradient as a zeroed (4, H, W, C) array and a
    `put_along_axis`: what `ScanStack.route` replaced, with `ScanStack.stack`."""
    out = np.zeros((4,) + grad.shape, dtype=grad.dtype)
    np.put_along_axis(out, winner[None], grad[None], axis=0)
    return out


def dir_gates(h, w, c, kind, fill=0.0, dtype=np.float64):
    return np.full((h, w, c, kind.gates_per_direction), fill, dtype=dtype)


def test_one_way_frozen_2x2():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    g = dir_gates(2, 2, 1, ONE)
    g[:, 1, 0, 0] = 0.5
    h = propagate_direction(x, g, Direction.LEFT_TO_RIGHT, ONE)
    np.testing.assert_allclose(h[:, :, 0], [[1.0, 1.5], [3.0, 3.5]])


def test_one_way_frozen_rtl_1x3():
    x = np.array([[1.0, 2.0, 3.0]])[:, :, None]
    g = dir_gates(1, 3, 1, ONE)
    g[0, 0, 0, 0] = 0.5
    g[0, 1, 0, 0] = 0.5
    h = propagate_direction(x, g, Direction.RIGHT_TO_LEFT, ONE)
    np.testing.assert_allclose(h[0, :, 0], [1.75, 2.5, 3.0])


def test_one_way_frozen_ttb_btt_3x1():
    x = np.array([[1.0], [2.0], [3.0]])[:, :, None]
    g = dir_gates(3, 1, 1, ONE)
    g[1:, 0, 0, 0] = 0.5
    h = propagate_direction(x, g, Direction.TOP_TO_BOTTOM, ONE)
    np.testing.assert_allclose(h[:, 0, 0], [1.0, 1.5, 2.25])
    g2 = dir_gates(3, 1, 1, ONE)
    g2[:2, 0, 0, 0] = 0.5
    h2 = propagate_direction(x, g2, Direction.BOTTOM_TO_TOP, ONE)
    np.testing.assert_allclose(h2[:, 0, 0], [1.75, 2.5, 3.0])


def test_three_way_frozen_2x2():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    g = dir_gates(2, 2, 1, THREE)
    g[0, 1, 0, GATE_SAME] = 0.2
    g[0, 1, 0, GATE_NEXT] = 0.3
    g[1, 1, 0, GATE_PREV] = 0.1
    g[1, 1, 0, GATE_SAME] = 0.4
    h = propagate_direction(x, g, Direction.LEFT_TO_RIGHT, THREE)
    np.testing.assert_allclose(h[:, 0, 0], [1.0, 3.0])
    np.testing.assert_allclose(h[:, 1, 0], [2.1, 3.3])


def test_three_way_frozen_ttb_neighbors():
    # vertical scans read left/same/right columns of the previous row
    x = np.array([[1.0, 2.0], [0.0, 0.0]])[:, :, None]
    g = dir_gates(2, 2, 1, THREE)
    g[1, 0, 0, GATE_SAME] = 0.2
    g[1, 0, 0, GATE_NEXT] = 0.3
    g[1, 1, 0, GATE_PREV] = 0.4
    g[1, 1, 0, GATE_SAME] = 0.1
    h = propagate_direction(x, g, Direction.TOP_TO_BOTTOM, THREE)
    np.testing.assert_allclose(h[1, :, 0], [0.8, 0.6])


def test_zero_gates_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5, 3))
    for kind in (ONE, THREE):
        for d in Direction:
            g = dir_gates(4, 5, 3, kind)
            h = propagate_direction(x, g, d, kind)
            np.testing.assert_array_equal(h, x)


def test_constant_input_is_fixed_point_for_any_gates():
    # holds with no stability projection at all: coefficients sum to one
    rng = np.random.default_rng(1)
    for kind in (ONE, THREE):
        for d in Direction:
            g = random_gates(5, 6, 2, kind, rng, low=-0.8, high=0.8)
            x = np.full((5, 6, 2), 2.25)
            h = propagate_direction(x, g[:, :, :, d, :], d, kind)
            np.testing.assert_allclose(h, 2.25, atol=1e-12)


def test_full_retention_one_way():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 6, 1))
    g = dir_gates(3, 6, 1, ONE)
    g[:, 1:, :, 0] = 1.0
    h = propagate_direction(x, g, Direction.LEFT_TO_RIGHT, ONE)
    for t in range(6):
        np.testing.assert_allclose(h[:, t], x[:, 0])


def test_boundary_contract_raises():
    x = np.zeros((3, 3, 1))
    g = dir_gates(3, 3, 1, ONE)
    g[:, 0, 0, 0] = 0.5  # first scan column for LTR must stay zero
    with pytest.raises(ContractError):
        propagate_direction(x, g, Direction.LEFT_TO_RIGHT, ONE)
    g3 = dir_gates(3, 3, 1, THREE)
    g3[0, 1, 0, GATE_PREV] = 0.1  # top row has no upper diagonal neighbor
    with pytest.raises(ContractError):
        propagate_direction(x, g3, Direction.LEFT_TO_RIGHT, THREE)


@pytest.mark.parametrize("shape", [(4, 5), (4, 5, 2, 1)])
def test_scan_rejects_input_not_hwc(shape):
    # gates shaped like the input plus the slot axes used to pass the shape
    # check, and the scan then failed with an IndexError
    x = np.zeros(shape)
    for kind in (ONE, THREE):
        k = kind.gates_per_direction
        with pytest.raises(DimensionError, match=r"expected \(H, W, C\)"):
            spn_forward(x, np.zeros(shape + (4, k)), kind)
        with pytest.raises(DimensionError, match=r"expected \(H, W, C\)"):
            propagate_direction(x, np.zeros(shape + (k,)), Direction.LEFT_TO_RIGHT, kind)


def test_boundary_mask_counts():
    m = boundary_mask(4, 5, THREE)
    assert m.shape == (4, 5, 4, 3)
    # horizontal: first column masks 3 slots on 4 rows, plus top/bottom rows
    ltr = m[:, :, Direction.LEFT_TO_RIGHT, :]
    assert ltr[:, 0, :].all()
    assert ltr[0, :, GATE_PREV].all()
    assert ltr[3, :, GATE_NEXT].all()
    assert not ltr[1:3, 1:, GATE_SAME].any()
    ttb = m[:, :, Direction.TOP_TO_BOTTOM, :]
    assert ttb[0, :, :].all()
    assert ttb[:, 0, GATE_PREV].all()
    assert ttb[:, 4, GATE_NEXT].all()


def test_impulse_cone_three_way():
    h_, w_ = 7, 5
    x = np.zeros((h_, w_, 1))
    x[3, 0, 0] = 1.0
    g = zero_boundary(np.full((h_, w_, 1, 4, 3), 1.0 / 3.0), THREE)
    h = propagate_direction(x, g[:, :, :, Direction.LEFT_TO_RIGHT, :],
                            Direction.LEFT_TO_RIGHT, THREE)
    for t in range(w_):
        for i in range(h_):
            if abs(i - 3) <= t:
                assert h[i, t, 0] > 0.0
            else:
                assert h[i, t, 0] == 0.0
    np.testing.assert_allclose(h[2:5, 1, 0], 1.0 / 3.0, atol=1e-15)
    assert h[1, 1, 0] == 0.0


def test_dtype_parity_f32_f64():
    rng = np.random.default_rng(3)
    x64 = rng.standard_normal((6, 7, 2))
    g64 = random_gates(6, 7, 2, THREE, rng, high=0.3)
    out64, _ = spn_forward(x64, g64, THREE, units=2)
    out32, _ = spn_forward(x64.astype(np.float32), g64.astype(np.float32),
                           THREE, units=2)
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32, out64, atol=1e-5)


def test_step_matrix_frozen():
    line = np.array([[0.0, 0.2, 0.3], [0.1, 0.4, 0.0]])
    w = step_matrix(line, THREE)
    np.testing.assert_allclose(w, [[0.2, 0.3], [0.1, 0.4]])
    d = step_matrix(np.array([[0.7], [0.2]]), ONE)
    np.testing.assert_allclose(d, [[0.7, 0.0], [0.0, 0.2]])


def test_integrate_max_tie_break():
    stack = np.zeros((4, 1, 2, 1))
    stack[:, 0, 0, 0] = [1.0, 3.0, 3.0, 2.0]
    stack[:, 0, 1, 0] = [5.0, 5.0, 5.0, 5.0]
    out, winner = integrate_max(stack)
    assert out[0, 0, 0] == 3.0 and winner[0, 0, 0] == 1
    assert out[0, 1, 0] == 5.0 and winner[0, 1, 0] == 0


def test_integrate_max_backward_routes_single_winner():
    rng = np.random.default_rng(4)
    h_stack = rng.standard_normal((4, 3, 3, 2))
    out, winner = integrate_max(h_stack)
    grad = rng.standard_normal(out.shape)
    gates = random_gates(3, 3, 2, THREE, rng)
    st = ScanStack([gates[:, :, :, d, :] for d in Direction], tuple(Direction),
                   THREE, grad.dtype)
    back = np.empty((4,) + grad.shape)
    st.unstack(st.route(grad, winner), back)
    np.testing.assert_allclose(back.sum(axis=0), grad)
    assert (np.count_nonzero(back, axis=0) <= 1).all()


def test_units_cascade():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 5, 2))
    g = random_gates(5, 5, 2, THREE, rng, high=0.3)
    out2, _ = spn_forward(x, g, THREE, units=2)
    mid, _ = spn_forward(x, g, THREE, units=1)
    out2b, _ = spn_forward(mid, g, THREE, units=1)
    np.testing.assert_array_equal(out2, out2b)


def test_scan_backward_zero_at_boundary_gates():
    rng = np.random.default_rng(7)
    for kind in (ONE, THREE):
        for height, width in ((4, 4), (4, 6)):  # one stack, two stacks
            x = rng.standard_normal((height, width, 2))
            g = random_gates(height, width, 2, kind, rng, high=0.2)
            _, caches = spn_forward(x, g, kind, units=2)
            _, dg = spn_backward(np.ones_like(x), caches)
            pinned = np.broadcast_to(
                boundary_mask(height, width, kind)[:, :, None], dg.shape)
            assert (dg[pinned] == 0.0).all()
            assert (dg[~pinned] != 0.0).any()


def test_spn_backward_fd_with_winner_signature():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 4, 2))
    g = random_gates(4, 4, 2, THREE, rng, high=0.3)
    w = rng.standard_normal(x.shape)
    out, caches = spn_forward(x, g, THREE, units=2)
    dx, dg = spn_backward(w, caches)

    def loss_x(a):
        o, _ = spn_forward(a, g, THREE, units=2)
        return float((o * w).sum())

    def sig_x(a):
        _, cs = spn_forward(a, g, THREE, units=2)
        return tuple(c.winner.tobytes() for c in cs)

    res = check_gradient(loss_x, x, dx, rng=rng, num=50, signature=sig_x)
    assert res.checked >= 30
    assert res.max_rel_err < 1e-6, str(res)

    def loss_g(a):
        o, _ = spn_forward(x, a, THREE, units=2, check=False)
        return float((o * w).sum())

    def sig_g(a):
        _, cs = spn_forward(x, a, THREE, units=2, check=False)
        return tuple(c.winner.tobytes() for c in cs)

    valid = ~boundary_mask(4, 4, THREE)
    mask = np.broadcast_to(valid[:, :, None, :, :], g.shape).copy()
    res = check_gradient(loss_g, g, dg, rng=rng, num=50, mask=mask, signature=sig_g)
    assert res.checked >= 30
    assert res.max_rel_err < 1e-6, str(res)


def test_random_gates_respect_contract_and_projection():
    rng = np.random.default_rng(9)
    g = random_gates(5, 6, 2, THREE, rng, low=-2.0, high=2.0, project=True)
    check_boundary_zeros(g, THREE)
    assert np.abs(g).sum(axis=4).max() <= 1.0 + 1e-12


def test_single_line_grids():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 5, 1))
    g = random_gates(1, 5, 1, THREE, rng, high=0.3)
    h = propagate_direction(x, g[:, :, :, 0, :], Direction.LEFT_TO_RIGHT, THREE)
    assert h.shape == x.shape
    xc = rng.standard_normal((5, 1, 1))
    gc = random_gates(5, 1, 1, ONE, rng, high=0.5)
    h2 = propagate_direction(xc, gc[:, :, :, 0, :], Direction.LEFT_TO_RIGHT, ONE)
    np.testing.assert_array_equal(h2, xc)


# --- the fused scan against a per-direction reference -------------------
#
# The reference is the straightforward form of the recurrence: one Python
# time loop per direction in canonical (lines, steps) coordinates, fresh
# zero-padded neighbour shifts at every step. The fused scan performs the
# same floating-point operations in the same order, so results must be
# exactly equal, not merely close.

def _ref_scan(x, gates, kind):
    """One canonical scan. x: (n, T, C), gates: (n, T, C, K)."""
    h = np.empty_like(x)
    h[:, 0] = x[:, 0]
    for t in range(1, x.shape[1]):
        prev = h[:, t - 1]
        if kind == ONE:
            p = gates[:, t, :, 0]
            h[:, t] = (1.0 - p) * x[:, t] + p * prev
            continue
        pu, pm, pd = (gates[:, t, :, s] for s in (GATE_PREV, GATE_SAME, GATE_NEXT))
        up = np.zeros_like(prev)
        up[1:] = prev[:-1]
        dn = np.zeros_like(prev)
        dn[:-1] = prev[1:]
        h[:, t] = (1.0 - pu - pm - pd) * x[:, t] + pu * up + pm * prev + pd * dn
    return h


def _ref_scan_backward(x, h, gates, grad, kind):
    """Reverse pass of _ref_scan; boundary gate gradients are zero."""
    n, length, _ = x.shape
    dx = np.zeros_like(x)
    dgates = np.zeros_like(gates)
    carry = np.zeros_like(x[:, 0])
    for t in range(length - 1, 0, -1):
        g = grad[:, t] + carry
        prev = h[:, t - 1]
        if kind == ONE:
            p = gates[:, t, :, 0]
            dx[:, t] = (1.0 - p) * g
            dgates[:, t, :, 0] = (prev - x[:, t]) * g
            carry = p * g
            continue
        pu, pm, pd = (gates[:, t, :, s] for s in (GATE_PREV, GATE_SAME, GATE_NEXT))
        up = np.zeros_like(prev)
        up[1:] = prev[:-1]
        dn = np.zeros_like(prev)
        dn[:-1] = prev[1:]
        dx[:, t] = (1.0 - pu - pm - pd) * g
        dgates[:, t, :, GATE_PREV] = (up - x[:, t]) * g
        dgates[:, t, :, GATE_SAME] = (prev - x[:, t]) * g
        dgates[:, t, :, GATE_NEXT] = (dn - x[:, t]) * g
        carry = pm * g
        pug = pu * g
        carry[:-1] += pug[1:]
        pdg = pd * g
        carry[1:] += pdg[:-1]
    dx[:, 0] = grad[:, 0] + carry
    if kind == THREE:
        dgates[0, :, :, GATE_PREV] = 0.0
        dgates[n - 1, :, :, GATE_NEXT] = 0.0
    return dx, dgates


def _to_scan(arr, direction):
    """View an array in scan coordinates: axis 0 holds the lines, axis 1
    advances with the scan."""
    if direction == Direction.LEFT_TO_RIGHT:
        return arr
    if direction == Direction.RIGHT_TO_LEFT:
        return arr[:, ::-1]
    if direction == Direction.TOP_TO_BOTTOM:
        return arr.swapaxes(0, 1)
    return arr.swapaxes(0, 1)[:, ::-1]


def _from_scan(arr, direction):
    """Inverse of `_to_scan`: scan coordinates back to grid orientation."""
    if direction == Direction.LEFT_TO_RIGHT:
        return arr
    if direction == Direction.RIGHT_TO_LEFT:
        return arr[:, ::-1]
    if direction == Direction.TOP_TO_BOTTOM:
        return arr.swapaxes(0, 1)
    return arr[:, ::-1].swapaxes(0, 1)


def argmax_integrate_max(h_stack):
    """The max pool as `np.argmax` plus a gather: what `integrate_max` replaced."""
    winner = np.argmax(h_stack, axis=0).astype(np.int8)
    out = np.take_along_axis(h_stack, winner[None].astype(np.intp), axis=0)[0]
    return out, winner


def masked_integrate_max_backward(grad, winner):
    """One masked copy per direction: what `integrate_max_backward` replaced."""
    out = np.zeros((4,) + grad.shape, dtype=grad.dtype)
    for d in range(4):
        np.copyto(out[d], grad, where=(winner == d))
    return out


def ref_spn_forward(x, gate_data, kind, units):
    caches, cur = [], x
    for _ in range(units):
        hs = np.empty((4,) + x.shape, dtype=x.dtype)
        scans = []
        for d in Direction:
            xs = np.ascontiguousarray(_to_scan(cur, d))
            gs = np.ascontiguousarray(_to_scan(gate_data[:, :, :, d, :], d))
            h = _ref_scan(xs, gs, kind)
            hs[d] = _from_scan(h, d)
            scans.append((d, xs, h, gs))
        cur, winner = argmax_integrate_max(hs)
        caches.append((scans, winner))
    return cur, caches


def ref_spn_backward(grad, caches, kind):
    dgates = np.zeros(grad.shape + (4, kind.gates_per_direction), dtype=grad.dtype)
    g = grad
    for scans, winner in reversed(caches):
        per_dir = masked_integrate_max_backward(g, winner)
        gx = np.zeros_like(g)
        for d, xs, h, gs in scans:
            grad_s = np.ascontiguousarray(_to_scan(per_dir[d], d))
            dxs, dgs = _ref_scan_backward(xs, h, gs, grad_s, kind)
            gx += _from_scan(dxs, d)
            dgates[:, :, :, d, :] += _from_scan(dgs, d)
        g = gx
    return g, dgates


FUSED_GRIDS = [(1, 1), (1, 6), (6, 1), (2, 13), (9, 4), (7, 7)]


def _assert_matches_reference(x, gates, kind, units, check):
    rng = np.random.default_rng(x.size)
    w = rng.standard_normal(x.shape).astype(x.dtype)
    out, caches = spn_forward(x, gates, kind, units, check=check)
    ref_out, ref_caches = ref_spn_forward(x, gates, kind, units)
    assert out.dtype == x.dtype
    assert np.array_equal(out, ref_out)
    for unit, (_, ref_winner) in zip(caches, ref_caches):
        assert np.array_equal(unit.winner, ref_winner)
    dx, dg = spn_backward(w, caches)
    ref_dx, ref_dg = ref_spn_backward(w, ref_caches, kind)
    assert_same_bits(dx, ref_dx)
    assert_same_bits(dg, ref_dg)
    return caches


@pytest.mark.parametrize("height,width", FUSED_GRIDS)
def test_fused_scan_matches_per_direction_reference(height, width):
    rng = np.random.default_rng(100 * height + width)
    for kind in (ONE, THREE):
        for dtype in (np.float32, np.float64):
            for units in (1, 3):
                gates = random_gates(height, width, 3, kind, rng, low=-0.5,
                                     high=0.6).astype(dtype)
                x = rng.standard_normal((height, width, 3)).astype(dtype)
                caches = _assert_matches_reference(x, gates, kind, units, True)
                # square grids fuse all four directions, others two pairs
                groups = [sc.stack.directions for sc in caches[0].scans]
                if height == width:
                    assert groups == [tuple(Direction)]
                else:
                    assert groups == [(Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT),
                                      (Direction.TOP_TO_BOTTOM, Direction.BOTTOM_TO_TOP)]


@pytest.mark.parametrize("height,width", [(5, 5), (4, 7), (1, 3)])
def test_fused_scan_exact_with_nonzero_boundary_gates(height, width):
    # check=False callers may leave boundary gates nonzero; the separator
    # lines must keep stacked directions from reading each other
    rng = np.random.default_rng(11)
    for kind in (ONE, THREE):
        for dtype in (np.float32, np.float64):
            gates = rng.uniform(-0.3, 0.3, (height, width, 2, 4,
                                            kind.gates_per_direction)).astype(dtype)
            assert (gates != 0.0).all()
            x = rng.standard_normal((height, width, 2)).astype(dtype)
            _assert_matches_reference(x, gates, kind, 2, False)


def test_single_direction_matches_reference():
    rng = np.random.default_rng(12)
    for kind in (ONE, THREE):
        for height, width in ((1, 1), (2, 13), (9, 4), (6, 6)):
            gates = random_gates(height, width, 2, kind, rng, high=0.3)
            x = rng.standard_normal((height, width, 2))
            for d in Direction:
                gd = gates[:, :, :, d, :]
                h = propagate_direction(x, gd, d, kind)
                xs = np.ascontiguousarray(_to_scan(x, d))
                gs = np.ascontiguousarray(_to_scan(gd, d))
                assert np.array_equal(h, _from_scan(_ref_scan(xs, gs, kind), d))


def test_backward_cache_exposes_gate_slot_count():
    # a caller sizing work from a cache reads the slot count off gates_scan
    rng = np.random.default_rng(13)
    for kind in (ONE, THREE):
        for height, width in ((6, 6), (5, 8)):
            gates = random_gates(height, width, 2, kind, rng, high=0.3)
            _, caches = spn_forward(rng.standard_normal((height, width, 2)),
                                    gates, kind, units=2)
            assert caches[0].scans[0].gates_scan.shape[-1] == kind.gates_per_direction


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@np.errstate(invalid="ignore", over="ignore")
def test_fused_scan_keeps_non_finite_input_to_its_direction(bad):
    # with check=False nothing screens x; a non-finite value on a block's
    # edge line must not cross the separator line into the next direction,
    # whether or not the boundary gates are zero
    rng = np.random.default_rng(14)
    for kind in (ONE, THREE):
        for height, width in ((7, 7), (6, 9)):
            for dtype, contract in ((np.float32, True), (np.float64, True),
                                    (np.float64, False)):
                gates = (random_gates(height, width, 2, kind, rng, high=0.3)
                         if contract else
                         rng.uniform(0.05, 0.3, (height, width, 2, 4,
                                                 kind.gates_per_direction)))
                gates = gates.astype(dtype)
                x = rng.standard_normal((height, width, 2)).astype(dtype)
                x[height - 1, width // 2, 0] = bad
                out, caches = spn_forward(x, gates, kind, 1, check=False)
                ref_out, ref_caches = ref_spn_forward(x, gates, kind, 1)
                assert np.isfinite(ref_out).any() and not np.isfinite(ref_out).all()
                assert np.array_equal(out, ref_out, equal_nan=True)
                w = rng.standard_normal(x.shape).astype(dtype)
                w[0, width // 2, 1] = bad
                dx, dg = spn_backward(w, caches)
                ref_dx, ref_dg = ref_spn_backward(w, ref_caches, kind)
                assert np.array_equal(dx, ref_dx, equal_nan=True)
                assert np.array_equal(dg, ref_dg, equal_nan=True)


# --- max pool and boundary zeros against the code they replaced ----------


def _pool_stacks(rng, dtype):
    """(4, H, W, C) stacks with ties, signed zeros, infinities and NaNs."""
    shape = (4, 9, 8, 3)
    yield rng.standard_normal(shape).astype(dtype)
    special = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan],
                       dtype=dtype)
    yield special[rng.integers(0, len(special), shape)]
    yield special[rng.integers(2, 5, shape)]  # mostly ties among -0, 0, 0.5
    mixed = rng.standard_normal(shape).astype(dtype)
    np.put_along_axis(mixed, rng.integers(0, 4, (1,) + shape[1:]), 0.0, axis=0)
    mixed[1:3] = np.where(rng.random(shape[1:]) < 0.3, mixed[0], mixed[1:3])
    mixed[3, 0] = np.nan
    mixed[:, 1] = -np.inf
    mixed[:2, 2] = np.nan
    yield mixed


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_integrate_max_matches_argmax_reference(dtype):
    rng = np.random.default_rng(15)
    for stack in _pool_stacks(rng, dtype):
        out, winner = integrate_max(stack)
        ref_out, ref_winner = argmax_integrate_max(stack)
        assert winner.dtype == np.int8 and out.dtype == dtype
        assert np.array_equal(winner, ref_winner)
        assert np.array_equal(out, ref_out, equal_nan=True)
        # `out` is the max itself, and the max of a -0/+0 tie may carry
        # either sign: the sign of a zero is the only bit allowed to differ
        # from h_stack[winner]
        sign_differs = np.signbit(out) != np.signbit(ref_out)
        assert (out[sign_differs] == 0.0).all()

        grad = rng.standard_normal(out.shape).astype(dtype)
        grad.flat[::5] = np.inf
        grad.flat[1::7] = -np.inf
        grad.flat[2::9] = np.nan
        back = integrate_max_backward(grad, winner)
        assert_same_bits(back, masked_integrate_max_backward(grad, ref_winner))
        # every entry, non-finite ones too, reaches its winner's direction only
        losers = np.arange(4)[:, None, None, None] != winner
        assert (back[losers] == 0.0).all()
        assert np.array_equal(np.take_along_axis(back, winner[None], axis=0)[0],
                              grad, equal_nan=True)


@pytest.mark.parametrize("height,width", [(6, 6), (5, 8), (1, 1), (1, 4)])
def test_routed_stack_matches_put_and_stack(height, width):
    # the max pool's gradient written straight into each stack against a
    # routed (4, H, W, C) array stacked after, bit for bit, with NaN, -0 and
    # +-inf in the gradient; a float multiply by the win mask keeps NaN on
    # the losing directions and gives -0 for a negative, and fails
    rng = np.random.default_rng(37 + 10 * height + width)
    for kind in (ONE, THREE):
        for dtype in (np.float32, np.float64):
            gates = random_gates(height, width, 3, kind, rng).astype(dtype)
            _, caches = spn_forward(rng.standard_normal((height, width, 3)).astype(dtype),
                                    gates, kind)
            stacks = [sc.stack for sc in caches[0].scans]
            assert len(stacks) == (1 if height == width else 2)
            winner = rng.integers(0, 4, (height, width, 3)).astype(np.int8)
            grad = rng.standard_normal(winner.shape).astype(dtype)
            grad.flat[::3] = -0.0
            grad.flat[1::5] = np.nan
            grad.flat[2::7] = np.inf
            grad.flat[3::11] = -np.inf
            grad.flat[4::13] = -np.nan
            routed = integrate_max_backward(grad, winner)
            for st in stacks:
                want = st.stack([routed[d] for d in st.directions])
                assert_same_bits(st.route(grad, winner), want)
                with pytest.raises(AssertionError, match="differ in their bits"), \
                     np.errstate(invalid="ignore"):
                    assert_same_bits(st.stack([grad * (winner == d) for d in st.directions]),
                                     want)


def scan_view_boundary_mask(height, width, kind):
    """The boundary geometry marked through `_to_scan` views of a boolean
    mask, as `boundary_mask` built it before `zero_boundary` owned it."""
    mask = np.zeros((height, width, 4, kind.gates_per_direction), dtype=bool)
    for d in Direction:
        m = _to_scan(mask[:, :, d, :], d)
        m[:, 0, :] = True
        if kind == THREE:
            m[0, :, GATE_PREV] = True
            m[-1, :, GATE_NEXT] = True
    return mask


@pytest.mark.parametrize("height,width", [(1, 1), (1, 6), (6, 1), (7, 7), (32, 48)])
@pytest.mark.parametrize("kind", [ONE, THREE])
def test_zero_boundary_matches_mask_multiply(height, width, kind):
    rng = np.random.default_rng(100 * height + width)
    g = rng.uniform(-1.0, 1.0, (height, width, 3, 4, kind.gates_per_direction))
    mask = scan_view_boundary_mask(height, width, kind)
    assert np.array_equal(boundary_mask(height, width, kind), mask)
    mask = mask[:, :, None]
    out = zero_boundary(g.copy(), kind)
    assert np.array_equal(out, g * ~mask)  # the multiply it replaced (+-0)
    assert out.tobytes() == np.where(mask, 0.0, g).tobytes()
    view = np.zeros((height, 2 * width) + g.shape[2:])[:, ::2]
    view[...] = g
    assert zero_boundary(view, kind) is view
    assert view.tobytes() == out.tobytes()


@pytest.mark.parametrize("height,width", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("kind", [ONE, THREE])
def test_zero_boundary_rejects_empty_grid(height, width, kind):
    g = np.zeros((height, width, 1, 4, kind.gates_per_direction))
    with pytest.raises(DimensionError, match="grid dimensions must be >= 1"):
        zero_boundary(g, kind)
    with pytest.raises(DimensionError, match="grid dimensions must be >= 1"):
        boundary_mask(height, width, kind)


def mask_check_boundary_zeros(gate_data, kind, direction=None):
    """The full-mask check: what `check_boundary_zeros` replaced."""
    mask = boundary_mask(gate_data.shape[0], gate_data.shape[1], kind)[:, :, None]
    where = "(row, col, chan, dir, slot)"
    if direction is not None:
        mask = mask[:, :, :, direction]
        where = f"direction {DIRECTION_NAMES[direction]}, (row, col, chan, slot)"
    bad = (gate_data != 0.0) & mask
    if bad.any():
        i = np.argwhere(bad)[0]
        raise ContractError(
            f"boundary gate must be zero at {where}="
            f"{tuple(int(v) for v in i)}, found {gate_data[tuple(i)]!r}")


def _check_message(check, gate_data, kind, direction=None):
    """The ContractError message `check` raises, or None if it passes."""
    try:
        check(gate_data, kind, direction)
    except ContractError as e:
        return str(e)
    return None


@pytest.mark.parametrize("height,width", [(1, 1), (1, 6), (6, 1), (4, 5), (6, 6)])
@pytest.mark.parametrize("kind", [ONE, THREE])
def test_check_boundary_zeros_matches_mask_reference(height, width, kind):
    # one nonzero or NaN pinned entry per direction x slot, at every pinned
    # position, must give the reference's message byte for byte; -0.0 passes
    rng = np.random.default_rng(10 * height + width)
    base = random_gates(height, width, 2, kind, rng, high=0.3)
    pinned = boundary_mask(height, width, kind)
    assert _check_message(check_boundary_zeros, base, kind) is None
    for d in Direction:
        assert _check_message(check_boundary_zeros, base[:, :, :, d], kind, d) is None
        for slot in range(kind.gates_per_direction):
            cells = np.argwhere(pinned[:, :, d, slot])
            assert len(cells)
            for r, c in cells:
                for value in (0.5, -1e-30, np.nan, -0.0):
                    g = base.copy()
                    g[r, c, 1, d, slot] = value
                    for data, direction in ((g, None), (g[:, :, :, d], d)):
                        msg = _check_message(check_boundary_zeros, data, kind, direction)
                        ref = _check_message(mask_check_boundary_zeros, data, kind, direction)
                        assert msg == ref
                        assert (msg is None) == (value == 0.0)
    # a NaN on a free gate is not the boundary check's business
    free = np.argwhere(~pinned)
    if len(free):
        r, c, d, slot = free[0]
        g = base.copy()
        g[r, c, 0, d, slot] = np.nan
        assert _check_message(check_boundary_zeros, g, kind) is None
        assert _check_message(mask_check_boundary_zeros, g, kind) is None


# --- spn_backward's memory -----------------------------------------------


@pytest.mark.parametrize("height,width,kind,bound", [
    (48, 48, THREE, 2.35), (32, 48, THREE, 2.44),
    (48, 48, ONE, 5.05), (32, 48, ONE, 5.32),
])
def test_spn_backward_peak_memory(height, width, kind, bound):
    # the peak traced allocation inside spn_backward, over the gate
    # gradient's size, may not exceed what the per-unit grid writes needed
    # (float32, C=4, two units; one stack at 48x48, two at 32x48)
    rng = np.random.default_rng(16)
    gates = random_gates(height, width, 4, kind, rng).astype(np.float32)
    x = rng.standard_normal((height, width, 4)).astype(np.float32)
    grad = rng.standard_normal(x.shape).astype(np.float32)
    _, caches = spn_forward(x, gates, kind, units=2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, dgates = spn_backward(grad, caches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dgates.shape == gates.shape
    assert peak / dgates.nbytes <= bound
