import numpy as np
import pytest

from spnkit.affinity import (
    MAX_ORACLE_PIXELS,
    build_dense_affinity,
    impulse_response,
    laplacian_decompose,
    oracle_propagate,
    scan_permutation,
    sparsity_stats,
    step_spectra,
    unvec_map,
    vec_map,
)
from spnkit.errors import DimensionError
from spnkit.propagation import (
    ConnectionKind,
    Direction,
    GATE_PREV,
    GATE_SAME,
    GATE_NEXT,
    _step_major,
    propagate_direction,
    random_gates,
    zero_boundary,
)
from spnkit.stability import gate_abs_sums, project_gates

ONE = ConnectionKind.ONE_WAY
THREE = ConnectionKind.THREE_WAY
LTR = Direction.LEFT_TO_RIGHT


def test_step_major_and_vec_map_by_index_arithmetic():
    # step t of line i is the pixel each direction reaches at step t on
    # line i; vec_map puts it at row t * lines + i
    height, width = 3, 5
    grid = np.arange(height * width).reshape(height, width)
    reached = {
        Direction.LEFT_TO_RIGHT: (width, height, lambda t, i: grid[i, t]),
        Direction.RIGHT_TO_LEFT: (width, height, lambda t, i: grid[i, width - 1 - t]),
        Direction.TOP_TO_BOTTOM: (height, width, lambda t, i: grid[t, i]),
        Direction.BOTTOM_TO_TOP: (height, width, lambda t, i: grid[height - 1 - t, i]),
    }
    for d, (steps, lines, pixel) in reached.items():
        view = _step_major(grid, d)
        vec = vec_map(grid[:, :, None], d)[:, 0]
        assert view.shape == (steps, lines)
        for t in range(steps):
            for i in range(lines):
                assert view[t, i] == pixel(t, i)
                assert vec[t * lines + i] == pixel(t, i)


def test_vec_unvec_roundtrip_all_directions():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 2))
    for d in Direction:
        v = vec_map(x, d)
        assert v.shape == (12, 2)
        np.testing.assert_array_equal(unvec_map(v, 3, 4, d), x)


def test_scan_permutation_matches_vec():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 2))
    for d in Direction:
        perm = scan_permutation(4, 3, d)
        v = vec_map(x, d)
        for c in range(2):
            np.testing.assert_array_equal(v[:, c], x[:, :, c].reshape(-1)[perm])


def test_dense_frozen_2x2_blocks():
    g = np.zeros((2, 2, 1, 3))
    g[0, 1, 0, GATE_SAME] = 0.2
    g[0, 1, 0, GATE_NEXT] = 0.3
    g[1, 1, 0, GATE_PREV] = 0.1
    g[1, 1, 0, GATE_SAME] = 0.4
    aff = build_dense_affinity(g, LTR, THREE)
    G = aff.G[0]
    np.testing.assert_allclose(G[:2, :2], np.eye(2))
    np.testing.assert_allclose(G[:2, 2:], 0.0)
    np.testing.assert_allclose(G[2:, :2], [[0.2, 0.3], [0.1, 0.4]])
    np.testing.assert_allclose(G[2:, 2:], np.diag([0.5, 0.5]))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    h = oracle_propagate(x, g, LTR, THREE)
    np.testing.assert_allclose(h[:, 1, 0], [2.1, 3.3])


def test_rows_sum_to_one_any_gates():
    rng = np.random.default_rng(2)
    for kind in (ONE, THREE):
        for d in Direction:
            # deliberately unprojected, signed gates: the row-sum identity
            # needs no stability assumption
            g = random_gates(5, 4, 2, kind, rng, low=-1.5, high=1.5)
            aff = build_dense_affinity(g[:, :, :, d, :], d, kind)
            np.testing.assert_allclose(aff.row_sums(), 1.0, atol=1e-12)


def test_scan_matches_oracle_f64():
    rng = np.random.default_rng(3)
    for trial in range(12):
        h_ = int(rng.integers(1, 9))
        w_ = int(rng.integers(1, 9))
        c_ = int(rng.integers(1, 4))
        kind = ONE if trial % 2 == 0 else THREE
        d = Direction(trial % 4)
        x = rng.standard_normal((h_, w_, c_))
        g = random_gates(h_, w_, c_, kind, rng, low=-0.4, high=0.6)
        scan = propagate_direction(x, g[:, :, :, d, :], d, kind)
        dense = oracle_propagate(x, g[:, :, :, d, :], d, kind)
        np.testing.assert_allclose(scan, dense, atol=1e-10)


def test_scan_matches_oracle_f32():
    rng = np.random.default_rng(4)
    for d in Direction:
        x = rng.standard_normal((6, 7, 2)).astype(np.float32)
        g = random_gates(6, 7, 2, THREE, rng, high=0.3).astype(np.float32)
        scan = propagate_direction(x, g[:, :, :, d, :], d, THREE)
        dense = oracle_propagate(x.astype(np.float64),
                                 g[:, :, :, d, :].astype(np.float64), d, THREE)
        np.testing.assert_allclose(scan, dense, atol=1e-5)


def test_block_lower_triangular_and_sparsity():
    rng = np.random.default_rng(5)
    g = random_gates(4, 5, 1, THREE, rng, high=0.3)
    for d in Direction:
        aff = build_dense_affinity(g[:, :, :, d, :], d, THREE)
        st = sparsity_stats(aff)
        assert st.block_lower_triangular
        assert 0 < st.nonzeros < st.entries
        assert st.density == st.nonzeros / st.entries


def test_laplacian_properties():
    rng = np.random.default_rng(6)
    g = random_gates(4, 4, 1, THREE, rng, high=0.3)
    aff = build_dense_affinity(g[:, :, :, 0, :], LTR, THREE)
    D, A, L = laplacian_decompose(aff)
    idx = np.arange(16)
    np.testing.assert_array_equal(A[:, idx, idx], 0.0)
    # off-diagonal entries are affinities, nonnegative for nonnegative gates
    assert A.min() >= 0.0
    np.testing.assert_allclose(L.sum(axis=2), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.eye(16)[None] - L, aff.G, atol=1e-15)
    # one diffusion step under L is exactly the propagation output
    x = rng.standard_normal((4, 4, 1))
    v = vec_map(x, LTR)
    stepped = v[:, 0] - L[0] @ v[:, 0]
    h = propagate_direction(x, g[:, :, :, 0, :], LTR, THREE)
    np.testing.assert_allclose(stepped, vec_map(h, LTR)[:, 0], atol=1e-12)


def test_impulse_response_matches_scan_delta():
    rng = np.random.default_rng(7)
    g = random_gates(5, 6, 1, THREE, rng, high=0.3)
    for d in Direction:
        r, c = int(rng.integers(0, 5)), int(rng.integers(0, 6))
        resp = impulse_response(g[:, :, :, d, :], d, THREE, r, c)
        x = np.zeros((5, 6, 1))
        x[r, c, 0] = 1.0
        h = propagate_direction(x, g[:, :, :, d, :], d, THREE)
        np.testing.assert_allclose(resp, h[:, :, 0], atol=1e-12)


def test_impulse_trinomial_row_frozen():
    # uniform 1/3 gates spread a first-column delta like trinomial weights
    g = zero_boundary(np.full((9, 4, 1, 4, 3), 1.0 / 3.0), THREE)
    resp = impulse_response(g[:, :, :, 0, :], LTR, THREE, 4, 0)
    np.testing.assert_allclose(resp[2:7, 2],
                               np.array([1, 2, 3, 2, 1]) / 9.0, atol=1e-12)
    assert resp[1, 2] == 0.0 and resp[7, 2] == 0.0


def test_step_spectra_frozen_eigvals():
    g = np.zeros((2, 2, 1, 3))
    g[0, 1, 0, GATE_SAME] = 0.5
    g[0, 1, 0, GATE_NEXT] = 0.3
    g[1, 1, 0, GATE_PREV] = 0.2
    g[1, 1, 0, GATE_SAME] = 0.6
    # closed form for [[0.5, 0.3], [0.2, 0.6]]: (1.1 +- 0.5) / 2
    radii = step_spectra(g, LTR, THREE)
    np.testing.assert_allclose(radii, [[0.8]], atol=1e-12)


def test_step_spectra_bounded_after_projection():
    rng = np.random.default_rng(8)
    g = random_gates(6, 6, 2, THREE, rng, low=-2.0, high=2.0)
    g = project_gates(g, THREE)
    assert gate_abs_sums(g, THREE).max() <= 1.0 + 1e-12
    for d in Direction:
        radii = step_spectra(g[:, :, :, d, :], d, THREE)
        assert radii.max() <= 1.0 + 1e-9


def test_oracle_cap():
    g = np.zeros((21, 21, 1, 1))
    with pytest.raises(DimensionError, match="capped"):
        build_dense_affinity(g, LTR, ONE)


def test_oracle_rejects_boundary_violation():
    g = np.full((3, 3, 1, 1), 0.5)
    with pytest.raises(Exception, match="boundary"):
        build_dense_affinity(g, LTR, ONE)
