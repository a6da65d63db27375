import dataclasses

import numpy as np
import pytest

from spnkit.fdcheck import check_gradient
from spnkit.propagation import ConnectionKind, random_gates
from spnkit.stability import (
    STABILITY_TOL,
    gate_abs_sums,
    project_gates,
    project_gates_cached,
    project_gates_backward,
    verify_stability,
)

THREE = ConnectionKind.THREE_WAY
ONE = ConnectionKind.ONE_WAY


def embed(vec, kind):
    """Place one gate vector at an interior pixel of a 3x3 grid."""
    g = np.zeros((3, 3, 1, 4, kind.gates_per_direction))
    g[1, 1, 0, 0, :] = vec
    return g


def test_projection_frozen_values():
    g = embed([0.5, 0.4, 0.3], THREE)
    p = project_gates(g, THREE)
    np.testing.assert_allclose(p[1, 1, 0, 0, :], [0.5 / 1.2, 0.4 / 1.2, 0.3 / 1.2])
    np.testing.assert_allclose(p[1, 1, 0, 0, :].sum(), 1.0, atol=1e-15)


def test_projection_leaves_stable_rows_alone():
    g = embed([0.2, -0.3, 0.4], THREE)
    p = project_gates(g, THREE)
    np.testing.assert_array_equal(p, g)


def test_projection_preserves_sign_and_ratio():
    g = embed([-0.9, 0.6, -0.3], THREE)
    p = project_gates(g, THREE)[1, 1, 0, 0, :]
    assert p[0] < 0 < p[1] and p[2] < 0
    np.testing.assert_allclose(p[0] / p[1], -1.5, atol=1e-12)
    np.testing.assert_allclose(np.abs(p).sum(), 1.0, atol=1e-15)


def test_projection_idempotent():
    rng = np.random.default_rng(0)
    g = random_gates(4, 5, 2, THREE, rng, low=-1.5, high=1.5)
    p1 = project_gates(g, THREE)
    p2 = project_gates(p1, THREE)
    np.testing.assert_allclose(p2, p1, rtol=1e-14, atol=0)
    assert gate_abs_sums(p2, THREE).max() <= 1.0 + STABILITY_TOL


def test_projection_keeps_boundary_zeros():
    rng = np.random.default_rng(1)
    g = random_gates(4, 4, 1, THREE, rng, low=1.0, high=2.0)
    p = project_gates(g, THREE)
    assert (p[:, 0, 0, 0, :] == 0.0).all()


def test_projection_one_way_scalar():
    g = embed([1.6], ONE)
    p = project_gates(g, ONE)
    np.testing.assert_allclose(p[1, 1, 0, 0, 0], 1.0)
    g2 = embed([-2.0], ONE)
    np.testing.assert_allclose(project_gates(g2, ONE)[1, 1, 0, 0, 0], -1.0)


def test_verify_stability_frozen_bound():
    g = np.zeros((2, 2, 1, 4, 3))
    g[0, 1, 0, 0, :] = [0.0, 0.5, 0.3]
    g[1, 1, 0, 0, :] = [0.2, 0.6, 0.0]
    rep = verify_stability(g, THREE)
    assert rep.ok
    np.testing.assert_allclose(rep.max_abs_sum, 0.8)
    assert rep.pixels_exceeding == 0
    assert "ltr,0.8" in rep.to_csv()


def test_verify_stability_flags_unprojected():
    rng = np.random.default_rng(2)
    g = random_gates(5, 5, 1, THREE, rng, low=0.5, high=1.0)
    rep = verify_stability(g, THREE)
    assert not rep.ok
    assert rep.pixels_exceeding > 0
    assert rep.max_abs_sum > 1.0 + STABILITY_TOL
    worst = rep.worst_position
    assert gate_abs_sums(g, THREE)[worst] == pytest.approx(rep.max_abs_sum)


def test_projection_backward_identity_region():
    rng = np.random.default_rng(3)
    g = random_gates(3, 3, 1, THREE, rng, high=0.2)
    _, cache = project_gates_cached(g, THREE)
    grad = rng.standard_normal(g.shape)
    back = project_gates_backward(grad, cache)
    np.testing.assert_array_equal(back, grad)


def test_projection_backward_passes_grad_at_a_sum_of_exactly_one():
    # at sum |p| = 1 the projection is not active: the backward takes the
    # identity side, not the rescaling's
    g = embed([0.25, -0.5, 0.25], THREE)
    assert gate_abs_sums(g, THREE)[1, 1, 0, 0] == 1.0
    _, cache = project_gates_cached(g, THREE)
    grad = np.random.default_rng(6).standard_normal(g.shape)
    assert project_gates_backward(grad, cache) is grad


def test_verify_stability_counts_no_row_at_exactly_the_limit():
    limit = 1.0 + STABILITY_TOL
    rep = verify_stability(embed([limit], ONE), ONE)
    assert rep.max_abs_sum == limit and rep.ok
    assert rep.pixels_exceeding == 0
    assert [n for _, _, n in rep.per_direction] == [0, 0, 0, 0]


def general_projection_backward(grad, cache):
    """The rescaling's backward written out for every row, scaled or not."""
    raw, out, denom, active = cache
    dot = (grad * out).sum(axis=4, keepdims=True)
    scaled = (grad - dot * np.sign(raw)) / denom
    return np.where(active[..., None], scaled, grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("high", [0.3, 1.2])  # no row scaled / some rows scaled
def test_projection_backward_matches_general_formula(dtype, high):
    rng = np.random.default_rng(5)
    g = random_gates(5, 4, 2, THREE, rng, low=-high, high=high).astype(dtype)
    _, cache = project_gates_cached(g, THREE)
    assert cache[3].any() == (high > 1.0)
    grad = rng.standard_normal(g.shape).astype(dtype)
    back = project_gates_backward(grad, cache)
    assert back.dtype == dtype
    np.testing.assert_array_equal(back, general_projection_backward(grad, cache))


@pytest.mark.parametrize("high", [0.2, 1.5])
def test_projection_backward_keeps_grad_dtype(high):
    # float64 gates and a float32 gradient: the result is float32 whether or
    # not some row was rescaled, so its dtype does not depend on the data
    rng = np.random.default_rng(7)
    g = random_gates(5, 4, 2, THREE, rng, low=-high, high=high)
    _, cache = project_gates_cached(g, THREE)
    assert cache[3].any() == (high > 1.0)
    grad = rng.standard_normal(g.shape).astype(np.float32)
    back = project_gates_backward(grad, cache)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(
        back, general_projection_backward(grad, cache).astype(np.float32))


def test_projection_backward_fd():
    rng = np.random.default_rng(4)
    g = random_gates(4, 4, 2, THREE, rng, low=-1.2, high=1.2)
    w = rng.standard_normal(g.shape)
    p, cache = project_gates_cached(g, THREE)
    dg = project_gates_backward(w, cache)

    def probe(a):
        return (float((project_gates(a, THREE) * w).sum()),
                (gate_abs_sums(a, THREE) > 1.0).tobytes())

    # eligible: nonzero entries (sign kink at zero) away from the exact
    # threshold; the branch guard drops active-set flips
    mask = g != 0.0
    res = check_gradient(probe, g, dg, rng=rng, num=60, mask=mask)
    assert res.checked >= 40
    assert res.max_rel_err < 1e-6, str(res)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", [ONE, THREE])
@np.errstate(over="ignore")
def test_gate_abs_sums_bytes_equal_reduction(dtype, kind):
    rng = np.random.default_rng(17)
    shape = (6, 7, 3, 4, kind.gates_per_direction)
    g = (rng.standard_normal(shape)
         * 10.0 ** rng.integers(-40, 40, shape)).astype(dtype)
    g.flat[::11] = np.nan
    g.flat[1::13] = np.inf
    g.flat[2::17] = -np.inf
    g.flat[3::5] = -0.0
    for gates in (g, g[:, ::2]):
        s = gate_abs_sums(gates, kind)
        ref = np.abs(gates).sum(axis=4)
        assert s.dtype == ref.dtype and s.shape == ref.shape
        assert s.tobytes() == ref.tobytes()


@pytest.mark.parametrize("high", [0.3, 1.2])  # no row scaled / some rows scaled
def test_project_gates_returns_new_array(high):
    rng = np.random.default_rng(18)
    g = random_gates(4, 5, 2, THREE, rng, low=-high, high=high)
    keep = g.copy()
    p = project_gates(g, THREE)
    p[...] = 7.0
    assert np.array_equal(g, keep)


def test_stability_report_is_frozen():
    rep = verify_stability(embed([0.5], ONE), ONE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.max_abs_sum = 2.0
