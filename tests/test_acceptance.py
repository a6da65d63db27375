"""Release gate: the seven checks a build must pass before it ships.

Each test prints one line, ``acceptance N <name>: PASS/FAIL (...)``, so the
outcome can be read off captured output without parsing pytest internals.
Tolerances and time budgets are asserted, not advisory.
"""

import csv
import time

import numpy as np
import pytest

from spnkit import cli
from spnkit.affinity import (build_dense_affinity, impulse_response,
                             laplacian_decompose, unvec_map, vec_map)
from spnkit.dataset import gen_toy_dataset
from spnkit.fdcheck import check_gradient
from spnkit.guidance import (Architecture, guidance_backward, guidance_forward,
                             init_params, relu_signature)
from spnkit.propagation import (ConnectionKind, Direction, _step_major,
                                boundary_mask, propagate_direction,
                                random_gates, spn_backward, spn_forward,
                                step_matrix, zero_boundary)
from spnkit.stability import project_gates
from spnkit.tensor import (map_from_array, read_array, read_image_pnm,
                           write_array, write_image_pnm)
from spnkit.training import (TrainConfig, init_pipeline_params,
                             pipeline_backward, pipeline_forward,
                             pipeline_signature, softmax_xent, train)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_instances(count: int = 56, seed: int = 20260816) -> list:
    """Small grids covering both kinds, all four directions, signed gates."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        kind = ConnectionKind.ONE_WAY if i % 2 == 0 else ConnectionKind.THREE_WAY
        direction = Direction(i % 4)
        h = int(rng.integers(2, 13))
        w = int(rng.integers(2, 13))
        c = int(rng.integers(1, 4))
        gates = random_gates(h, w, c, kind, rng, low=-1.5, high=1.5,
                             project=True)
        x = rng.uniform(-1.0, 1.0, size=(h, w, c))
        items.append((x, gates, direction, kind))
    return items


@pytest.fixture(scope="module")
def instances():
    return _random_instances()


def test_acceptance_1_rows_sum_to_one(instances):
    start = time.perf_counter()
    worst = 0.0
    for _, gates, direction, kind in instances:
        aff = build_dense_affinity(gates[:, :, :, direction, :], direction,
                                   kind)
        worst = max(worst, float(np.abs(aff.row_sums() - 1.0).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "dense transform rows sum to one", ok,
            f"{len(instances)} instances, max |row sum - 1| = {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_acceptance_2_scan_matches_dense(instances):
    start = time.perf_counter()
    worst64 = 0.0
    worst32 = 0.0
    for x, gates, direction, kind in instances:
        gates_dir = gates[:, :, :, direction, :]
        aff = build_dense_affinity(gates_dir, direction, kind)
        _, _, lap = laplacian_decompose(aff)
        v = vec_map(x, direction)
        ref = np.empty_like(v)
        for c in range(aff.channels):
            ref[:, c] = v[:, c] - lap[c] @ v[:, c]
        ref = unvec_map(ref, aff.height, aff.width, direction)
        h64 = propagate_direction(x, gates_dir, direction, kind)
        h32 = propagate_direction(x.astype(np.float32),
                                  gates_dir.astype(np.float32),
                                  direction, kind)
        worst64 = max(worst64, float(np.abs(h64 - ref).max()))
        worst32 = max(worst32, float(np.abs(h32.astype(np.float64) - ref).max()))
    elapsed = time.perf_counter() - start
    ok = worst64 <= 1e-10 and worst32 <= 1e-5 and elapsed < 10.0
    _report(2, "scan equals (I - L) vec(x)", ok,
            f"{len(instances)} instances, 64-bit max err {worst64:.2e}, "
            f"32-bit max err {worst32:.2e}, {elapsed:.1f}s")


def test_acceptance_3_projection_bound_and_containment():
    start = time.perf_counter()
    rng = np.random.default_rng(3)

    # Every step matrix assembled from projected gates must have max absolute
    # row sum (its Gershgorin radius bound) at or under one.
    worst_bound = 0.0
    for trial in range(24):
        kind = ConnectionKind.THREE_WAY if trial % 2 else ConnectionKind.ONE_WAY
        h = int(rng.integers(2, 13))
        w = int(rng.integers(2, 13))
        raw = random_gates(h, w, 2, kind, rng, low=-2.0, high=2.0)
        gates = project_gates(raw, kind)
        for direction in Direction:
            steps = _step_major(gates[:, :, :, direction, :], direction)
            for t in range(steps.shape[0]):
                for c in range(steps.shape[2]):
                    m = step_matrix(steps[t, :, c, :], kind)
                    worst_bound = max(worst_bound,
                                      float(np.abs(m).sum(axis=1).max()))

    # With nonnegative projected gates each update is a convex combination,
    # so values that start in [-1, 1] must still be there after 100 rounds.
    worst_mag = 0.0
    for trial in range(8):
        kind = ConnectionKind.THREE_WAY if trial % 2 else ConnectionKind.ONE_WAY
        raw = random_gates(12, 11, 2, kind, rng, low=0.0, high=0.9)
        gates = project_gates(raw, kind)
        assert gates.min() >= 0.0
        x = rng.uniform(-1.0, 1.0, size=(12, 11, 2))
        for _ in range(100):
            x, _ = spn_forward(x, gates, kind, units=1, check=False)
        worst_mag = max(worst_mag, float(np.abs(x).max()))

    elapsed = time.perf_counter() - start
    ok = worst_bound <= 1.0 + 1e-6 and worst_mag <= 1.0 and elapsed < 10.0
    _report(3, "projection keeps every step contractive", ok,
            f"max step row bound {worst_bound:.9f}, max |value| after 100 "
            f"rounds {worst_mag:.6f}, {elapsed:.1f}s")


def _spn_probe(x, gates, kind, units, weights):
    out, caches = spn_forward(x, gates, kind, units, check=False)
    return (float((out * weights).sum()),
            b"".join(c.winner.tobytes() for c in caches))


def test_acceptance_4_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(4)

    spn_checked = 0
    spn_worst = 0.0
    for kind, units in ((ConnectionKind.ONE_WAY, 1),
                        (ConnectionKind.THREE_WAY, 2)):
        h, w, c = 7, 8, 2
        gates = random_gates(h, w, c, kind, rng, low=-1.0, high=1.0,
                             project=True)
        x = rng.standard_normal((h, w, c))
        weights = rng.standard_normal((h, w, c))
        _, caches = spn_forward(x, gates, kind, units, check=False)
        dx, dgates = spn_backward(weights.copy(), caches)

        res = check_gradient(
            lambda xf, g=gates, k=kind, u=units: _spn_probe(xf, g, k, u, weights),
            x, dx, rng, num=30)
        spn_checked += res.checked
        spn_worst = max(spn_worst, res.max_rel_err)

        free = np.broadcast_to(~boundary_mask(h, w, kind)[:, :, None, :, :],
                               gates.shape)
        res = check_gradient(
            lambda gf, k=kind, u=units: _spn_probe(x, gf, k, u, weights),
            gates, dgates, rng, num=40, mask=free)
        spn_checked += res.checked
        spn_worst = max(spn_worst, res.max_rel_err)

    arch = Architecture(classes=2, widths=(4, 6, 8), prop_channels=4,
                        kind=ConnectionKind.THREE_WAY, scale=2, units=1)
    params = init_params(arch, np.random.default_rng(7), dtype=np.float64)
    image = rng.uniform(0.0, 1.0, size=(18, 20, 3))
    hp, wp = 9, 10
    raw, gcache = guidance_forward(params, arch, image, hp, wp)
    gweights = rng.standard_normal(raw.shape)
    ggrads = guidance_backward(gweights, gcache)

    net_checked = 0
    net_worst = 0.0
    for key in sorted(ggrads):
        def probe(arr, key=key):
            out, c2 = guidance_forward({**params, key: arr}, arch, image, hp, wp)
            return float((out * gweights).sum()), relu_signature(c2)

        res = check_gradient(probe, params[key], ggrads[key], rng,
                             num=min(18, params[key].size))
        net_checked += res.checked
        net_worst = max(net_worst, res.max_rel_err)

    cfg = TrainConfig(units=2, prop_channels=4, widths="4,6,8", scale=2)
    parch = cfg.architecture(classes=2)
    pparams = init_pipeline_params(parch, np.random.default_rng(9),
                                   dtype=np.float64)
    pimage = rng.uniform(0.0, 1.0, size=(16, 16, 3))
    plabels = rng.integers(0, 2, size=(16, 16)).astype(np.int32)
    pcoarse = rng.uniform(0.1, 0.9, size=(16, 16, 2))
    pcoarse /= pcoarse.sum(axis=2, keepdims=True)

    logits, pcache = pipeline_forward(pparams, parch, pimage, pcoarse)
    _, dlogits = softmax_xent(logits, plabels)
    pgrads = pipeline_backward(dlogits, pcache)

    chain_checked = 0
    chain_worst = 0.0
    budget = {"head.w": 20, "enc1.w": 20, "enc2.w": 15, "dec1.w": 15,
              "pre.w": 15, "post.w": 15, "enc0.b": 10}
    for key, num in budget.items():
        def probe(arr, key=key):
            lg, c2 = pipeline_forward({**pparams, key: arr}, parch, pimage, pcoarse)
            value, _ = softmax_xent(lg, plabels)
            return float(value), pipeline_signature(c2)

        res = check_gradient(probe, pparams[key], pgrads[key], rng, num=num)
        chain_checked += res.checked
        chain_worst = max(chain_worst, res.max_rel_err)

    elapsed = time.perf_counter() - start
    ok = (spn_checked >= 100 and spn_worst < 1e-4
          and net_checked >= 100 and net_worst < 1e-4
          and chain_checked >= 100 and chain_worst < 1e-3
          and elapsed < 60.0)
    _report(4, "analytic gradients match finite differences", ok,
            f"propagation {spn_checked} coords max {spn_worst:.2e}, "
            f"guidance {net_checked} coords max {net_worst:.2e}, "
            f"end-to-end {chain_checked} coords max {chain_worst:.2e}, "
            f"{elapsed:.1f}s")


def test_acceptance_5_impulse_support_and_density():
    start = time.perf_counter()
    height, width, row = 7, 9, 3

    g1 = zero_boundary(np.full((height, width, 1, 4, 1), 0.5),
                       ConnectionKind.ONE_WAY)
    resp1 = impulse_response(g1[:, :, :, Direction.LEFT_TO_RIGHT, :], Direction.LEFT_TO_RIGHT,
                             ConnectionKind.ONE_WAY, row, 0)
    expected1 = np.zeros((height, width), dtype=bool)
    expected1[row, :] = True
    one_ok = bool(((resp1 != 0.0) == expected1).all())

    g3 = zero_boundary(np.full((height, width, 1, 4, 3), 1.0 / 3.0),
                       ConnectionKind.THREE_WAY)
    resp3 = impulse_response(g3[:, :, :, Direction.LEFT_TO_RIGHT, :], Direction.LEFT_TO_RIGHT,
                             ConnectionKind.THREE_WAY, row, 0)
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    expected3 = np.abs(rows - row) <= cols
    fan_ok = bool(((resp3 != 0.0) == expected3).all())

    mag = 0.3
    d1 = zero_boundary(np.full((height, width, 1, 4, 1), mag),
                       ConnectionKind.ONE_WAY)
    d3 = zero_boundary(np.full((height, width, 1, 4, 3), mag),
                       ConnectionKind.THREE_WAY)
    aff1 = build_dense_affinity(d1[:, :, :, Direction.LEFT_TO_RIGHT, :], Direction.LEFT_TO_RIGHT,
                                ConnectionKind.ONE_WAY)
    aff3 = build_dense_affinity(d3[:, :, :, Direction.LEFT_TO_RIGHT, :], Direction.LEFT_TO_RIGHT,
                                ConnectionKind.THREE_WAY)
    _, a1, _ = laplacian_decompose(aff1)
    _, a3, _ = laplacian_decompose(aff3)
    nnz1 = int(np.count_nonzero(a1))
    nnz3 = int(np.count_nonzero(a3))
    denser_ok = nnz3 > nnz1

    elapsed = time.perf_counter() - start
    ok = one_ok and fan_ok and denser_ok and elapsed < 10.0
    _report(5, "impulse support matches connectivity", ok,
            f"one-way confined to its scan line: {one_ok}, three-way fan "
            f"exact: {fan_ok}, affinity nonzeros {nnz1} -> {nnz3}, "
            f"{elapsed:.1f}s")


def test_acceptance_6_training_beats_coarse(tmp_path):
    data_dir = tmp_path / "data"
    gen_toy_dataset(data_dir, 500, 50, 64, 2, seed=0, coarse_factor=8)

    config = TrainConfig()
    start = time.perf_counter()
    first = train(config, data_dir, tmp_path / "run_a")
    elapsed = time.perf_counter() - start
    train(config, data_dir, tmp_path / "run_b")

    def metric_rows(out_dir):
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            r.pop("seconds")
        return rows

    exact = metric_rows(tmp_path / "run_a") == metric_rows(tmp_path / "run_b")
    gain = (first.best_iou - first.coarse_iou) * 100.0
    ok = (config.epochs <= 20 and elapsed <= 900.0 and gain >= 5.0 and exact)
    _report(6, "refinement beats the coarse input", ok,
            f"coarse IoU {first.coarse_iou:.4f}, refined {first.best_iou:.4f} "
            f"(+{gain:.2f} points), {config.epochs} epochs in {elapsed:.0f}s, "
            f"seeded rerun bit-exact: {exact}")


def test_acceptance_7_formats_and_verify(tmp_path, capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)

    round_ok = True
    for dtype in (np.float32, np.float64):
        arr = rng.standard_normal((3, 5, 2)).astype(dtype)
        p1 = tmp_path / f"a_{arr.dtype}.spnt"
        p2 = tmp_path / f"b_{arr.dtype}.spnt"
        write_array(p1, arr)
        back = read_array(p1)
        write_array(p2, back)
        round_ok &= (p1.read_bytes() == p2.read_bytes()
                     and back.dtype == arr.dtype
                     and bool((back == arr).all()))

    gray = map_from_array(rng.integers(0, 256, size=(9, 7, 1)) / 255.0)
    color = map_from_array(rng.integers(0, 256, size=(6, 8, 3)) / 255.0)
    for name, img in (("g.pgm", gray), ("c.ppm", color)):
        p1 = tmp_path / name
        p2 = tmp_path / ("again_" + name)
        write_image_pnm(p1, img)
        back = read_image_pnm(p1)
        write_image_pnm(p2, back)
        round_ok &= p1.read_bytes() == p2.read_bytes()

    base = ["verify", "--trials", "3", "--max-size", "8", "--seed", "5"]
    codes = {"clean": cli.main(base)}
    for fault in ("boundary", "unprojected", "scan-perturb"):
        codes[fault] = cli.main(base + ["--inject-fault", fault])
    capsys.readouterr()

    codes_ok = codes.pop("clean") == 0 and all(v == 1 for v in codes.values())
    elapsed = time.perf_counter() - start
    ok = round_ok and codes_ok and elapsed < 10.0
    _report(7, "format round-trips and self-check hooks", ok,
            f"byte-identical rewrites: {round_ok}, fault hooks all exit 1: "
            f"{codes_ok}, {elapsed:.1f}s")
