import csv
import errno
import io
import multiprocessing
import os
import re
import shutil
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import spnkit.training as training
from spnkit.dataset import gen_toy_dataset, load_sample, load_split
from spnkit.errors import (ConfigError, ContractError, DimensionError, FormatError,
                           TrainingAborted)
from spnkit.fdcheck import check_gradient
from spnkit.guidance import Architecture, checkpoint_load
from spnkit.propagation import zero_boundary
from spnkit.training import (
    METRIC_FIELDS,
    IoUAccumulator,
    TrainConfig,
    coarse_iou,
    evaluate,
    init_pipeline_params,
    pipeline_backward,
    pipeline_forward,
    pipeline_signature,
    refine_sample,
    sgd_step,
    softmax_xent,
    train,
)
from spnkit.tensor import read_image_pnm, write_image_pnm

from bits import assert_same_bits


def test_softmax_xent_uniform_logits():
    logits = np.zeros((3, 3, 2))
    labels = np.zeros((3, 3), dtype=np.int32)
    loss, grad = softmax_xent(logits, labels)
    assert loss == pytest.approx(np.log(2.0))
    np.testing.assert_allclose(grad[:, :, 0], -0.5 / 9, atol=1e-12)
    np.testing.assert_allclose(grad[:, :, 1], 0.5 / 9, atol=1e-12)


def test_softmax_xent_overflow_safe():
    logits = np.full((2, 2, 3), 5000.0)
    logits[:, :, 1] += 10.0
    labels = np.ones((2, 2), dtype=np.int32)
    loss, grad = softmax_xent(logits, labels)
    assert np.isfinite(loss) and np.isfinite(grad).all()
    assert loss < 1e-3


@pytest.mark.parametrize("label", [-1, 2])
def test_softmax_xent_rejects_labels_outside_the_classes(label):
    labels = np.zeros((3, 3), dtype=np.int32)
    labels[1, 2] = label
    with pytest.raises(DimensionError, match=r"outside \[0, classes\)"):
        softmax_xent(np.zeros((3, 3, 2)), labels)


def test_softmax_xent_grad_fd():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 5, 3))
    labels = rng.integers(0, 3, size=(4, 5)).astype(np.int32)
    _, grad = softmax_xent(logits, labels)
    res = check_gradient(lambda a: (softmax_xent(a, labels)[0], None), logits,
                         grad, rng=rng, num=40)
    assert res.max_rel_err < 1e-7, str(res)


def reduce_softmax_xent(logits, labels, class_sum=lambda ez: ez.sum(axis=2, keepdims=True),
                        late_label=False):
    """The loss with the row max as a reduction and the label's terms by
    per-pixel gathers: what `softmax_xent`'s fold and masks replaced. With
    `late_label`, the label's -1/n lands after the division (a near miss)."""
    z = logits.astype(np.float64)
    z -= z.max(axis=2, keepdims=True)
    ez = np.exp(z)
    denom = class_sum(ez)
    logp = z - np.log(denom)
    n = labels.size
    picked = np.take_along_axis(logp, labels[:, :, None].astype(np.intp), axis=2)
    loss = -picked.sum() / n
    grad = ez / denom
    rows = np.arange(labels.shape[0])[:, None]
    cols = np.arange(labels.shape[1])[None, :]
    if late_label:
        grad /= n
        grad[rows, cols, labels] -= 1.0 / n
    else:
        grad[rows, cols, labels] -= 1.0
        grad /= n
    return float(loss), grad.astype(logits.dtype)


def in_order_class_sum(ez):
    out = ez[:, :, :1].copy()
    for c in range(1, ez.shape[2]):
        out += ez[:, :, c:c + 1]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_xent_matches_reduction(dtype):
    # the folded row max and the per-class label masks against the reduction
    # and the gathers they replaced, bit for bit, with ties, signed zeros,
    # +-inf, NaN and large logits, and every class some pixel's label (a -NaN
    # logit may give NaN gradients of the other sign, under a NaN loss that
    # aborts training before they are used); adding the classes in order in
    # place of the kept sum reduction differs from 8 classes on (seen in
    # float64; the cast to float32 rounds it away here), and so does
    # subtracting the label's 1/n after the division, for some class count
    rng = np.random.default_rng(31)
    near_miss, late_miss = [], []
    for classes in (2, 3, 4, 5, 6, 7, 8, 9, 16):
        logits = (rng.standard_normal((9, 11, classes)) * 4).astype(dtype)
        logits[0, :, :] = 0.0
        logits[0, ::2, 0] = -0.0
        logits[1, :, 1:] = logits[1, :, :1]  # every class ties
        logits[2, :, 0] = -np.inf
        logits[3, :, :] += 3e4
        logits[4, 0, 0] = np.nan  # the loss is NaN from here on
        logits[5, 1, -1] = np.inf
        labels = rng.integers(0, classes, size=logits.shape[:2]).astype(np.int32)
        labels.flat[66:66 + classes] = np.arange(classes)  # from row 6 on
        with np.errstate(invalid="ignore"):
            loss, grad = softmax_xent(logits, labels)
            want_loss, want_grad = reduce_softmax_xent(logits, labels)
            fold_loss, fold_grad = reduce_softmax_xent(logits, labels, in_order_class_sum)
        assert_same_bits(np.float64(loss), np.float64(want_loss))
        assert_same_bits(grad, want_grad)
        near_miss.append(fold_grad.tobytes() != want_grad.tobytes())
        finite = [0, 1, 3, 6, 7, 8]  # the rows of a finite loss
        loss, grad = softmax_xent(logits[finite], labels[finite])
        want_loss, want_grad = reduce_softmax_xent(logits[finite], labels[finite])
        _, late_grad = reduce_softmax_xent(logits[finite], labels[finite], late_label=True)
        assert np.isfinite(want_loss)
        assert_same_bits(np.float64(loss), np.float64(want_loss))
        assert_same_bits(grad, want_grad)
        late_miss.append(late_grad.tobytes() != want_grad.tobytes())
    assert near_miss == ([False] * 6 + [dtype == np.float64] * 3)
    assert any(late_miss) == (dtype == np.float64)


def test_sgd_step_frozen():
    params = {"a": np.array([1.0, 2.0])}
    grads = {"a": np.array([0.5, -1.0])}
    vel = {"a": np.array([0.1, 0.0])}
    sgd_step(params, grads, vel, lr=0.1, momentum=0.9)
    np.testing.assert_allclose(vel["a"], [0.09 - 0.05, 0.1])
    np.testing.assert_allclose(params["a"], [1.04, 2.1])


def test_init_pipeline_identity_taps():
    cfg = TrainConfig(prop_channels=4)
    arch = cfg.architecture(2)
    params = init_pipeline_params(arch, np.random.default_rng(1), post_gain=3.0)
    assert params["pre.w"][1, 1, 0, 0] > 0.9
    assert params["post.w"][1, 1, 1, 1] > 2.9
    assert abs(params["post.w"][1, 1, 0, 1]) < 0.2


def small_setup(dtype=np.float64, size=12):
    cfg = TrainConfig(prop_channels=3, widths="3,4,5", scale=2, units=2)
    arch = cfg.architecture(2)
    rng = np.random.default_rng(2)
    params = init_pipeline_params(arch, rng, dtype=dtype)
    image = rng.random((size, size, 3)).astype(dtype)
    coarse = rng.random((size, size, 2)).astype(dtype)
    coarse /= coarse.sum(axis=2, keepdims=True)
    labels = rng.integers(0, 2, size=(size, size)).astype(np.int32)
    return arch, params, image, coarse, labels


def test_pipeline_forward_shapes():
    arch, params, image, coarse, _ = small_setup(np.float32)
    logits, cache = pipeline_forward(params, arch, image, coarse)
    assert logits.shape == (12, 12, 2)
    assert logits.dtype == np.float32
    assert cache["gates"].shape == (6, 6, 3, 4, 3)


def test_pipeline_initial_prediction_tracks_coarse():
    # identity taps make the untrained model echo the coarse map
    arch, params, image, coarse, _ = small_setup(np.float32)
    coarse = np.zeros((12, 12, 2), dtype=np.float32)
    coarse[:, :6, 0] = 1.0
    coarse[:, 6:, 1] = 1.0
    pred, _ = refine_sample(params, arch, image, coarse)
    assert (pred == coarse.argmax(axis=2)).mean() > 0.85


@pytest.mark.parametrize("defect,message", [
    ("17x40", "coarse map is 17x40, image is 32x32"),
    ("nan", r"coarse map has a non-finite value nan at index \(4, 7, 1\)"),
], ids=["17x40", "nan"])
def test_refine_sample_rejects_a_broken_coarse_map(defect, message):
    # both used to return a prediction: a resized 17x40 map, and an
    # all-background one where the resize smeared the NaN
    arch, params, image, coarse, _ = small_setup(np.float32, size=32)
    if defect == "17x40":
        coarse = np.full((17, 40, 2), 0.5, dtype=np.float32)
    else:
        coarse[4, 7, 1] = np.nan
    with pytest.raises(DimensionError, match=message):
        refine_sample(params, arch, image, coarse)


@pytest.mark.parametrize("allowed", [[], [-1], [5]], ids=["empty", "minus-1", "5-of-2"])
def test_refine_sample_rejects_a_bad_allowed_set(allowed):
    # the first two used to predict silently, all class 0 (every logit
    # -inf) and all class 1 (-1 indexes from the end); the third raised
    # IndexError
    arch, params, image, coarse, _ = small_setup(np.float32, size=16)
    message = f"allowed classes must be a nonempty subset of [0, 2), got {allowed}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        refine_sample(params, arch, image, coarse, allowed)


def test_refine_sample_rejects_a_negative_class_beside_a_valid_one():
    # the check reads the smallest class, not the last
    arch, params, image, coarse, _ = small_setup(np.float32, size=16)
    with pytest.raises(DimensionError, match=r"got \[-1, 1\]$"):
        refine_sample(params, arch, image, coarse, [1, -1])


@pytest.mark.parametrize("pixel", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry,what", [
    (lambda arch, params, image, coarse, labels:
     refine_sample(params, arch, image, coarse), "image"),
    (lambda arch, params, image, coarse, labels:
     evaluate(params, arch, [(image, labels, coarse)]), "image of sample 0"),
], ids=["refine_sample", "evaluate"])
def test_a_non_finite_image_pixel_is_an_input_error(entry, what, pixel):
    # a NaN pixel used to be zeroed by the guidance relu and get a prediction
    # back; an inf one ended in ContractError ("non-finite logit")
    arch, params, image, coarse, labels = small_setup(np.float32, size=16)
    image[5, 9, 1] = pixel
    with pytest.raises(DimensionError, match=rf"^{what} has a non-finite value "
                       rf"{pixel} at index \(5, 9, 1\)$"):
        entry(arch, params, image, coarse, labels)


@pytest.mark.parametrize("defect,message", [
    ("label-5", "mask of sample 1 has label 5, the model has 2 classes"),
    ("shape-32x1", "image of sample 1 is 32x32, its mask is 32x1"),
], ids=["label-5", "shape-32x1"])
def test_evaluate_rejects_broken_labels_before_predicting(monkeypatch, defect, message):
    # both used to be scored: the IoU moved instead of the call failing
    arch, params, image, coarse, labels = small_setup(np.float32, size=32)
    bad = labels.copy()
    if defect == "label-5":
        bad[3, 4] = 5
    else:
        bad = labels[:, :1]
    predicted = []
    monkeypatch.setattr(training, "refine_sample",
                        lambda *a: predicted.append(a) or refine_sample(*a))
    with pytest.raises(DimensionError, match=message):
        evaluate(params, arch, [(image, labels, coarse), (image, bad, coarse)])
    assert predicted == []


def test_pipeline_backward_fd_end_to_end():
    arch, params, image, coarse, labels = small_setup()

    def run(p):
        logits, cache = pipeline_forward(p, arch, image, coarse)
        loss, dlogits = softmax_xent(logits, labels)
        return loss, dlogits, cache

    _, dlogits, cache = run(params)
    grads = pipeline_backward(dlogits, cache)
    assert sorted(grads) == sorted(params)
    rng = np.random.default_rng(3)
    for key in ("head.w", "pre.w", "post.w", "enc0.w"):
        def probe(a, key=key):
            loss, _, trial_cache = run({**params, key: a})
            return loss, pipeline_signature(trial_cache)

        res = check_gradient(probe, params[key], grads[key], rng=rng, num=25)
        assert res.checked >= 10, f"{key}: {res}"
        assert res.max_rel_err < 1e-5, f"{key}: {res}"


def test_pipeline_leaves_no_subnormals(tmp_path, monkeypatch):
    # seed 1: the relu zeroes much of the scan input, so the scan state and
    # the gate gradient decay through the float32 subnormal range
    gen_toy_dataset(tmp_path, 1, 1, 64, 2, seed=1)
    config = TrainConfig(seed=1)
    arch = config.architecture(2)
    params = init_pipeline_params(arch, np.random.default_rng(config.seed))
    image, labels, coarse = load_sample(tmp_path, 0, 2)
    seen = {}
    real_forward = training.spn_forward
    real_backward = training.project_gates_backward

    def spn_forward(*args, **kw):
        seen["hidden"], caches = real_forward(*args, **kw)
        return seen["hidden"], caches

    def project_gates_backward(grad, cache):
        seen["dgates"] = grad.copy()
        return real_backward(grad, cache)

    monkeypatch.setattr(training, "spn_forward", spn_forward)
    monkeypatch.setattr(training, "project_gates_backward", project_gates_backward)
    logits, cache = pipeline_forward(params, arch, image, coarse)
    pipeline_backward(softmax_xent(logits, labels)[1], cache)
    for name in ("hidden", "dgates"):
        a = seen[name]
        assert a.dtype == np.float32
        subnormal = (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)
        assert not subnormal.any(), f"{subnormal.sum()} subnormal entries in {name}"


def rezeroing_pipeline_backward(grad_logits, cache, kind):
    """`pipeline_backward` as it was when it zeroed the pinned gates'
    gradient again after the projection's backward."""
    low_h, low_w, _ = cache["low_shape"]
    g_low = training.resize_backward(grad_logits, low_h, low_w)
    dhidden, dpw, dpb = training.conv3x3_backward(g_low, cache["cpost"])
    dapre, dgates = training.spn_backward(dhidden, cache["scaches"])
    training.flush_subnormals(dgates)
    dzpre = training.relu_backward(dapre, cache["mpre"])
    _, dprew, dpreb = training.conv3x3_backward(dzpre, cache["cpre"], need_dx=False)
    dmasked = training.project_gates_backward(dgates, cache["pcache"])
    draw = zero_boundary(dmasked, kind).astype(grad_logits.dtype, copy=False)
    grads = training.guidance_backward(draw, cache["gcache"])
    grads.update({"post.w": dpw, "post.b": dpb, "pre.w": dprew, "pre.b": dpreb})
    return grads


@pytest.mark.parametrize("kind", ["one", "three"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_backward_matches_rezeroing_reference(kind, seed):
    # a large head makes the projection bind on many rows: the pinned raw
    # gates are +0, so its backward leaves spn_backward's +0 there
    arch = TrainConfig(prop_channels=3, widths="3,4,5", kind=kind).architecture(2)
    rng = np.random.default_rng(seed)
    params = init_pipeline_params(arch, rng)
    params["head.w"] *= 200
    image = rng.random((32, 32, 3)).astype(np.float32)
    coarse = rng.random((32, 32, 2)).astype(np.float32)
    coarse /= coarse.sum(axis=2, keepdims=True)
    labels = rng.integers(0, 2, size=(32, 32)).astype(np.int32)
    logits, cache = pipeline_forward(params, arch, image, coarse)
    assert cache["pcache"][3].mean() > 0.3  # rows rescaled
    dlogits = softmax_xent(logits, labels)[1]
    grads = pipeline_backward(dlogits, cache)
    # a forward's caches serve one backward: the reference gets a second
    # forward of its own, on the same inputs
    ref_cache = pipeline_forward(params, arch, image, coarse)[1]
    ref = rezeroing_pipeline_backward(dlogits, ref_cache, arch.kind)
    assert sorted(grads) == sorted(ref)
    for key in grads:
        assert_same_bits(grads[key], ref[key])


def test_iou_accumulator_frozen():
    acc = IoUAccumulator(2)
    pred = np.array([[0, 0], [1, 1]])
    true = np.array([[0, 1], [1, 1]])
    acc.update(pred, true)
    assert acc.inter.tolist() == [1, 2] and acc.union.tolist() == [2, 3]
    assert acc.mean() == pytest.approx((1 / 2 + 2 / 3) / 2)


def test_iou_skips_absent_classes():
    acc = IoUAccumulator(3)
    assert acc.mean() == 0.0  # no class seen yet
    acc.update(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
    assert acc.mean() == 1.0
    assert acc.inter.tolist() == [4, 0, 0] and acc.union.tolist() == [4, 0, 0]


def test_iou_counts_a_class_seen_in_one_pixel():
    acc = IoUAccumulator(2)
    acc.update(np.zeros((2, 2), dtype=int), np.array([[0, 0], [0, 1]]))
    assert acc.union.tolist() == [4, 1]
    assert acc.mean() == (3 / 4 + 0 / 1) / 2


def test_train_config_roundtrip(tmp_path):
    cfg = TrainConfig(epochs=3, lr=0.01, widths="4,8,12")
    path = tmp_path / "c.txt"
    path.write_text("\n".join(cfg.to_lines()) + "\n")
    assert TrainConfig.from_file(path) == cfg


def test_default_config_is_default_architecture():
    # the architecture fields' defaults have one owner, `Architecture`; the
    # default config.txt lines stay as they were
    assert TrainConfig().architecture(2) == Architecture()
    assert TrainConfig().to_lines() == [
        "epochs=10", "batch=4", "lr=0.0001", "momentum=0.9", "seed=0", "units=2",
        "prop_channels=8", "widths=8,16,32", "scale=2", "kind=three",
        "post_gain=3.0", "time_limit=0.0"]


def test_train_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("epochs=3\nlearning_rate=0.1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig.from_file(path)


def test_train_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig.from_mapping({"epochs": "many"})


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(kind="diagonal")
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.5)


@pytest.mark.parametrize("field", ["epochs", "batch"])
def test_train_config_needs_one_epoch_and_one_sample(field):
    with pytest.raises(ConfigError, match=f"^{field} must be at least 1, got 0$"):
        TrainConfig(**{field: 0})


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "ds"
    gen_toy_dataset(root, n_train=6, n_val=2, size=16, classes=2, seed=5,
                    coarse_factor=4, coarse_blur=1)
    return root


def tiny_config(**kw):
    args = dict(epochs=2, batch=3, lr=1e-4, seed=1, prop_channels=3,
                widths="3,4,5", scale=2, units=1)
    args.update(kw)
    return TrainConfig(**args)


def test_train_rejects_zero_workers(tiny_dataset, tmp_path):
    with pytest.raises(ConfigError, match="^workers must be at least 1, got 0$"):
        train(tiny_config(), tiny_dataset, tmp_path / "run", workers=0)


def test_metrics_seconds_lie_within_the_run(tiny_dataset, tmp_path):
    # each epoch's `seconds` is its own duration: at least 0, at most the
    # whole call's wall time
    start = time.perf_counter()
    train(tiny_config(), tiny_dataset, tmp_path / "run", workers=1)
    wall = time.perf_counter() - start
    with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
        seconds = [float(row["seconds"]) for row in csv.DictReader(fh)]
    assert len(seconds) == 2
    assert all(0.0 <= s <= wall for s in seconds), (seconds, wall)


def test_train_smoke_and_artifacts(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    res = train(tiny_config(), tiny_dataset, out)
    assert res.epochs_run == 2
    assert 0.0 <= res.best_iou <= 1.0
    assert 0.0 < res.coarse_iou < 1.0
    assert (out / "config.txt").is_file()
    assert (out / "metrics.csv").is_file()
    arch, params, meta = checkpoint_load(out / "best")
    assert arch.classes == 2
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(np.isfinite(float(r["loss"])) for r in rows)
    assert all(float(r["gate_max_abs_sum"]) <= 1.0 + 1e-6 for r in rows)


def test_train_stops_at_its_time_limit_after_one_epoch(tiny_dataset, tmp_path):
    out = tmp_path / "run"
    res = train(tiny_config(epochs=3, time_limit=1e-9), tiny_dataset, out)
    assert res.epochs_run == 1 and len(res.rows) == 1
    with open(out / "metrics.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 2  # the header and one epoch
    assert (out / "best").is_file() and (out / "last").is_file()


def test_train_zero_lr_repeats_metrics(tiny_dataset, tmp_path):
    res = train(tiny_config(lr=0.0, epochs=3), tiny_dataset, tmp_path / "r0")
    losses = {r["loss"] for r in res.rows}
    ious = {r["val_iou"] for r in res.rows}
    assert len(losses) == 1 and len(ious) == 1


def test_train_seeded_rerun_bit_exact(tiny_dataset, tmp_path):
    r1 = train(tiny_config(), tiny_dataset, tmp_path / "a")
    r2 = train(tiny_config(), tiny_dataset, tmp_path / "b")
    for a, b in zip(r1.rows, r2.rows):
        for key in ("epoch", "loss", "val_iou", "gate_max_abs_sum", "is_best"):
            assert a[key] == b[key], key
    _, pa, _ = checkpoint_load(tmp_path / "a" / "best")
    _, pb, _ = checkpoint_load(tmp_path / "b" / "best")
    for k in pa:
        assert pa[k].tobytes() == pb[k].tobytes(), k


@pytest.fixture
def poisoned_init(monkeypatch):
    real_init = training.init_pipeline_params

    def poisoned(arch, rng, post_gain=3.0, dtype=np.float32):
        params = real_init(arch, rng, post_gain=post_gain, dtype=dtype)
        params["head.w"][0, 0, 0, 0] = np.nan
        return params

    monkeypatch.setattr(training, "init_pipeline_params", poisoned)


def test_train_aborts_on_non_finite(tiny_dataset, tmp_path, poisoned_init):
    with pytest.raises(TrainingAborted, match="gate statistics"):
        train(tiny_config(), tiny_dataset, tmp_path / "bad")


# --- worker processes ---------------------------------------------------

needs_workers = pytest.mark.skipif(
    training._openblas_threads() is None
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="no OpenBLAS thread setter or no fork: train runs in one process")


def _run_files(out) -> dict:
    """Every file a run wrote, with metrics.csv's `seconds` column dropped."""
    files = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "metrics.csv":
                rows = list(csv.reader(io.StringIO(data.decode())))
                assert rows[0][-1] == "seconds"
                data = [row[:-1] for row in rows]
            files[path.relative_to(out).as_posix()] = data
    return files


@pytest.mark.parametrize("seed,batch", [(1, 3), (2, 4), (3, 5)])
def test_train_results_do_not_depend_on_workers(tiny_dataset, tmp_path, seed, batch):
    # batches of 3+3, 4+2 and 5+1 samples over 1, 2 and 3 processes
    runs = [_run_files(train(tiny_config(seed=seed, batch=batch), tiny_dataset,
                             tmp_path / f"w{n}", workers=n).out_dir)
            for n in (1, 2, 3)]
    assert {p.split("/")[0] for p in runs[0]} == {"config.txt", "metrics.csv", "best", "last"}
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_train_abort_message_does_not_depend_on_workers(tiny_dataset, tmp_path,
                                                         poisoned_init):
    messages = []
    for n in (1, 2):
        with pytest.raises(TrainingAborted, match="gate statistics") as info:
            train(tiny_config(), tiny_dataset, tmp_path / f"w{n}", workers=n)
        messages.append(str(info.value))
    assert messages[1] == messages[0]


def test_train_aborts_at_a_bad_sample_in_a_worker_share(tiny_dataset, tmp_path,
                                                        monkeypatch):
    # the first batch's third sample: with two processes, the worker's share
    cfg = tiny_config()
    train_idx, _, meta = load_split(tiny_dataset)
    order = np.random.default_rng(cfg.seed + 1).permutation(len(train_idx))
    bad = load_sample(tiny_dataset, train_idx[order[2]], int(meta["classes"]))[0]
    real_forward = training.pipeline_forward

    def forward(params, arch, image, coarse):
        logits, cache = real_forward(params, arch, image, coarse)
        return (logits * np.nan if np.array_equal(image, bad) else logits), cache

    monkeypatch.setattr(training, "pipeline_forward", forward)
    messages = []
    for n in (1, 2):
        with pytest.raises(TrainingAborted, match="non-finite loss nan") as info:
            train(cfg, tiny_dataset, tmp_path / f"w{n}", workers=n)
        messages.append(str(info.value))
    assert messages[1] == messages[0]


@pytest.mark.parametrize("processes", [1, 2])
def test_train_health_check_fails_before_checkpoints(tiny_dataset, tmp_path, monkeypatch,
                                                     processes):
    # a projection that bounds nothing: every free gate 0.5, so a three-way
    # row sums to 1.5; the first epoch's check must stop the run unsaved
    def unbounded(gates, kind):
        out = np.where(gates != 0, gates.dtype.type(0.5), gates)
        return out, (out, out, 1.0, np.zeros(out.shape[:4], dtype=bool))

    monkeypatch.setattr(training, "project_gates_cached", unbounded)
    out = tmp_path / f"w{processes}"
    with pytest.raises(ContractError, match="gate projection failed to bound gates: "
                                            r"UNSTABLE: max \|gate\| row sum 1\.5 "):
        train(tiny_config(), tiny_dataset, out, workers=processes)
    assert not (out / "best").exists() and not (out / "last").exists()
    with open(out / "metrics.csv") as fh:
        assert list(csv.reader(fh)) == [list(METRIC_FIELDS)]  # no epoch finished


@pytest.mark.parametrize("processes", [1, 2])
def test_train_validates_through_evaluate(tiny_dataset, tmp_path, monkeypatch, processes):
    # one call per epoch, on the validation split: perfbench times it by name
    real_evaluate, calls = training.evaluate, []

    def spy(params, arch, samples, *args, **kwargs):
        calls.append(len(samples))
        return real_evaluate(params, arch, samples, *args, **kwargs)

    monkeypatch.setattr(training, "evaluate", spy)
    train(tiny_config(epochs=2), tiny_dataset, tmp_path / "run", workers=processes)
    assert calls == [2, 2]


@pytest.mark.parametrize("processes", [1, 2])
def test_train_agrees_with_an_evaluation_of_its_best_checkpoint(tiny_dataset, tmp_path,
                                                                processes):
    res = train(tiny_config(epochs=3), tiny_dataset, tmp_path / "run", workers=processes)
    arch, params, _ = checkpoint_load(tmp_path / "run" / "best")
    _, val_idx, meta = load_split(tiny_dataset)
    samples = [load_sample(tiny_dataset, i, int(meta["classes"])) for i in val_idx]
    iou, report = evaluate(params, arch, samples)
    best = [row for row in res.rows if row["is_best"]][-1]
    assert iou == res.best_iou
    assert repr(report.max_abs_sum) == best["gate_max_abs_sum"]


def test_train_needs_no_in_place_parameter_update(tiny_dataset, tmp_path, monkeypatch):
    # every request carries the parameters, so a step that rebinds them
    # reaches the workers as an in-place one does
    def rebinding_step(params, grads, velocity, lr, momentum):
        for key in params:
            v = velocity[key]
            v *= momentum
            v -= lr * grads[key]
            params[key] = params[key] + v

    monkeypatch.setattr(training, "sgd_step", rebinding_step)
    runs = [_run_files(train(tiny_config(), tiny_dataset, tmp_path / f"w{n}",
                             workers=n).out_dir)
            for n in (1, 2)]
    assert runs[1] == runs[0]


def test_train_rejects_an_image_of_other_size_than_its_mask(tiny_dataset, tmp_path):
    # the load fails inside the pool's block, which must still stop the workers
    data = tmp_path / "ds"
    shutil.copytree(tiny_dataset, data)
    path = data / "images" / "0006.ppm"  # the first validation item
    write_image_pnm(path, read_image_pnm(path)[:8, :8])
    with pytest.raises(FormatError, match="image for item 6 is 8x8, its mask is 16x16"):
        train(tiny_config(), data, tmp_path / "run", workers=2)


def _in_workers_only(monkeypatch, action):
    """Make pipeline_backward run `action` in any process but this one."""
    parent, real_backward = os.getpid(), training.pipeline_backward

    def backward(grad, cache):
        if os.getpid() != parent:
            action()
        return real_backward(grad, cache)

    monkeypatch.setattr(training, "pipeline_backward", backward)


@needs_workers
def test_train_reraises_a_worker_exception(tiny_dataset, tmp_path, monkeypatch):
    def fail():
        raise RuntimeError("backward failed in a worker")

    _in_workers_only(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="backward failed in a worker") as info:
        train(tiny_config(), tiny_dataset, tmp_path / "run", workers=2)
    assert "in fail" in str(info.value.__cause__)  # the worker's traceback


@needs_workers
def test_train_raises_when_a_worker_dies(tiny_dataset, tmp_path, monkeypatch):
    _in_workers_only(monkeypatch, lambda: os._exit(3))
    with pytest.raises(BrokenProcessPool):
        train(tiny_config(), tiny_dataset, tmp_path / "run", workers=2)


@needs_workers
def test_train_abort_in_a_worker_carries_its_traceback(tiny_dataset, tmp_path,
                                                      monkeypatch):
    # a non-finite loss in the worker's share only: the abort is raised in the
    # worker and arrives here as any worker exception does
    parent, real_forward = os.getpid(), training.pipeline_forward

    def forward(params, arch, image, coarse):
        logits, cache = real_forward(params, arch, image, coarse)
        return (logits * np.nan if os.getpid() != parent else logits), cache

    monkeypatch.setattr(training, "pipeline_forward", forward)
    with pytest.raises(TrainingAborted, match="non-finite loss nan") as info:
        train(tiny_config(), tiny_dataset, tmp_path / "run", workers=2)
    assert "in _sample_step" in str(info.value.__cause__)  # the worker's traceback


@needs_workers
def test_pool_stops_its_workers_when_a_fork_fails(monkeypatch):
    # the second of two forks fails: the worker forked first must not be left
    # waiting for requests, which would also hang this process at exit
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "no more processes")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="no more processes"):
        training._SamplePool(3)
    assert not multiprocessing.active_children()


def _allocator_fixed(_) -> int:
    return training.keep_freed_memory.cache_info().currsize


@needs_workers
def test_pool_workers_fix_their_allocator_and_the_caller_keeps_its_own():
    # `keep_freed_memory` caches its one call per process: each worker made
    # it before its first request, and the caller, a library user, did not
    training.keep_freed_memory.cache_clear()
    with training._SamplePool(2) as pool:
        assert pool.map(_allocator_fixed, [0, 1]) == [0, 1]


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_workers
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux's")
def test_pool_workers_end_with_their_parent():
    # a parent killed without clean-up (SIGKILL, or SIGTERM unhandled) must
    # not leave its workers waiting for requests
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()

    def parent():
        with training._SamplePool(3):
            there.send([p.pid for p in multiprocessing.active_children()])
            os.kill(os.getpid(), signal.SIGKILL)

    proc = ctx.Process(target=parent)
    proc.start()
    assert here.poll(30.0), "the pool did not start"
    workers = here.recv()
    proc.join(30.0)
    assert not proc.is_alive() and len(workers) == 2
    alive, deadline = workers, time.monotonic() + 10.0
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in workers if _running(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert not alive


@needs_workers
def test_train_restores_blas_threads(tiny_dataset, tmp_path, monkeypatch):
    get, put = training._openblas_threads()
    real_forward = training.pipeline_forward
    during = set()

    def forward(*args):
        during.add(get())
        return real_forward(*args)

    monkeypatch.setattr(training, "pipeline_forward", forward)
    original = get()
    try:
        put(2)
        train(tiny_config(epochs=1), tiny_dataset, tmp_path / "run", workers=2)
        assert get() == 2
    finally:
        put(original)
    assert during == {1}


def test_process_count_is_one_when_a_fork_is_unsafe_or_unavailable(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
    assert training._process_count(4, 3, True) == 3
    assert training._process_count(4, 3, False) == 1  # no pinned BLAS
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert training._process_count(4, 3, True) == 1
    finally:
        release.set()
        other.join()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert training._process_count(None, 8, True) == 3
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert training._process_count(4, 3, True) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert training._process_count(None, 8, True) == 1


def test_train_without_proc_maps_runs_in_one_process(tiny_dataset, tmp_path,
                                                     monkeypatch):
    one = train(tiny_config(epochs=1), tiny_dataset, tmp_path / "w1", workers=1)
    real_open, real_pool = open, training._SamplePool
    processes = []

    def no_maps(path, *args, **kw):
        if path == "/proc/self/maps":
            raise PermissionError(errno.EACCES, "denied", path)
        return real_open(path, *args, **kw)

    def pool(n):
        processes.append(n)
        return real_pool(n)

    monkeypatch.setattr(training, "open", no_maps, raising=False)
    monkeypatch.setattr(training, "_SamplePool", pool)
    training._openblas_threads.cache_clear()
    try:
        assert training._openblas_threads() is None
        with training._one_blas_thread() as pinned:
            assert pinned is False
        two = train(tiny_config(epochs=1), tiny_dataset, tmp_path / "w2", workers=2)
    finally:
        training._openblas_threads.cache_clear()
    assert processes == [1]
    assert _run_files(two.out_dir) == _run_files(one.out_dir)


def test_evaluate_restrict_matches_refine_sample():
    # three classes, truth labels only 0 and 1: an unrestricted prediction
    # echoes the random coarse map's class 2, a restricted one may not
    arch = TrainConfig(prop_channels=3, widths="3,4,5", units=1).architecture(3)
    rng = np.random.default_rng(6)
    params = init_pipeline_params(arch, rng)
    samples = []
    for _ in range(3):
        coarse = rng.random((12, 12, 3)).astype(np.float32)
        coarse /= coarse.sum(axis=2, keepdims=True)
        samples.append((rng.random((12, 12, 3)).astype(np.float32),
                        rng.integers(0, 2, size=(12, 12)).astype(np.int32), coarse))
    for restrict in (False, True):
        acc = IoUAccumulator(3)
        used = set()
        for image, labels, coarse in samples:
            allowed = np.unique(labels) if restrict else None
            pred, _ = refine_sample(params, arch, image, coarse, allowed)
            used |= set(np.unique(pred).tolist())
            acc.update(pred, labels)
        assert evaluate(params, arch, samples, restrict=restrict)[0] == acc.mean()
        assert (2 in used) != restrict


def test_config_txt_pinned(tiny_dataset, tmp_path):
    cfg = TrainConfig(epochs=1, batch=5, lr=0.002, momentum=0.5, seed=7, units=1,
                      prop_channels=3, widths="3,4,5", scale=4, kind="one",
                      post_gain=2.5, time_limit=60.0)
    train(cfg, tiny_dataset, tmp_path / "run")
    assert (tmp_path / "run" / "config.txt").read_text() == (
        "epochs=1\nbatch=5\nlr=0.002\nmomentum=0.5\nseed=7\nunits=1\n"
        "prop_channels=3\nwidths=3,4,5\nscale=4\nkind=one\npost_gain=2.5\n"
        "time_limit=60.0\n")


def test_coarse_iou_positive(tiny_dataset):
    _, val_idx, meta = load_split(tiny_dataset)
    samples = [load_sample(tiny_dataset, i, int(meta["classes"])) for i in val_idx]
    v = coarse_iou(samples, int(meta["classes"]))
    assert 0.2 < v < 1.0
