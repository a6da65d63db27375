import csv
import errno
import io
import multiprocessing
import os
import shutil
import signal
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import spnkit.training as training
from spnkit.dataset import gen_toy_dataset, load_sample, load_split
from spnkit.errors import ConfigError, FormatError, TrainingAborted
from spnkit.fdcheck import check_gradient
from spnkit.guidance import Architecture, checkpoint_load
from spnkit.training import (
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


def test_softmax_xent_grad_fd():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 5, 3))
    labels = rng.integers(0, 3, size=(4, 5)).astype(np.int32)
    _, grad = softmax_xent(logits, labels)
    res = check_gradient(lambda a: softmax_xent(a, labels)[0], logits, grad,
                         rng=rng, num=40)
    assert res.max_rel_err < 1e-7, str(res)


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
        def loss_fn(a, key=key):
            trial = dict(params)
            trial[key] = a
            return run(trial)[0]

        def sig_fn(a, key=key):
            trial = dict(params)
            trial[key] = a
            return pipeline_signature(run(trial)[2])

        res = check_gradient(loss_fn, params[key], grads[key], rng=rng,
                             num=25, signature=sig_fn)
        assert res.checked >= 10, f"{key}: {res}"
        assert res.max_rel_err < 1e-5, f"{key}: {res}"


def test_pipeline_leaves_no_subnormals(tmp_path, monkeypatch):
    # seed 1: the relu zeroes much of the scan input, so the scan state and
    # the gate gradient decay through the float32 subnormal range
    gen_toy_dataset(tmp_path, 1, 1, 64, 2, seed=1)
    config = TrainConfig(seed=1)
    arch = config.architecture(2)
    params = init_pipeline_params(arch, np.random.default_rng(config.seed))
    image, labels, coarse = load_sample(tmp_path, 0)
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


def test_iou_accumulator_frozen():
    acc = IoUAccumulator(2)
    pred = np.array([[0, 0], [1, 1]])
    true = np.array([[0, 1], [1, 1]])
    acc.update(pred, true)
    assert acc.inter.tolist() == [1, 2] and acc.union.tolist() == [2, 3]
    assert acc.mean() == pytest.approx((1 / 2 + 2 / 3) / 2)


def test_iou_skips_absent_classes():
    acc = IoUAccumulator(3)
    acc.update(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
    assert acc.mean() == 1.0
    assert acc.inter.tolist() == [4, 0, 0] and acc.union.tolist() == [4, 0, 0]


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
    train_idx, _, _ = load_split(tiny_dataset)
    order = np.random.default_rng(cfg.seed + 1).permutation(len(train_idx))
    bad = load_sample(tiny_dataset, train_idx[order[2]])[0]
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
        assert evaluate(params, arch, samples, restrict=restrict) == acc.mean()
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
    samples = [load_sample(tiny_dataset, i) for i in val_idx]
    v = coarse_iou(samples, int(meta["classes"]))
    assert 0.2 < v < 1.0
