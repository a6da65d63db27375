"""Segmentation refinement training on the toy dataset.

The model refines a coarse class-probability map using the image: a guidance
network emits propagation gates at a reduced resolution, the coarse map is
downsampled and embedded by a relu conv, cascaded propagation units mix it
under the gates, and a linear conv maps back to class logits which are
upsampled to full resolution for a softmax cross-entropy loss.

Gates pass through the stability rescaling every step, so scan transfer
matrices keep spectral radius at most one no matter what the network emits;
an epoch-level health check verifies that invariant on real data, before
that epoch's checkpoints are written: it is the report `evaluate` returns
for the gates it built for the first validation sample. A non-finite loss
aborts the run with gate statistics in the error message.

Where the relu zeroes the scan input, the scan state decays geometrically
under small gates and falls below the smallest normal float within a few
dozen steps. The pipeline zeroes such subnormal values in the scan output and
in the gate gradient, where the convs would otherwise multiply them at many
times the cost of normal values; the values dropped are below 1.2e-38 (f32).

The batch sampler is reseeded identically every epoch: with a zero learning
rate the per-epoch metrics repeat exactly, which pins down accidental hidden
state. Gradients are averaged per pixel within a sample and summed over the
batch.

`train` spreads each batch's samples, and each epoch's validation samples,
over one process per allowed core: this process takes the first share and
the workers of a `ProcessPoolExecutor`, forked before any data loads, take
the rest. A worker inherits nothing it reads: each request carries the
function, its bound parameters and architecture, and that worker's share of
the samples. Results and failures come back as the executor carries them: a
worker's exception, `TrainingAborted` included, is raised here with the
worker's traceback as its `__cause__`, and a dead worker raises
`BrokenProcessPool`. The batch's gradients are summed here in batch order,
so the results do not depend on the number of processes. With workers, the
executor's manager and queue feeder threads run in this process. A worker
fixes its own allocator policy (`keep_freed_memory`); this process keeps the
caller's. While `train` runs, the loaded OpenBLAS is held to one thread per
process; where that cannot be done, there is no `fork`, or other Python
threads run, training stays in this process.
"""
from __future__ import annotations

import csv
import ctypes
import functools
import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import check_sample, load_sample, load_split
from .errors import (ConfigError, ContractError, DimensionError, TrainingAborted,
                     require_at_least)
from .guidance import (
    FIELD_PARSERS,
    FIELD_WRITERS,
    Architecture,
    checkpoint_save,
    conv3x3_backward,
    conv3x3_forward,
    guidance_backward,
    guidance_forward,
    init_params,
    parse_kind,
    parse_widths,
    reject_directory,
    relu_backward,
    relu_forward,
    relu_signature,
    resize_backward,
    resize_forward,
)
from .propagation import spn_backward, spn_forward, zero_boundary
from .stability import (
    project_gates_backward,
    project_gates_cached,
    verify_stability,
)
from .tensor import flush_subnormals, read_key_values


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; serializes to key=value lines."""

    epochs: int = 10
    batch: int = 4
    lr: float = 1e-4
    momentum: float = 0.9
    seed: int = 0
    units: int = Architecture.units  # the architecture fields' defaults, as text
    prop_channels: int = Architecture.prop_channels
    widths: str = FIELD_WRITERS["tuple"](Architecture.widths)
    scale: int = Architecture.scale
    kind: str = FIELD_WRITERS["ConnectionKind"](Architecture.kind)
    post_gain: float = 3.0
    time_limit: float = 0.0

    def __post_init__(self):
        self.architecture(classes=2)  # checks the architecture fields
        require_at_least(("epochs", self.epochs, 1), ("batch", self.batch, 1),
                         ("lr", self.lr, 0.0), ("seed", self.seed, 0),
                         ("post_gain", self.post_gain, -np.inf),
                         ("time_limit", self.time_limit, 0.0))
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")

    def to_lines(self) -> list:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]

    @staticmethod
    def from_mapping(kv: dict) -> "TrainConfig":
        """Unknown keys are errors; missing keys keep their defaults."""
        types = {f.name: f.type for f in fields(TrainConfig)}
        values = {}
        for key, raw in kv.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[key] = FIELD_PARSERS[types[key]](raw)
            except ValueError as e:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from e
        return TrainConfig(**values)

    @staticmethod
    def from_file(path) -> "TrainConfig":
        kv = {key: value for _, key, value in read_key_values(path, ConfigError)}
        return TrainConfig.from_mapping(kv)

    def architecture(self, classes: int) -> Architecture:
        return Architecture(
            widths=parse_widths(self.widths),
            prop_channels=self.prop_channels,
            classes=classes,
            kind=parse_kind(self.kind),
            scale=self.scale,
            units=self.units,
        )


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean per-pixel cross entropy of labels in [0, classes). Returns
    (loss, dlogits)."""
    if labels.min() < 0 or labels.max() >= logits.shape[2]:
        raise DimensionError("label values outside [0, classes)")
    z = logits.astype(np.float64)
    # the row max as a fold over the class slices: exact, so the bits of
    # z.max(axis=2) without its reduction over a short axis (a NaN row's
    # sign aside, under a NaN loss)
    top = z[:, :, 0].copy()
    for c in range(1, z.shape[2]):
        np.maximum(top, z[:, :, c], out=top)
    z -= top[:, :, None]
    ez = np.exp(z)
    denom = ez.sum(axis=2, keepdims=True)
    logp = z - np.log(denom)
    n = labels.size
    grad = ez / denom
    # the label's log-probability and the -1 on its gradient by one mask per
    # class: the bits of a per-pixel gather without numpy's slow gather paths
    picked = logp[:, :, 0]
    for c in range(z.shape[2]):
        hit = labels == c
        if c:
            picked = np.where(hit, logp[:, :, c], picked)
        grad[:, :, c] -= hit
    loss = -picked.sum() / n
    grad /= n
    return float(loss), grad.astype(logits.dtype)


def init_pipeline_params(arch: Architecture, rng: np.random.Generator,
                         post_gain: float = TrainConfig.post_gain, dtype=np.float32) -> dict:
    """Random init plus identity taps through the embedding convs.

    The pre and post convs get a strong center-tap identity on the first
    min(classes, channels) channels so the untrained model already passes the
    coarse map through; training then has to improve on it rather than first
    rediscover it.
    """
    params = init_params(arch, rng, dtype=dtype)
    taps = min(arch.classes, arch.prop_channels)
    for c in range(taps):
        params["pre.w"][1, 1, c, c] += 1.0
        params["post.w"][1, 1, c, c] += dtype(post_gain)
    return params


def sgd_step(params: dict, grads: dict, velocity: dict, lr: float,
             momentum: float) -> None:
    for key in params:
        v = velocity[key]
        v *= momentum
        v -= lr * grads[key]
        params[key] += v


def build_gates(params: dict, arch: Architecture, image: np.ndarray):
    """Guidance gates for `image` at 1/`arch.scale` size, with the boundary
    zeros in place and projected. Returns (gates, gcache, pcache)."""
    hp = max(1, image.shape[0] // arch.scale)
    wp = max(1, image.shape[1] // arch.scale)
    raw, gcache = guidance_forward(params, arch, image, hp, wp)
    gates, pcache = project_gates_cached(zero_boundary(raw, arch.kind), arch.kind)
    return gates, gcache, pcache


def pipeline_forward(params: dict, arch: Architecture, image: np.ndarray,
                     coarse: np.ndarray):
    """Full model: image + coarse probabilities to full-resolution logits."""
    h, w = image.shape[:2]
    gates, gcache, pcache = build_gates(params, arch, image)
    low = resize_forward(coarse, gates.shape[0], gates.shape[1])
    zpre, cpre = conv3x3_forward(low, params["pre.w"], params["pre.b"], 1)
    apre, mpre = relu_forward(zpre)
    hidden, scaches = spn_forward(apre, gates, arch.kind, arch.units, check=False)
    flush_subnormals(hidden)
    logits_low, cpost = conv3x3_forward(hidden, params["post.w"],
                                        params["post.b"], 1)
    logits = resize_forward(logits_low, h, w)
    cache = {
        "gcache": gcache, "pcache": pcache,
        "cpre": cpre, "mpre": mpre, "scaches": scaches, "cpost": cpost,
        "low_shape": logits_low.shape, "gates": gates,
    }
    return logits, cache


def pipeline_backward(grad_logits: np.ndarray, cache: dict) -> dict:
    low_h, low_w, _ = cache["low_shape"]
    g_low = resize_backward(grad_logits, low_h, low_w)
    dhidden, dpw, dpb = conv3x3_backward(g_low, cache["cpost"])
    dapre, dgates = spn_backward(dhidden, cache["scaches"])
    flush_subnormals(dgates)
    dzpre = relu_backward(dapre, cache["mpre"])
    _, dprew, dpreb = conv3x3_backward(dzpre, cache["cpre"], need_dx=False)
    # spn_backward's +0 at the pinned gates (constants) survives the projection
    draw = project_gates_backward(dgates, cache["pcache"])
    grads = guidance_backward(draw, cache["gcache"])
    grads["post.w"] = dpw
    grads["post.b"] = dpb
    grads["pre.w"] = dprew
    grads["pre.b"] = dpreb
    return grads


def pipeline_signature(cache: dict) -> bytes:
    """Branch fingerprint for finite-difference checks of the whole model."""
    parts = [relu_signature(cache["gcache"]),
             np.packbits(cache["mpre"].reshape(-1)).tobytes(),
             np.packbits(cache["pcache"][3].reshape(-1)).tobytes()]
    parts += [c.winner.tobytes() for c in cache["scaches"]]
    return b"".join(parts)


def refine_sample(params: dict, arch: Architecture, image: np.ndarray,
                  coarse: np.ndarray, allowed=None):
    """Predict labels for one sample: (pred (H, W) int32, the projected gates
    used). `allowed`, when given, is the nonempty set of classes in
    [0, classes) to predict among. Raises DimensionError under `check_sample`
    or on a bad `allowed`, and ContractError on a non-finite logit: cascaded
    units can amplify the coarse map past the float range, and its argmax
    would be a silent wrong answer."""
    check_sample(image, coarse, arch.classes)
    if allowed is not None:
        allowed = np.asarray(sorted(allowed), dtype=int)
        if allowed.size == 0 or allowed[0] < 0 or allowed[-1] >= arch.classes:
            raise DimensionError(f"allowed classes must be a nonempty subset of "
                                 f"[0, {arch.classes}), got {allowed.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        logits, cache = pipeline_forward(params, arch, image, coarse)
    bad = ~np.isfinite(logits)
    if bad.any():
        at = tuple(int(v) for v in np.argwhere(bad)[0])
        raise ContractError(_gate_abort_message(
            f"non-finite logit {float(logits[at])} at (row, col, class)={at} after "
            f"{arch.units} propagation unit(s)", cache["gates"], arch.kind))
    if allowed is not None:
        block = np.full(logits.shape[2], -np.inf, dtype=logits.dtype)
        block[allowed] = 0.0
        logits = logits + block
    return logits.argmax(axis=2).astype(np.int32), cache["gates"]


class IoUAccumulator:
    """Dataset-level intersection-over-union, averaged over seen classes."""

    def __init__(self, classes: int):
        self.inter = np.zeros(classes, dtype=np.int64)
        self.union = np.zeros(classes, dtype=np.int64)

    def update(self, pred: np.ndarray, true: np.ndarray) -> None:
        for c in range(self.inter.size):
            p = pred == c
            t = true == c
            self.inter[c] += int((p & t).sum())
            self.union[c] += int((p | t).sum())

    def mean(self) -> float:
        seen = self.union > 0
        if not seen.any():
            return 0.0
        return float((self.inter[seen] / self.union[seen]).mean())


def coarse_iou(samples, classes: int) -> float:
    acc = IoUAccumulator(classes)
    for _, labels, coarse in samples:
        acc.update(coarse.argmax(axis=2), labels)
    return acc.mean()


def _gate_abort_message(what: str, gates, kind) -> str:
    rep = verify_stability(gates, kind)
    finite = np.isfinite(gates).all()
    return (f"{what}; gate statistics: finite={finite}, "
            f"min={np.nanmin(gates):.4g}, max={np.nanmax(gates):.4g}, {rep}")


@dataclass
class TrainResult:
    best_iou: float
    coarse_iou: float
    epochs_run: int
    out_dir: str
    rows: list


METRIC_FIELDS = ("epoch", "loss", "val_iou", "gate_max_abs_sum", "is_best", "seconds")


def _sample_iou(params, arch, restrict: bool, item):
    """Per-class (intersection, union) pixel counts of the prediction of
    `item`, an (index, sample) pair, and for index 0 the stability report of
    the gates that prediction was made with (None for the others)."""
    i, (image, labels, coarse) = item
    allowed = np.unique(labels) if restrict else None
    pred, gates = refine_sample(params, arch, image, coarse, allowed)
    acc = IoUAccumulator(arch.classes)
    acc.update(pred, labels)
    return acc.inter, acc.union, verify_stability(gates, arch.kind) if i == 0 else None


def evaluate(params, arch, samples, restrict: bool = False, pool=None):
    """(mean IoU over samples, stability report of sample 0's gates); with
    `restrict`, each sample is predicted among the labels of its own truth
    only. A `_SamplePool` spreads the samples over its processes. All
    samples pass `check_sample`, labels included, before any is predicted."""
    for i, (image, labels, coarse) in enumerate(samples):
        check_sample(image, coarse, arch.classes, labels, name=f"{{}} of sample {i}".format)
    if pool is None:
        pool = _SamplePool(1)  # no workers: a serial loop
    counts = pool.map(functools.partial(_sample_iou, params, arch, restrict),
                      list(enumerate(samples)))
    acc = IoUAccumulator(arch.classes)
    for inter, union, _ in counts:
        acc.inter += inter  # integer sums: the order does not matter
        acc.union += union
    return acc.mean(), counts[0][2] if counts else None


def _sample_step(params, arch, sample):
    """One sample's (loss, gradients); raises `TrainingAborted` when the loss
    is not finite."""
    image, labels, coarse = sample
    logits, cache = pipeline_forward(params, arch, image, coarse)
    loss, dlogits = softmax_xent(logits, labels)
    if not np.isfinite(loss):
        raise TrainingAborted(_gate_abort_message(f"non-finite loss {loss!r}",
                                                  cache["gates"], arch.kind))
    return loss, pipeline_backward(dlogits, cache)


# --- processes ------------------------------------------------------------

@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS loaded in this
    process, or None when none is found (no /proc, or another BLAS)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5].strip() for parts in
                            (line.split(None, 5) for line in fh)
                            if len(parts) == 6 and "openblas" in parts[5]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold the loaded OpenBLAS to one thread inside the block and restore
    its count after. Yields whether it could: a fork beside a
    multi-threaded BLAS is never safe, and per-sample processes on one
    BLAS thread each are faster than either alone."""
    api = _openblas_threads()
    if api is None:
        yield False
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def _process_count(workers, batch: int, blas_pinned: bool) -> int:
    """`workers` (tests set it) or the allowed cores, at most one per
    sample of a batch; 1 without a pinned BLAS, without `fork`, or beside
    another Python thread, which a fork could catch holding a lock."""
    if workers is not None:
        require_at_least(("workers", workers, 1))
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = 1
    if (not blas_pinned or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(workers, batch)


class _SamplePool:
    """Maps a per-sample function over this process and `processes - 1`
    forked workers. Each request carries everything the function reads, so
    the workers need nothing from the fork but code. Leaving the block
    stops the workers."""

    def __init__(self, processes: int):
        self.executor = None
        self.workers = processes - 1
        if self.workers:
            from concurrent.futures import ProcessPoolExecutor  # ~1 MB RSS: imported only here
            self.executor = ProcessPoolExecutor(
                self.workers, multiprocessing.get_context("fork"),
                initializer=_start_worker)
            before = set(multiprocessing.active_children())
            try:
                # the executor forks at its first request: make it fork now,
                # before the caller loads data, so fewer heap pages are
                # shared copy-on-write and fault when the caller writes them
                self.executor.submit(int).result()
            except BaseException:
                # a failed fork leaves the workers forked before it waiting
                # for requests that no manager thread will send
                for proc in set(multiprocessing.active_children()) - before:
                    proc.terminate()
                    proc.join()
                self.executor.shutdown()
                raise

    def map(self, fn, items) -> list:
        """[fn(item) for item in items], each process taking one contiguous
        share; `fn` is pickled, its arguments bound by `functools.partial`."""
        shares = np.array_split(np.arange(len(items)), self.workers + 1)
        shares = [[items[i] for i in share] for share in shares]
        futures = [self.executor.submit(_map_share, fn, share)
                   for share in shares[1:] if share]
        results = _map_share(fn, shares[0])
        for future in futures:  # a worker's exception is raised here
            results += future.result()
        return results

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)


def _map_share(fn, share) -> list:
    return [fn(item) for item in share]


PR_SET_PDEATHSIG = 1  # Linux <sys/prctl.h>


M_TRIM_THRESHOLD = -1  # glibc <malloc.h> mallopt parameter numbers
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # glibc's largest accepted mmap threshold on 64-bit
# The smallest value tried: with it, repeated refine requests at 64x64 to
# 256x256 took no page faults; 48 to 128 MiB did no better at 128x128.
TRIM_THRESHOLD = MMAP_THRESHOLD


@functools.cache  # the policy is per process; later calls change nothing
def keep_freed_memory() -> bool:
    """Fix glibc's mmap and trim thresholds for this process: `cli.main`'s
    and each training worker's, never a library caller's.

    Under glibc's dynamic thresholds, the conv and resize temporaries of a
    request are mmapped or trimmed back to the kernel when freed, so every
    request pays a page fault per page it touches. Both thresholds are set:
    setting one turns the dynamic policy off for both. Returns whether both
    were set; where the C library has no ``mallopt`` or rejects the first
    value, the allocator is left as it was.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 0
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 0)


def _start_worker() -> None:
    """Leave ^C to the parent, and end with it: a worker whose parent was
    killed would wait on the executor's queue forever. The death signal is
    Linux's; elsewhere only the check below runs. A worker is spnkit's own
    process, so it also fixes its allocator: the dynamic thresholds it
    inherits depend on what the caller freed before `train`."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    keep_freed_memory()
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)  # the parent died before the signal was set


def train(config: TrainConfig, data_dir, out_dir, progress=None, *,
          workers=None) -> TrainResult:
    """Run the full loop; writes checkpoints, metrics.csv, and config.txt.

    `workers` overrides the process count, which is otherwise one per
    allowed core; the results do not depend on it."""
    out = Path(out_dir)
    reject_directory(out / "best", out / "last")  # now, not after an epoch
    out.mkdir(parents=True, exist_ok=True)
    # forked before the data loads: requests carry all a worker reads
    with _one_blas_thread() as pinned, \
         _SamplePool(_process_count(workers, config.batch, pinned)) as pool:
        train_idx, val_idx, meta = load_split(data_dir)
        classes = int(meta["classes"])
        train_samples = [load_sample(data_dir, i, classes) for i in train_idx]
        val_samples = [load_sample(data_dir, i, classes) for i in val_idx]
        arch = config.architecture(classes)
        rng = np.random.default_rng(config.seed)
        params = init_pipeline_params(arch, rng, post_gain=config.post_gain)
        velocity = {k: np.zeros_like(v) for k, v in params.items()}

        (out / "config.txt").write_text("\n".join(config.to_lines()) + "\n")
        base_iou = coarse_iou(val_samples, classes)

        rows = []
        best = -1.0
        started = time.perf_counter()
        with open(out / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRIC_FIELDS)
            for epoch in range(config.epochs):
                t0 = time.perf_counter()
                # identical sampler stream every epoch: zero-lr runs repeat exactly
                order = np.random.default_rng(config.seed + 1).permutation(len(train_samples))
                losses = []
                for start in range(0, len(order), config.batch):
                    batch = [train_samples[i] for i in order[start:start + config.batch]]
                    steps = pool.map(functools.partial(_sample_step, params, arch), batch)
                    grads = steps[0][1]
                    for _, g in steps[1:]:  # batch order, as a serial loop
                        for k in grads:
                            grads[k] += g[k]
                    sgd_step(params, grads, velocity, config.lr, config.momentum)
                    losses.append(sum(loss for loss, _ in steps) / len(steps))

                val_iou, health = evaluate(params, arch, val_samples, pool=pool)
                if not health.ok:
                    raise ContractError(f"gate projection failed to bound gates: {health}")
                is_best = val_iou > best
                if is_best:
                    best = val_iou
                    checkpoint_save(out / "best", arch, params,
                                    meta={"epoch": epoch, "val_iou": repr(val_iou)})
                checkpoint_save(out / "last", arch, params,
                                meta={"epoch": epoch, "val_iou": repr(val_iou)})
                row = {
                    "epoch": epoch,
                    "loss": repr(float(np.mean(losses))),
                    "val_iou": repr(val_iou),
                    "gate_max_abs_sum": repr(health.max_abs_sum),
                    "is_best": int(is_best),
                    "seconds": f"{time.perf_counter() - t0:.3f}",
                }
                writer.writerow([row[k] for k in METRIC_FIELDS])
                fh.flush()
                rows.append(row)
                if progress is not None:
                    progress(row)
                if config.time_limit and time.perf_counter() - started > config.time_limit:
                    break
    return TrainResult(best_iou=best, coarse_iou=base_iou,
                       epochs_run=len(rows), out_dir=str(out), rows=rows)
