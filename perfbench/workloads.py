"""The benchmark's workloads, the correctness gate, and the traced layers.

Each workload builds its inputs from the seed in ``setup`` and then runs one
operation at a time in ``op`` (a closed loop with one caller). ``check``
validates the operation's outputs outside the timed region and returns a
list of failure messages. Sizes follow the acceptance test and the CLI
defaults; ``toy=True`` shrinks every input for the harness's smoke test.
"""
from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import numpy as np

from spnkit import affinity, cli, dataset, guidance, propagation, tensor, training
from spnkit.propagation import ConnectionKind, Direction


def _pooled_oracle(x, gate_data, kind, units):
    """``spn_forward`` rebuilt from the dense oracle: per-direction dense
    transforms, a node-wise max over directions (ties to the lowest index),
    cascaded over `units`."""
    cur = x
    for _ in range(units):
        hs = np.stack([affinity.oracle_propagate(cur, gate_data[:, :, :, d, :], d, kind)
                       for d in Direction])
        winner = np.argmax(hs, axis=0)
        cur = np.take_along_axis(hs, winner[None], axis=0)[0]
    return cur


def scan_gate(seed: int):
    """Scan versus dense oracle in float64 on small grids, both kinds.

    Checks ``propagate_direction`` for all four directions and the timed
    entry point ``spn_forward`` (two units, max-pooled) against the same
    result built from ``affinity.oracle_propagate``; tolerance 1e-10.
    Returns (checks attempted, failure messages).
    """
    rng = np.random.default_rng(seed)
    failures, attempted = [], 0

    def compare(label, run, reference):
        nonlocal attempted
        attempted += 1
        try:
            err = float(np.abs(run() - reference()).max())
        except Exception as e:  # a raising scan is a failed check
            failures.append(f"gate {label}: {e!r}")
            return
        if not err <= 1e-10:
            failures.append(f"gate {label}: |scan - oracle| = {err:.3e} > 1e-10")

    for kind in ConnectionKind:
        for h, w, c in ((5, 7, 2), (6, 4, 1)):
            gates = propagation.random_gates(h, w, c, kind, rng, low=-1.0,
                                             high=1.0, project=True)
            x = rng.standard_normal((h, w, c))
            for d in Direction:
                gd = gates[:, :, :, d, :]
                compare(f"propagate_direction {kind.name} {d.name} {h}x{w}",
                        lambda: propagation.propagate_direction(x, gd, d, kind),
                        lambda: affinity.oracle_propagate(x, gd, d, kind))
            compare(f"spn_forward {kind.name} {h}x{w} units=2",
                    lambda: propagation.spn_forward(x, gates, kind, 2)[0],
                    lambda: _pooled_oracle(x, gates, kind, 2))
    return attempted, failures


# --- traced layers ------------------------------------------------------

def _scan_units(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("units", 1)


def _spn_forward_hook(args, kwargs, result):
    x, gates = args[0], args[1]
    units, k = _scan_units(args, kwargs), gates.shape[-1]
    # per unit and direction the forward scan reads x and K gate planes and
    # writes h once; pooling traffic is not counted
    return {"work": 4 * units * x.size,
            "bytes": 4 * units * (2 + k) * x.size * x.itemsize}


def _spn_backward_hook(args, kwargs, result):
    grad, caches = args[0], args[1]
    units, k = len(caches), caches[0].scans[0].gates_scan.shape[-1]
    # reads x, h, K gate planes and grad; writes dx and K gate-grad planes
    return {"work": 4 * units * grad.size,
            "bytes": 4 * units * (4 + 2 * k) * grad.size * grad.itemsize}


def _project_hook(args, kwargs, result):
    active = result[1][3]
    return {"active": int(active.sum()), "rows": active.size}


def trace_targets():
    """(module, attribute, span name, hook) for every traced lookup site."""
    t = []

    def add(module, attrs, name, hook=None):
        t.extend((module, a, name, hook) for a in attrs)

    add(propagation, ["spn_forward"], "propagation.spn_forward", _spn_forward_hook)
    add(propagation, ["spn_backward"], "propagation.spn_backward", _spn_backward_hook)
    add(training, ["spn_forward"], "propagation.spn_forward", _spn_forward_hook)
    add(training, ["spn_backward"], "propagation.spn_backward", _spn_backward_hook)
    add(training, ["guidance_forward"], "guidance.forward")
    add(training, ["guidance_backward"], "guidance.backward")
    add(training, ["conv3x3_forward", "conv3x3_backward"], "guidance.conv3x3")
    add(guidance, ["conv3x3_forward", "conv3x3_backward"], "guidance.conv3x3")
    add(training, ["checkpoint_save"], "guidance.checkpoint_save")
    add(guidance, ["checkpoint_save"], "guidance.checkpoint_save")
    add(cli, ["checkpoint_load"], "guidance.checkpoint_load")
    add(training, ["project_gates_cached"], "stability.project", _project_hook)
    add(training, ["project_gates_backward"], "stability.project")
    add(training, ["verify_stability"], "stability.verify")
    add(training, ["resize_backward"], "tensor.resize")
    add(guidance, ["resize_array", "resize_backward"], "tensor.resize")
    add(tensor, ["resize_array"], "tensor.resize")
    add(dataset, ["resize_array"], "tensor.resize")
    add(tensor, ["interp_matrix"], "tensor.interp_matrix")
    add(guidance, ["interp_matrix"], "tensor.interp_matrix")
    io_names = ["read_array", "write_array", "read_image_pnm", "write_image_pnm"]
    add(guidance, ["read_array", "write_array"], "tensor.io")
    add(dataset, io_names, "tensor.io")
    add(cli, ["read_array", "read_image_pnm", "write_image_pnm"], "tensor.io")
    for fn in ("pipeline_forward", "pipeline_backward", "softmax_xent",
               "sgd_step", "evaluate", "refine_sample", "train"):
        add(training, [fn], f"training.{fn}")
    add(training, ["load_sample"], "dataset.load_sample")
    add(dataset, ["load_sample"], "dataset.load_sample")
    add(training, ["load_split"], "dataset.load_split")
    add(dataset, ["gen_toy_dataset", "render_sample", "make_coarse"], "dataset.gen")
    add(cli, ["main"], "cli.main")
    return t


def layer_metrics(ops, setup, items: float) -> dict:
    """Per-layer figures from the operations' and the set-ups' summaries.

    Times are in ms and counts per item of the traced operations, except
    ``dataset.gen.ms``, which is the traced set-up's, because data is
    generated only there. Layers a workload never calls read 0.
    """
    inc, calls, self_s, counters = ops["inclusive"], ops["calls"], ops["self"], ops["counters"]

    def ms(name):
        return 1e3 * inc.get(name, 0.0) / items

    scan_s = inc.get("propagation.spn_forward", 0.0) + inc.get("propagation.spn_backward", 0.0)
    fwd, bwd = counters.get("propagation.spn_forward", {}), counters.get("propagation.spn_backward", {})
    proj = counters.get("stability.project", {})
    return {
        "propagation.spn_forward.ms": ms("propagation.spn_forward"),
        "propagation.spn_backward.ms": ms("propagation.spn_backward"),
        "propagation.mpx_per_s": ((fwd.get("work", 0) + bwd.get("work", 0)) / scan_s / 1e6
                                  if scan_s else 0.0),
        "propagation.bytes_computed": (fwd.get("bytes", 0) + bwd.get("bytes", 0)) / items,
        "guidance.forward.ms": ms("guidance.forward"),
        "guidance.backward.ms": ms("guidance.backward"),
        "guidance.conv3x3.ms": ms("guidance.conv3x3"),
        "guidance.conv3x3.calls": calls.get("guidance.conv3x3", 0) / items,
        "guidance.checkpoint_save.ms": ms("guidance.checkpoint_save"),
        "guidance.checkpoint_load.ms": ms("guidance.checkpoint_load"),
        "stability.project.ms": ms("stability.project"),
        "stability.verify.ms": ms("stability.verify"),
        "stability.active_frac": (proj["active"] / proj["rows"] if proj.get("rows") else 0.0),
        "tensor.resize.ms": ms("tensor.resize"),
        "tensor.interp_matrix.calls": calls.get("tensor.interp_matrix", 0) / items,
        "tensor.interp_matrix.ms": ms("tensor.interp_matrix"),
        "tensor.io.ms": ms("tensor.io"),
        "training.pipeline_forward.ms": ms("training.pipeline_forward"),
        "training.pipeline_backward.ms": ms("training.pipeline_backward"),
        "training.softmax_xent.ms": ms("training.softmax_xent"),
        "training.sgd_step.ms": ms("training.sgd_step"),
        "training.evaluate.ms": ms("training.evaluate"),
        "training.self.ms": 1e3 * self_s.get("training.train", 0.0) / items,
        "dataset.gen.ms": 1e3 * setup["inclusive"].get("dataset.gen", 0.0),
        "dataset.load_sample.ms": ms("dataset.load_sample"),
        "cli.self.ms": 1e3 * self_s.get("cli.main", 0.0) / items,
    }


# --- workloads ----------------------------------------------------------

class TrainWorkload:
    """``training.train`` with the default config on a seeded 64x64 toy set.

    One operation is one ``train`` call: the default ten epochs over 20
    train / 2 validation images, the acceptance test's 10:1 split at a size
    that fits a run. Its final loss and validation IoU are fixed-epoch
    quality figures. Every call uses the same seed, so each must write the
    same ``loss`` and ``val_iou`` columns as the first.
    """

    name = "train-64-three"
    min_ops = 2  # the determinism check needs a repeat

    def __init__(self, toy: bool):
        self.size, self.n_train, self.n_val = (16, 4, 2) if toy else (64, 20, 2)
        self.epochs = 1 if toy else training.TrainConfig().epochs

    def setup(self, seed: int, workdir: Path):
        self.data = workdir / "data"
        self.out = workdir / "run"
        dataset.gen_toy_dataset(self.data, self.n_train, self.n_val, self.size,
                                2, seed)
        self.config = training.TrainConfig(epochs=self.epochs, seed=seed)
        self.reference = None

    def op(self):
        return training.train(self.config, self.data, self.out)

    def items(self, result) -> int:
        return self.n_train * result.epochs_run

    def check(self, result):
        with open(self.out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cols = [(r["loss"], r["val_iou"]) for r in rows]
        if len(rows) != self.epochs:
            return [f"metrics.csv has {len(rows)} rows, expected {self.epochs}"]
        if self.reference is None:
            self.reference = (cols, result.coarse_iou)
            return []
        if cols != self.reference[0]:
            return [f"same-seed rerun wrote different loss/val_iou: {cols} "
                    f"vs {self.reference[0]}"]
        return []

    def op_ms(self, result, duration):
        """Operation times for the percentiles: the epochs, as train timed them."""
        return [1e3 * float(row["seconds"]) for row in result.rows]

    def report(self, stats):
        cols, base = self.reference
        return {
            "train_samples_per_s": (stats["items_per_s"], "1/s"),
            "train_epoch_s_p50": (stats["op_ms_p50"] / 1e3, "s"),
            "train_loss": (float(cols[-1][0]), "nats"),
            "train_val_iou": (float(cols[-1][1]), "frac"),
            "train_coarse_iou": (base, "frac"),
        }


class RefineWorkload:
    """One in-process ``spn refine`` per request on a 128x128 image.

    The checkpoint is the seeded one-way initialization, written at set-up.
    Requests cycle through a small pool of seeded images.
    """

    name = "refine-128-one"
    min_ops = 1
    pool = 8

    def __init__(self, toy: bool):
        self.size = 32 if toy else 128

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        config = training.TrainConfig(kind="one", seed=seed)
        arch = config.architecture(2)
        params = training.init_pipeline_params(arch, rng, post_gain=config.post_gain)
        self.ckpt = workdir / "ckpt"
        guidance.checkpoint_save(self.ckpt, arch, params)
        self.requests = []
        for i in range(self.pool):
            image, labels = dataset.render_sample(rng, self.size, 2)
            coarse = dataset.make_coarse(labels, 2)
            ipath, cpath = workdir / f"img{i}.ppm", workdir / f"coarse{i}.spnt"
            tensor.write_image_pnm(ipath, tensor.map_from_array(image))
            tensor.write_array(cpath, coarse)
            self.requests.append((ipath, cpath, labels))
        self.out = workdir / "pred.pgm"
        self.n = 0
        self.first_preds = {}
        self.iou = training.IoUAccumulator(2)

    def op(self):
        ipath, cpath, _ = self.requests[self.n % self.pool]
        self.n += 1
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(["refine", "--checkpoint", str(self.ckpt),
                             "--image", str(ipath), "--coarse", str(cpath),
                             "--out", str(self.out)])
        return code, captured.getvalue()

    def items(self, result) -> int:
        return 1

    def check(self, result):
        code, output = result
        try:
            if code != 0:
                return [f"refine exited {code}: {output.strip()}"]
            pred = dataset.map_to_labels(tensor.read_image_pnm(self.out))
        finally:
            self.out.unlink(missing_ok=True)  # the next request must write its own
        index = (self.n - 1) % self.pool
        labels = self.requests[index][2]
        if pred.shape != labels.shape:
            return [f"label map shaped {pred.shape}, image is {labels.shape}"]
        first = self.first_preds.get(index)
        if first is None:
            self.first_preds[index] = pred
            self.iou.update(pred, labels)
        elif not np.array_equal(first, pred):
            return [f"refine of image {index} changed between requests"]
        return []

    def op_ms(self, result, duration):
        return [1e3 * duration]

    def report(self, stats):
        return {
            "refine_ms_p50": (stats["op_ms_p50"], "ms"),
            "refine_ms_p90": (stats["op_ms_p90"], "ms"),
            "refine_iou": (self.iou.mean(), "frac"),
        }


class PropagateWorkload:
    """``spn_forward`` then ``spn_backward`` on caller-supplied gates.

    Float32 three-way gates at 256x256x8, two units, no guidance network.
    The map is piecewise linear and positively homogeneous in x, so
    <dx, x> must equal <grad, out>; that ties the backward to the forward on
    every call at no extra scan cost.
    """

    name = "propagate-256-three"
    min_ops = 1
    kind = ConnectionKind.THREE_WAY
    units = 2

    def __init__(self, toy: bool):
        self.shape = (32, 32, 2) if toy else (256, 256, 8)

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        h, w, c = self.shape
        self.x = rng.standard_normal(self.shape).astype(np.float32)
        self.gates = propagation.random_gates(h, w, c, self.kind, rng).astype(np.float32)
        self.grad = rng.standard_normal(self.shape).astype(np.float32)

    def op(self):
        out, caches = propagation.spn_forward(self.x, self.gates, self.kind, self.units)
        dx, dgates = propagation.spn_backward(self.grad, caches)
        return out, dx, dgates

    def items(self, result) -> int:
        return 1

    def check(self, result):
        out, dx, dgates = result
        if out.shape != self.x.shape or dx.shape != self.x.shape or dgates.shape != self.gates.shape:
            return [f"shapes out {out.shape}, dx {dx.shape}, dgates {dgates.shape}"]
        if not (np.isfinite(out).all() and np.isfinite(dx).all() and np.isfinite(dgates).all()):
            return ["non-finite propagation output or gradient"]
        lhs = float(np.dot(dx.ravel().astype(np.float64), self.x.ravel()))
        rhs = float(np.dot(self.grad.ravel().astype(np.float64), out.ravel()))
        scale = float(np.abs(self.grad.astype(np.float64) * out).sum())
        if not abs(lhs - rhs) <= 1e-6 * scale:
            return [f"<dx, x> = {lhs!r} but <grad, out> = {rhs!r}"]
        return []

    def op_ms(self, result, duration):
        return [1e3 * duration]

    def report(self, stats):
        work = 2 * 4 * self.units * int(np.prod(self.shape))  # forward + backward
        return {
            "propagate_ms_p50": (stats["op_ms_p50"], "ms"),
            "propagate_ms_p90": (stats["op_ms_p90"], "ms"),
            "propagate_mpx_per_s": (stats["items_per_s"] * work / 1e6, "Mpx/s"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, RefineWorkload, PropagateWorkload)}
