"""Command line interface.

Exit codes: 0 on success, 1 when a verification or training check fails,
2 for usage, configuration, or file-format problems.

The `verify` and `gradcheck` commands accept deliberate fault injections
(`--inject-fault`, `--perturb-backward`). A faulted run must exit 1; that the
checks catch the planted defect is itself part of the verification story.

`main` sets glibc's allocator to serve allocations below 32 MiB from the heap
and to keep freed memory mapped (`training.keep_freed_memory`), so repeated
requests in one process reuse pages instead of faulting in freshly zeroed
ones; library calls leave the host process's allocator alone.
"""
from __future__ import annotations

import argparse
import functools
import io
import math
import os
import select
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import affinity as aff
from . import dataset as ds
from . import training as tr
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
    FormatError,
    TrainingAborted,
    require_at_least,
)
from .fdcheck import check_gradient
from .guidance import FIELD_PARSERS, checkpoint_load
from .propagation import (
    ConnectionKind,
    Direction,
    KIND_NAMES,
    NAME_TO_DIRECTION,
    NAME_TO_KIND,
    boundary_mask,
    check_boundary_zeros,
    propagate_direction,
    random_gates,
    spn_backward,
    spn_forward,
    zero_boundary,
)
from .stability import (
    STABILITY_TOL,
    project_gates_backward,
    project_gates_cached,
    verify_stability,
)
from .tensor import read_array, read_image_pnm, write_array, write_image_pnm

class CheckLog:
    """Collects named pass/fail lines and remembers the overall verdict."""

    def __init__(self):
        self.ok = True

    def record(self, name: str, passed: bool, detail: str):
        verdict = "PASS" if passed else "FAIL"
        print(f"{name}: {verdict} ({detail})")
        if not passed:
            self.ok = False


def cmd_verify(args) -> int:
    # grid sides are drawn from [2, --max-size]
    require_at_least(("--trials", args.trials, 1), ("--max-size", args.max_size, 2),
                     ("--channels", args.channels, 1), ("--seed", args.seed, 0))
    largest = math.isqrt(aff.MAX_ORACLE_PIXELS)  # the dense oracle's grid cap
    if args.max_size > largest:
        raise ConfigError(f"--max-size must be at most {largest} (dense oracle cap "
                          f"of {aff.MAX_ORACLE_PIXELS} pixels), got {args.max_size}")
    rng = np.random.default_rng(args.seed)
    kind = NAME_TO_KIND[args.kind]
    dtype = np.float64 if args.bits == 64 else np.float32
    scan_tol = 1e-10 if args.bits == 64 else 1e-5
    const_tol = 1e-12 if args.bits == 64 else 1e-5
    log = CheckLog()

    worst = {"boundary": True, "rowsum": 0.0, "scan": 0.0, "pooled": 0.0,
             "stability": 0.0, "spectra": 0.0, "const": 0.0}
    for trial in range(args.trials):
        h = int(rng.integers(2, args.max_size + 1))
        w = int(rng.integers(2, args.max_size + 1))
        gates = random_gates(h, w, args.channels, kind, rng, low=-1.5, high=1.5,
                             project=True)
        if args.inject_fault == "unprojected":
            gates = random_gates(h, w, args.channels, kind, rng,
                                 low=0.6, high=1.4)
        checked = gates.copy()
        if args.inject_fault == "boundary":
            checked[0, 0, 0, Direction.LEFT_TO_RIGHT, 0] = 0.25
        try:
            check_boundary_zeros(checked, kind)
        except ContractError:
            worst["boundary"] = False

        x = rng.standard_normal((h, w, args.channels))
        const = np.full((h, w, args.channels), 0.75, dtype=dtype)
        dense = [aff.build_dense_affinity(gates[:, :, :, d, :], d, kind)
                 for d in Direction]
        for d in Direction:
            gd = gates[:, :, :, d, :]
            worst["rowsum"] = max(worst["rowsum"],
                                  float(np.abs(dense[d].row_sums() - 1.0).max()))
            gd_cast = gd.astype(dtype)
            scan = propagate_direction(x.astype(dtype), gd_cast, d, kind)
            oracle = dense[d].apply(x)
            scan_f64 = scan.astype(np.float64)
            if args.inject_fault == "scan-perturb":
                scan_f64 = scan_f64 + 100.0 * scan_tol
            worst["scan"] = max(worst["scan"],
                                float(np.abs(scan_f64 - oracle).max()))
            radii = aff.step_spectra(gd, d, kind)
            if radii.size:
                worst["spectra"] = max(worst["spectra"], float(radii.max()))
            drift = np.abs(propagate_direction(const, gd_cast, d, kind) - 0.75)
            worst["const"] = max(worst["const"], float(drift.max()))

        pooled = spn_forward(x.astype(dtype), gates.astype(dtype), kind,
                             units=2)[0].astype(np.float64)
        if args.inject_fault == "scan-perturb":
            pooled = pooled + 100.0 * scan_tol
        worst["pooled"] = max(worst["pooled"], float(np.abs(
            pooled - aff.oracle_spn_forward(x, dense, 2)).max()))

        rep = verify_stability(gates, kind)
        worst["stability"] = max(worst["stability"], rep.max_abs_sum)

    log.record("boundary-contract", worst["boundary"],
               "all required gate zeros in place" if worst["boundary"]
               else "nonzero gate found on a scan boundary")
    log.record("dense-row-sums", worst["rowsum"] <= 1e-10,
               f"max |row sum - 1| = {worst['rowsum']:.3e}, tol 1e-10")
    log.record("scan-vs-dense-oracle", worst["scan"] <= scan_tol,
               f"max |scan - oracle| = {worst['scan']:.3e}, tol {scan_tol:g}")
    log.record("pooled-scan-vs-dense-oracle", worst["pooled"] <= scan_tol,
               f"spn_forward, 2 units: max |scan - oracle| = "
               f"{worst['pooled']:.3e}, tol {scan_tol:g}")
    log.record("gate-row-bound", worst["stability"] <= 1.0 + STABILITY_TOL,
               f"max abs gate sum = {worst['stability']:.9f}, "
               f"limit {1.0 + STABILITY_TOL:g}")
    log.record("step-spectral-radius", worst["spectra"] <= 1.0 + STABILITY_TOL,
               f"max eigenvalue magnitude = {worst['spectra']:.9f}")
    log.record("constant-fixed-point", worst["const"] <= const_tol,
               f"max drift = {worst['const']:.3e}, tol {const_tol:g}")
    return 0 if log.ok else 1


def cmd_gradcheck(args) -> int:
    if not (np.isfinite(args.eps) and args.eps > 0.0):
        raise ConfigError(f"--eps must be a positive finite step, got {args.eps!r}")
    require_at_least(("--coords", args.coords, 1), ("--seed", args.seed, 0))
    rng = np.random.default_rng(args.seed)
    log = CheckLog()
    budget_each = max(args.coords // 8, 10)

    def fuzz(grad):
        if not args.perturb_backward:
            return grad
        scale = np.abs(grad).max() or 1.0
        return grad + 0.05 * scale * rng.standard_normal(grad.shape)

    def audit(name, probe, x, grad, tol, mask=None):
        res = check_gradient(probe, x, fuzz(grad), rng=rng, num=budget_each,
                             eps=args.eps, mask=mask)
        log.record(name, res.max_rel_err < tol, str(res))
        return res.checked

    # the path training runs: two units, so the gate gradient adds up across
    # units; a square grid scans as one four-direction stack, a non-square
    # one as two. Coordinates whose perturbation moves a max-pool winner
    # are skipped.
    total = 0
    for kind, (h, w) in ((ConnectionKind.ONE_WAY, (6, 6)),
                         (ConnectionKind.THREE_WAY, (5, 6))):
        label = f"{KIND_NAMES[kind]},{h}x{w}"
        x = rng.standard_normal((h, w, 2))
        g = random_gates(h, w, 2, kind, rng, high=0.8 / kind.gates_per_direction)
        wts = rng.standard_normal(x.shape)
        dx, dg = spn_backward(wts, spn_forward(x, g, kind, units=2)[1])

        def probe(a, b):
            out, caches = spn_forward(a, b, kind, units=2)
            return (float((out * wts).sum()),
                    b"".join(c.winner.tobytes() for c in caches))

        total += audit(f"spn-input[{label}]", lambda a: probe(a, g), x, dx, 1e-4)
        free = np.broadcast_to(~boundary_mask(h, w, kind)[:, :, None], g.shape)
        total += audit(f"spn-gates[{label}]", lambda a: probe(x, a), g, dg, 1e-4,
                       mask=free)

    g = random_gates(4, 4, 2, ConnectionKind.THREE_WAY, rng, low=-1.3, high=1.3)
    wts = rng.standard_normal(g.shape)
    _, pc = project_gates_cached(g, ConnectionKind.THREE_WAY)
    dg = project_gates_backward(wts, pc)

    def project_probe(a):
        out, (_, _, _, active) = project_gates_cached(a, ConnectionKind.THREE_WAY)
        return float((out * wts).sum()), active.tobytes()

    total += audit("projection", project_probe, g, dg, 1e-4, mask=g != 0.0)

    arch = tr.Architecture(widths=(3, 4, 5), prop_channels=3)
    params = tr.init_pipeline_params(arch, rng, dtype=np.float64)
    image = rng.random((12, 12, 3))
    coarse = rng.random((12, 12, 2))
    coarse /= coarse.sum(axis=2, keepdims=True)
    labels = rng.integers(0, 2, size=(12, 12)).astype(np.int32)

    def run(p):
        logits, cache = tr.pipeline_forward(p, arch, image, coarse)
        loss, dlogits = tr.softmax_xent(logits, labels)
        return loss, dlogits, cache

    _, dlogits, cache = run(params)
    grads = tr.pipeline_backward(dlogits, cache)
    for key in ("enc1.w", "head.w", "pre.w", "post.w"):
        def pipeline_probe(a):
            loss, _, trial_cache = run({**params, key: a})
            return loss, tr.pipeline_signature(trial_cache)

        total += audit(f"pipeline[{key}]", pipeline_probe, params[key],
                       grads[key], 1e-3)

    print(f"total coordinates checked: {total}")
    if total < args.coords:
        log.record("coverage", False,
                   f"only {total} coordinates checked, wanted {args.coords}")
    return 0 if log.ok else 1


def cmd_affinity(args) -> int:
    aff.check_dense_size(args.height, args.width)  # before any gate is built
    require_at_least(("--channels", args.channels, 1), ("--seed", args.seed, 0))
    rng = np.random.default_rng(args.seed)
    kind = NAME_TO_KIND[args.kind]
    d = NAME_TO_DIRECTION[args.direction]
    gates = random_gates(args.height, args.width, args.channels, kind, rng,
                         low=-1.0, high=1.0, project=True)
    gd = gates[:, :, :, d, :]
    dense = aff.build_dense_affinity(gd, d, kind)
    resid = float(np.abs(dense.row_sums() - 1.0).max())
    stats = aff.sparsity_stats(dense)
    radii = aff.step_spectra(gd, d, kind)
    radius = radii.max() if radii.size else 0.0
    rep = verify_stability(gates, kind)
    print(f"grid {args.height}x{args.width}, {args.channels} channel(s), "
          f"{args.kind}-way, direction {args.direction}")
    print(f"row-sum residual: {resid:.3e}")
    print(f"nonzeros: {stats.nonzeros}/{stats.entries} "
          f"(density {stats.density:.4f}), "
          f"block lower triangular: {stats.block_lower_triangular}")
    print(f"max step spectral radius: {radius:.9f}")
    print(rep)
    if args.out_csv:
        lines = [rep.to_csv().rstrip("\n"), "metric,value",
                 f"row_sum_residual,{resid:.17g}",
                 f"nonzeros,{stats.nonzeros}",
                 f"density,{stats.density:.17g}",
                 f"block_lower_triangular,{int(stats.block_lower_triangular)}",
                 f"max_step_spectral_radius,{radius:.17g}"]
        Path(args.out_csv).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out_csv}")
    if args.save:
        write_array(args.save, dense.G)
        print(f"wrote {args.save}")
    return 0 if resid <= 1e-10 and stats.block_lower_triangular else 1


def cmd_impulse(args) -> int:
    aff.check_dense_size(args.height, args.width)  # before any gate is built
    require_at_least(("--gate-value", args.gate_value, -np.inf))
    kind = NAME_TO_KIND[args.kind]
    d = NAME_TO_DIRECTION[args.direction]
    k = kind.gates_per_direction
    gates = zero_boundary(
        np.full((args.height, args.width, 1, 4, k), args.gate_value), kind)
    gd = gates[:, :, :, d, :]
    resp = aff.impulse_response(gd, d, kind, args.row, args.col)
    x = np.zeros((args.height, args.width, 1))
    x[args.row, args.col, 0] = 1.0
    scan = propagate_direction(x, gd, d, kind)[:, :, 0]
    mismatch = float(np.abs(scan - resp).max())
    with np.printoptions(precision=4, suppress=True, linewidth=200):
        print(resp)
    print(f"scan/dense mismatch: {mismatch:.3e}")
    if args.out:
        write_array(args.out, resp[:, :, None])
        print(f"wrote {args.out}")
    return 0 if mismatch <= 1e-10 else 1


def cmd_gen_data(args) -> int:
    if args.check:
        n = ds.verify_dataset(args.out)
        print(f"dataset ok: {n} items verified against manifest hashes")
        return 0
    meta = ds.gen_toy_dataset(args.out, n_train=args.train, n_val=args.val,
                              size=args.size, classes=args.classes,
                              seed=args.seed, coarse_factor=args.coarse_factor,
                              coarse_blur=args.coarse_blur)
    n = ds.verify_dataset(args.out)
    print(f"wrote {n} items to {args.out} "
          f"({meta['train']} train / {meta['val']} val, "
          f"{meta['size']}x{meta['size']}, {meta['classes']} classes)")
    return 0


def _build_config(args) -> tr.TrainConfig:
    cfg = tr.TrainConfig.from_file(args.config) if args.config else tr.TrainConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(cfg)
                 if getattr(args, f.name) is not None}
    return replace(cfg, **overrides)


def cmd_train(args) -> int:
    cfg = _build_config(args)

    def progress(row):
        star = " *" if row["is_best"] else ""
        print(f"epoch {row['epoch']}: loss {float(row['loss']):.4f} "
              f"val_iou {float(row['val_iou']):.4f} "
              f"gates {float(row['gate_max_abs_sum']):.6f} "
              f"({row['seconds']}s){star}")

    res = tr.train(cfg, args.data, args.out, progress=progress)
    delta = (res.best_iou - res.coarse_iou) * 100.0
    print(f"coarse IoU {res.coarse_iou:.4f}, best refined IoU "
          f"{res.best_iou:.4f} ({delta:+.2f} points), "
          f"{res.epochs_run} epoch(s), artifacts in {res.out_dir}")
    return 0


def cmd_eval(args) -> int:
    arch, params, _ = checkpoint_load(args.checkpoint)
    train_idx, val_idx, meta = tr.load_split(args.data)
    idx = val_idx if args.split == "val" else train_idx
    classes = int(meta["classes"])
    if classes != arch.classes:
        raise DimensionError(
            f"checkpoint has {arch.classes} classes, dataset has {classes}")
    samples = [tr.load_sample(args.data, i, classes) for i in idx]
    refined, _ = tr.evaluate(params, arch, samples, restrict=args.restrict)
    base = tr.coarse_iou(samples, classes)
    print(f"samples: {len(samples)} ({args.split})")
    print(f"coarse IoU:  {base:.4f}")
    print(f"refined IoU: {refined:.4f} ({(refined - base) * 100.0:+.2f} points)")
    return 0


def cmd_refine(args) -> int:
    arch, params, _ = checkpoint_load(args.checkpoint)
    image = read_image_pnm(args.image)
    coarse = read_array(args.coarse)
    truth = (ds.map_to_labels(read_image_pnm(args.truth), f"truth mask {args.truth}")
             if args.truth else None)
    ds.check_sample(image, coarse, arch.classes, truth, owner="the checkpoint",
                    name={"image": f"image {args.image}", "mask": f"truth mask {args.truth}",
                          "coarse map": f"coarse map {args.coarse}"}.get)
    allowed = np.unique(coarse.argmax(axis=2)) if args.restrict else None
    pred, _ = tr.refine_sample(params, arch, image, coarse, allowed)
    ds_counts = np.bincount(pred.reshape(-1), minlength=arch.classes)
    write_image_pnm(args.out, ds.labels_to_map(pred))
    print(f"wrote {args.out}; class pixel counts: {ds_counts.tolist()}")
    if args.truth:
        acc = tr.IoUAccumulator(arch.classes)
        acc.update(pred, truth)
        base = tr.coarse_iou([(image, truth, coarse)], arch.classes)
        print(f"coarse IoU {base:.4f}, refined IoU {acc.mean():.4f}")
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spn",
        description="Learned-affinity spatial propagation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="cross-check scans against dense algebra")
    v.add_argument("--trials", type=int, default=5)
    v.add_argument("--max-size", type=int, default=10)
    v.add_argument("--channels", type=int, default=2)
    v.add_argument("--kind", choices=sorted(NAME_TO_KIND), default="three")
    v.add_argument("--bits", type=int, choices=(32, 64), default=64)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--inject-fault",
                   choices=("boundary", "unprojected", "scan-perturb"),
                   default=None, help="plant a defect; the run must then fail")
    v.set_defaults(fn=cmd_verify)

    g = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    g.add_argument("--coords", type=int, default=160)
    g.add_argument("--eps", type=float, default=1e-4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--perturb-backward", action="store_true",
                   help="corrupt analytic gradients; the run must then fail")
    g.set_defaults(fn=cmd_gradcheck)

    a = sub.add_parser("affinity", help="dense transform diagnostics")
    a.add_argument("--height", type=int, default=8)
    a.add_argument("--width", type=int, default=8)
    a.add_argument("--channels", type=int, default=1)
    a.add_argument("--kind", choices=sorted(NAME_TO_KIND), default="three")
    a.add_argument("--direction", choices=sorted(NAME_TO_DIRECTION), default="ltr")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out-csv", default=None)
    a.add_argument("--save", default=None, help="write dense G as a tensor file")
    a.set_defaults(fn=cmd_affinity)

    i = sub.add_parser("impulse", help="unit impulse response of one scan")
    i.add_argument("--height", type=int, default=9)
    i.add_argument("--width", type=int, default=9)
    i.add_argument("--row", type=int, default=4)
    i.add_argument("--col", type=int, default=0)
    i.add_argument("--direction", choices=sorted(NAME_TO_DIRECTION), default="ltr")
    i.add_argument("--kind", choices=sorted(NAME_TO_KIND), default="three")
    i.add_argument("--gate-value", type=float, default=1.0 / 3.0)
    i.add_argument("--out", default=None)
    i.set_defaults(fn=cmd_impulse)

    d = sub.add_parser("gen-data", help="render or verify a toy dataset")
    d.add_argument("--out", required=True)
    d.add_argument("--train", type=int, default=500)
    d.add_argument("--val", type=int, default=50)
    d.add_argument("--size", type=int, default=64)
    d.add_argument("--classes", type=int, default=2)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--coarse-factor", type=int, default=8)
    d.add_argument("--coarse-blur", type=int, default=1)
    d.add_argument("--check", action="store_true",
                   help="verify an existing dataset instead of writing one")
    d.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train the refinement model")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None, help="key=value config file")
    for f in fields(tr.TrainConfig):  # one flag per config key
        t.add_argument("--" + f.name.replace("_", "-"), type=FIELD_PARSERS[f.type],
                       choices=sorted(NAME_TO_KIND) if f.name == "kind" else None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="IoU of a checkpoint on a dataset split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("train", "val"), default="val")
    e.add_argument("--restrict", action="store_true",
                   help="limit predictions to classes present in the truth")
    e.set_defaults(fn=cmd_eval)

    r = sub.add_parser("refine", help="refine one coarse map")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--image", required=True)
    r.add_argument("--coarse", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--truth", default=None)
    r.add_argument("--restrict", action="store_true")
    r.set_defaults(fn=cmd_refine)

    return p


def _stdout_reader_gone() -> bool:
    """True if stdout is a pipe whose reading end is closed."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, io.UnsupportedOperation):
        return False  # not a file descriptor
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(events & select.POLLERR for _, events in poller.poll(0))


def main(argv=None) -> int:
    tr.keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (FormatError, ConfigError, CheckpointError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ContractError, TrainingAborted) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise  # some other pipe: no fault of the reader
        # the reader left (`spn impulse | head -1`): stdout goes to the null
        # device, so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as e:
        if e.filename is None:  # no path at fault: a pipe, a fork, ...
            raise
        print(f"error: {e}", file=sys.stderr)  # missing, a directory, ...
        return 2


if __name__ == "__main__":
    sys.exit(main())
