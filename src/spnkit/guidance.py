"""Gate-producing convolutional network and parameter checkpointing.

The network is a small encoder/decoder over the input image: three 3x3 conv
layers (the last two at stride 2), mirrored by two decoder convs whose inputs
are bilinearly upsampled and summed with the matching encoder activation
before the relu. Decoder output is resized to the propagation resolution and
a final linear conv emits one channel per gate slot. Head weights start small
so propagation begins near the identity.

Everything is plain numpy with hand-written backward passes; the forward
caches exactly what its backward needs. A convolution zero-pads its input
once, splits it into its stride x stride phases, and runs one GEMM per
kernel tap over a contiguous shifted slice of a phase; no nine-fold patch
buffer is built, and the phases, about one padded input, are the cache.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (CheckpointError, ConfigError, DimensionError, FormatError,
                     require_at_least)
from .propagation import KIND_NAMES, NAME_TO_KIND, ConnectionKind
from .tensor import (interp_matrix, read_array, read_key_values, require_finite,
                     resize_array, work_dtype, write_array)


def _phase_layout(x_shape, stride: int):
    """Where a 3x3, pad-1 conv at `stride` finds its taps.

    The zero-padded input is split into its stride x stride phases, phase
    (py, px) holding padded[py::s, px::s], each `rows` x `wq` and flattened
    to rows * wq pixels. Tap (dy, dx) of every output pixel is then the
    contiguous slice phase[dy % s, dx % s][off : off + ho * wq] with
    off = (dy // s) * wq + dx // s, laid out `wq` pixels to an output row of
    which the last wq - wo are spare (they wrap into the next row) and are
    dropped. The spare phase row at the bottom keeps the last slice in bounds.

    Returns (ho, wo, wq, phase_shape, taps, places): `taps` lists
    (dy, dx, py, px, off); `places` lists (py, px, phase index, input index),
    the block of the input each phase holds and where.
    """
    h, wd, cin = x_shape
    s = stride
    ho, wo = (h - 1) // s + 1, (wd - 1) // s + 1
    wq = wo + 2 // s
    phase_shape = (s, s, ho + 2 // s + 1, wq, cin)
    taps = [(dy, dx, dy % s, dx % s, (dy // s) * wq + dx // s)
            for dy in range(3) for dx in range(3)]
    places = []
    for py in range(s):
        for px in range(s):
            ay, ax = (py - 1) % s, (px - 1) % s  # first input row/col in it
            r0, c0 = (ay + 1 - py) // s, (ax + 1 - px) // s
            ny, nx = len(range(ay, h, s)), len(range(ax, wd, s))
            places.append((py, px, (slice(r0, r0 + ny), slice(c0, c0 + nx)),
                           (slice(ay, None, s), slice(ax, None, s))))
    return ho, wo, wq, phase_shape, taps, places


def conv3x3_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1):
    """3x3 convolution, zero padding 1. x: (H, W, Cin), w: (3, 3, Cin, Cout).

    One GEMM per tap over a contiguous slice of the padded input's phases
    (`_phase_layout`); the cache holds the phases, about one padded input.
    """
    if x.ndim != 3 or w.shape[:2] != (3, 3) or w.shape[2] != x.shape[2]:
        raise DimensionError(f"conv shapes disagree: x {x.shape}, w {w.shape}")
    if stride not in (1, 2):
        raise DimensionError("stride must be 1 or 2")
    ho, wo, wq, phase_shape, taps, places = _phase_layout(x.shape, stride)
    phases = np.zeros(phase_shape, dtype=x.dtype)
    for py, px, at, src in places:
        phases[py, px][at] = x[src]
    flat = phases.reshape(stride, stride, -1, x.shape[2])
    n, cout = ho * wq, w.shape[3]
    acc = np.empty((n, cout), dtype=np.result_type(x, w))
    term = np.empty_like(acc)
    for t, (dy, dx, py, px, off) in enumerate(taps):
        np.matmul(flat[py, px, off:off + n], w[dy, dx], out=term if t else acc)
        if t:
            acc += term
    y = acc.reshape(ho, wq, cout)[:, :wo] + b
    return y.astype(x.dtype, copy=False), (phases, w, x.shape, stride)


def conv3x3_backward(grad: np.ndarray, cache, need_dx: bool = True):
    """Returns (dx, dw, db) for conv3x3_forward; dx is None if not `need_dx`.

    The gradient is zero-padded to `wq` columns, so the spare pixels of each
    tap slice contribute nothing to dw[dy, dx] = slice.T @ grad; dx adds
    grad @ w[dy, dx].T into per-phase buffers at the same slices and copies
    each phase back to its strided block of the input.
    """
    phases, w, x_shape, stride = cache
    ho, wo, wq, _, taps, places = _phase_layout(x_shape, stride)
    cin, cout = w.shape[2], w.shape[3]
    n = ho * wq
    gq = np.zeros((ho, wq, cout), dtype=grad.dtype)
    gq[:, :wo] = grad
    gq = gq.reshape(n, cout)
    flat = phases.reshape(stride, stride, -1, cin)
    dw = np.empty((3, 3, cin, cout), dtype=np.result_type(phases, grad))
    for dy, dx, py, px, off in taps:
        np.matmul(flat[py, px, off:off + n].T, gq, out=dw[dy, dx])
    dw = dw.astype(grad.dtype, copy=False)
    db = np.ones(n, dtype=grad.dtype) @ gq  # a gemv; sum(axis=0) is ~10x slower
    if not need_dx:
        return None, dw, db
    dphases = np.zeros(phases.shape, dtype=np.result_type(grad, w))
    dflat = dphases.reshape(flat.shape)
    term = np.empty((n, cin), dtype=dphases.dtype)
    for dy, dx, py, px, off in taps:
        np.matmul(gq, w[dy, dx].T, out=term)
        dflat[py, px, off:off + n] += term
    dinput = np.empty(x_shape, dtype=grad.dtype)
    for py, px, at, src in places:
        dinput[src] = dphases[py, px][at]
    return dinput, dw, db


def relu_forward(z: np.ndarray):
    # fmax gives +0 for NaN and -0, as where(z > 0, z, 0) does; maximum keeps NaN
    return np.fmax(z, 0), z > 0


def relu_backward(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, grad, grad.dtype.type(0))


def resize_forward(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of (H, W, C), in the input's precision."""
    return resize_array(x, out_h, out_w)


def resize_backward(grad: np.ndarray, in_h: int, in_w: int) -> np.ndarray:
    """Adjoint of resize_forward: the same two products with the transposed
    interpolation matrices, in the gradient's precision."""
    oh, ow, c = grad.shape
    dt = work_dtype(grad.dtype)
    rh = interp_matrix(in_h, oh, dt)
    rw = interp_matrix(in_w, ow, dt)
    tmp = rh.T @ grad.astype(dt, copy=False).reshape(oh, ow * c)
    return np.matmul(rw.T, tmp.reshape(in_h, ow, c)).astype(grad.dtype, copy=False)


def parse_widths(text: str) -> tuple:
    """The `8,16,32` text form of `Architecture.widths`."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as e:
        raise ConfigError(f"widths must be comma-separated ints, got {text!r}") from e


def parse_kind(text: str) -> ConnectionKind:
    if text not in NAME_TO_KIND:
        raise ConfigError(f"unknown kind {text!r}")
    return NAME_TO_KIND[text]


# text form of a settings field, by its annotation: how a value is read
# from, and written to, a key=value line
FIELD_PARSERS = {"int": int, "float": float, "str": str, "tuple": parse_widths,
                 "ConnectionKind": parse_kind}
FIELD_WRITERS = {"tuple": lambda v: ",".join(str(w) for w in v),
                 "ConnectionKind": KIND_NAMES.__getitem__}


@dataclass(frozen=True)
class Architecture:
    """Shape contract shared by the network, the trainer, and checkpoints."""

    image_channels: int = 3
    widths: tuple = (8, 16, 32)
    prop_channels: int = 8
    classes: int = 2
    kind: ConnectionKind = ConnectionKind.THREE_WAY
    scale: int = 2
    units: int = 2

    def __post_init__(self):
        if len(self.widths) != 3 or any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be three positive ints, got {self.widths}")
        require_at_least(("image_channels", self.image_channels, 1),
                         ("prop_channels", self.prop_channels, 1),
                         ("classes", self.classes, 2), ("scale", self.scale, 1),
                         ("units", self.units, 1))

    @property
    def gate_slots(self) -> int:
        return 4 * self.kind.gates_per_direction

    @property
    def head_channels(self) -> int:
        return self.prop_channels * self.gate_slots

    def to_lines(self):
        return [f"{f.name}={FIELD_WRITERS.get(f.type, str)(getattr(self, f.name))}"
                for f in fields(self)]

    @staticmethod
    def from_mapping(kv: dict) -> "Architecture":
        """Every field from a checkpoint header's keys; other keys are ignored."""
        try:
            return Architecture(**{f.name: FIELD_PARSERS[f.type](kv[f.name])
                                   for f in fields(Architecture)})
        except KeyError as e:
            raise CheckpointError(f"architecture field missing: {e}") from e
        except ValueError as e:
            raise CheckpointError(f"bad architecture field: {e}") from e


PARAM_ORDER = ("enc0", "enc1", "enc2", "dec0", "dec1", "head", "pre", "post")


def param_shapes(arch: Architecture) -> dict:
    w0, w1, w2 = arch.widths
    c = arch.prop_channels
    shapes = {
        "enc0": (3, 3, arch.image_channels, w0),
        "enc1": (3, 3, w0, w1),
        "enc2": (3, 3, w1, w2),
        "dec0": (3, 3, w2, w1),
        "dec1": (3, 3, w1, w0),
        "head": (3, 3, w0, arch.head_channels),
        "pre": (3, 3, arch.classes, c),
        "post": (3, 3, c, arch.classes),
    }
    out = {}
    for name in PARAM_ORDER:
        out[name + ".w"] = shapes[name]
        out[name + ".b"] = (shapes[name][3],)
    return out


HEAD_INIT_SCALE = 0.1


def init_params(arch: Architecture, rng: np.random.Generator,
                dtype=np.float32) -> dict:
    """Uniform fan-in initialization, zero biases, damped gate head."""
    params = {}
    for name in PARAM_ORDER:
        shape = param_shapes(arch)[name + ".w"]
        bound = np.sqrt(1.0 / (9.0 * shape[2]))
        w = rng.uniform(-bound, bound, size=shape)
        if name == "head":
            w *= HEAD_INIT_SCALE
        params[name + ".w"] = w.astype(dtype)
        params[name + ".b"] = np.zeros(shape[3], dtype=dtype)
    return params


def guidance_forward(params: dict, arch: Architecture, image: np.ndarray,
                     prop_h: int, prop_w: int):
    """Image (H, W, Cin) to raw gates (prop_h, prop_w, C, 4, K), plus cache.

    Raw gates carry no boundary zeros and no stability bound; callers mask
    and project them before propagation.
    """
    if image.ndim != 3 or image.shape[2] != arch.image_channels:
        raise DimensionError(
            f"image shaped {image.shape}, expected (H, W, {arch.image_channels})")
    z0, c0 = conv3x3_forward(image, params["enc0.w"], params["enc0.b"], 1)
    a0, m0 = relu_forward(z0)
    z1, c1 = conv3x3_forward(a0, params["enc1.w"], params["enc1.b"], 2)
    a1, m1 = relu_forward(z1)
    z2, c2 = conv3x3_forward(a1, params["enc2.w"], params["enc2.b"], 2)
    a2, m2 = relu_forward(z2)

    u1 = resize_forward(a2, a1.shape[0], a1.shape[1])
    zd0, cd0 = conv3x3_forward(u1, params["dec0.w"], params["dec0.b"], 1)
    b1, md0 = relu_forward(zd0 + a1)
    u0 = resize_forward(b1, image.shape[0], image.shape[1])
    zd1, cd1 = conv3x3_forward(u0, params["dec1.w"], params["dec1.b"], 1)
    b0, md1 = relu_forward(zd1 + a0)

    feat = resize_forward(b0, prop_h, prop_w)
    raw, ch = conv3x3_forward(feat, params["head.w"], params["head.b"], 1)
    k = arch.kind.gates_per_direction
    gates = raw.reshape(prop_h, prop_w, arch.prop_channels, 4, k)
    cache = {
        "convs": (c0, c1, c2, cd0, cd1, ch),
        "masks": (m0, m1, m2, md0, md1),
        "sizes": (a2.shape, b1.shape, b0.shape, image.shape),
        "raw_shape": raw.shape,
    }
    return gates, cache


def guidance_backward(grad_gates: np.ndarray, cache: dict):
    """Parameter gradients of guidance_forward. The image gradient is not computed."""
    c0, c1, c2, cd0, cd1, ch = cache["convs"]
    m0, m1, m2, md0, md1 = cache["masks"]
    a2_shape, b1_shape, b0_shape, img_shape = cache["sizes"]
    grads = {}

    graw = grad_gates.reshape(cache["raw_shape"])
    dfeat, grads["head.w"], grads["head.b"] = conv3x3_backward(graw, ch)
    db0 = resize_backward(dfeat, b0_shape[0], b0_shape[1])

    dzd1 = relu_backward(db0, md1)
    da0_skip = dzd1
    du0, grads["dec1.w"], grads["dec1.b"] = conv3x3_backward(dzd1, cd1)
    db1 = resize_backward(du0, b1_shape[0], b1_shape[1])

    dzd0 = relu_backward(db1, md0)
    da1_skip = dzd0
    du1, grads["dec0.w"], grads["dec0.b"] = conv3x3_backward(dzd0, cd0)
    da2 = resize_backward(du1, a2_shape[0], a2_shape[1])

    dz2 = relu_backward(da2, m2)
    da1, grads["enc2.w"], grads["enc2.b"] = conv3x3_backward(dz2, c2)
    dz1 = relu_backward(da1 + da1_skip, m1)
    da0, grads["enc1.w"], grads["enc1.b"] = conv3x3_backward(dz1, c1)
    dz0 = relu_backward(da0 + da0_skip, m0)
    _, grads["enc0.w"], grads["enc0.b"] = conv3x3_backward(dz0, c0, need_dx=False)
    return grads


def relu_signature(cache: dict) -> bytes:
    """Branch fingerprint of a forward pass, for finite-difference guards."""
    return b"".join(np.packbits(m.reshape(-1)).tobytes() for m in cache["masks"])


CHECKPOINT_FORMAT = "spn-checkpoint-v2"


def reject_directory(*paths) -> None:
    """Raise CheckpointError for a checkpoint path that is a directory, as v1 ones were."""
    for path in paths:
        if Path(path).is_dir():
            raise CheckpointError(f"{path} is a directory, as spn-checkpoint-v1 checkpoints "
                                  f"were; a checkpoint is now one {CHECKPOINT_FORMAT} file")


def checkpoint_save(path, arch: Architecture, params: dict,
                    meta: dict | None = None) -> None:
    """Write one file: `key=value` lines (format, architecture, sorted `meta.*`),
    a NUL byte, and one flat tensor record of the parameters in sorted key
    order, in one dtype, shaped by `param_shapes(arch)`. It is written and fsynced as
    `.<name>.tmp` and moved onto `path` by one `os.replace`, so `path` holds a
    whole checkpoint, old or new, at every moment; a failed save removes `.<name>.tmp`."""
    p = Path(path)
    reject_directory(p)
    shapes, dtype = param_shapes(arch), np.result_type(np.float32, *params.values())
    bad = sorted(k for k in set(params) | set(shapes) if k not in shapes or k not in params
                 or params[k].shape != shapes[k] or params[k].dtype != dtype)
    if bad:  # missing, unexpected, mis-shaped, or of another dtype
        raise CheckpointError(f"parameters {bad} do not match param_shapes(arch) in {dtype}")
    lines = [f"format={CHECKPOINT_FORMAT}", *arch.to_lines(),
             *(f"meta.{key}={value}" for key, value in sorted((meta or {}).items()))]
    tmp = p.with_name(f".{p.name}.tmp")
    try:
        write_array(tmp, np.concatenate([params[key].ravel() for key in sorted(shapes)]),
                    prefix=("\n".join(lines) + "\n\0").encode())
        with open(tmp, "rb") as fh:  # the data reaches the disk before the rename
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def checkpoint_load(path):
    """Read a checkpoint file. Returns (arch, params, meta); the parameters
    are views into one array."""
    p = Path(path)
    reject_directory(p)
    head, _, record = p.read_bytes().partition(b"\0")
    kv = {key: value for _, key, value in
          read_key_values(p, CheckpointError, head)}
    meta = {key[5:]: value for key, value in kv.items() if key.startswith("meta.")}
    if kv.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {kv.get('format')!r}")
    arch = Architecture.from_mapping(kv)
    try:
        flat = read_array(record)
    except FormatError as e:
        raise CheckpointError(f"{p}: parameter record at byte {len(head) + 1}: {e}") from e
    shapes = param_shapes(arch)
    need = sum(math.prod(shape) for shape in shapes.values())
    if flat.shape != (need,):
        raise CheckpointError(f"{p}: the parameters need {need * flat.itemsize} bytes "
                              f"as one flat record, found {flat.nbytes} as {flat.shape}")
    params, end = {}, 0
    for key in sorted(shapes):
        start, end = end, end + math.prod(shapes[key])
        params[key] = flat[start:end].reshape(shapes[key])
    if not np.isfinite(flat).all():  # name the parameter
        for key, arr in params.items():
            require_finite(arr, f"{p}: {key}", CheckpointError)
    return arch, params, meta
