"""Synthetic segmentation data: rendered shapes, labels, and coarse maps.

A sample is a textured image of anti-aliased ellipses and convex polygons on
a noisy background, a hard label grid, and a deliberately degraded "coarse"
probability map made by pushing the one-hot labels down to a low resolution
and back up. The refinement task is to recover the crisp labels from the
coarse map using the image.

On disk a dataset is a directory of numbered PPM images, PGM label masks,
and coarse tensors, plus a manifest with per-file sha256 digests so corrupted
or regenerated files are detectable.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, require_at_least
from .tensor import (
    map_from_array,
    read_array,
    read_image_pnm,
    read_key_values,
    require_finite,
    resize_array,
    write_array,
    write_image_pnm,
)

# distinct foreground colors; background is class 0
PALETTE = (
    (0.85, 0.25, 0.20),
    (0.20, 0.70, 0.30),
    (0.25, 0.35, 0.85),
    (0.90, 0.80, 0.20),
    (0.75, 0.25, 0.80),
    (0.20, 0.80, 0.80),
    (0.95, 0.55, 0.15),
)
MAX_CLASSES = len(PALETTE) + 1

_SUPERSAMPLE = 4


def _pixel_grid(size: int):
    s = _SUPERSAMPLE
    coords = (np.arange(size * s) + 0.5) / s
    return coords[:, None], coords[None, :]


def _coverage(indicator: np.ndarray, size: int) -> np.ndarray:
    s = _SUPERSAMPLE
    return indicator.reshape(size, s, size, s).mean(axis=(1, 3))


def _ellipse(yy, xx, rng, size):
    cy, cx = rng.uniform(0.25 * size, 0.75 * size, size=2)
    a = rng.uniform(size / 7, size / 3.2)
    b = rng.uniform(size / 7, size / 3.2)
    th = rng.uniform(0, np.pi)
    dy, dx = yy - cy, xx - cx
    u = dy * np.cos(th) + dx * np.sin(th)
    v = -dy * np.sin(th) + dx * np.cos(th)
    u /= a
    u *= u
    v /= b
    v *= v
    u += v
    return u <= 1.0


def _convex_polygon(yy, xx, rng, size):
    cy, cx = rng.uniform(0.25 * size, 0.75 * size, size=2)
    n = int(rng.integers(3, 7))
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    radii = rng.uniform(size / 6, size / 3, size=n)
    py = cy + radii * np.sin(angles)
    px = cx + radii * np.cos(angles)
    inside = np.ones((yy.shape[0], xx.shape[1]), dtype=bool)
    for i in range(n):
        j = (i + 1) % n
        cross = (px[j] - px[i]) * (yy - py[i]) - (py[j] - py[i]) * (xx - px[i])
        inside &= cross >= 0.0
    return inside


def _check_sample_args(size: int, classes: int) -> None:
    if not 2 <= classes <= MAX_CLASSES:
        raise ConfigError(f"classes must be in [2, {MAX_CLASSES}], got {classes}")
    require_at_least(("size", size, 8))


def render_sample(rng: np.random.Generator, size: int, classes: int):
    """Draw one sample. Returns (image (S, S, 3) float32, labels (S, S) int32).

    Every returned sample contains at least two distinct labels.
    """
    _check_sample_args(size, classes)
    yy, xx = _pixel_grid(size)
    for _ in range(32):
        base = rng.uniform(0.08, 0.22)
        image = np.full((size, size, 3), base, dtype=np.float64)
        labels = np.zeros((size, size), dtype=np.int32)
        for _ in range(int(rng.integers(2, 5))):
            cls = int(rng.integers(1, classes))
            shape_fn = _ellipse if rng.random() < 0.5 else _convex_polygon
            cov = _coverage(shape_fn(yy, xx, rng, size), size)
            color = np.array(PALETTE[cls - 1]) * rng.uniform(0.85, 1.15)
            image = image * (1.0 - cov[:, :, None]) + color * cov[:, :, None]
            labels = np.where(cov > 0.5, np.int32(cls), labels)
        if len(np.unique(labels)) >= 2:
            break
    image += rng.normal(0.0, 0.02, size=image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32), labels


def one_hot(labels: np.ndarray, classes: int, dtype=np.float32) -> np.ndarray:
    if labels.min() < 0 or labels.max() >= classes:
        raise DimensionError("label values outside [0, classes)")
    return np.eye(classes, dtype=dtype)[labels]


def _box_blur(x: np.ndarray) -> np.ndarray:
    """3x3 mean filter with edge clamping, per channel."""
    p = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
    out = np.zeros_like(x)
    for dy in range(3):
        for dx in range(3):
            out += p[dy:dy + x.shape[0], dx:dx + x.shape[1]]
    return out / 9.0


def make_coarse(labels: np.ndarray, classes: int, factor: int = 8,
                blur: int = 1) -> np.ndarray:
    """Degrade labels into a (S, S, classes) probability map.

    One-hot labels are resized down by `factor`, blurred `blur` times at the
    low resolution, and resized back up; rows renormalize to sum one.
    """
    if factor < 1:
        raise ConfigError("factor must be >= 1")
    if blur < 0:
        raise ConfigError("blur must be >= 0")
    size = labels.shape[0]
    low = max(size // factor, 1)
    probs = one_hot(labels, classes, dtype=np.float64)
    probs = resize_array(probs, low, low)
    for _ in range(blur):
        probs = _box_blur(probs)
    probs = resize_array(probs, size, labels.shape[1])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=2, keepdims=True)
    return probs.astype(np.float32)


def labels_to_map(labels: np.ndarray) -> np.ndarray:
    """Labels (H, W) as a 1-channel image of values k/255, for a PGM mask."""
    if labels.max() > 255 or labels.min() < 0:
        raise DimensionError("labels must fit in a byte")
    return map_from_array(labels.astype(np.float32) / 255.0)


def map_to_labels(image: np.ndarray, what: str = "label mask") -> np.ndarray:
    """Labels (H, W) int32 from a 1-channel mask image; `what` names it in errors."""
    if image.shape[2] != 1:
        raise FormatError(f"{what} has {image.shape[2]} channels, a label mask has 1")
    return np.rint(image[:, :, 0] * 255.0).astype(np.int32)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _item_paths(root: Path, index: int):
    stem = f"{index:04d}"
    return (root / "images" / f"{stem}.ppm",
            root / "masks" / f"{stem}.pgm",
            root / "coarse" / f"{stem}.spnt")


def gen_toy_dataset(root, n_train: int, n_val: int, size: int, classes: int,
                    seed: int, coarse_factor: int = 8, coarse_blur: int = 1) -> dict:
    """Render and write a dataset; returns the manifest metadata mapping."""
    if n_train < 1 or n_val < 1:
        raise ConfigError("need at least one training and one validation item")
    require_at_least(("coarse_factor", coarse_factor, 1), ("coarse_blur", coarse_blur, 0),
                     ("seed", seed, 0))
    _check_sample_args(size, classes)
    root = Path(root)
    for sub in ("images", "masks", "coarse"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    meta = {
        "format": "spn-dataset-v1",
        "size": size,
        "classes": classes,
        "train": n_train,
        "val": n_val,
        "seed": seed,
        "coarse_factor": coarse_factor,
        "coarse_blur": coarse_blur,
    }
    lines = [f"{k}={v}" for k, v in meta.items()]
    for index in range(n_train + n_val):
        image, labels = render_sample(rng, size, classes)
        coarse = make_coarse(labels, classes, coarse_factor, coarse_blur)
        ipath, mpath, cpath = _item_paths(root, index)
        write_image_pnm(ipath, image)
        write_image_pnm(mpath, labels_to_map(labels))
        write_array(cpath, coarse)
        split = "train" if index < n_train else "val"
        lines.append(f"item.{index:04d}={split},{_sha256(ipath)},"
                     f"{_sha256(mpath)},{_sha256(cpath)}")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")
    return meta


def read_manifest(root) -> tuple[dict, dict]:
    """Parse manifest.txt: returns (meta, items keyed by int index)."""
    path = Path(root) / "manifest.txt"
    if not path.is_file():
        raise FormatError(f"no manifest.txt under {root}")
    meta, items, first_line = {}, {}, {}
    for ln, key, value in read_key_values(path, FormatError):
        if key.startswith("item."):
            parts = value.split(",")
            if (len(parts) != 4 or parts[0] not in ("train", "val")
                    or not key[5:].isdecimal()):
                raise FormatError(f"manifest line {ln} is malformed")
            index = int(key[5:])
            if index in items:
                raise FormatError(f"manifest line {ln} repeats item index {index} "
                                  f"(first on line {first_line[index]})")
            items[index], first_line[index] = parts, ln
        else:
            meta[key] = value
    if meta.get("format") != "spn-dataset-v1":
        raise FormatError(f"unsupported dataset format {meta.get('format')!r}")
    classes = meta.get("classes", "")
    if not (classes.isdecimal() and 2 <= int(classes) <= MAX_CLASSES):
        raise FormatError(f"manifest classes must be an integer in "
                          f"[2, {MAX_CLASSES}], got {classes!r}")
    for split in ("train", "val"):
        if not any(parts[0] == split for parts in items.values()):
            raise FormatError(f"manifest has no {split} items")
    return meta, items


def load_split(root) -> tuple[list, list, dict]:
    meta, items = read_manifest(root)
    train = sorted(i for i, p in items.items() if p[0] == "train")
    val = sorted(i for i, p in items.items() if p[0] == "val")
    return train, val, meta


def load_sample(root, index: int, classes: int | None = None):
    """Returns (image (S, S, 3) f32, labels (S, S) i32, coarse (S, S, C) f32).

    With `classes` (the manifest's), the coarse map must have that many
    channels."""
    ipath, mpath, cpath = _item_paths(Path(root), index)
    image = read_image_pnm(ipath)
    labels = map_to_labels(read_image_pnm(mpath), f"mask for item {index}")
    if image.shape[:2] != labels.shape:
        raise FormatError(f"image for item {index} is {image.shape[0]}x{image.shape[1]}, "
                          f"its mask is {labels.shape[0]}x{labels.shape[1]}")
    coarse = read_array(cpath)
    if coarse.ndim != 3 or coarse.shape[:2] != labels.shape:
        raise FormatError(f"coarse map for item {index} has shape {coarse.shape}")
    if classes is not None and coarse.shape[2] != classes:
        raise FormatError(f"coarse map for item {index} has {coarse.shape[2]} channels, "
                          f"the manifest has {classes} classes")
    require_finite(coarse, f"coarse map for item {index}")
    if labels.max() >= coarse.shape[2]:
        raise FormatError(f"mask for item {index} has label {labels.max()}, its "
                          f"coarse map has {coarse.shape[2]} classes")
    return image, labels, coarse


def verify_dataset(root) -> int:
    """Re-hash every referenced file; returns item count, raises on mismatch."""
    root = Path(root)
    _, items = read_manifest(root)
    for index, (split, hi, hm, hc) in sorted(items.items()):
        for path, want in zip(_item_paths(root, index), (hi, hm, hc)):
            if not path.is_file():
                raise FormatError(f"missing file {path}")
            have = _sha256(path)
            if have != want:
                raise FormatError(
                    f"sha256 mismatch for {path}: manifest {want[:12]}.., "
                    f"file {have[:12]}..")
    return len(items)
