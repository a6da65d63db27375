"""Bilinear resizing and the file formats.

Three formats are read and written here: a small binary tensor container
("SPNT") for bit-exact array round-trips, binary PGM/PPM images for 1- and
3-channel data, and the `key=value` text lines of configs and manifests.
Images cross the PNM boundary as plain (height, width, channels) float
arrays, checked by :func:`map_from_array`.
"""
from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError

MAX_ELEMENTS = 1 << 31
MAX_RANK = 8

_MAGIC = b"SPNT"
_VERSION = 1
_CODE_TO_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_DTYPE_TO_CODE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_WHITESPACE = (9, 10, 13, 32)


def map_from_array(arr) -> np.ndarray:
    """Check an image as a (height, width, channels) float array and return it.

    A 2-D array gets one channel and non-float data is converted to float32;
    a conforming float array is returned as is, without a copy.
    """
    a = np.asarray(arr)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float32)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3:
        raise DimensionError("map data must be a (height, width, channels) array")
    if a.size == 0:
        raise DimensionError("map dimensions must all be >= 1")
    if a.size > MAX_ELEMENTS:
        raise DimensionError(f"map has {a.size} entries, limit is {MAX_ELEMENTS}")
    if not np.isfinite(a).all():
        raise DimensionError("map entries must all be finite")
    return a


@functools.lru_cache(maxsize=128)
def interp_matrix(n_in: int, n_out: int, dtype=np.float64) -> np.ndarray:
    """Corner-aligned linear interpolation matrix of shape (n_out, n_in).

    Rows are convex weights; resizing to the same length is the exact identity.
    A single-sample output takes the first input sample. Results are cached
    per size pair and dtype and returned read-only, so callers share one
    copy; a float32 matrix is the float64 one rounded once.
    """
    if n_in < 1 or n_out < 1:
        raise DimensionError("interpolation sizes must be >= 1")
    if dtype is not np.float64:
        r = interp_matrix(n_in, n_out, np.float64).astype(dtype)
        r.setflags(write=False)
        return r
    r = np.zeros((n_out, n_in), dtype=np.float64)
    if n_in == 1:
        r[:, 0] = 1.0
    elif n_out == 1:
        r[0, 0] = 1.0
    else:
        scale = (n_in - 1) / (n_out - 1)
        for i in range(n_out):
            s = i * scale
            lo = min(int(np.floor(s)), n_in - 2)
            f = s - lo
            r[i, lo] = 1.0 - f
            r[i, lo + 1] += f
    r.setflags(write=False)
    return r


def work_dtype(dtype) -> type:
    """The dtype a resize computes in: float32 for float32 data, else float64."""
    return np.float32 if dtype == np.float32 else np.float64


def resize_array(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W, C) array as two matrix products.

    float32 data is computed in float32, with the weights rounded once to
    float32; other data in float64, cast back. Rows first, `rh @ (H, W*C)`,
    then one batched product per output row, so no axis is ever transposed.
    """
    h, w, c = arr.shape
    dt = work_dtype(arr.dtype)
    rh = interp_matrix(h, out_h, dt)
    rw = interp_matrix(w, out_w, dt)
    tmp = rh @ arr.astype(dt, copy=False).reshape(h, w * c)
    return np.matmul(rw, tmp.reshape(out_h, w, c)).astype(arr.dtype, copy=False)


def write_array(path, arr: np.ndarray, prefix: bytes = b"") -> bytes:
    """Write `prefix`, then the array as a tensor container record (bit-exact
    round trip); returns the bytes written."""
    arr = np.asarray(arr, order="C")  # ascontiguousarray would make rank 0 rank 1
    code = _DTYPE_TO_CODE.get(arr.dtype)
    if code is None:
        raise DimensionError(f"only float32/float64 arrays are writable, got {arr.dtype}")
    if not 1 <= arr.ndim <= MAX_RANK:
        raise DimensionError(f"rank must be in [1, {MAX_RANK}], got {arr.ndim}")
    if arr.size == 0:
        raise DimensionError("arrays with a zero dimension are not writable")
    header = _MAGIC + bytes([_VERSION, code, arr.ndim])
    dims = np.asarray(arr.shape, dtype="<u4").tobytes()
    payload = arr.astype(_CODE_TO_DTYPE[code], copy=False).tobytes()
    data = prefix + header + dims + payload
    Path(path).write_bytes(data)
    return data


def read_array(source) -> np.ndarray:
    """Read an array from the binary tensor container: a path, or one record's bytes."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    if len(data) < 4:
        raise FormatError(f"truncated header at byte {len(data)}: magic incomplete")
    if data[:4] != _MAGIC:
        raise FormatError(f"bad magic {data[:4]!r} at byte 0")
    if len(data) < 7:
        raise FormatError(f"truncated header at byte {len(data)}")
    version, code, rank = data[4], data[5], data[6]
    if version != _VERSION:
        raise FormatError(f"unsupported version {version} at byte 4")
    if code not in _CODE_TO_DTYPE:
        raise FormatError(f"unsupported dtype code {code} at byte 5")
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"rank {rank} out of range at byte 6")
    need = 7 + 4 * rank
    if len(data) < need:
        raise FormatError(f"truncated dimension list at byte {len(data)}")
    dims = np.frombuffer(data, dtype="<u4", count=rank, offset=7)
    if (dims == 0).any():
        raise FormatError(f"zero dimension in header at byte {7 + 4 * int(np.argmin(dims))}")
    dt = _CODE_TO_DTYPE[code]
    expected = math.prod(dims.tolist()) * dt.itemsize  # exact: no int64 wrap
    got = len(data) - need
    if got != expected:
        raise FormatError(
            f"payload size mismatch at byte {need}: expected {expected} bytes, found {got}")
    arr = np.frombuffer(data, dtype=dt, offset=need).reshape(dims)
    return arr.astype(dt.newbyteorder("="))


def require_finite(arr: np.ndarray, what: str, error: type = FormatError) -> None:
    """Raise `error` naming the first non-finite entry of `arr`, if any."""
    bad = ~np.isfinite(arr)
    if bad.any():
        i = tuple(int(v) for v in np.argwhere(bad)[0])
        raise error(f"{what} has a non-finite value {float(arr[i])} at index {i}")


def keep_where(a: np.ndarray, mask: np.ndarray, out=None) -> np.ndarray:
    """`a` where `mask` is true and +0 elsewhere: the bits of `np.where(mask,
    a, 0)` for a float16, float32 or float64 array, in one multiply of `a`'s
    bits, viewed as unsigned integers of its width, by the mask. A float
    multiply would keep a masked NaN and turn a masked negative into -0.
    `out`, if given, is a float array shaped and typed like `a`.
    """
    bits = np.dtype(f"u{a.itemsize}")
    res = np.multiply(a.view(bits), mask, dtype=bits,
                      out=None if out is None else out.view(bits))
    return res.view(a.dtype)


def flush_subnormals(a: np.ndarray) -> None:
    """Zero, in place, the entries of a float array whose exponent field is
    0: its subnormals and -0, which becomes +0. NaN and inf are kept.

    Subnormal operands are slow on most CPUs (a microcode assist per
    operand), and a decaying scan can leave many of them behind.
    """
    f = np.finfo(a.dtype)
    bits = a.view(f"u{a.itemsize}")
    exponent = bits.dtype.type(((1 << f.nexp) - 1) << f.nmant)
    keep_where(a, (bits & exponent) != 0, out=a)


def read_key_values(path, error: type, data: bytes | None = None) -> list:
    """Read the `key=value` lines of a file, or its `data`, as (line, key, value) triples.

    Blank lines and lines starting with '#' are skipped; keys and values are
    stripped. `error` names the offset of a byte that is not UTF-8 (whatever
    the locale), the number of any other line without '=', or both numbers
    of a repeated key.
    """
    try:
        text = (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: byte {e.start} is not UTF-8 text") from None
    out, first = [], {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{path}: line {ln} is not key=value: {line!r}")
        key = key.strip()
        if key in first:
            raise error(f"{path}: line {ln} repeats key {key!r} "
                        f"(first on line {first[key]})")
        first[key] = ln
        out.append((ln, key, value.strip()))
    return out


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            while pos < n and data[pos] not in (10, 13):
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise FormatError(f"unexpected end of header at byte {start}")
    return data[start:pos], pos


def _int_token(data: bytes, pos: int) -> tuple[int, int]:
    tok, pos = _next_token(data, pos)
    if not tok.isdigit():
        raise FormatError(f"expected integer in header, got {tok!r} before byte {pos}")
    return int(tok), pos


def read_image_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) with maxval 255 into a read-only
    (height, width, channels) float32 array of values in [0, 1]."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise FormatError(f"unsupported magic {magic!r} at byte 0")
    width, pos = _int_token(data, pos)
    height, pos = _int_token(data, pos)
    maxval, pos = _int_token(data, pos)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255 is accepted")
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be >= 1")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise FormatError(f"missing separator after maxval at byte {pos}")
    payload = data[pos + 1:]
    expected = height * width * channels
    if len(payload) != expected:
        raise FormatError(
            f"payload size mismatch at byte {pos + 1}: expected {expected} bytes, "
            f"found {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    image = map_from_array(arr.astype(np.float32) / np.float32(255.0))
    image.setflags(write=False)
    return image


def write_image_pnm(path, image) -> bytes:
    """Write a 1-channel image as PGM or a 3-channel image as PPM, maxval 255;
    returns the bytes written.

    Values are clamped to [0, 1] and quantized; a second read/write cycle is
    then exact.
    """
    image = map_from_array(image)
    height, width, channels = image.shape
    if channels == 1:
        magic = "P5"
    elif channels == 3:
        magic = "P6"
    else:
        raise DimensionError(f"PNM images need 1 or 3 channels, map has {channels}")
    q = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"{magic}\n{width} {height}\n255\n".encode("ascii")
    data = header + q.tobytes()
    Path(path).write_bytes(data)
    return data
