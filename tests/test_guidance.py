import os
import re

import numpy as np
import pytest

from spnkit.errors import CheckpointError, DimensionError
from spnkit.fdcheck import check_gradient
from spnkit.guidance import (
    Architecture,
    HEAD_INIT_SCALE,
    checkpoint_load,
    checkpoint_save,
    conv3x3_backward,
    conv3x3_forward,
    guidance_backward,
    guidance_forward,
    init_params,
    param_shapes,
    relu_backward,
    relu_forward,
    relu_signature,
    resize_backward,
    resize_forward,
)
from spnkit.propagation import ConnectionKind
from spnkit.tensor import interp_matrix, read_array, write_array

from rounding import assert_within_rounding, resize_cases, separable_terms, two_pass_roundings


def conv_ref(x, w, b, stride):
    """Brute-force 3x3 convolution, zero padding 1."""
    h, wd, _ = x.shape
    ho = (h - 1) // stride + 1
    wo = (wd - 1) // stride + 1
    out = np.zeros((ho, wo, w.shape[3]))
    for i in range(ho):
        for j in range(wo):
            for dy in range(3):
                for dx in range(3):
                    yy = i * stride + dy - 1
                    xx = j * stride + dx - 1
                    if 0 <= yy < h and 0 <= xx < wd:
                        out[i, j] += x[yy, xx] @ w[dy, dx]
    return out + b


def im2col_conv_forward(x, w, b, stride):
    """The im2col conv that conv3x3_forward replaced: nine strided copies
    into a 9x patch buffer, then one contraction. Kept as its reference."""
    h, wd, cin = x.shape
    ho = (h - 1) // stride + 1
    wo = (wd - 1) // stride + 1
    padded = np.zeros((h + 2, wd + 2, cin), dtype=x.dtype)
    padded[1:h + 1, 1:wd + 1] = x
    patches = np.empty((ho, wo, 3, 3, cin), dtype=x.dtype)
    for dy in range(3):
        for dx in range(3):
            patches[:, :, dy, dx, :] = padded[
                dy:dy + stride * (ho - 1) + 1:stride,
                dx:dx + stride * (wo - 1) + 1:stride]
    y = np.tensordot(patches, w, axes=([2, 3, 4], [0, 1, 2])) + b
    return y.astype(x.dtype), (patches, w, x.shape, stride)


def im2col_conv_backward(grad, cache):
    """Adjoint of im2col_conv_forward: (dx, dw, db)."""
    patches, w, x_shape, stride = cache
    h, wd, cin = x_shape
    ho, wo = grad.shape[:2]
    dw = np.tensordot(patches, grad, axes=([0, 1], [0, 1])).astype(grad.dtype)
    db = grad.sum(axis=(0, 1)).astype(grad.dtype)
    dpatches = np.tensordot(grad, w, axes=(2, 3))  # (ho, wo, 3, 3, cin)
    dpad = np.zeros((h + 2, wd + 2, cin), dtype=grad.dtype)
    for dy in range(3):
        for dx in range(3):
            dpad[dy:dy + stride * (ho - 1) + 1:stride,
                 dx:dx + stride * (wo - 1) + 1:stride] += dpatches[:, :, dy, dx, :]
    return dpad[1:h + 1, 1:wd + 1], dw, db


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 13), (9, 4), (64, 64)])
def test_conv_matches_im2col_reference(shape, stride):
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + stride)
    for cin, cout in ((1, 1), (3, 8), (8, 96), (16, 5)):
        x = rng.standard_normal(shape + (cin,))
        w = rng.standard_normal((3, 3, cin, cout))
        b = rng.standard_normal(cout)
        y, cache = conv3x3_forward(x, w, b, stride)
        y_ref, cache_ref = im2col_conv_forward(x, w, b, stride)
        assert y.shape == y_ref.shape and y.dtype == y_ref.dtype
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)
        g = rng.standard_normal(y.shape)
        ref = im2col_conv_backward(g, cache_ref)
        for need_dx in (True, False):
            got = conv3x3_backward(g, cache, need_dx=need_dx)
            assert (got[0] is None) == (not need_dx)
            for name, a, r in zip(("dx", "dw", "db"), got, ref):
                if a is None:
                    continue
                assert a.shape == r.shape and a.dtype == r.dtype, name
                np.testing.assert_allclose(a, r, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape", [(33, 17), (64, 64), (20, 48)])
def test_conv_cache_holds_no_patch_buffer(shape, stride):
    """The cache holds about one padded input, not nine shifted copies. The
    grids are large enough that a stride-2 patch buffer (9/4 of the input)
    would exceed the bound too."""
    cin = 8
    x = np.ones(shape + (cin,), dtype=np.float32)
    w = np.ones((3, 3, cin, 4), dtype=np.float32)
    _, cache = conv3x3_forward(x, w, np.zeros(4, dtype=np.float32), stride)
    padded_bytes = (shape[0] + 2) * (shape[1] + 2) * cin * x.itemsize
    largest = max(a.nbytes for a in cache if isinstance(a, np.ndarray))
    assert largest <= 1.5 * padded_bytes


def test_conv_matches_bruteforce():
    rng = np.random.default_rng(0)
    for stride in (1, 2):
        for _ in range(4):
            h = int(rng.integers(1, 8))
            wd = int(rng.integers(1, 8))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            x = rng.standard_normal((h, wd, cin))
            w = rng.standard_normal((3, 3, cin, cout))
            b = rng.standard_normal(cout)
            y, _ = conv3x3_forward(x, w, b, stride)
            np.testing.assert_allclose(y, conv_ref(x, w, b, stride), atol=1e-12)


def test_conv_center_tap_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 6, 3))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[1, 1, c, c] = 1.0
    y, _ = conv3x3_forward(x, w, np.zeros(3), 1)
    np.testing.assert_allclose(y, x, atol=1e-15)


def test_conv_stride2_shape():
    for h in (4, 5, 7, 8):
        y, _ = conv3x3_forward(np.zeros((h, h, 1)), np.zeros((3, 3, 1, 2)),
                               np.zeros(2), 2)
        assert y.shape == ((h - 1) // 2 + 1, (h - 1) // 2 + 1, 2)


def test_conv_preserves_dtype():
    y, _ = conv3x3_forward(np.zeros((4, 4, 1), dtype=np.float32),
                           np.zeros((3, 3, 1, 1), dtype=np.float32),
                           np.zeros(1, dtype=np.float32), 1)
    assert y.dtype == np.float32


def test_conv_backward_fd():
    rng = np.random.default_rng(2)
    for stride in (1, 2):
        x = rng.standard_normal((5, 4, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        b = rng.standard_normal(3)
        g = rng.standard_normal(((5 - 1) // stride + 1, (4 - 1) // stride + 1, 3))
        _, cache = conv3x3_forward(x, w, b, stride)
        dx, dw, db = conv3x3_backward(g, cache)

        def loss_x(a):
            return float((conv3x3_forward(a, w, b, stride)[0] * g).sum())

        def loss_w(a):
            return float((conv3x3_forward(x, a, b, stride)[0] * g).sum())

        def loss_b(a):
            return float((conv3x3_forward(x, w, a, stride)[0] * g).sum())

        for loss, arr, grad in ((loss_x, x, dx), (loss_w, w, dw), (loss_b, b, db)):
            res = check_gradient(loss, arr, grad, rng=rng, num=30)
            assert res.max_rel_err < 1e-7, str(res)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_backward_without_dx(stride):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 6, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    y, cache = conv3x3_forward(x, w, b, stride)
    g = rng.standard_normal(y.shape).astype(np.float32)
    _, dw, db = conv3x3_backward(g, cache)
    dx_skip, dw_skip, db_skip = conv3x3_backward(g, cache, need_dx=False)
    assert dx_skip is None
    np.testing.assert_array_equal(dw_skip, dw)
    np.testing.assert_array_equal(db_skip, db)
    assert dw_skip.dtype == dw.dtype and db_skip.dtype == db.dtype


def test_relu_backward():
    z = np.array([-1.0, 0.0, 2.0])
    a, mask = relu_forward(z)
    np.testing.assert_array_equal(a, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(relu_backward(np.ones(3), mask), [0.0, 0.0, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_forward_matches_where(dtype):
    # the one-pass relu against the form it replaced, bit for bit, on the
    # entries where max-like forms differ: np.maximum keeps NaN and fails
    finfo = np.finfo(dtype)
    sub = finfo.smallest_subnormal
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, sub, -sub,
                        finfo.tiny / 2, -finfo.tiny / 2], dtype=dtype)
    z = np.random.default_rng(17).standard_normal((6, 10, 5)).astype(dtype)
    z[1, :, 2] = special
    z[4, 3, :] = special[:5]
    for view in (z, z[::2, 1::3], z.transpose(2, 0, 1)[:, ::-1], z[:, 4, ::2]):
        out, mask = relu_forward(view)
        want = np.where(view > 0, view, view.dtype.type(0))
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()
        np.testing.assert_array_equal(mask, view > 0)
    assert np.isnan(special).sum() == 2 and np.signbit(special[1])


def test_resize_adjoint_dot_product():
    rng = np.random.default_rng(3)
    for _ in range(8):
        ih, iw = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        oh, ow = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.standard_normal((ih, iw, 2))
        y = rng.standard_normal((oh, ow, 2))
        lhs = float((resize_forward(x, oh, ow) * y).sum())
        rhs = float((x * resize_backward(y, ih, iw)).sum())
        assert abs(lhs - rhs) < 1e-10


def test_resize_adjoint_dot_product_float32():
    # training runs both directions in float32: <R x, y> = <x, R^T y> up to
    # each resize's roundings (the float32 products are summed in float64,
    # at most one more float32 rounding)
    rng = np.random.default_rng(3)
    for (ih, iw, c), oh, ow in resize_cases(31, count=20):
        x = rng.standard_normal((ih, iw, c)).astype(np.float32)
        y = rng.standard_normal((oh, ow, c)).astype(np.float32)
        rx, rty = resize_forward(x, oh, ow), resize_backward(y, ih, iw)
        assert rx.dtype == rty.dtype == np.float32
        lhs = np.dot(rx.ravel().astype(np.float64), y.ravel().astype(np.float64))
        rhs = np.dot(x.ravel().astype(np.float64), rty.ravel().astype(np.float64))
        rh, rw = interp_matrix(ih, oh), interp_matrix(iw, ow)
        fwd_terms, fwd_taps = separable_terms(x, rh, rw)
        _, adj_taps = separable_terms(y, rh.T, rw.T)
        abs_terms = float((fwd_terms * np.abs(y)).sum())
        n = (fwd_taps.max() + 2) + (adj_taps.max() + 2) + 1
        assert_within_rounding(lhs, rhs, abs_terms, n, np.float32)


def _tensordot_resize_backward(grad, in_h, in_w):
    """resize_backward as it was before the two GEMMs: computed in float64 by
    two tensordots and a transposing copy, cast back; the reference below."""
    rh = interp_matrix(in_h, grad.shape[0])
    rw = interp_matrix(in_w, grad.shape[1])
    tmp = np.tensordot(rh, grad.astype(np.float64, copy=False), axes=(0, 0))
    out = np.tensordot(tmp, rw, axes=(1, 0))
    return np.moveaxis(out, 2, 1).astype(grad.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_backward_within_rounding_of_tensordot(dtype):
    rng = np.random.default_rng(37)
    for (in_h, in_w, c), out_h, out_w in resize_cases(41):
        grad = rng.standard_normal((out_h, out_w, c)).astype(dtype)
        out = resize_backward(grad, in_h, in_w)
        assert out.shape == (in_h, in_w, c) and out.dtype == dtype
        abs_terms, taps = separable_terms(
            grad, interp_matrix(in_h, out_h).T, interp_matrix(in_w, out_w).T)
        assert_within_rounding(out, _tensordot_resize_backward(grad, in_h, in_w),
                               abs_terms, two_pass_roundings(taps, dtype), dtype)


def small_arch():
    return Architecture(image_channels=3, widths=(4, 5, 6), prop_channels=3,
                        classes=2, kind=ConnectionKind.THREE_WAY, scale=2,
                        units=2)


def test_init_params_bounds_and_determinism():
    arch = small_arch()
    p1 = init_params(arch, np.random.default_rng(42))
    p2 = init_params(arch, np.random.default_rng(42))
    assert sorted(p1) == sorted(param_shapes(arch))
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])
        assert p1[k].shape == param_shapes(arch)[k]
    bound = np.sqrt(1.0 / (9.0 * 4))
    assert np.abs(p1["enc1.w"]).max() <= bound
    assert np.abs(p1["head.w"]).max() <= np.sqrt(1.0 / (9.0 * 4)) * HEAD_INIT_SCALE
    assert (p1["dec0.b"] == 0).all()


def test_guidance_forward_shapes_and_determinism():
    arch = small_arch()
    rng = np.random.default_rng(5)
    params = init_params(arch, rng)
    img = rng.random((12, 10, 3)).astype(np.float32)
    g1, _ = guidance_forward(params, arch, img, 6, 5)
    g2, _ = guidance_forward(params, arch, img, 6, 5)
    assert g1.shape == (6, 5, 3, 4, 3)
    assert g1.dtype == np.float32
    assert g1.tobytes() == g2.tobytes()


def test_guidance_zero_image_gives_zero_gates():
    arch = small_arch()
    params = init_params(arch, np.random.default_rng(6))
    img = np.zeros((8, 8, 3), dtype=np.float32)
    g, _ = guidance_forward(params, arch, img, 4, 4)
    np.testing.assert_array_equal(g, 0.0)


def test_guidance_rejects_wrong_channels():
    arch = small_arch()
    params = init_params(arch, np.random.default_rng(7))
    with pytest.raises(DimensionError):
        guidance_forward(params, arch, np.zeros((8, 8, 1), dtype=np.float32), 4, 4)


def test_guidance_param_gradients_fd():
    arch = small_arch()
    rng = np.random.default_rng(8)
    params = init_params(arch, rng, dtype=np.float64)
    img = rng.random((9, 8, 3))
    wts = rng.standard_normal((5, 4, 3, 4, 3))
    gates, cache = guidance_forward(params, arch, img, 5, 4)
    grads = guidance_backward(wts, cache)
    net_keys = [k for k in params if not k.startswith(("pre.", "post."))]
    assert sorted(grads) == sorted(net_keys)

    for key in ("enc0.w", "enc2.w", "dec1.w", "head.w", "enc1.b"):
        def loss(a, key=key):
            trial = dict(params)
            trial[key] = a
            g, _ = guidance_forward(trial, arch, img, 5, 4)
            return float((g * wts).sum())

        def sig(a, key=key):
            trial = dict(params)
            trial[key] = a
            _, c = guidance_forward(trial, arch, img, 5, 4)
            return relu_signature(c)

        res = check_gradient(loss, params[key], grads[key], rng=rng,
                             num=20, signature=sig)
        assert res.checked >= min(10, params[key].size), f"{key}: too many skips ({res})"
        assert res.max_rel_err < 1e-6, f"{key}: {res}"


def test_checkpoint_roundtrip(tmp_path):
    arch = small_arch()
    params = init_params(arch, np.random.default_rng(9))
    checkpoint_save(tmp_path / "ck", arch, params, meta={"epoch": 3, "iou": 0.5})
    arch2, params2, meta = checkpoint_load(tmp_path / "ck")
    assert arch2 == arch
    assert meta == {"epoch": "3", "iou": "0.5"}
    for k in params:
        assert params2[k].tobytes() == params[k].tobytes()


def _split_checkpoint(path):
    """(header text, parameter record bytes) of a checkpoint file."""
    head, sep, record = path.read_bytes().partition(b"\0")
    assert sep == b"\0"
    return head.decode(), record


def _write_checkpoint(path, header, flat):
    write_array(path, flat, prefix=header.encode() + b"\0")


def _offset(arch, key):
    """Where `key`'s values start in the flat parameter record."""
    shapes = param_shapes(arch)
    return sum(int(np.prod(shapes[k])) for k in sorted(shapes) if k < key)


def test_checkpoint_manifest_text_pinned(tmp_path):
    arch = Architecture(image_channels=1, widths=(2, 3, 4), prop_channels=5,
                        classes=3, kind=ConnectionKind.ONE_WAY, scale=3, units=1)
    params = init_params(arch, np.random.default_rng(8))
    checkpoint_save(tmp_path / "ck", arch, params, meta={"val_iou": "0.5", "epoch": 4})
    header, record = _split_checkpoint(tmp_path / "ck")
    assert header == (
        "format=spn-checkpoint-v2\nimage_channels=1\nwidths=2,3,4\n"
        "prop_channels=5\nclasses=3\nkind=one\nscale=3\nunits=1\n"
        "meta.epoch=4\nmeta.val_iou=0.5\n")
    # then one flat SPNT record (float32, rank 1): the parameters in key order
    flat = np.concatenate([params[k].ravel() for k in sorted(params)])
    assert record == (b"SPNT\x01\x01\x01" + np.array([flat.size], "<u4").tobytes()
                      + flat.astype("<f4").tobytes())
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert checkpoint_load(tmp_path / "ck")[0] == arch


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope"):
        checkpoint_load(tmp_path / "nope")


def test_checkpoint_shape_mismatch(tmp_path):
    arch = small_arch()
    params = init_params(arch, np.random.default_rng(10))
    wrong = dict(params, **{"enc0.w": np.zeros((3, 3, 1, 4), dtype=np.float32)})
    with pytest.raises(CheckpointError, match=r"\['enc0.w'\]"):
        checkpoint_save(tmp_path / "ck", arch, wrong)
    assert not list(tmp_path.iterdir())
    # a header whose architecture disagrees with the record: enc0.w shrinks
    checkpoint_save(tmp_path / "ck", arch, params)
    header, record = _split_checkpoint(tmp_path / "ck")
    _write_checkpoint(tmp_path / "ck", header.replace("image_channels=3", "image_channels=2"),
                      read_array(record))
    found = sum(v.nbytes for v in params.values())
    with pytest.raises(CheckpointError, match=f"need {found - 9 * 4 * 4} bytes as one "
                                              f"flat record, found {found} as"):
        checkpoint_load(tmp_path / "ck")


def test_checkpoint_missing_param_file(tmp_path):
    arch = small_arch()
    params = init_params(arch, np.random.default_rng(11))
    with pytest.raises(CheckpointError, match=r"\['post.b'\]"):
        checkpoint_save(tmp_path / "ck", arch,
                        {k: v for k, v in params.items() if k != "post.b"})
    # a well-formed record one parameter short: all but pre.w, the last
    checkpoint_save(tmp_path / "ck", arch, params)
    header, record = _split_checkpoint(tmp_path / "ck")
    short = read_array(record)[:_offset(arch, "pre.w")]
    _write_checkpoint(tmp_path / "ck", header, short)
    with pytest.raises(CheckpointError, match=f"need {read_array(record).nbytes} bytes "
                                              f"as one flat record, found {short.nbytes} as"):
        checkpoint_load(tmp_path / "ck")


def test_checkpoint_save_failure_keeps_previous(tmp_path, monkeypatch):
    import spnkit.guidance as guidance
    arch = small_arch()
    old = init_params(arch, np.random.default_rng(12))
    checkpoint_save(tmp_path / "ck", arch, old, meta={"epoch": 1})
    calls = []

    def failing_write(path, arr, prefix):  # part of the file, then the disk fills
        calls.append(path)
        path.write_bytes(prefix + b"SPNT\x01")
        raise OSError("disk full")

    monkeypatch.setattr(guidance, "write_array", failing_write)
    with pytest.raises(OSError, match="disk full"):
        checkpoint_save(tmp_path / "ck", arch,
                        init_params(arch, np.random.default_rng(13)), meta={"epoch": 2})
    assert len(calls) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]  # no .ck.tmp
    _, params, meta = checkpoint_load(tmp_path / "ck")
    assert meta == {"epoch": "1"}
    for k in old:
        assert params[k].tobytes() == old[k].tobytes()


def test_checkpoint_save_syncs_before_the_rename(tmp_path, monkeypatch):
    # unsynced, the renamed file's data may not be on disk after a power loss
    calls, real_fsync, real_replace = [], os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    arch = small_arch()
    checkpoint_save(tmp_path / "ck", arch, init_params(arch, np.random.default_rng(17)))
    inode = (tmp_path / "ck").stat().st_ino  # the temporary file's, renamed
    assert calls == [("fsync", inode), ("replace", inode)]


def test_checkpoint_header_not_utf8(tmp_path):
    # a bad header byte used to load as U+FFFD
    arch = small_arch()
    checkpoint_save(tmp_path / "ck", arch, init_params(arch, np.random.default_rng(18)),
                    meta={"note": "x"})
    data = (tmp_path / "ck").read_bytes()
    at = data.index(b"meta.note=x") + len("meta.note=")
    (tmp_path / "ck").write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{tmp_path / 'ck'}: byte {at} is not UTF-8 text")):
        checkpoint_load(tmp_path / "ck")


def test_checkpoint_load_rejects_nonfinite(tmp_path):
    arch = small_arch()
    checkpoint_save(tmp_path / "ck", arch, init_params(arch, np.random.default_rng(14)))
    header, record = _split_checkpoint(tmp_path / "ck")
    flat = read_array(record)
    flat[_offset(arch, "post.b") + 1] = np.nan
    _write_checkpoint(tmp_path / "ck", header, flat)
    with pytest.raises(CheckpointError, match=r"post\.b.*non-finite.*\(1,\)"):
        checkpoint_load(tmp_path / "ck")


@pytest.mark.parametrize("edit", ["truncated", "extra byte"])
def test_checkpoint_payload_size_mismatch(tmp_path, edit):
    arch = small_arch()
    checkpoint_save(tmp_path / "ck", arch, init_params(arch, np.random.default_rng(15)))
    data = (tmp_path / "ck").read_bytes()
    (tmp_path / "ck").write_bytes(data[:-1] if edit == "truncated" else data + b"\0")
    payload = sum(int(np.prod(s)) for s in param_shapes(arch).values()) * 4
    found = payload - 1 if edit == "truncated" else payload + 1
    with pytest.raises(CheckpointError,
                       match=f"expected {payload} bytes, found {found}"):
        checkpoint_load(tmp_path / "ck")


def test_checkpoint_v1_directory_refused(tmp_path):
    # the retired layout: a directory of a manifest and one file per parameter
    arch = small_arch()
    v1 = tmp_path / "best"
    v1.mkdir()
    (v1 / "manifest.txt").write_text("format=spn-checkpoint-v1\n")
    with pytest.raises(CheckpointError, match=re.escape(f"{v1} is a directory, as "
                                                        "spn-checkpoint-v1 checkpoints were")):
        checkpoint_load(v1)
    with pytest.raises(CheckpointError, match="spn-checkpoint-v1"):
        checkpoint_save(v1, arch, init_params(arch, np.random.default_rng(16)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best"]
