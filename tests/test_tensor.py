import numpy as np
import pytest

from spnkit import (
    CheckpointError,
    ConfigError,
    DimensionError,
    FormatError,
    map_from_array,
    read_array,
    read_image_pnm,
    write_array,
    write_image_pnm,
)
from spnkit import tensor
from spnkit.tensor import flush_subnormals, interp_matrix, resize_array

from bits import assert_same_bits, special_values
from rounding import assert_within_rounding, resize_cases, separable_terms, two_pass_roundings


def test_map_rejects_nonfinite():
    arr = np.ones((2, 2, 1), dtype=np.float32)
    arr[0, 0, 0] = np.nan
    with pytest.raises(DimensionError, match="finite"):
        map_from_array(arr)


def test_map_is_immutable_and_copies(tmp_path):
    p = tmp_path / "one.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([255] * 4))
    m = read_image_pnm(p)
    assert type(m) is np.ndarray and m.dtype == np.float32
    assert m[0, 0, 0] == 1.0
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0, 0] = 5.0


@pytest.mark.parametrize("shape, message", [
    ((4,), "(height, width, channels)"),
    ((1, 2, 3, 4), "(height, width, channels)"),
    ((0, 2, 1), ">= 1"),
])
def test_map_from_array_checks_shape(shape, message):
    with pytest.raises(DimensionError) as info:
        map_from_array(np.zeros(shape, dtype=np.float32))
    assert message in str(info.value)


def test_map_from_array_refuses_more_than_max_elements(monkeypatch):
    monkeypatch.setattr(tensor, "MAX_ELEMENTS", 6)
    assert map_from_array(np.zeros((2, 3), dtype=np.float32)).shape == (2, 3, 1)
    with pytest.raises(DimensionError, match=r"^map has 7 entries, limit is 6$"):
        map_from_array(np.zeros((7, 1, 1), dtype=np.float32))


def test_package_exports_every_name_in_all():
    import spnkit
    missing = [name for name in spnkit.__all__ if not hasattr(spnkit, name)]
    assert not missing


def test_map_from_array_promotes_2d():
    m = map_from_array(np.arange(6).reshape(2, 3))
    assert m.shape == (2, 3, 1)
    assert m.dtype == np.float32


def test_interp_matrix_identity():
    for n in (1, 2, 5, 8):
        np.testing.assert_array_equal(interp_matrix(n, n), np.eye(n))


def test_interp_matrix_to_one_sample_takes_the_first():
    np.testing.assert_array_equal(interp_matrix(5, 1), [[1.0, 0.0, 0.0, 0.0, 0.0]])


def test_interp_matrix_rows_are_convex():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_in = int(rng.integers(1, 12))
        n_out = int(rng.integers(1, 12))
        r = interp_matrix(n_in, n_out)
        assert r.shape == (n_out, n_in)
        assert np.all(r >= 0)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)


def test_interp_matrix_cached_read_only():
    r = interp_matrix(7, 13)
    assert interp_matrix(7, 13) is r
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0, 0] = 0.5
    for n_in, n_out in ((7, 13), (1, 4), (4, 1), (64, 32), (32, 64)):
        np.testing.assert_array_equal(interp_matrix(n_in, n_out),
                                      interp_matrix.__wrapped__(n_in, n_out))
    # the float32 copy: cached beside the float64 one, read-only, rounded once
    r32 = interp_matrix(7, 13, np.float32)
    assert r32.dtype == np.float32
    assert interp_matrix(7, 13, np.float32) is r32
    assert not r32.flags.writeable
    with pytest.raises(ValueError):
        r32[0, 0] = 0.5
    np.testing.assert_array_equal(r32, r.astype(np.float32))


def test_resize_constant_map_stays_constant():
    arr = np.full((3, 4, 2), 0.75, dtype=np.float32)
    out = resize_array(arr, 7, 9)
    assert out.shape == (7, 9, 2) and out.dtype == np.float32
    np.testing.assert_allclose(out, 0.75, atol=1e-6)


def test_resize_2x2_to_3x3_center():
    # corners 1,1,2,2 -> center is the average, 1.5
    arr = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32)[:, :, None]
    out = resize_array(arr, 3, 3)
    assert out[1, 1, 0] == pytest.approx(1.5)
    np.testing.assert_allclose(out[0, :, 0], 1.0)
    np.testing.assert_allclose(out[2, :, 0], 2.0)


def test_resize_same_size_is_identity():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((5, 6, 3)).astype(np.float32)
    out = resize_array(arr, 5, 6)
    np.testing.assert_array_equal(out, arr)


def test_resize_respects_min_max():
    rng = np.random.default_rng(11)
    for _ in range(10):
        arr = rng.standard_normal((4, 4, 1)).astype(np.float64)
        out = resize_array(arr, 9, 7)
        assert out.min() >= arr.min() - 1e-12
        assert out.max() <= arr.max() + 1e-12


def _tensordot_resize(arr, out_h, out_w):
    """resize_array as it was before the two GEMMs: computed in float64 by two
    tensordots and a transposing copy, cast back; the reference below."""
    rh = interp_matrix(arr.shape[0], out_h)
    rw = interp_matrix(arr.shape[1], out_w)
    tmp = np.tensordot(rh, arr.astype(np.float64, copy=False), axes=(1, 0))
    out = np.tensordot(tmp, rw, axes=(1, 1))          # (out_h, C, out_w)
    return np.moveaxis(out, 2, 1).astype(arr.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_within_rounding_of_tensordot(dtype):
    rng = np.random.default_rng(23)
    for shape, out_h, out_w in resize_cases(29):
        arr = rng.standard_normal(shape).astype(dtype)
        out = resize_array(arr, out_h, out_w)
        assert out.shape == (out_h, out_w, shape[2]) and out.dtype == dtype
        abs_terms, taps = separable_terms(arr, interp_matrix(shape[0], out_h),
                                          interp_matrix(shape[1], out_w))
        assert_within_rounding(out, _tensordot_resize(arr, out_h, out_w), abs_terms,
                               two_pass_roundings(taps, dtype), dtype)


def test_resize_rejects_bad_output():
    with pytest.raises(DimensionError):
        resize_array(np.zeros((2, 2, 1), dtype=np.float32), 0, 3)


def test_tensor_roundtrip_bitexact_f32(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((3, 4, 2)).astype(np.float32)
    p = tmp_path / "a.spnt"
    write_array(p, arr)
    back = read_array(p)
    assert back.dtype == np.float32
    assert back.tobytes() == arr.tobytes()


def test_tensor_roundtrip_bitexact_f64(tmp_path):
    rng = np.random.default_rng(6)
    arr = rng.standard_normal((2, 5)).astype(np.float64)
    p = tmp_path / "b.spnt"
    write_array(p, arr)
    back = read_array(p)
    assert back.dtype == np.float64
    assert back.shape == (2, 5)
    assert back.tobytes() == arr.tobytes()


def test_tensor_bad_magic(tmp_path):
    p = tmp_path / "bad.spnt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        read_array(p)


def test_tensor_magic_alone_is_a_truncated_header():
    with pytest.raises(FormatError, match=r"^truncated header at byte 4$"):
        read_array(b"SPNT")


def test_pnm_header_may_separate_by_carriage_returns(tmp_path):
    p = tmp_path / "cr.pgm"
    p.write_bytes(b"P5\r2\r1\r255\r" + bytes([0, 255]))
    np.testing.assert_array_equal(read_image_pnm(p)[:, :, 0], [[0.0, 1.0]])


def test_tensor_truncated_payload_reports_counts(tmp_path):
    arr = np.ones((2, 2), dtype=np.float32)
    p = tmp_path / "t.spnt"
    write_array(p, arr)
    blob = p.read_bytes()
    p.write_bytes(blob[:-4])
    with pytest.raises(FormatError, match=r"expected 16 bytes, found 12"):
        read_array(p)


def test_tensor_trailing_garbage_rejected(tmp_path):
    arr = np.ones((2, 2), dtype=np.float32)
    p = tmp_path / "g.spnt"
    write_array(p, arr)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="expected 16 bytes, found 17"):
        read_array(p)


def test_tensor_dimension_product_does_not_wrap():
    # four dimensions of 2**16 and no payload: their int64 product wraps to
    # 0, which the empty payload matched, so reshape raised a bare ValueError
    blob = b"SPNT" + bytes([1, 1, 4]) + np.full(4, 1 << 16, dtype="<u4").tobytes()
    with pytest.raises(FormatError, match=f"at byte 23: expected {1 << 66} bytes, found 0"):
        read_array(blob)


def test_tensor_bad_version_and_dtype(tmp_path):
    arr = np.ones((2,), dtype=np.float32)
    p = tmp_path / "v.spnt"
    write_array(p, arr)
    blob = bytearray(p.read_bytes())
    blob[4] = 9
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_array(p)
    blob[4] = 1
    blob[5] = 7
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="dtype code"):
        read_array(p)


def test_pgm_roundtrip_extremes(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
    m = read_image_pnm(p)
    assert m.shape == (1, 2, 1)
    assert m[0, 0, 0] == pytest.approx(1.0)
    assert m[0, 1, 0] == pytest.approx(0.0)


def test_pnm_comment_and_whitespace_header(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # hello\n# another\n 2\t1 \n255\n" + bytes([10, 20]))
    m = read_image_pnm(p)
    assert m.shape == (1, 2, 1)
    assert m[0, 1, 0] == pytest.approx(20 / 255)


def test_ppm_write_then_read_is_stable(tmp_path):
    rng = np.random.default_rng(9)
    m = rng.random((4, 3, 3)).astype(np.float32)
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    write_image_pnm(p1, m)
    once = read_image_pnm(p1)
    write_image_pnm(p2, once)
    assert p1.read_bytes() == p2.read_bytes()


def test_pnm_rejects_bad_maxval(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError, match="maxval"):
        read_image_pnm(p)


def test_pnm_rejects_short_payload(tmp_path):
    p = tmp_path / "short.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(FormatError, match="expected 12 bytes, found 5"):
        read_image_pnm(p)


def test_pnm_write_clamps(tmp_path):
    m = map_from_array(np.array([[[-0.5]], [[1.5]]], dtype=np.float32))
    p = tmp_path / "cl.pgm"
    write_image_pnm(p, m)
    back = read_image_pnm(p)
    assert back[0, 0, 0] == 0.0
    assert back[1, 0, 0] == 1.0


def test_pnm_rejects_2_channels(tmp_path):
    with pytest.raises(DimensionError):
        write_image_pnm(tmp_path / "n.pgm", map_from_array(np.zeros((2, 2, 2))))


def _config_case(path):
    from spnkit.training import TrainConfig
    path.write_text("\n".join(TrainConfig(epochs=3).to_lines()) + "\n")
    return path, lambda: TrainConfig.from_file(path), ConfigError


class _CheckpointHeader:
    """The text header of a one-file checkpoint, read and rewritten in place
    in front of its parameter record."""

    def __init__(self, path):
        self.path = path

    def read_text(self):
        return self.path.read_bytes().partition(b"\0")[0].decode()

    def write_text(self, text):
        record = self.path.read_bytes().partition(b"\0")[2]
        self.path.write_bytes(text.encode() + b"\0" + record)


def _checkpoint_case(path):
    from spnkit.guidance import Architecture, checkpoint_load, checkpoint_save, init_params
    arch = Architecture(widths=(2, 3, 4), prop_channels=2)
    checkpoint_save(path, arch, init_params(arch, np.random.default_rng(0)),
                    meta={"epoch": 1})

    def load():
        arch, params, meta = checkpoint_load(path)
        return arch, {k: v.tobytes() for k, v in params.items()}, meta
    return _CheckpointHeader(path), load, CheckpointError


def _dataset_case(path):
    from spnkit.dataset import gen_toy_dataset, read_manifest
    gen_toy_dataset(path, n_train=1, n_val=1, size=8, classes=2, seed=0)
    return path / "manifest.txt", lambda: read_manifest(path), FormatError


@pytest.mark.parametrize("case", [_config_case, _checkpoint_case, _dataset_case],
                         ids=["config", "checkpoint", "dataset"])
def test_key_value_grammar(tmp_path, case):
    """Config files and both manifests share one key=value grammar."""
    text_path, load, error = case(tmp_path / "f")
    lines = text_path.read_text().splitlines()
    want = load()
    text_path.write_text("\n".join(["# comment", " ", lines[0] + "  ", *lines[1:]]) + "\n")
    assert load() == want
    text_path.write_text("\n".join([lines[0], "no equals sign", *lines[1:]]) + "\n")
    with pytest.raises(error, match=r"line 2 is not key=value"):
        load()


@pytest.mark.parametrize("case", [_config_case, _checkpoint_case, _dataset_case],
                         ids=["config", "checkpoint", "dataset"])
def test_key_value_repeated_key(tmp_path, case):
    # no writer repeats a key, so a repeat is an edit that one copy would hide
    text_path, load, error = case(tmp_path / "f")
    lines = text_path.read_text().splitlines()
    text_path.write_text("\n".join([*lines, lines[0]]) + "\n")
    key = lines[0].partition("=")[0]
    with pytest.raises(error, match=rf"line {len(lines) + 1} repeats key '{key}' "
                                    rf"\(first on line 1\)"):
        load()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flush_subnormals_zeroes_only_subnormals(dtype):
    tiny = np.finfo(dtype).tiny
    sub = np.nextafter(dtype(0), dtype(1))  # the smallest subnormal
    a = np.array([tiny / 2, -tiny / 2, sub, -sub, tiny, -tiny, 1.5, -2.0, 0.0,
                  np.inf, -np.inf, np.nan], dtype=dtype)
    flush_subnormals(a)
    assert_same_bits(a, np.array([0, 0, 0, 0, tiny, -tiny, 1.5, -2.0, 0.0,
                                  np.inf, -np.inf, np.nan], dtype=dtype))


def index_flush_subnormals(a):
    """`np.abs` and a boolean-index assignment: what `flush_subnormals` replaced."""
    a[np.abs(a) < np.finfo(a.dtype).tiny] = 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flush_subnormals_matches_index_assignment(dtype):
    # the exponent-field flush against the form it replaced, bit for bit, in
    # place on contiguous and strided views: -0 becomes +0, NaN keeps its
    # sign; np.where(|a| < tiny, 0 * a, a) keeps -0 and fails
    rng = np.random.default_rng(29)
    base = rng.standard_normal((7, 9, 4)).astype(dtype)
    base *= np.finfo(dtype).tiny * rng.choice([0.25, 1.0, 4.0], base.shape)
    special = special_values(dtype)
    base[1, :len(special), 2] = special
    base[3, 2, :] = -special[:4]
    views = [lambda a: a, lambda a: a[::2, 1::3], lambda a: a.transpose(2, 0, 1)[:, ::-1],
             lambda a: a[:, 4, ::2]]
    for view in views:
        fast, slow = base.copy(), base.copy()
        flush_subnormals(view(fast))
        index_flush_subnormals(view(slow))
        assert_same_bits(fast, slow)
    with pytest.raises(AssertionError, match="differ in their bits"), \
         np.errstate(invalid="ignore"):
        assert_same_bits(np.where(np.abs(base) < np.finfo(dtype).tiny, 0 * base, base), slow)
