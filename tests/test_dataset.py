import hashlib
import re

import numpy as np
import pytest

from spnkit import dataset
from spnkit.dataset import (
    MAX_CLASSES,
    PALETTE,
    gen_toy_dataset,
    load_sample,
    load_split,
    make_coarse,
    map_to_labels,
    labels_to_map,
    one_hot,
    read_manifest,
    render_sample,
    verify_dataset,
)
from spnkit.errors import ConfigError, DimensionError, FormatError
from spnkit.tensor import read_array, read_image_pnm, write_array, write_image_pnm


def test_render_sample_basics():
    rng = np.random.default_rng(0)
    image, labels = render_sample(rng, 48, 3)
    assert image.shape == (48, 48, 3) and image.dtype == np.float32
    assert labels.shape == (48, 48) and labels.dtype == np.int32
    assert image.min() >= 0.0 and image.max() <= 1.0
    assert labels.min() >= 0 and labels.max() <= 2
    assert len(np.unique(labels)) >= 2


def test_render_sample_deterministic():
    a_img, a_lab = render_sample(np.random.default_rng(7), 32, 2)
    b_img, b_lab = render_sample(np.random.default_rng(7), 32, 2)
    assert a_img.tobytes() == b_img.tobytes()
    assert a_lab.tobytes() == b_lab.tobytes()


# sha256 of rendered samples and generated dataset trees, recorded before the
# renderer switched from meshgrid to broadcast coordinates: any change to
# generated data that is not bit-identical fails here.
RENDER_DIGESTS = {
    (0, 8, 2): "a37495fda6cd2350ad9bf747b1950ac831d0c36a840f59b564c7ee63b086be70",
    (1, 33, 3): "1bfd3fb82283a22a047095a351a769b7f3f85166f5680142dca4c39076ad6226",
    (2, 64, 2): "db5172fc66f947fafd541b86fc077c4f8bb2576277bcf448fb0730577b2353e3",
    (3, 128, 5): "23481c777154fd03e69274cedb0241b88cc538a00b5e636a5054e2f8b1b050e1",
    (7, 128, 2): "1610678df6a05c80ab91fd14b4c7cf08aa8c7a2203d6b48ca2138e1fd199f554",
    (11, 64, 8): "0a7595bb7e70c3c663aadd37ecca7be4fdefd61740f7d5c80832523b97517f81",
}
TREE_DIGESTS = {
    (5, 8, 2, 4): "f5e2a11fb0137402c6c82cc8fed3b898c3b208884ced99e0f4c185c1c791bb26",
    (11, 33, 3, 4): "cd0700809289564cb22e072d1d17a40ce87c2821d70be549398dc6f177d91c56",
    (3, 64, 2, 8): "9a75b831445aba4027a47988f5af40c79d2d0874aa36bc6a4e5fdeffa7561d0a",
}


@pytest.mark.parametrize("case", sorted(RENDER_DIGESTS))
def test_render_sample_bytes_pinned(case):
    seed, size, classes = case
    image, labels = render_sample(np.random.default_rng(seed), size, classes)
    digest = hashlib.sha256(image.tobytes())
    digest.update(labels.tobytes())
    assert digest.hexdigest() == RENDER_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(TREE_DIGESTS))
def test_gen_dataset_bytes_pinned(tmp_path, case):
    seed, size, classes, factor = case
    root = tmp_path / "ds"
    gen_toy_dataset(root, n_train=3, n_val=2, size=size, classes=classes,
                    seed=seed, coarse_factor=factor, coarse_blur=1)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == TREE_DIGESTS[case]


def full_grid_render(rng, size, classes):
    """`render_sample` as it was before windowed shapes: every shape tested on
    the whole supersampled grid, coverage the mean of its booleans, and the
    blend over the whole image."""
    s = 4
    coords = (np.arange(size * s) + 0.5) / s
    yy, xx = coords[:, None], coords[None, :]

    def ellipse():
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

    def convex_polygon():
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

    for _ in range(32):
        base = rng.uniform(0.08, 0.22)
        image = np.full((size, size, 3), base, dtype=np.float64)
        labels = np.zeros((size, size), dtype=np.int32)
        for _ in range(int(rng.integers(2, 5))):
            cls = int(rng.integers(1, classes))
            shape_fn = ellipse if rng.random() < 0.5 else convex_polygon
            cov = shape_fn().reshape(size, s, size, s).mean(axis=(1, 3))
            color = np.array(PALETTE[cls - 1]) * rng.uniform(0.85, 1.15)
            image = image * (1.0 - cov[:, :, None]) + color * cov[:, :, None]
            labels = np.where(cov > 0.5, np.int32(cls), labels)
        if len(np.unique(labels)) >= 2:
            break
    image += rng.normal(0.0, 0.02, size=image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32), labels


# (size, seeds): 312 samples, classes 2..8 in turn; most windows cross the border
WINDOW_CASES = ((8, 100), (9, 100), (33, 56), (64, 28), (127, 14), (128, 14))


def window_mismatches(cases):
    """Seeded (size, classes, seed) whose render differs from the full grid's."""
    bad = []
    for size, seeds in cases:
        for seed in range(seeds):
            classes = 2 + seed % 7
            got = render_sample(np.random.default_rng(seed), size, classes)
            want = full_grid_render(np.random.default_rng(seed), size, classes)
            if any(g.tobytes() != w.tobytes() for g, w in zip(got, want)):
                bad.append((size, classes, seed))
    return bad


def test_windowed_render_matches_full_grid(monkeypatch):
    window = dataset._window
    clipped = []

    def spy(yy, xx, cy, cx, reach, size):
        clipped.append(min(cy, cx) - reach < 0 or max(cy, cx) + reach > size)
        return window(yy, xx, cy, cx, reach, size)

    monkeypatch.setattr(dataset, "_window", spy)
    assert window_mismatches(WINDOW_CASES) == []
    assert 0 < sum(clipped) < len(clipped)


def test_window_without_margin_misses_coverage(monkeypatch):
    # the near miss: no one-pixel margin and 0.9 of the reach
    s = dataset._SUPERSAMPLE

    def tight(yy, xx, cy, cx, reach, size):
        y0, x0 = (max(int(np.floor(c - 0.9 * reach)), 0) for c in (cy, cx))
        y1, x1 = (min(int(np.ceil(c + 0.9 * reach)), size) for c in (cy, cx))
        return ((slice(y0, y1), slice(x0, x1)),
                yy[y0 * s:y1 * s], xx[:, x0 * s:x1 * s])

    monkeypatch.setattr(dataset, "_window", tight)
    assert window_mismatches([(33, 10)])


def test_render_sample_rejects_bad_args():
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigError):
        render_sample(rng, 32, 1)
    with pytest.raises(ConfigError):
        render_sample(rng, 32, MAX_CLASSES + 1)
    with pytest.raises(ConfigError):
        render_sample(rng, 4, 2)


def test_one_hot():
    labels = np.array([[0, 1], [2, 0]])
    oh = one_hot(labels, 3)
    assert oh.shape == (2, 2, 3)
    np.testing.assert_array_equal(oh.argmax(axis=2), labels)
    np.testing.assert_array_equal(oh.sum(axis=2), 1.0)


def test_make_coarse_probabilities():
    rng = np.random.default_rng(2)
    _, labels = render_sample(rng, 64, 3)
    coarse = make_coarse(labels, 3, factor=8, blur=1)
    assert coarse.shape == (64, 64, 3)
    assert coarse.min() >= 0.0
    np.testing.assert_allclose(coarse.sum(axis=2), 1.0, atol=1e-5)
    agree = (coarse.argmax(axis=2) == labels).mean()
    # coarse map tracks the labels but degrades the boundaries
    assert 0.55 < agree < 1.0


def test_make_coarse_defaults_to_factor_8_blur_1():
    _, labels = render_sample(np.random.default_rng(2), 64, 3)
    assert make_coarse(labels, 3).tobytes() == make_coarse(labels, 3, 8, 1).tobytes()
    assert make_coarse(labels, 3).tobytes() != make_coarse(labels, 3, 7, 1).tobytes()


def test_make_coarse_rejects_negative_blur():
    labels = np.zeros((16, 16), dtype=np.int32)
    with pytest.raises(ConfigError, match="blur must be >= 0"):
        make_coarse(labels, 2, factor=4, blur=-1)


def test_labels_map_roundtrip():
    labels = np.arange(6, dtype=np.int32).reshape(2, 3)
    np.testing.assert_array_equal(map_to_labels(labels_to_map(labels)), labels)


def test_labels_map_takes_every_byte_value():
    labels = np.array([[0, 255]], dtype=np.int32)
    np.testing.assert_array_equal(map_to_labels(labels_to_map(labels)), labels)
    for bad in (256, -1):
        with pytest.raises(DimensionError, match="^labels must fit in a byte$"):
            labels_to_map(np.array([[0, bad]], dtype=np.int32))


def make_ds(tmp_path, **kw):
    args = dict(n_train=3, n_val=2, size=24, classes=2, seed=11,
                coarse_factor=4, coarse_blur=1)
    args.update(kw)
    return gen_toy_dataset(tmp_path / "ds", **args), tmp_path / "ds"


def test_gen_dataset_layout_and_manifest(tmp_path):
    meta, root = make_ds(tmp_path)
    assert meta["classes"] == 2
    assert sorted(p.name for p in (root / "images").iterdir()) == [
        "0000.ppm", "0001.ppm", "0002.ppm", "0003.ppm", "0004.ppm"]
    m, items = read_manifest(root)
    assert m["size"] == "24" and len(items) == 5
    train, val, _ = load_split(root)
    assert train == [0, 1, 2] and val == [3, 4]
    assert verify_dataset(root) == 5


def test_gen_dataset_hashes_the_bytes_it_wrote(tmp_path, monkeypatch):
    def read_back(path):
        raise AssertionError(f"gen_toy_dataset read {path} back")

    monkeypatch.setattr(dataset, "_sha256", read_back)
    _, root = make_ds(tmp_path)
    monkeypatch.undo()
    assert verify_dataset(root) == 5


def test_gen_dataset_deterministic(tmp_path):
    _, root1 = make_ds(tmp_path)
    meta2 = gen_toy_dataset(tmp_path / "ds2", n_train=3, n_val=2, size=24,
                            classes=2, seed=11, coarse_factor=4, coarse_blur=1)
    for sub in ("images", "masks", "coarse"):
        for p1 in sorted((root1 / sub).iterdir()):
            p2 = tmp_path / "ds2" / sub / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_load_sample_consistent(tmp_path):
    meta, root = make_ds(tmp_path)
    image, labels, coarse = load_sample(root, 0, meta["classes"])
    assert image.shape == (24, 24, 3)
    assert labels.shape == (24, 24)
    assert coarse.shape == (24, 24, 2)
    assert labels.max() <= 1
    np.testing.assert_allclose(coarse.sum(axis=2), 1.0, atol=1e-5)


def test_load_sample_rejects_nonfinite_coarse(tmp_path):
    meta, root = make_ds(tmp_path)
    path = root / "coarse" / "0000.spnt"
    coarse = read_array(path)
    coarse[3, 5, 1] = np.nan
    write_array(path, coarse)
    with pytest.raises(FormatError, match=r"item 0 .*nan.* at index \(3, 5, 1\)"):
        load_sample(root, 0, meta["classes"])


def test_load_sample_rejects_mask_label_beyond_coarse_channels(tmp_path):
    meta, root = make_ds(tmp_path)
    path = root / "masks" / "0001.pgm"
    labels = map_to_labels(read_image_pnm(path))
    labels[labels == 1] = 5
    write_image_pnm(path, labels_to_map(labels))
    with pytest.raises(FormatError, match="mask for item 1 has label 5, the "
                                          "manifest has 2 classes"):
        load_sample(root, 1, meta["classes"])


def test_load_sample_rejects_3_channel_mask(tmp_path):
    meta, root = make_ds(tmp_path)
    (root / "masks" / "0000.pgm").write_bytes(b"P6\n24 24\n255\n" + bytes(24 * 24 * 3))
    with pytest.raises(FormatError, match="mask for item 0 has 3 channels"):
        load_sample(root, 0, meta["classes"])


def test_verify_dataset_detects_tampering(tmp_path):
    _, root = make_ds(tmp_path)
    victim = root / "masks" / "0001.pgm"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="sha256 mismatch"):
        verify_dataset(root)


def test_gen_dataset_defaults_to_coarse_factor_8_blur_1(tmp_path):
    # perfbench's training workload relies on these defaults
    gen_toy_dataset(tmp_path / "a", 1, 1, 24, 2, seed=3)
    gen_toy_dataset(tmp_path / "b", 1, 1, 24, 2, seed=3, coarse_factor=8, coarse_blur=1)
    assert ((tmp_path / "a" / "manifest.txt").read_bytes()
            == (tmp_path / "b" / "manifest.txt").read_bytes())


def test_verify_dataset_names_both_digests(tmp_path):
    _, root = make_ds(tmp_path)
    victim = root / "masks" / "0001.pgm"
    want = hashlib.sha256(victim.read_bytes()).hexdigest()
    victim.write_bytes(victim.read_bytes() + b"\0")
    have = hashlib.sha256(victim.read_bytes()).hexdigest()
    message = f"sha256 mismatch for {victim}: manifest {want[:12]}.., file {have[:12]}.."
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        verify_dataset(root)


def test_verify_dataset_detects_missing_file(tmp_path):
    _, root = make_ds(tmp_path)
    (root / "coarse" / "0002.spnt").unlink()
    with pytest.raises(FormatError, match="missing file"):
        verify_dataset(root)


@pytest.mark.parametrize("classes", ["abc", "1", str(MAX_CLASSES + 1), "2.0", "", None])
def test_read_manifest_checks_classes(tmp_path, classes):
    _, root = make_ds(tmp_path)
    manifest = root / "manifest.txt"
    lines = [line for line in manifest.read_text().splitlines()
             if not line.startswith("classes=")]
    if classes is not None:
        lines.insert(1, f"classes={classes}")
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="classes"):
        read_manifest(root)


def test_read_manifest_rejects_garbage(tmp_path):
    root = tmp_path / "bad"
    root.mkdir()
    (root / "manifest.txt").write_text("format=spn-dataset-v1\nnonsense line\n")
    with pytest.raises(FormatError, match="line 2"):
        read_manifest(root)
