import ctypes
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spnkit
from spnkit import cli
from spnkit.cli import main
from spnkit.dataset import gen_toy_dataset, labels_to_map, map_to_labels
from spnkit.guidance import checkpoint_load, checkpoint_save
from spnkit.tensor import read_array, read_image_pnm, write_array, write_image_pnm


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def has_line(out, prefix):
    """True if some output line starts with `prefix` (record names nest)."""
    return any(line.startswith(prefix) for line in out.splitlines())


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--trials", "2", "--max-size", "6")
    assert rc == 0
    assert out.count("PASS") == 7 and "FAIL" not in out
    assert has_line(out, "scan-vs-dense-oracle: PASS")
    assert has_line(out, "pooled-scan-vs-dense-oracle: PASS")


def test_verify_32bit(capsys):
    rc, out, _ = run(capsys, "verify", "--trials", "2", "--bits", "32",
                     "--kind", "one")
    assert rc == 0
    assert "tol 1e-05" in out


@pytest.mark.parametrize("fault,marker", [
    ("boundary", "boundary-contract: FAIL"),
    ("unprojected", "gate-row-bound: FAIL"),
    ("scan-perturb", "scan-vs-dense-oracle: FAIL"),
    ("scan-perturb", "pooled-scan-vs-dense-oracle: FAIL"),
])
def test_verify_fault_injection(capsys, fault, marker):
    rc, out, _ = run(capsys, "verify", "--trials", "2", "--max-size", "6",
                     "--inject-fault", fault)
    assert rc == 1
    assert has_line(out, marker)


@pytest.mark.parametrize("argv,message", [
    (("verify", "--trials", "0"), "--trials must be at least 1, got 0"),
    (("verify", "--max-size", "1"), "--max-size must be at least 2, got 1"),
    (("verify", "--channels", "0"), "--channels must be at least 1, got 0"),
    (("verify", "--max-size", "21"),
     "--max-size must be at most 20 (dense oracle cap of 400 pixels), got 21"),
    (("gradcheck", "--eps", "0"), "--eps must be a positive finite step, got 0.0"),
    (("gradcheck", "--eps", "-1"), "--eps must be a positive finite step, got -1.0"),
    (("gradcheck", "--eps", "nan"), "--eps must be a positive finite step, got nan"),
    (("gradcheck", "--coords", "0"), "--coords must be at least 1, got 0"),
    (("gradcheck", "--coords", "-5"), "--coords must be at least 1, got -5"),
    (("affinity", "--channels", "0"), "--channels must be at least 1, got 0"),
    (("affinity", "--channels", "-2"), "--channels must be at least 1, got -2"),
    (("impulse", "--gate-value", "nan"), "--gate-value must be finite, got nan"),
    (("impulse", "--gate-value", "inf"), "--gate-value must be finite, got inf"),
], ids=["trials-0", "max-size-1", "channels-0", "max-size-21", "eps-0", "eps-neg", "eps-nan",
        "coords-0", "coords-neg",
        "affinity-channels-0", "affinity-channels-neg", "impulse-gate-value-nan",
        "impulse-gate-value-inf"])
def test_check_arguments_out_of_range_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("affinity", "--height", "0"),
    ("affinity", "--width", "0"),
    ("impulse", "--height", "0"),
    ("impulse", "--width", "0"),
    ("affinity", "--height", "-1"),
    ("impulse", "--width", "-3"),
], ids=["affinity-height-0", "affinity-width-0", "impulse-height-0",
        "impulse-width-0", "affinity-height-neg", "impulse-width-neg"])
def test_empty_grid_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err == "error: grid dimensions must be >= 1\n"
    assert out == ""


@pytest.mark.parametrize("flag,value,message", [
    ("--coarse-blur", "-1", "coarse_blur must be at least 0, got -1"),
    ("--coarse-factor", "0", "coarse_factor must be at least 1, got 0"),
    ("--size", "4", "size must be at least 8, got 4"),
    ("--classes", "9", "classes must be in [2, 8], got 9"),
    ("--classes", "1", "classes must be in [2, 8], got 1"),
], ids=["coarse-blur-neg", "coarse-factor-0", "size-4", "classes-9", "classes-1"])
def test_gen_data_rejects_bad_coarse_settings(capsys, tmp_path, flag, value, message):
    # a negative blur count used to render as blur 0 and be written to the
    # manifest, and a bad size or class count left empty directories behind;
    # nothing is written now
    out_dir = tmp_path / "ds"
    rc, out, err = run(capsys, "gen-data", "--out", str(out_dir), "--train", "1",
                       "--val", "1", "--size", "16", flag, value)
    assert rc == 2
    assert err == f"error: {message}\n"
    assert out == ""
    assert not out_dir.exists()


def test_gradcheck_passes(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--coords", "120")
    assert rc == 0
    assert "FAIL" not in out
    for line in ("spn-input[one,6x6]", "spn-gates[one,6x6]",
                 "spn-input[three,5x6]", "spn-gates[three,5x6]"):
        assert has_line(out, f"{line}: PASS (checked 15 coords"), line
    total = int(out.rsplit("total coordinates checked:", 1)[1].split()[0])
    assert total >= 120


def test_gradcheck_perturbed_backward_fails(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--coords", "120",
                     "--perturb-backward")
    assert rc == 1
    assert "FAIL" in out


def test_gradcheck_catches_wrong_spn_gate_gradient(capsys, monkeypatch):
    # the audit runs the backward that training runs: a 1% error in its
    # gate gradient must fail the spn-gates lines
    from spnkit import cli, propagation

    def wrong(grad, caches):
        dx, dgates = propagation.spn_backward(grad, caches)
        return dx, dgates * 1.01

    monkeypatch.setattr(cli, "spn_backward", wrong)
    rc, out, _ = run(capsys, "gradcheck", "--coords", "120")
    assert rc == 1
    assert has_line(out, "spn-gates[one,6x6]: FAIL")
    assert has_line(out, "spn-gates[three,5x6]: FAIL")
    assert has_line(out, "spn-input[three,5x6]: PASS")


@pytest.mark.parametrize("command", ["verify", "gradcheck", "affinity", "gen-data"])
def test_negative_seed_exit_2(capsys, tmp_path, command):
    # numpy's generator refused it with a traceback and exit 1, after
    # gen-data had made its directories
    out_dir = tmp_path / "ds"
    extra = ("--out", str(out_dir)) if command == "gen-data" else ()
    rc, out, err = run(capsys, command, *extra, "--seed", "-1")
    flag = "seed" if command == "gen-data" else "--seed"
    assert rc == 2
    assert err == f"error: {flag} must be at least 0, got -1\n"
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["affinity", "impulse"])
def test_dense_cap_checked_before_gates_are_built(capsys, command):
    # a 1000x1000 grid's gates took 183-249 MiB before the dense oracle
    # refused them
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, command, "--height", "1000", "--width", "1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert err == "error: dense views need 1000000 pixels, capped at 400\n"
    assert out == ""
    assert peak < 1 << 20


def test_affinity_report(capsys, tmp_path):
    csv_path = tmp_path / "aff.csv"
    g_path = tmp_path / "g.spnt"
    rc, out, _ = run(capsys, "affinity", "--height", "5", "--width", "4",
                     "--out-csv", str(csv_path), "--save", str(g_path))
    assert rc == 0
    assert "row-sum residual" in out
    assert "block lower triangular: True" in out
    text = csv_path.read_text()
    assert "direction,max_abs_gate_sum" in text
    assert "row_sum_residual," in text
    G = read_array(g_path)
    assert G.shape == (1, 20, 20)
    np.testing.assert_allclose(G.sum(axis=2), 1.0, atol=1e-12)


def test_impulse_grid(capsys, tmp_path):
    out_path = tmp_path / "imp.spnt"
    rc, out, _ = run(capsys, "impulse", "--height", "5", "--width", "4",
                     "--row", "2", "--col", "0", "--out", str(out_path))
    assert rc == 0
    assert "mismatch: 0.000e+00" in out
    resp = read_array(out_path)
    assert resp.shape == (5, 4, 1)
    assert resp[2, 0, 0] == 1.0
    assert resp[0, 1, 0] == 0.0 and resp[4, 1, 0] == 0.0


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bits", "16"])
    assert exc.value.code == 2


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_config_file_exit_2(capsys, tmp_path):
    ds = tmp_path / "ds"
    gen_toy_dataset(ds, n_train=2, n_val=1, size=16, classes=2, seed=0,
                    coarse_factor=4)
    cfg = tmp_path / "bad.txt"
    cfg.write_text("epochs=2\nbogus_key=1\n")
    rc, _, err = run(capsys, "train", "--data", str(ds), "--out",
                     str(tmp_path / "run"), "--config", str(cfg))
    assert rc == 2
    assert "bogus_key" in err


def test_config_repeated_key_exit_2(capsys, tmp_path):
    # a repeated key used to take the last value: two epochs ran, exit 0
    ds = tmp_path / "ds"
    gen_toy_dataset(ds, n_train=2, n_val=1, size=16, classes=2, seed=0,
                    coarse_factor=4)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epochs=1\nbatch=2\nepochs=2\n")
    rc, out, err = run(capsys, "train", "--data", str(ds), "--out",
                       str(tmp_path / "run"), "--config", str(cfg))
    assert rc == 2
    assert err == f"error: {cfg}: line 3 repeats key 'epochs' (first on line 1)\n"
    assert out == "" and not (tmp_path / "run").exists()


def test_config_not_utf8_exit_2(capsys, tmp_path):
    # a 0xff byte used to end the run in a UnicodeDecodeError, exit 1
    ds = tmp_path / "ds"
    gen_toy_dataset(ds, n_train=2, n_val=1, size=16, classes=2, seed=0,
                    coarse_factor=4)
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"epochs=1\nbatch=\xff\n")
    rc, out, err = run(capsys, "train", "--data", str(ds), "--out",
                       str(tmp_path / "run"), "--config", str(cfg))
    assert rc == 2
    assert err == f"error: {cfg}: byte 15 is not UTF-8 text\n"
    assert out == "" and not (tmp_path / "run").exists()


def test_train_flags_reach_config():
    from spnkit.cli import _build_config, build_parser
    from spnkit.training import TrainConfig
    args = build_parser().parse_args([
        "train", "--data", "d", "--out", "o", "--epochs", "3", "--batch", "2",
        "--lr", "0.5", "--momentum", "0.25", "--seed", "9", "--units", "3",
        "--prop-channels", "5", "--widths", "2,3,4", "--scale", "4",
        "--kind", "one", "--post-gain", "1.5", "--time-limit", "30"])
    cfg = _build_config(args)
    want = TrainConfig(epochs=3, batch=2, lr=0.5, momentum=0.25, seed=9, units=3,
                       prop_channels=5, widths="2,3,4", scale=4, kind="one",
                       post_gain=1.5, time_limit=30.0)
    assert cfg == want
    default = TrainConfig()
    changed = {f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(default, f.name)}
    assert changed == {"epochs", "batch", "lr", "momentum", "seed", "units",
                       "prop_channels", "widths", "scale", "kind", "post_gain",
                       "time_limit"}
    for name in changed:
        assert type(getattr(cfg, name)) is type(getattr(default, name)), name


def test_missing_checkpoint_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "none"),
                     "--data", str(tmp_path / "none"))
    assert rc == 2
    assert "No such file" in err and str(tmp_path / "none") in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_train")
    ds = base / "ds"
    out = base / "run"
    gen_toy_dataset(ds, n_train=8, n_val=3, size=16, classes=2, seed=3,
                    coarse_factor=4)
    rc = main(["train", "--data", str(ds), "--out", str(out),
               "--epochs", "2", "--prop-channels", "3", "--widths", "3,4,5",
               "--units", "1"])
    assert rc == 0
    return ds, out


def test_gen_data_check(capsys, trained):
    ds_dir, _ = trained
    rc, out, _ = run(capsys, "gen-data", "--out", str(ds_dir), "--check")
    assert rc == 0
    assert "11 items verified" in out


def test_train_artifacts_and_config_echo(trained):
    _, out_dir = trained
    text = (out_dir / "config.txt").read_text()
    assert "epochs=2" in text and "prop_channels=3" in text
    assert (out_dir / "metrics.csv").is_file()
    # one file per checkpoint, and no temporary file left beside them
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "best", "config.txt", "last", "metrics.csv"]
    assert (out_dir / "best").is_file() and (out_dir / "last").is_file()


def test_eval_runs(capsys, trained):
    ds_dir, out_dir = trained
    rc, out, _ = run(capsys, "eval", "--checkpoint", str(out_dir / "best"),
                     "--data", str(ds_dir))
    assert rc == 0
    assert "refined IoU" in out


def test_refine_writes_mask(capsys, trained, tmp_path):
    ds_dir, out_dir = trained
    pred = tmp_path / "pred.pgm"
    rc, out, _ = run(capsys, "refine",
                     "--checkpoint", str(out_dir / "best"),
                     "--image", str(ds_dir / "images" / "0009.ppm"),
                     "--coarse", str(ds_dir / "coarse" / "0009.spnt"),
                     "--truth", str(ds_dir / "masks" / "0009.pgm"),
                     "--out", str(pred))
    assert rc == 0
    labels = map_to_labels(read_image_pnm(pred))
    assert labels.shape == (16, 16)
    assert set(np.unique(labels)) <= {0, 1}
    assert "refined IoU" in out


def _refine(capsys, trained, tmp_path, coarse=None, truth=None, checkpoint=None):
    ds_dir, out_dir = trained
    if coarse is None:
        coarse = read_array(ds_dir / "coarse" / "0009.spnt")
    write_array(tmp_path / "coarse.spnt", coarse)
    pred = tmp_path / "pred.pgm"
    rc, _, err = run(capsys, "refine",
                     "--checkpoint", str(checkpoint or out_dir / "best"),
                     "--image", str(ds_dir / "images" / "0009.ppm"),
                     "--coarse", str(tmp_path / "coarse.spnt"),
                     "--out", str(pred), *(["--truth", str(truth)] if truth else []))
    return rc, err, pred


def test_refine_rejects_coarse_of_other_size(capsys, trained, tmp_path):
    coarse = np.full((17, 40, 2), 0.5, dtype=np.float32)
    rc, err, pred = _refine(capsys, trained, tmp_path, coarse)
    assert rc == 2
    assert "17x40" in err and "16x16" in err
    assert not pred.exists()


def test_refine_rejects_nonfinite_coarse(capsys, trained, tmp_path):
    ds_dir, _ = trained
    coarse = read_array(ds_dir / "coarse" / "0009.spnt")
    coarse[4, 7, 0] = np.nan
    rc, err, pred = _refine(capsys, trained, tmp_path, coarse)
    assert rc == 2
    assert "(4, 7, 0)" in err
    assert not pred.exists()


def test_refine_rejects_coarse_of_wrapping_dimensions(capsys, trained, tmp_path):
    # four dimensions of 2**16: their int64 product wrapped to 0, which the
    # empty payload matched, and reshape raised a bare ValueError (exit 1)
    ds_dir, out_dir = trained
    bad = tmp_path / "bad.spnt"
    bad.write_bytes(b"SPNT" + bytes([1, 1, 4]) + np.full(4, 1 << 16, dtype="<u4").tobytes())
    pred = tmp_path / "pred.pgm"
    rc, _, err = run(capsys, "refine", "--checkpoint", str(out_dir / "best"),
                     "--image", str(ds_dir / "images" / "0009.ppm"),
                     "--coarse", str(bad), "--out", str(pred))
    assert rc == 2
    assert err.startswith("error: ") and "at byte 23" in err
    assert not pred.exists()


def test_refine_rejects_nonfinite_checkpoint(capsys, trained, tmp_path):
    _, out_dir = trained
    ck = tmp_path / "ck"
    arch, params, meta = checkpoint_load(out_dir / "best")
    params["post.b"][1] = np.nan
    checkpoint_save(ck, arch, params, meta)
    rc, err, pred = _refine(capsys, trained, tmp_path, checkpoint=ck)
    assert rc == 2
    assert "post.b" in err and "non-finite" in err
    assert not pred.exists()


def test_refine_rejects_truth_of_other_size(capsys, trained, tmp_path):
    truth = tmp_path / "truth.pgm"
    write_image_pnm(truth, labels_to_map(np.zeros((16, 20), dtype=np.int32)))
    rc, err, pred = _refine(capsys, trained, tmp_path, truth=truth)
    assert rc == 2
    assert "16x20" in err and "16x16" in err
    assert not pred.exists()


def test_refine_rejects_truth_label_out_of_range(capsys, trained, tmp_path):
    labels = np.zeros((16, 16), dtype=np.int32)
    labels[3, 4] = 2
    truth = tmp_path / "truth.pgm"
    write_image_pnm(truth, labels_to_map(labels))
    rc, err, pred = _refine(capsys, trained, tmp_path, truth=truth)
    assert rc == 2
    assert "label 2" in err and "2 classes" in err
    assert not pred.exists()


def test_refine_rejects_truth_with_3_channels(capsys, trained, tmp_path):
    truth = tmp_path / "truth.ppm"
    truth.write_bytes(b"P6\n16 16\n255\n" + bytes(16 * 16 * 3))
    rc, err, pred = _refine(capsys, trained, tmp_path, truth=truth)
    assert rc == 2
    assert err.startswith("error: ") and f"truth mask {truth} has 3 channels" in err
    assert not pred.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_mask_label_beyond_classes_exit_2(capsys, trained, tmp_path, command):
    import shutil
    ds_dir, out_dir = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    mask = ds / "masks" / "0000.pgm"
    labels = map_to_labels(read_image_pnm(mask))
    labels[labels == 1] = 5
    write_image_pnm(mask, labels_to_map(labels))
    argv = {"train": ["train", "--data", str(ds), "--out", str(tmp_path / "run"),
                      "--epochs", "1", "--prop-channels", "3", "--widths", "3,4,5"],
            "eval": ["eval", "--checkpoint", str(out_dir / "best"), "--data", str(ds),
                     "--split", "train"],
            }[command]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ") and "mask for item 0 has label 5" in err
    assert "IoU" not in out


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("defect,message", [
    ("image-8x8", "image for item 9 is 8x8, its mask is 16x16"),
    ("coarse-3-channels", "coarse map for item 9 has 3 channels, the manifest has 2 classes"),
], ids=["image-8x8", "coarse-3-channels"])
def test_item_of_wrong_shape_exit_2(capsys, trained, tmp_path, command, defect, message):
    import shutil
    ds_dir, out_dir = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    if defect == "image-8x8":
        path = ds / "images" / "0009.ppm"  # a validation item
        write_image_pnm(path, read_image_pnm(path)[:8, :8])
    else:
        path = ds / "coarse" / "0009.spnt"
        coarse = read_array(path)
        write_array(path, np.concatenate([coarse, 0.0 * coarse[:, :, :1]], axis=2))
    argv = {"train": ["train", "--data", str(ds), "--out", str(tmp_path / "run"),
                      "--epochs", "1", "--prop-channels", "3", "--widths", "3,4,5"],
            "eval": ["eval", "--checkpoint", str(out_dir / "best"), "--data", str(ds)],
            }[command]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err == f"error: {message}\n"
    assert "IoU" not in out


def test_gen_data_check_rejects_malformed_item_index(capsys, trained, tmp_path):
    import shutil
    ds_dir, _ = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    manifest = ds / "manifest.txt"
    lines = manifest.read_text().splitlines()
    ln = next(i for i, line in enumerate(lines, 1) if line.startswith("item."))
    lines[ln - 1] = "item.x1=" + lines[ln - 1].partition("=")[2]
    manifest.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, "gen-data", "--out", str(ds), "--check")
    assert rc == 2
    assert f"line {ln}" in err


def test_gen_data_check_rejects_a_manifest_not_utf8(capsys, trained, tmp_path):
    # a 0xff byte used to end the check in a UnicodeDecodeError, exit 1
    import shutil
    ds_dir, _ = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    manifest = ds / "manifest.txt"
    data = manifest.read_bytes()
    manifest.write_bytes(data + b"# \xff\n")
    rc, _, err = run(capsys, "gen-data", "--out", str(ds), "--check")
    assert rc == 2
    assert err == f"error: {manifest}: byte {len(data) + 2} is not UTF-8 text\n"


@pytest.mark.parametrize("command,bad", [
    ("refine", "image"), ("refine", "coarse"), ("refine", "out"),
    ("gen-data", "out"), ("train", "out"),
], ids=["refine-image-dir", "refine-coarse-dir", "refine-out-dir",
        "gen-data-out-under-file", "train-out-file"])
def test_unusable_path_exit_2(capsys, trained, tmp_path, command, bad):
    # a directory where a file is read or written, a file where a directory
    # is made: exit 2 naming the path, not a traceback
    ds_dir, out_dir = trained
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    if command == "refine":
        paths = {"image": ds_dir / "images" / "0009.ppm",
                 "coarse": ds_dir / "coarse" / "0009.spnt",
                 "out": tmp_path / "pred.pgm", bad: a_dir}
        argv = ["refine", "--checkpoint", str(out_dir / "best"),
                "--image", str(paths["image"]), "--coarse", str(paths["coarse"]),
                "--out", str(paths["out"])]
        named = a_dir
    elif command == "gen-data":
        named = a_file / "ds"
        argv = ["gen-data", "--out", str(named), "--train", "2", "--val", "1",
                "--size", "16"]
    else:
        named = a_file
        argv = ["train", "--data", str(ds_dir), "--out", str(named),
                "--epochs", "1", "--prop-channels", "3", "--widths", "3,4,5",
                "--units", "1"]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ") and str(named.name) in err


def test_os_error_naming_no_path_is_raised(monkeypatch):
    # a broken pipe or a failed fork is no fault of a path the user gave
    def broken(*args):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(cli, "checkpoint_load", broken)
    with pytest.raises(BrokenPipeError):
        main(["eval", "--checkpoint", "ck", "--data", "ds"])


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_repeated_item_index_exit_2(capsys, trained, tmp_path, command):
    import shutil
    ds_dir, _ = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    manifest = ds / "manifest.txt"
    lines = manifest.read_text().splitlines()
    first = next(i for i, line in enumerate(lines, 1) if line.startswith("item.0000="))
    # item.0 names the same index as item.0000
    lines[first] = "item.0=" + lines[first].partition("=")[2]
    manifest.write_text("\n".join(lines) + "\n")
    if command == "gen-data":
        argv = ["gen-data", "--out", str(ds), "--check"]
    else:
        argv = ["train", "--data", str(ds), "--out", str(tmp_path / "run"),
                "--epochs", "1", "--prop-channels", "3", "--widths", "3,4,5",
                "--units", "1"]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert (f"manifest line {first + 1} repeats item index 0 "
            f"(first on line {first})") in err


@pytest.mark.parametrize("command,split", [
    ("train", "val"), ("train", "train"), ("eval", "val"), ("eval", "train"),
], ids=["train-no-val", "train-no-train", "eval-no-val", "eval-no-train"])
def test_empty_split_exit_2(capsys, trained, tmp_path, command, split):
    # without val items train died in an IndexError, without train items it
    # saved untrained checkpoints, and eval printed IoU 0.0000; all exited 0
    # but the first
    import shutil
    ds_dir, out_dir = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    manifest = ds / "manifest.txt"
    lines = [line for line in manifest.read_text().splitlines()
             if not line.startswith("item.") or line.split("=")[1].split(",")[0] != split]
    manifest.write_text("\n".join(lines) + "\n")
    argv = {"train": ["train", "--data", str(ds), "--out", str(tmp_path / "run"),
                      "--epochs", "1", "--prop-channels", "3", "--widths", "3,4,5",
                      "--units", "1"],
            "eval": ["eval", "--checkpoint", str(out_dir / "best"), "--data", str(ds),
                     "--split", split],
            }[command]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err == f"error: manifest has no {split} items\n"
    assert "IoU" not in out and not (tmp_path / "run" / "last").exists()


@pytest.mark.parametrize("flag,value,key", [
    ("--widths", "a,b,c", "widths"),
    ("--prop-channels", "0", "prop_channels"),
    ("--lr", "nan", "lr"),
    ("--lr", "inf", "lr"),
    ("--post-gain", "nan", "post_gain"),
    ("--seed", "-1", "seed"),
    ("--time-limit", "nan", "time_limit"),
    ("--time-limit", "-1", "time_limit"),
], ids=["widths-text", "prop-channels-0", "lr-nan", "lr-inf", "post-gain-nan",
        "seed-neg", "time-limit-nan", "time-limit-neg"])
def test_train_bad_config_value_exit_2(capsys, trained, tmp_path, flag, value, key):
    ds_dir, _ = trained
    rc, out, err = run(capsys, "train", "--data", str(ds_dir), "--out",
                       str(tmp_path / "run"), "--epochs", "1", flag, value)
    assert rc == 2
    assert err.startswith("error: ") and key in err
    assert out == "" and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
def test_manifest_bad_classes_exit_2(capsys, trained, tmp_path, command):
    import shutil
    ds_dir, out_dir = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    manifest = ds / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("classes=2", "classes=abc"))
    argv = {"gen-data": ["gen-data", "--out", str(ds), "--check"],
            "train": ["train", "--data", str(ds), "--out", str(tmp_path / "run"),
                      "--epochs", "1", "--prop-channels", "3", "--widths", "3,4,5"],
            "eval": ["eval", "--checkpoint", str(out_dir / "best"), "--data", str(ds)],
            }[command]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "classes" in err and "'abc'" in err


def test_eval_checks_classes_before_loading_samples(capsys, trained, tmp_path, monkeypatch):
    import shutil
    ds_dir, out_dir = trained
    ds = tmp_path / "ds"
    shutil.copytree(ds_dir, ds)
    manifest = ds / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("classes=2", "classes=3"))
    loaded = []
    real_load = cli.tr.load_sample
    monkeypatch.setattr(cli.tr, "load_sample",
                        lambda *args: loaded.append(args) or real_load(*args))
    rc, out, err = run(capsys, "eval", "--checkpoint", str(out_dir / "best"),
                       "--data", str(ds))
    assert rc == 2
    assert err == "error: checkpoint has 2 classes, dataset has 3\n"
    assert loaded == [] and out == ""


def test_refine_restrict_uses_coarse_labels_only(capsys, trained, tmp_path):
    # a tied coarse map's argmax is class 0 everywhere
    ds_dir, out_dir = trained
    write_array(tmp_path / "coarse.spnt", np.full((16, 16, 2), 0.5, dtype=np.float32))
    labels = {}
    for restrict in (False, True):
        pred = tmp_path / f"pred{int(restrict)}.pgm"
        rc, out, _ = run(capsys, "refine", "--checkpoint", str(out_dir / "best"),
                         "--image", str(ds_dir / "images" / "0009.ppm"),
                         "--coarse", str(tmp_path / "coarse.spnt"), "--out", str(pred),
                         *(["--restrict"] if restrict else []))
        assert rc == 0
        labels[restrict] = set(np.unique(map_to_labels(read_image_pnm(pred))).tolist())
    assert labels == {False: {0, 1}, True: {0}}


def test_eval_rejects_unknown_kind(capsys, trained, tmp_path):
    ds_dir, out_dir = trained
    ck = tmp_path / "ck"
    ck.write_bytes((out_dir / "best").read_bytes().replace(b"kind=three", b"kind=two", 1))
    rc, _, err = run(capsys, "eval", "--checkpoint", str(ck), "--data", str(ds_dir))
    assert rc == 2
    assert "unknown kind 'two'" in err
    assert "missing" not in err


_REFINE_FAULTS = """
import contextlib, io, resource, sys
from pathlib import Path
import numpy as np
from spnkit import cli, dataset, guidance, tensor, training

work = Path(sys.argv[1])
rng = np.random.default_rng(7)
config = training.TrainConfig(kind="one", seed=7)
arch = config.architecture(2)
params = training.init_pipeline_params(arch, rng, post_gain=config.post_gain)
guidance.checkpoint_save(work / "ckpt", arch, params)
image, labels = dataset.render_sample(rng, 64, 2)
tensor.write_image_pnm(work / "img.ppm", tensor.map_from_array(image))
tensor.write_array(work / "coarse.spnt", dataset.make_coarse(labels, 2))
argv = ["refine", "--checkpoint", str(work / "ckpt"), "--image", str(work / "img.ppm"),
        "--coarse", str(work / "coarse.spnt"), "--out", str(work / "pred.pgm")]
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def _v1_checkpoint(directory):
    """A checkpoint in the retired layout: a manifest and one file per parameter."""
    directory.mkdir(parents=True)
    (directory / "manifest.txt").write_text("format=spn-checkpoint-v1\n")
    write_array(directory / "post_b.spnt", np.zeros(2, dtype=np.float32))
    return directory


@pytest.mark.parametrize("command", ["refine", "eval"])
def test_v1_checkpoint_directory_exit_2(capsys, trained, tmp_path, command):
    ds_dir, _ = trained
    ck = _v1_checkpoint(tmp_path / "best")
    if command == "refine":
        rc, err, pred = _refine(capsys, trained, tmp_path, checkpoint=ck)
        assert not pred.exists()
    else:
        rc, _, err = run(capsys, "eval", "--checkpoint", str(ck), "--data", str(ds_dir))
    assert rc == 2
    assert err.startswith("error: ") and f"{ck} is a directory" in err
    assert "spn-checkpoint-v1" in err and "spn-checkpoint-v2" in err


def test_train_into_v1_run_directory_exit_2(capsys, trained, tmp_path):
    # refused before any training, and nothing in the run directory changes
    ds_dir, _ = trained
    run_dir = tmp_path / "run"
    for name in ("best", "last"):
        _v1_checkpoint(run_dir / name)
    rc, out, err = run(capsys, "train", "--data", str(ds_dir), "--out", str(run_dir),
                       "--epochs", "1", "--prop-channels", "3", "--widths", "3,4,5")
    assert rc == 2
    assert err.startswith("error: ") and f"{run_dir / 'best'} is a directory" in err
    assert "spn-checkpoint-v1" in err and "epoch" not in out
    assert sorted(p.name for p in run_dir.iterdir()) == ["best", "last"]
    assert sorted(p.name for p in (run_dir / "last").iterdir()) == [
        "manifest.txt", "post_b.spnt"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_outputs_identical_from_resaved_checkpoint(capsys, trained, tmp_path, dtype):
    from spnkit.training import TrainConfig, init_pipeline_params
    config = TrainConfig(kind="one", prop_channels=3, widths="3,4,5", units=1)
    arch = config.architecture(2)
    params = init_pipeline_params(arch, np.random.default_rng(18), dtype=dtype)
    for side in "ab":
        (tmp_path / side).mkdir()
    checkpoint_save(tmp_path / "a" / "ck", arch, params, {"epoch": 0})
    loaded = checkpoint_load(tmp_path / "a" / "ck")
    checkpoint_save(tmp_path / "b" / "ck", *loaded)
    for side in "ab":
        assert [p.name for p in (tmp_path / side).iterdir()] == ["ck"]
    assert (tmp_path / "a" / "ck").read_bytes() == (tmp_path / "b" / "ck").read_bytes()
    resaved = checkpoint_load(tmp_path / "b" / "ck")[1]
    assert all(resaved[k].dtype == dtype and resaved[k].tobytes() == params[k].tobytes()
               for k in params)
    outputs = []
    for side in "ab":
        rc, err, pred = _refine(capsys, trained, tmp_path / side,
                                checkpoint=tmp_path / side / "ck")
        assert rc == 0, err
        rc, out, err = run(capsys, "eval", "--checkpoint", str(tmp_path / side / "ck"),
                           "--data", str(trained[0]))
        assert rc == 0, err
        outputs.append((pred.read_bytes(), out))
    assert outputs[0] == outputs[1]


def test_refine_imports_no_process_pool(tmp_path):
    # the executor's module costs every command about 1 MB; only `train`
    # with workers imports it. The refine script below runs in-process.
    src = str(Path(spnkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = _REFINE_FAULTS + "print('concurrent.futures.process' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "False"


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_repeated_refine_takes_no_page_faults(tmp_path):
    # A fresh interpreter, so that pytest's own heap does not decide the count.
    # Under glibc's dynamic thresholds each 64x64 request here re-faults about
    # 400 pages of temporaries; with the policy `main` sets it reuses them.
    src = str(Path(spnkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _REFINE_FAULTS, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = [int(f) for f in done.stdout.split()]
    assert len(faults) == 6
    assert max(faults[3:]) <= 64, f"minor faults per request: {faults}"


@pytest.mark.parametrize("libc", ["unloadable", "no mallopt", 0, 1])
def test_allocator_policy_fallback_and_once_per_process(capsys, monkeypatch, libc):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return libc

    def cdll(name):
        if libc == "unloadable":
            raise OSError("no C library")
        return SimpleNamespace() if libc == "no mallopt" else SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli.keep_freed_memory.cache_clear()
    try:
        for _ in range(2):
            assert run(capsys, "verify", "--trials", "1")[0] == 0
        assert cli.keep_freed_memory() is (libc == 1)
    finally:
        cli.keep_freed_memory.cache_clear()
    # a rejected first value stops before the second; either way, once
    expected = [(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD),
                (cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD)]
    expected = {0: expected[:1], 1: expected}.get(libc, [])
    assert calls == expected
