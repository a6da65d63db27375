import importlib.util
from pathlib import Path

import numpy as np

from spnkit import training

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _manifest(root):
    root.mkdir()
    return identity.run_entries(identity.REDUCED, root)


def test_identity_harness_sees_one_ulp(tmp_path, monkeypatch, capsys):
    first, second = _manifest(tmp_path / "a"), _manifest(tmp_path / "b")
    assert first == second
    assert {"cmd train", "file run/best", "file run/metrics.csv", "file pred.pgm",
            "file ds/manifest.txt"} <= first.keys()

    resize = training.resize_forward

    def one_ulp_up(x, out_h, out_w):
        out = resize(x, out_h, out_w)
        out.flat[0] = np.nextafter(out.flat[0], np.inf)
        return out

    monkeypatch.setattr(training, "resize_forward", one_ulp_up)
    planted = _manifest(tmp_path / "c")
    differ = identity.compare(first, planted)
    assert "file run/best" in differ
    assert not any(key.startswith("file ds/") for key in differ)

    identity.write_manifest(tmp_path / "a.txt", first)
    identity.write_manifest(tmp_path / "c.txt", planted)
    assert identity.read_manifest(tmp_path / "a.txt") == first
    capsys.readouterr()
    assert identity.main(["--compare", str(tmp_path / "a.txt"), str(tmp_path / "c.txt")]) == 1
    out = capsys.readouterr().out
    assert "differs: file run/best\n" in out
    assert out.endswith(f"{len(differ)} of {len(first)} entries differ\n")
