"""Smoke test of the benchmark harness itself, at toy input sizes.

    python3 perfbench/smoke.py            # or: python -m pytest perfbench/smoke.py

Checks that every workload runs with tracing off and on, that each emits
every metric BENCHMARK.json names with its unit, that the workload's own
named figures are present, that the correctness gate catches a perturbed
scan, and that a directory without the program makes the benchmark fail
without a result. The file name keeps it out of the repository's default
test collection; it takes about ten seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = ("setup_s", "failed_frac", "peak_rss_mb")
NAMED = {
    "train-64-three": ("train_samples_per_s", "train_epoch_s_p50", "train_loss",
                       "train_val_iou"),
    "refine-128-one": ("refine_ms_p50", "refine_ms_p90", "refine_iou"),
    "propagate-256-three": ("propagate_ms_p50", "propagate_ms_p90",
                            "propagate_mpx_per_s"),
}


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_metrics(result, wanted):
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in wanted}
    assert set(result["metrics"]) == set(units)
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name], name
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name


def test_every_workload_emits_every_metric():
    assert set(NAMED) == {w["name"] for w in SPEC["workloads"]}
    for workload in NAMED:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            _check_metrics(json.loads(lines[-1]), wanted)
            report = json.loads(lines[-2])["report"]
            for name in COMMON + NAMED[workload]:
                assert report[name]["unit"], (workload, name)
            if trace == 0:
                for name, m in json.loads(lines[-1])["metrics"].items():
                    assert m["value"] > 0, (workload, name)


def test_gate_catches_perturbed_scan():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from spnkit import propagation

    assert workloads.scan_gate(0) == (20, [])
    for name, perturb, caught in (
            ("propagate_direction", lambda out: out + 1e-9, 16),
            ("spn_forward", lambda out: (out[0] + 1e-9, out[1]), 4)):
        original = getattr(propagation, name)
        setattr(propagation, name, lambda *a, **k: perturb(original(*a, **k)))
        try:
            attempted, failures = workloads.scan_gate(0)
        finally:
            setattr(propagation, name, original)
        assert attempted == 20 and len(failures) == caught, (name, failures)


def test_fails_without_program():
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("refine-128-one", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_every_workload_emits_every_metric,
                 test_gate_catches_perturbed_scan, test_fails_without_program):
        test()
        print(f"{test.__name__}: ok")
