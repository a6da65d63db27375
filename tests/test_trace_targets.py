"""The benchmark traces functions by (module, attribute): each must exist,
be callable, and be defined or called in that module, or its trace is empty."""
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from spnkit import propagation
from spnkit.propagation import ConnectionKind, random_gates
from spnkit.stability import project_gates_cached

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_to_called_callables():
    targets = _workloads().trace_targets()
    assert targets
    for module, attr, _, _ in targets:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr} is not callable"
        source = Path(module.__file__).read_text()
        assert (fn.__module__ == module.__name__
                or re.search(rf"(?<![\w.]){attr}\(", source)), \
            f"{module.__name__} never calls {attr}"


@pytest.mark.parametrize("high", [0.3, 1.2])  # no row scaled / some rows scaled
def test_project_hook_counts_rescaled_rows(high):
    # `stability.active_frac` is read off the cache `project_gates_cached`
    # returns, on both of its paths
    kind = ConnectionKind.THREE_WAY
    g = random_gates(6, 5, 2, kind, np.random.default_rng(19), low=-high, high=high)
    rescaled = int((np.abs(g).sum(axis=4) > 1.0).sum())
    assert (rescaled > 0) == (high > 1.0)
    stats = _workloads()._project_hook((g, kind), {}, project_gates_cached(g, kind))
    assert stats == {"active": rescaled, "rows": 6 * 5 * 2 * 4}


def test_scan_gate_catches_perturbed_scans(monkeypatch):
    # the benchmark's correctness gate: 16 single-direction checks and 4
    # pooled ones, each caught by its own perturbation alone
    workloads = _workloads()
    assert workloads.scan_gate(0) == (20, [])
    for name, perturb, caught in (
            ("propagate_direction", lambda out: out + 1e-9, 16),
            ("spn_forward", lambda out: (out[0] + 1e-9, out[1]), 4)):
        with monkeypatch.context() as m:
            original = getattr(propagation, name)
            m.setattr(propagation, name,
                      lambda *a, f=original, p=perturb, **k: p(f(*a, **k)))
            attempted, failures = workloads.scan_gate(0)
        assert attempted == 20 and len(failures) == caught, (name, failures)
