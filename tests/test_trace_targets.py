"""The benchmark traces functions by (module, attribute): each must exist,
be callable, and be defined or called in that module, or its trace is empty."""
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trace_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.trace_targets()


def test_trace_targets_resolve_to_called_callables():
    targets = _trace_targets()
    assert targets
    for module, attr, _, _ in targets:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr} is not callable"
        source = Path(module.__file__).read_text()
        assert (fn.__module__ == module.__name__
                or re.search(rf"(?<![\w.]){attr}\(", source)), \
            f"{module.__name__} never calls {attr}"
