"""Library entry points reject a bad argument with their own error class and
a message naming the defect. One row per rejection branch; `TMP` stands for
the test's temporary directory."""
import numpy as np
import pytest

from spnkit.affinity import DenseAffinity, build_dense_affinity, unvec_map, vec_map
from spnkit.dataset import (gen_toy_dataset, labels_to_map, make_coarse, one_hot,
                            read_manifest)
from spnkit.errors import ConfigError, DimensionError, FormatError
from spnkit.fdcheck import check_gradient
from spnkit.guidance import conv3x3_forward
from spnkit.propagation import ConnectionKind, Direction, spn_forward, step_matrix
from spnkit.stability import gate_abs_sums
from spnkit.tensor import write_array

THREE = ConnectionKind.THREE_WAY
LTR = Direction.LEFT_TO_RIGHT
TMP = object()


def _read_manifest_text(root, text):
    (root / "manifest.txt").write_text(text)
    return read_manifest(root)


def _check(x, analytic, mask=None):
    return check_gradient(lambda a: (float(a.sum()), None), x, analytic,
                          np.random.default_rng(0), mask=mask)


X = np.zeros((3, 4, 2))
F64 = np.zeros((2, 3))

ROWS = [
    ("spn_forward-gates-not-like-input", spn_forward,
     (X, np.zeros((3, 4, 1, 4, 3)), THREE), DimensionError,
     "gates shaped (3, 4, 1, 4, 3), expected (3, 4, 2, 4, 3)"),
    ("spn_forward-units-0", spn_forward, (X, np.zeros((3, 4, 2, 4, 3)), THREE, 0),
     DimensionError, "units must be >= 1"),
    ("step_matrix-slots", step_matrix, (np.zeros((5, 1)), THREE), DimensionError,
     "gate line has 1 slots, kind needs 3"),
    ("vec_map-rank-2", vec_map, (np.zeros((3, 4)), LTR), DimensionError,
     "vec_map expects (H, W, C)"),
    *((f"unvec_map-rows-{n}", unvec_map, (np.zeros((n, 2)), 3, 4, LTR), DimensionError,
       "unvec_map expects (H*W, C)") for n in (11, 13)),
    ("DenseAffinity.apply-grid", DenseAffinity(np.zeros((2, 12, 12)), 4, 3, LTR).apply,
     (X,), DimensionError, "input and gate grids disagree"),
    ("build_dense_affinity-slots", build_dense_affinity,
     (np.zeros((3, 4, 2, 1)), LTR, THREE), DimensionError,
     "gates shaped (3, 4, 2, 1), expected (H, W, C, 3)"),
    ("gate_abs_sums-shape", gate_abs_sums, (np.zeros((3, 4, 2, 4, 1)), THREE),
     DimensionError, "gates shaped (3, 4, 2, 4, 1), expected (H, W, C, 4, 3)"),
    ("conv-channels", conv3x3_forward, (X, np.zeros((3, 3, 3, 4)), np.zeros(4)),
     DimensionError, "conv shapes disagree: x (3, 4, 2), w (3, 3, 3, 4)"),
    ("conv-stride-3", conv3x3_forward, (X, np.zeros((3, 3, 2, 4)), np.zeros(4), 3),
     DimensionError, "stride must be 1 or 2"),
    ("write_array-int", write_array, (TMP, np.zeros(3, dtype=np.int32)),
     DimensionError, "only float32/float64 arrays are writable, got int32"),
    ("write_array-rank-0", write_array, (TMP, np.zeros((), dtype=np.float32)),
     DimensionError, "rank must be in [1, 8], got 0"),
    ("write_array-rank-9", write_array, (TMP, np.zeros((1,) * 9, dtype=np.float32)),
     DimensionError, "rank must be in [1, 8], got 9"),
    ("write_array-zero-dim", write_array, (TMP, np.zeros((2, 0), dtype=np.float32)),
     DimensionError, "arrays with a zero dimension are not writable"),
    ("check_gradient-float32", _check, (F64.astype(np.float32), F64), DimensionError,
     "gradient checks must run on float64 inputs"),
    ("check_gradient-analytic-shape", _check, (F64, np.zeros(6)), DimensionError,
     "analytic gradient shape does not match input"),
    ("check_gradient-empty-mask", _check, (F64, F64, F64 != 0.0), DimensionError,
     "no eligible coordinates to check"),
    ("one_hot-label-3-of-3", one_hot, (np.array([[0, 3]]), 3), DimensionError,
     "label values outside [0, classes)"),
    ("make_coarse-factor-0", make_coarse, (np.zeros((8, 8), dtype=np.int32), 2, 0),
     ConfigError, "factor must be >= 1"),
    ("labels_to_map-256", labels_to_map, (np.array([[0, 256]]),), DimensionError,
     "labels must fit in a byte"),
    ("gen_toy_dataset-n_val-0", gen_toy_dataset, (TMP, 2, 0, 16, 2, 0), ConfigError,
     "need at least one training and one validation item"),
    ("read_manifest-missing", read_manifest, (TMP,), FormatError, "no manifest.txt under"),
    ("read_manifest-format", _read_manifest_text,
     (TMP, "format=spn-dataset-v9\nclasses=2\n"), FormatError,
     "unsupported dataset format 'spn-dataset-v9'"),
]


@pytest.mark.parametrize("func,args,error,fragment", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_rejects_bad_argument(tmp_path, func, args, error, fragment):
    args = [tmp_path if a is TMP else a for a in args]
    with pytest.raises(error) as info:
        func(*args)
    assert fragment in str(info.value)
