import numpy as np
import pytest

from spnkit.fdcheck import check_gradient


@pytest.mark.parametrize("branched", [True, False], ids=["signs", "none"])
def test_one_probe_run_per_point(branched):
    # the value and its branch come from one run: once at x, then once at
    # x + eps and once at x - eps per sampled coordinate, skipped or not
    x = np.array([1.0, -2.0, 3e-5, 0.5, -4e-5, 2.0, -0.3, 5e-5, 0.7, -1.1])
    calls = []

    def probe(a):
        calls.append(a)
        return 0.5 * float((a * np.abs(a)).sum()), (a > 0).tobytes() if branched else None

    res = check_gradient(probe, x, np.abs(x), np.random.default_rng(0), num=8)
    assert len(calls) == 1 + 2 * (res.checked + res.skipped)
    assert res.checked + res.skipped == 8
    assert (res.skipped > 0) == branched  # the entries within eps of 0 flip sign
    assert np.array_equal(calls[0], x)
    if branched:
        assert res.max_rel_err < 1e-8, str(res)
