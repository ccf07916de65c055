import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spongedims import _kernels


def _random_boxes(rng, count, dim):
    lo = rng.uniform(0, 1, size=(count, dim))
    hi = lo + rng.uniform(0, 0.2, size=(count, dim))
    return lo, hi


@pytest.mark.skipif(_kernels.BACKEND != "numba", reason="numba backend unavailable")
def test_backends_agree():
    rng = np.random.default_rng(9)
    lo_a, hi_a = _random_boxes(rng, 150, 3)
    lo_b, hi_b = _random_boxes(rng, 220, 3)

    up_np, low_np = _kernels._bounds_pass_numpy(lo_a, hi_a, lo_b, hi_b)
    up_nb, low_nb = _kernels._bounds_pass_njit(lo_a, hi_a, lo_b, hi_b)
    assert np.allclose(up_np, up_nb, atol=1e-12)
    assert np.allclose(low_np, low_nb, atol=1e-12)

    corners_np = _kernels._corner_pass_numpy(lo_a, hi_a, lo_b, hi_b)
    corners_nb = _kernels._corner_pass_njit(lo_a, hi_a, lo_b, hi_b)
    assert np.allclose(corners_np, corners_nb, atol=1e-12)

    keep_np = _kernels._filter_pass_numpy(lo_a, hi_a, lo_b, hi_b, up_np, 1e-9)
    keep_nb = _kernels._filter_pass_njit(lo_a, hi_a, lo_b, hi_b, up_np, 1e-9)
    assert np.array_equal(keep_np, keep_nb)


def test_bounds_are_ordered():
    rng = np.random.default_rng(11)
    lo_a, hi_a = _random_boxes(rng, 80, 2)
    lo_b, hi_b = _random_boxes(rng, 120, 2)
    upper, lower = _kernels.bounds_pass(lo_a, hi_a, lo_b, hi_b)
    assert (lower <= upper + 1e-12).all()
    assert (lower >= 0).all() and (upper >= 0).all()


def test_filter_keeps_all_relevant_targets():
    # a target equal to a query box must always survive filtering
    rng = np.random.default_rng(13)
    lo, hi = _random_boxes(rng, 60, 3)
    upper, _ = _kernels.bounds_pass(lo, hi, lo, hi)
    keep = _kernels.filter_pass(lo, hi, lo, hi, upper, 0.0)
    assert keep.all()


def test_bench_kernels_workload_builds_float_arrays():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    lo_a, hi_a, lo_b, hi_b = bench._workload(4, 1)
    for lo, hi in ((lo_a, hi_a), (lo_b, hi_b)):
        assert lo.dtype == hi.dtype == np.float64
        assert lo.shape == hi.shape and lo.shape[0] > 0 and lo.shape[1] == 3
        assert (lo < hi).all()
