import importlib.util
from pathlib import Path

import numpy as np
import pytest

import kernel_reference as ref
from spongedims import _kernels


def _random_boxes(rng, count, dim):
    lo = rng.uniform(0, 1, size=(count, dim))
    hi = lo + rng.uniform(0, 0.2, size=(count, dim))
    return lo, hi


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_passes_match_reference(monkeypatch, dim):
    # small tiles so that both tile edges fall inside the sets
    monkeypatch.setattr(_kernels, "_CHUNK_A", 7)
    monkeypatch.setattr(_kernels, "_CHUNK_B", 11)
    rng = np.random.default_rng(dim)
    lo_a, hi_a = _random_boxes(rng, 23, dim)
    lo_b, hi_b = _random_boxes(rng, 40, dim)

    upper, lower = _kernels.bounds_pass(lo_a, hi_a, lo_b, hi_b)
    want_upper, want_lower = ref.bounds_pass(lo_a, hi_a, lo_b, hi_b)
    assert np.array_equal(upper, want_upper)
    assert np.array_equal(lower, want_lower)
    assert np.array_equal(
        _kernels.corner_pass(lo_a, hi_a, lo_b, hi_b), ref.corner_pass(lo_a, hi_a, lo_b, hi_b)
    )
    for slack in (0.0, 1e-9):
        assert np.array_equal(
            _kernels.filter_pass(lo_a, hi_a, lo_b, hi_b, upper, slack),
            ref.filter_pass(lo_a, hi_a, lo_b, hi_b, upper, slack),
        )


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
    bench.main(["--scale-exponent", "4", "--extra-depth", "1", "--repeats", "1"])
