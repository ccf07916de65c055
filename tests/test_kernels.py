import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

import kernel_reference as ref
from spongedims import _kernels


def _random_boxes(rng, count, dim):
    lo = rng.uniform(0, 1, size=(count, dim))
    hi = lo + rng.uniform(0, 0.2, size=(count, dim))
    return lo, hi


def _assert_passes_match_reference(lo_a, hi_a, index, lo_b, hi_b):
    upper, lower, _ = _kernels.bounds_pass(lo_a, hi_a, index)
    want_upper, want_lower = ref.bounds_pass(lo_a, hi_a, lo_b, hi_b)
    assert np.array_equal(upper, want_upper)
    assert np.array_equal(lower, want_lower)
    corner, _ = _kernels.corner_pass(lo_a, hi_a, index)
    assert np.array_equal(corner, ref.corner_pass(lo_a, hi_a, lo_b, hi_b))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 9])
def test_passes_match_reference(monkeypatch, dim):
    # buckets of about 3 targets and tiles of 37 gaps, so that bucket edges,
    # row chunks and candidate pieces all fall inside the sets
    monkeypatch.setattr(_kernels, "_BUCKET_SIZE", 3)
    monkeypatch.setattr(_kernels, "_TILE", 37)
    rng = np.random.default_rng(dim)
    lo_a, hi_a = _random_boxes(rng, 23, dim)
    lo_b, hi_b = _random_boxes(rng, 40, dim)
    index = _kernels.build_index([(lo_b, hi_b)])
    assert len(index.factors[0].start) > 3
    _assert_passes_match_reference(lo_a, hi_a, index, lo_b, hi_b)


@pytest.mark.parametrize("seed", range(6))
def test_chained_passes_match_reference_on_the_product(monkeypatch, seed):
    # 2 or 3 factors of 1-3 axes each, overlapping boxes off any grid: the
    # passes through the factors must give the reference sweep over the
    # flat cartesian product, array for array.
    monkeypatch.setattr(_kernels, "_BUCKET_SIZE", 3)
    monkeypatch.setattr(_kernels, "_TILE", 37)
    rng = np.random.default_rng(100 + seed)
    factors = [_random_boxes(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4))) for _ in range(2 + seed % 2)]
    rows = np.array(list(itertools.product(*(range(len(lo)) for lo, _ in factors)))).T
    lo_b = np.hstack([lo[r] for (lo, _), r in zip(factors, rows)])
    hi_b = np.hstack([hi[r] for (_, hi), r in zip(factors, rows)])
    lo_a, hi_a = _random_boxes(rng, 11, lo_b.shape[1])
    index = _kernels.build_index(factors)
    assert index.shape == lo_b.shape
    _assert_passes_match_reference(lo_a, hi_a, index, lo_b, hi_b)


def test_bounds_are_ordered():
    rng = np.random.default_rng(11)
    lo_a, hi_a = _random_boxes(rng, 80, 2)
    lo_b, hi_b = _random_boxes(rng, 120, 2)
    upper, lower, _ = _kernels.bounds_pass(lo_a, hi_a, _kernels.build_index([(lo_b, hi_b)]))
    assert (lower <= upper + 1e-12).all()
    assert (lower >= 0).all() and (upper >= 0).all()


def test_passes_count_bucket_bounds_and_candidate_pairs():
    # 16 unit targets [j, j + 1] on a line make 2 buckets of 8, with
    # bounding boxes [0, 8] and [8, 16]; the query boxes are [0, 1] and
    # [7.5, 8.5].
    lo_b = np.arange(16.0)[:, None]
    index = _kernels.build_index([(lo_b, lo_b + 1)])
    assert index.factors[0].size.tolist() == [8, 8]
    lo_a = np.array([[0.0], [7.5]])
    hi_a = lo_a + 1
    # Each of the 4 query rows (2 far, 2 centre) bounds both buckets and
    # scans the 8 members of its bucket of least bound (the first on a tie).
    # No other bucket's bound is below the least gap found (0.25 for the far
    # row of [7.5, 8.5], 0 otherwise): 4 * (2 + 8) gaps, not 4 * 16.
    upper, lower, count = _kernels.bounds_pass(lo_a, hi_a, index)
    assert upper.tolist() == [0.0, 0.5] and lower.tolist() == [0.0, 0.0]
    assert count == 40
    # The 4 corner rows 0, 7.5, 1 and 8.5 each lie in a target of their
    # bucket of least bound (the second bucket for 8.5): 4 * (2 + 8) again.
    corner, count = _kernels.corner_pass(lo_a, hi_a, index)
    assert corner.tolist() == [0.0, 0.0]
    assert count == 40
    # Times a second factor, the one box [0, 1] on a new axis, the query
    # square [0, 1]^2: each row bounds and scans the first factor as above
    # (2 + 8), then bounds the second factor's one bucket and scans its one
    # member (1 + 1).  2 rows for bounds_pass, 4 corners for corner_pass.
    index = _kernels.build_index([(lo_b, lo_b + 1), (np.zeros((1, 1)), np.ones((1, 1)))])
    assert index.shape == (16, 2)
    square = np.zeros((1, 2)), np.ones((1, 2))
    assert _kernels.bounds_pass(*square, index)[-1] == 2 * (2 + 8 + 1 + 1)
    assert _kernels.corner_pass(*square, index)[-1] == 4 * (2 + 8 + 1 + 1)


def test_bench_kernels_workload_builds_float_arrays():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    fragment, product, factors = bench._workload(4, 1)
    for lo, hi in (fragment, product, *factors):
        assert lo.dtype == hi.dtype == np.float64
        assert lo.shape == hi.shape and lo.shape[0] > 0
        assert (lo < hi).all()
    assert fragment[0].shape[1] == product[0].shape[1] == sum(lo.shape[1] for lo, _ in factors) == 3
    assert len(product[0]) == np.prod([len(lo) for lo, _ in factors])
    bench.main(["--scale-exponent", "4", "--extra-depth", "1", "--repeats", "1"])
