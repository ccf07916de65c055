import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import kernel_reference as ref
from spongedims import _kernels
from spongedims.tangent import SWEEP_TOL


def _random_boxes(rng, count, dim):
    lo = rng.uniform(0, 1, size=(count, dim))
    hi = lo + rng.uniform(0, 0.2, size=(count, dim))
    return lo, hi


def _assert_passes_keep_the_contract(lo_a, hi_a, index, lo_b, hi_b):
    """The passes give the branch-and-bound what the reference sweep gives it, bit for bit.

    For a running best below, inside and above the reference values and
    both tolerances of the sweep: the far rows' keep mask and the
    survivors' upper bounds, and ``max(best, lower.max())`` of the centre
    and corner passes, equal the reference's; every returned value is at
    least its reference value, as a skipped row reports an achieved gap
    and a skipped corner box its upper bound.  The corner pass gets the
    reference far roots as upper bounds, with the rows shuffled, so its
    visiting order is not the row order.
    """
    want_upper, want_lower = ref.bounds_pass(lo_a, hi_a, lo_b, hi_b)
    want_corner = ref.corner_pass(lo_a, hi_a, lo_b, hi_b)
    values = np.concatenate([want_upper, want_lower, want_corner])
    shuffle = np.random.default_rng(len(lo_a)).permutation(len(lo_a))
    corner = np.empty_like(want_corner)
    for best in (0.0, float(np.median(values)), 2.0 * float(values.max())):
        for tol in (0.0, SWEEP_TOL):
            upper, lower, _ = _kernels.bounds_pass(lo_a, hi_a, index, best, tol)
            assert (upper >= want_upper).all() and (lower >= want_lower).all()
            reached = max(best, float(lower.max()))
            assert reached == max(best, float(want_lower.max()))
            keep = upper > reached + tol
            assert np.array_equal(keep, want_upper > reached + tol)
            assert np.array_equal(upper[keep], want_upper[keep])
            args = lo_a[shuffle], hi_a[shuffle], index, best, want_upper[shuffle]
            corner[shuffle], _ = _kernels.corner_pass(*args)
            assert (corner >= want_corner).all()
            assert max(best, float(corner.max())) == max(best, float(want_corner.max()))


def _assert_tracked_boxes_attain(lo_a, hi_a, index, factors):
    """The boxes the centre pass tracks attain its reported gaps bit for bit, chained over ``factors``.

    For a running best below, inside and above the reference centre
    values, so that blocks decided by their first leaf are met too: per
    centre row, padded rows included, the gaps to its boxes, added one
    axis at a time in axis order as the reference adds them, are the gap
    the pass reports.
    """
    centers = _kernels._blocked(0.5 * (lo_a + hi_a), _kernels._BLOCK)
    want = ref.bounds_pass(lo_a, hi_a, *_flat_product(factors))[1]
    for best in (0.0, float(np.median(want)), 2.0 * float(want.max())):
        gaps, _, boxes = _kernels._min_gap(centers, centers, index, best, rise=True, track=True)
        assert boxes.shape == (len(centers), len(factors))
        for c, gap, row in zip(centers.tolist(), gaps.tolist(), boxes.tolist()):
            chained, axis = 0.0, 0
            for (lo, hi), b in zip(factors, row):
                for k in range(lo.shape[1]):
                    f = max(lo[b, k] - c[axis], c[axis] - hi[b, k])
                    if f > 0.0:
                        chained += f * f
                    axis += 1
            assert chained == gap


def _small_blocks(monkeypatch):
    # leaves of 3 targets, blocks of 2 query rows and tiles of 37 lanes, so
    # that padded lanes, short blocks, row chunks and candidate pieces all
    # fall inside the sets
    monkeypatch.setattr(_kernels, "_LEAF", 3)
    monkeypatch.setattr(_kernels, "_BLOCK", 2)
    monkeypatch.setattr(_kernels, "_TILE", 37)


def _flat_product(factors):
    """The (lo, hi) arrays of the cartesian product of ``factors``, first factor slowest."""
    rows = np.array(list(itertools.product(*(range(len(lo)) for lo, _ in factors)))).T
    lo_b = np.hstack([lo[r] for (lo, _), r in zip(factors, rows)])
    return lo_b, np.hstack([hi[r] for (_, hi), r in zip(factors, rows)])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 9])
def test_passes_match_reference(monkeypatch, dim):
    _small_blocks(monkeypatch)
    rng = np.random.default_rng(dim)
    lo_a, hi_a = _random_boxes(rng, 23, dim)
    lo_b, hi_b = _random_boxes(rng, 40, dim)
    index = _kernels.build_index([(lo_b, hi_b)])
    factor = index.factors[0]
    assert factor.lo.shape[1:] == (3, 14)
    # the last leaf holds box 39 alone and repeats it in its two padded lanes
    assert (factor.lo[:, 1:, -1] == lo_b[-1, :, None]).all() and (factor.hi[:, 1:, -1] == hi_b[-1, :, None]).all()
    # each leaf's bounding box is the min / max over its real members
    assert np.array_equal(factor.leaf_lo, np.array([lo_b[j : j + 3].min(axis=0) for j in range(0, 40, 3)]).T)
    assert np.array_equal(factor.leaf_hi, np.array([hi_b[j : j + 3].max(axis=0) for j in range(0, 40, 3)]).T)
    _assert_passes_keep_the_contract(lo_a, hi_a, index, lo_b, hi_b)
    _assert_tracked_boxes_attain(lo_a, hi_a, index, [(lo_b, hi_b)])


@pytest.mark.parametrize("seed", range(6))
def test_chained_passes_match_reference_on_the_product(monkeypatch, seed):
    # 2 or 3 factors of 1-3 axes each, overlapping boxes off any grid: the
    # passes through the factors must give the branch-and-bound what the
    # reference sweep over the flat cartesian product gives it.
    _small_blocks(monkeypatch)
    rng = np.random.default_rng(100 + seed)
    factors = [_random_boxes(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4))) for _ in range(2 + seed % 2)]
    lo_b, hi_b = _flat_product(factors)
    lo_a, hi_a = _random_boxes(rng, 11, lo_b.shape[1])
    index = _kernels.build_index(factors)
    assert index.shape == lo_b.shape
    _assert_passes_keep_the_contract(lo_a, hi_a, index, lo_b, hi_b)
    _assert_tracked_boxes_attain(lo_a, hi_a, index, factors)


@pytest.mark.parametrize("seed", range(6))
def test_passes_do_not_depend_on_row_order(monkeypatch, seed):
    # Row order decides only how tight the block and leaf bounds are, never
    # what the branch-and-bound reads.  Lattice cells listed in order make
    # tight leaves; with every factor's target rows shuffled and the query
    # rows reversed, the passes must still keep the contract against the
    # reference sweep.
    _small_blocks(monkeypatch)
    rng = np.random.default_rng(200 + seed)
    factors = []
    for _ in range(2):
        d = int(rng.integers(1, 3))
        cells = np.array(list(itertools.product(range(3), repeat=d)), dtype=np.float64)
        cells = cells[rng.random(len(cells)) < 0.7] if seed % 2 else cells
        factors.append((cells / 3, (cells + 1) / 3))
    lo_b, hi_b = _flat_product(factors)
    lo_a, hi_a = _random_boxes(rng, 13, lo_b.shape[1])
    shuffled = [(lo[p], hi[p]) for lo, hi in factors for p in [rng.permutation(len(lo))]]
    index = _kernels.build_index(shuffled)
    _assert_passes_keep_the_contract(lo_a[::-1], hi_a[::-1], index, lo_b, hi_b)
    _assert_tracked_boxes_attain(lo_a[::-1], hi_a[::-1], index, shuffled)


def test_dense_scan_does_not_depend_on_pair_order(monkeypatch):
    # _dense lowers each block's rows to their least gaps over every
    # (block, leaf) pair it is given.  The pairs of 5 blocks and 7 leaves
    # shuffled, so a tile of 6 pairs can hold one block twice or more, must
    # give the floats of the pairs sorted by block and of a brute sweep, and
    # the boxes tracked under either order must attain them: real boxes,
    # never the padded lane of the last leaf, which repeats box 19.
    _small_blocks(monkeypatch)
    rng = np.random.default_rng(7)
    lo_b, hi_b = _random_boxes(rng, 20, 2)
    factor = _kernels.build_index([(lo_b, hi_b)]).factors[0]
    x = rng.uniform(0, 1, size=(2, 2, 5))  # (axes, _BLOCK, blocks)
    y = x + rng.uniform(0, 0.2, size=x.shape)
    acc = rng.uniform(0, 0.1, size=(2, 5))
    blocks, leaves = np.divmod(np.arange(5 * 7), 7)
    shuffle = rng.permutation(len(blocks))
    sorted_best, shuffled_best = np.full((2, 5), np.inf), np.full((2, 5), np.inf)
    sorted_boxes, shuffled_boxes = np.full((2, 5), -1), np.full((2, 5), -1)
    _kernels._dense(x, y, acc, factor, blocks, leaves, sorted_best, sorted_boxes)
    _kernels._dense(x, y, acc, factor, blocks[shuffle], leaves[shuffle], shuffled_best, shuffled_boxes)
    gap = np.maximum(np.maximum(lo_b - x.T[..., None, :], y.T[..., None, :] - hi_b), 0.0) ** 2
    sums = acc.T[..., None] + gap[..., 0] + gap[..., 1]  # (blocks, _BLOCK, boxes)
    brute = sums.min(axis=-1).T
    assert np.array_equal(sorted_best, brute)
    assert np.array_equal(shuffled_best, sorted_best)
    for boxes in (sorted_boxes, shuffled_boxes):
        assert ((0 <= boxes) & (boxes < 20)).all()
        attained = np.take_along_axis(sums, boxes.T[..., None], axis=-1)[..., 0].T
        assert np.array_equal(attained, brute)


def test_bounds_are_ordered():
    rng = np.random.default_rng(11)
    lo_a, hi_a = _random_boxes(rng, 80, 2)
    lo_b, hi_b = _random_boxes(rng, 120, 2)
    upper, lower, _ = _kernels.bounds_pass(lo_a, hi_a, _kernels.build_index([(lo_b, hi_b)]), 0.0, 0.0)
    assert (lower <= upper + 1e-12).all()
    assert (lower >= 0).all() and (upper >= 0).all()


def test_passes_count_block_bounds_and_scanned_lanes(monkeypatch):
    # Leaves of 8 and blocks of 2: the 16 unit targets [j, j + 1] on a line
    # make 2 leaves with bounding boxes [0, 8] and [8, 16].  The query boxes
    # are [0, 1] and [7.5, 8.5].  A pass counts, per block, one gap per leaf
    # bound and 2 * 8 = 16 lanes per leaf it scans.
    monkeypatch.setattr(_kernels, "_LEAF", 8)
    monkeypatch.setattr(_kernels, "_BLOCK", 2)
    lo_b = np.arange(16.0)[:, None]
    index = _kernels.build_index([(lo_b, lo_b + 1)])
    assert index.factors[0].leaf_lo.tolist() == [[0.0, 8.0]] and index.factors[0].leaf_hi.tolist() == [[8.0, 16.0]]
    lo_a = np.array([[0.0], [7.5]])
    hi_a = lo_a + 1
    # bounds_pass has one block of centres 0.5, 8, bounded from (8, 0.5) by
    # 0 and 0 (a tie takes the first leaf).  It scans the first leaf, whose
    # least gaps 0, 0 are attained by the targets [0, 1] and [7, 8], and at
    # the cut 0 it scans no other leaf: 2 + 16 gaps.  The settle step takes
    # the far rows (x, y) = (0, 1), (7.5, 8.5) to those targets, one gap
    # each: 0, within the cut, settles the first row, and 0.5**2 leaves the
    # second.  The second alone, as a block of it twice, is bounded from
    # (7.5, 8.5) by 0.5**2 and 0.5**2, scans the first leaf, least gap
    # 0.25, and no other bound is below it: 2 + 16.  So 2 * (2 + 16) + 2 =
    # 38 gaps, against 36 when both far rows are scanned.
    upper, lower, count = _kernels.bounds_pass(lo_a, hi_a, index, 0.0, 0.0)
    assert upper.tolist() == [0.0, 0.5] and lower.tolist() == [0.0, 0.0]
    assert count == 2 * (2 + 16) + 2
    # The far roots 0 and 0.5 are the boxes' exact upper bounds.  corner_pass
    # visits [7.5, 8.5] first, alone: its block of corners 7.5, 8.5 is
    # bounded by 0 and 0 (from (8.5, 7.5)), scans the first leaf and finds
    # 0 and 0.25 for 8.5; the second leaf's bound 0 is below 0.25, so it
    # scans that leaf too, 2 + 2 * 16 gaps, and the running maximum stays 0.
    # [0, 1] has upper bound 0, at the running maximum, so it is skipped and
    # reports 0: 34 gaps.  The corner scan of both boxes adds the block of
    # corners 0, 1, bounded by 0 and 7**2, which scans the first leaf only:
    # 2 * 2 + 3 * 16 = 52.
    corner, count = _kernels.corner_pass(lo_a, hi_a, index, 0.0, upper)
    assert corner.tolist() == [0.0, 0.0]
    assert count == 2 + 2 * 16
    assert _kernels._corner_max(lo_a, hi_a, index, 0.0)[-1] == 2 * 2 + 3 * 16
    # With a running best of 0.5 both upper bounds are at or below it: no
    # box is visited, each reports its upper bound, 0 gaps.  In the corner
    # scan of both boxes from the cut 0.5 the block of corners 7.5, 8.5 is
    # decided by its first leaf: its largest first-leaf gap, 0.5 for the
    # corner 8.5, is at most the cut, so no row of it can raise the
    # maximum.  It skips the second leaf and reports 0.5: 2 * 2 + 2 * 16 =
    # 36 gaps, and max(best, lower.max()) is 0.5 either way.
    corner, count = _kernels.corner_pass(lo_a, hi_a, index, 0.5, upper)
    assert corner.tolist() == [0.0, 0.5] and count == 0
    corner, count = _kernels._corner_max(lo_a, hi_a, index, 0.5)
    assert corner.tolist() == [0.0, 0.5]
    assert count == 2 * 2 + 2 * 16
    # The corner rows are box-major.  For [0, 1] and [14, 15] the blocks
    # hold corners 0, 1, bounded by 0 and 7**2, and 14, 15, bounded by
    # 6**2 and 0; each scans its first leaf only, exactly: 2 * (2 + 16) = 36
    # gaps.  Blocks of the same corner of both boxes, 0, 14 and 1, 15,
    # would be bounded by 0 on both leaves and scan both: 2 * (2 + 2 * 16).
    far_apart = np.array([[0.0], [14.0]])
    corner, count = _kernels._corner_max(far_apart, far_apart + 1, index, 0.0)
    assert corner.tolist() == [0.0, 0.0] and count == 2 * (2 + 16)
    # Times a second factor, the one box [0, 1] on a new axis (a factor of
    # fewer boxes than a leaf is one leaf of its own size, here 1 lane), the
    # query square [0, 1]^2: each block bounds and scans the first factor's
    # first leaf as above (2 + 16), then bounds and scans the second
    # factor's one leaf (1 + 2).  bounds_pass has one block of centre rows;
    # the far row's gap to the centre's targets [0, 1] and [0, 1], one gap
    # per factor, is 0, so it settles and no far row is scanned: 2 + 16 +
    # 1 + 2 + 2 = 23 gaps, against 42 when it is scanned.  Its upper bound
    # 0 is at the best 0, so corner_pass skips it; the corner scan has two
    # blocks of its 4 corners.
    index = _kernels.build_index([(lo_b, lo_b + 1), (np.zeros((1, 1)), np.ones((1, 1)))])
    assert index.shape == (16, 2)
    square = np.zeros((1, 2)), np.ones((1, 2))
    assert _kernels.bounds_pass(*square, index, 0.0, 0.0)[-1] == 2 + 16 + 1 + 2 + 2
    corner, count = _kernels.corner_pass(*square, index, 0.0, np.zeros(1))
    assert corner.tolist() == [0.0] and count == 0
    assert _kernels._corner_max(*square, index, 0.0)[-1] == 2 * (2 + 16 + 1 + 2)


def test_far_rows_settle_at_their_centres_box(monkeypatch):
    # Leaves and blocks of 2, tiles of 1 lane (so the settle step takes
    # one row per chunk).  The targets, one leaf: X the point (1, 1) and
    # Y = [0, 2] x [0.9, 0.95].  Query A is Y itself: its centre lies in Y
    # and not at X, so it tracks Y, and its far gap to Y is 0.  Query B is
    # [0, 2]^2: its centre (1, 1) is X, so it tracks X, whose far gap is
    # sqrt(2), though its far gap to Y is only 1.05.  The centre pass
    # evaluates 1 + 2 * 2 = 5 gaps and the settle step one per row.
    monkeypatch.setattr(_kernels, "_LEAF", 2)
    monkeypatch.setattr(_kernels, "_BLOCK", 2)
    monkeypatch.setattr(_kernels, "_TILE", 1)
    lo_b, hi_b = np.array([[1.0, 1.0], [0.0, 0.9]]), np.array([[1.0, 1.0], [2.0, 0.95]])
    lo_a, hi_a = np.array([[0.0, 0.9], [0.0, 0.0]]), np.array([[2.0, 0.95], [2.0, 2.0]])
    index = _kernels.build_index([(lo_b, hi_b)])
    want_upper, want_lower = ref.bounds_pass(lo_a, hi_a, lo_b, hi_b)
    assert want_upper.tolist() == [0.0, math.sqrt(1.05**2)] and want_lower.tolist() == [0.0, 0.0]
    scanned = []
    min_gap = _kernels._min_gap

    def recorded(x, y, index, cut, rise, track=False):
        if not rise:
            scanned.append(x.tolist())
        return min_gap(x, y, index, cut, rise, track)

    monkeypatch.setattr(_kernels, "_min_gap", recorded)
    # At a best of 1.1, A settles and B does not (sqrt(2) > 1.1): only B's
    # far row is scanned, as a block of B twice, 1 + 2 * 2 gaps, and Y
    # prunes it.  upper is exact.
    upper, lower, count = _kernels.bounds_pass(lo_a, hi_a, index, 1.1, 0.0)
    assert scanned == [[[0.0, 0.0], [0.0, 0.0]]]
    assert upper.tolist() == want_upper.tolist() and lower.tolist() == want_lower.tolist()
    assert count == 5 + 2 + 5
    # At a best of 1.5 both rows settle and no far row is scanned: B reports
    # its achieved sqrt(2), above its exact 1.05 and within the cut, so it is
    # pruned all the same.
    scanned.clear()
    upper, lower, count = _kernels.bounds_pass(lo_a, hi_a, index, 1.5, 0.0)
    assert scanned == [[]]
    assert upper.tolist() == [0.0, math.sqrt(2.0)] and lower.tolist() == want_lower.tolist()
    assert count == 5 + 2


def _two_points():
    # The target points 0 and 10 on a line: fewer boxes than a leaf, so one
    # leaf of 2 lanes.  A point x is min(|x|, |x - 10|) from them, and the
    # query box [p, q] has the upper bound min(max(-p, q), max(10 - p, q - 10)).
    # A group of at most 4 boxes is one block of 8 corner rows: 1 leaf bound
    # and 8 * 2 lanes, 17 gaps.
    points = np.array([[0.0], [10.0]])
    return _kernels.build_index([(points, points)]), points


def _corner_call(lo, hi, best):
    """corner_pass on the 1-d boxes [lo, hi] against the two points, from the reference far roots."""
    index, points = _two_points()
    lo_a, hi_a = np.array(lo)[:, None], np.array(hi)[:, None]
    upper = ref.bounds_pass(lo_a, hi_a, points, points)[0]
    corner, count = _kernels.corner_pass(lo_a, hi_a, index, best, upper)
    return corner, count, upper, ref.corner_pass(lo_a, hi_a, points, points)


def test_corner_pass_skips_boxes_below_a_top_corner_that_attains_its_upper_bound():
    # [0, 4] has upper bound 4, attained by its corner 4.  Visited first,
    # though it is the second row, it lifts the running maximum to 4, and
    # every other box (upper bounds 3, 3 and 2.5) is skipped and reports its
    # upper bound: only the top group's block of corner rows is evaluated.
    corner, count, upper, want = _corner_call([1.0, 0.0, 7.0, 2.0], [3.0, 4.0, 9.0, 2.5], 0.0)
    assert upper.tolist() == [3.0, 4.0, 3.0, 2.5] and want[1] == 4.0
    assert corner.tolist() == [3.0, 4.0, 3.0, 2.5]
    assert count == 17


def test_corner_pass_visits_a_box_whose_upper_bound_passes_the_top_corner():
    # [4, 6] has the top upper bound, 6, but its corners reach only 4.  The
    # second group is cut to [4.5, 5.2], whose upper bound 5.2 is above 4
    # (its corners reach 4.8, which wins), and leaves out [1, 3], whose
    # upper bound 3 is not: two blocks, 2 * 17 gaps.
    corner, count, upper, want = _corner_call([4.0, 4.5, 1.0], [6.0, 5.2, 3.0], 0.0)
    assert upper.tolist() == [6.0, 5.2, 3.0]
    assert corner.tolist() == [4.0, want[1], 3.0] and want.max() == want[1] > 4.0
    assert count == 2 * 17
    # The skip takes no tolerance: [5 - a, 5 + a] for a = 2**-42 has upper
    # bound 5 + a and corners 5 - a, far inside SWEEP_TOL of each other.
    # From a best of 5 - 8a it is visited, and the maximum is its corner.
    a = 2.0**-42
    corner, count, upper, want = _corner_call([5.0 - a], [5.0 + a], 5.0 - 8 * a)
    assert want[0] < upper[0] < want[0] + SWEEP_TOL
    assert corner.tolist() == want.tolist() and count == 17


def test_corner_pass_skips_a_box_whose_upper_bound_is_the_running_maximum(monkeypatch):
    # [4, 6] lifts the running maximum to 4; [0, 4]'s upper bound is 4, at
    # it, so it is skipped: 17 gaps, and the maximum stays 4.
    corner, count, upper, want = _corner_call([4.0, 0.0], [6.0, 4.0], 0.0)
    assert upper.tolist() == [6.0, 4.0] and corner.tolist() == [4.0, 4.0] == want.tolist()
    assert count == 17
    # Seven copies of [4, 6] never lift the running maximum to their upper
    # bound 6, so all are visited, in groups of 1, 2 and 4 boxes.
    groups = []
    corner_max = _kernels._corner_max
    monkeypatch.setattr(_kernels, "_corner_max", lambda lo, *rest: groups.append(len(lo)) or corner_max(lo, *rest))
    corner, count, _, _ = _corner_call([4.0] * 7, [6.0] * 7, 0.0)
    assert groups == [1, 2, 4] and corner.tolist() == [4.0] * 7
    assert count == 3 * 17


def test_cut_waits_for_the_last_factor(monkeypatch):
    # Leaves of 2: the first factor's leaf [0, 0.1], [0.9, 1] has the least
    # bound (0) from the point p = (0.5, 0.5) but its gaps are 0.4**2; the
    # leaf [0.7, 0.8] twice, bound and gap 0.2**2, holds the least gap.  The
    # second factor is [0.8, 0.9], gap 0.3**2.  The exact distance is
    # sqrt(0.2**2 + 0.3**2) ~ 0.36, below the cut 0.45.  The first factor's
    # first leaf alone gives 0.4 <= 0.45, yet continued over the second
    # factor it gives 0.5 > 0.45: a cut at the first factor would skip the
    # second leaf, keep the point and lift the corner maximum to 0.5.
    monkeypatch.setattr(_kernels, "_LEAF", 2)
    monkeypatch.setattr(_kernels, "_BLOCK", 2)
    first = np.array([[0.0], [0.9], [0.7], [0.7]]), np.array([[0.1], [1.0], [0.8], [0.8]])
    second = np.array([[0.8]]), np.array([[0.9]])
    point = np.array([[0.5, 0.5]])
    index = _kernels.build_index([first, second])
    assert index.factors[0].leaf_lo.tolist() == [[0.0, 0.7]]
    best = cut = 0.45
    loose_leaf = (first[0][:2], first[1][:2])
    assert ref.bounds_pass(point[:, :1], point[:, :1], *loose_leaf)[0][0] <= cut
    assert ref.bounds_pass(point, point, *_flat_product([loose_leaf, second]))[0][0] > cut
    exact = ref.bounds_pass(point, point, *_flat_product([first, second]))[0]
    assert exact[0] < cut
    upper, lower, _ = _kernels.bounds_pass(point, point, index, best, 0.0)
    assert upper.tolist() == lower.tolist() == exact.tolist()
    assert _kernels._corner_max(point, point, index, best)[0].tolist() == exact.tolist()


def test_refinement_finds_a_sup_inside_a_box():
    # [0, 1] against [-1/8, 0] and [0.7, 0.8]: the sup is 0.35, at x = 0.35,
    # which is no dyadic point, so no corner or centre of any split box lies
    # on it.  Only splits whose halves cover every box find it within tol.
    lo_a, hi_a = np.array([[0.0]]), np.array([[1.0]])
    lo_b, hi_b = np.array([[-0.125], [0.7]]), np.array([[0.0], [0.8]])
    tol, rounding = 1e-9, math.ulp(0.35)
    for found in (
        _kernels._directed_distance(lo_a, hi_a, [(lo_b, hi_b)], tol),
        ref.directed_distance(lo_a, hi_a, lo_b, hi_b, tol),
    ):
        assert 0.35 - tol - rounding <= found <= 0.35 + rounding


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
