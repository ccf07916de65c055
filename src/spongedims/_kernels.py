"""Distance passes of the Hausdorff branch-and-bound: query boxes against indexed target boxes.

Every pass asks, per query row ``(x, y)``, for the least squared gap
``sum_k max(lo_b - x, y - hi_b, 0)**2`` over the target boxes
``[lo_b, hi_b]``.  A point p is ``(p, p)``; the farthest point of query
box a from a target is ``(lo_a, hi_a)``.  The squared axis gaps are added
one axis at a time, in axis order, for every d.

The target set is a product of factors F_1 x ... x F_L, each on its own
consecutive axes; a plain box set is the one-factor case.  A product box
``(b_1, ..., b_L)`` has the axes of b_1 first, so its gap sum is the gap
sum over b_1, continued over b_2, and so on.  Float addition is monotone,
so for any fixed later terms the least in-order sum over b_1 comes from
the least partial sum over b_1; by induction the least gap over the
product is the chained minimum: each query row's least sum over F_1,
then, starting from it, its least continued sum over F_2, and so on.
That is the brute-force sweep's float, bit for bit, computed from
sum_l |F_l| boxes instead of prod_l |F_l|.

``build_index`` sorts each factor's boxes into a grid of buckets, about
``_BUCKET_SIZE`` boxes each, and keeps each bucket's bounding box.  The
gap from a query row to a bucket's bounding box, continued from the
row's running minimum, is, in float64, a lower bound on the continued
gap to every member, because every operation in the sum is monotone
under rounding.  Within a factor, a query row takes the exact least gap
U over the members of its bucket of least bound, then scans only the
buckets whose bound is below U.  The member attaining the least gap has
gap g <= U, so either g == U or its bucket's bound is <= g < U.  The
minima are therefore the chained minima above.  Pairs are gathered at
most ``_TILE`` at a time, so memory stays bounded when pruning fails.

* ``bounds_pass``: per query box, an upper bound (farthest corner) and an
  achieved lower bound (centre).
* ``corner_pass``: tighter achieved lower bounds from all 2**d corners.

Each pass also returns the number of gaps it evaluated, summed over the
factors: one per query row and bucket, plus one per candidate pair.
"""

import math
from dataclasses import dataclass

import numpy as np

BACKEND = "numpy"

_BUCKET_SIZE = 8
_TILE = 1 << 19


@dataclass(frozen=True, eq=False)
class Factor:
    """One factor's boxes, on the product axes ``axes``, sorted by bucket.

    The corner arrays are axis-major, one row per axis, so a pass reads
    each axis contiguously: ``lo`` and ``hi`` are (axes, boxes), and
    ``bucket_lo`` and ``bucket_hi`` (axes, buckets).  Bucket b holds
    columns ``start[b]`` to ``start[b] + size[b]``.
    """

    axes: slice
    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    size: np.ndarray
    bucket_lo: np.ndarray
    bucket_hi: np.ndarray


@dataclass(frozen=True, eq=False)
class TargetIndex:
    """The target set as a product of indexed factors, in axis order."""

    factors: tuple[Factor, ...]

    @property
    def shape(self) -> tuple[int, int]:
        """(product boxes, axes); ``perfbench/tracing.py`` reads the target count here."""
        return math.prod(f.lo.shape[1] for f in self.factors), self.factors[-1].axes.stop


def build_index(factors) -> TargetIndex:
    """Index the product of the box sets ``factors``, (lo, hi) pairs in axis order, factor by factor."""
    built, first = [], 0
    for lo_b, hi_b in factors:
        axes = slice(first, first + lo_b.shape[1])
        built.append(_bucket(axes, lo_b, hi_b))
        first = axes.stop
    return TargetIndex(tuple(built))


def _bucket(axes, lo_b, hi_b) -> Factor:
    """Bucket one factor's boxes on a grid over their lower corners.

    The grid has about m / ``_BUCKET_SIZE`` cells.  Each axis gets an
    equal share of the splits, capped by its number of distinct lower
    corners (axes with fewer go first and pass their unused share on);
    the distinct values of an axis are split into runs of equal length.
    """
    m, d = lo_b.shape
    ranks, distinct = [], []
    for k in range(d):
        values, rank = np.unique(lo_b[:, k], return_inverse=True)
        ranks.append(rank.reshape(-1))
        distinct.append(len(values))
    splits = [1] * d
    want = max(1.0, m / _BUCKET_SIZE)
    for i, k in enumerate(sorted(range(d), key=distinct.__getitem__)):
        splits[k] = int(min(distinct[k], max(1, round(want ** (1 / (d - i))))))
        want /= splits[k]
    key = np.zeros(m, dtype=np.int64)
    for k in range(d):
        key = key * splits[k] + ranks[k] * splits[k] // distinct[k]
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    lo, hi = lo_b[order].T.copy(), hi_b[order].T.copy()
    bucket_lo, bucket_hi = np.minimum.reduceat(lo, start, axis=1), np.maximum.reduceat(hi, start, axis=1)
    return Factor(axes, lo, hi, start, np.diff(np.append(start, m)), bucket_lo, bucket_hi)


def _gaps(acc, x, y, lo_b, hi_b):
    """``acc`` plus the squared gaps of axis-major rows, added one axis at a time in axis order; broadcast."""
    for k in range(len(lo_b)):
        gap = lo_b[k] - x[k]
        np.maximum(gap, y[k] - hi_b[k], out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        acc = acc + gap
    return acc


def _scan(x, y, acc, factor, rows, buckets, best):
    """Lower ``best[r]`` to the least gap from ``acc[r]`` over bucket b, for each pair (r, b); rows nondecreasing.

    Returns the number of pairs evaluated.
    """
    sizes = factor.size[buckets]
    ends = np.cumsum(sizes)
    c0 = 0
    while c0 < len(buckets):
        done = ends[c0 - 1] if c0 else 0
        c1 = max(c0 + 1, int(np.searchsorted(ends, done + _TILE, side="right")))
        size = sizes[c0:c1]
        offset = ends[c0:c1] - size - done
        member = np.repeat(factor.start[buckets[c0:c1]] - offset, size) + np.arange(offset[-1] + size[-1])
        xs = np.repeat(x[:, rows[c0:c1]], size, axis=1)
        ys = xs if y is x else np.repeat(y[:, rows[c0:c1]], size, axis=1)
        start = np.repeat(acc[rows[c0:c1]], size)
        gap2 = _gaps(start, xs, ys, factor.lo.take(member, axis=1), factor.hi.take(member, axis=1))
        heads = np.flatnonzero(np.concatenate([[True], rows[c0 + 1 : c1] != rows[c0 : c1 - 1]]))
        r = rows[c0:c1][heads]
        best[r] = np.minimum(best[r], np.minimum.reduceat(gap2, offset[heads]))
        c0 = c1
    return int(ends[-1]) if len(ends) else 0


def _min_gap(x, y, index):
    """Per query row: the least squared gap over the product, chained factor by factor, and the gaps evaluated."""
    best, evaluated = np.zeros(x.shape[0]), 0
    for factor in index.factors:
        xf = x[:, factor.axes].T
        yf = xf if y is x else y[:, factor.axes].T
        acc, best = best, np.full(x.shape[0], np.inf)
        step = max(1, _TILE // len(factor.start))
        for r0 in range(0, x.shape[0], step):
            xs, part, start = xf[:, r0 : r0 + step], best[r0 : r0 + step], acc[r0 : r0 + step]
            ys = xs if yf is xf else yf[:, r0 : r0 + step]
            bound = _gaps(start[:, None], xs[..., None], ys[..., None], factor.bucket_lo, factor.bucket_hi)
            rows = np.arange(len(part))
            first = bound.argmin(axis=1)
            evaluated += bound.size + _scan(xs, ys, start, factor, rows, first, part)
            candidate = bound < part[:, None]
            candidate[rows, first] = False
            evaluated += _scan(xs, ys, start, factor, *np.nonzero(candidate), part)
    return best, evaluated


def bounds_pass(lo_a, hi_a, index):
    """Per query box: (upper, lower, evaluated), bounds on sup over the box of dist(x, target union)."""
    centers = 0.5 * (lo_a + hi_a)
    far, far_count = _min_gap(lo_a, hi_a, index)
    near, near_count = _min_gap(centers, centers, index)
    return np.sqrt(far), np.sqrt(near), far_count + near_count


def corner_pass(lo_a, hi_a, index):
    """Achieved distances, max over box corners of dist(corner, target union), and the gaps evaluated."""
    n, d = lo_a.shape
    corners = np.concatenate([np.where([(c >> k) & 1 for k in range(d)], hi_a, lo_a) for c in range(1 << d)])
    best, evaluated = _min_gap(corners, corners, index)
    return np.sqrt(best.reshape(1 << d, n).max(axis=0)), evaluated
