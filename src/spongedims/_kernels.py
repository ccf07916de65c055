"""Distance passes of the Hausdorff branch-and-bound: query boxes against indexed target boxes.

Every pass asks, per query row ``(x, y)``, for the least squared gap
``sum_k max(lo_b - x, y - hi_b, 0)**2`` over the target boxes
``[lo_b, hi_b]``.  A point p is ``(p, p)``; the farthest point of query
box a from a target is ``(lo_a, hi_a)``.

``build_index`` sorts the targets into a grid of buckets, about
``_BUCKET_SIZE`` targets each, and keeps each bucket's bounding box.  The
gap from a query row to a bucket's bounding box is, in float64, a lower
bound on its gap to every member, because every operation in the sum is
monotone under rounding.  A query row takes the exact least gap U over
the members of its bucket of least bound, then scans only the buckets
whose bound is below U.  The member attaining the least gap has gap
g <= U, so either g == U or its bucket's bound is <= g < U; and every
pair gap is the same float expression the brute-force sweep over all
pairs evaluates.  The minima are therefore that sweep's, bit for bit.
Pairs are gathered at most ``_TILE`` at a time, so memory stays bounded
when pruning fails.

* ``bounds_pass``: per query box, an upper bound (farthest corner) and an
  achieved lower bound (centre).
* ``corner_pass``: tighter achieved lower bounds from all 2**d corners.

Each pass also returns the number of gaps it evaluated: one per query row
and bucket, plus one per candidate pair.
"""

from dataclasses import dataclass

import numpy as np

BACKEND = "numpy"

_BUCKET_SIZE = 8
_TILE = 1 << 19


@dataclass(frozen=True, eq=False)
class TargetIndex:
    """Target boxes sorted by bucket; bucket b holds rows ``start[b]`` to ``start[b] + size[b]``."""

    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    size: np.ndarray
    bucket_lo: np.ndarray
    bucket_hi: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """(targets, axes) of the indexed corner arrays; ``perfbench/tracing.py`` reads the target count here."""
        return self.lo.shape


def build_index(lo_b, hi_b) -> TargetIndex:
    """Bucket the target boxes on a grid over their lower corners.

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
    lo, hi = lo_b[order], hi_b[order]
    return TargetIndex(
        lo, hi, start, np.diff(np.append(start, m)), np.minimum.reduceat(lo, start), np.maximum.reduceat(hi, start)
    )


def _gaps(x, y, lo_b, hi_b):
    """Squared gaps, broadcast over leading axes and summed over the last."""
    gap = np.maximum(lo_b - x, y - hi_b)
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    return gap.sum(axis=-1)


def _scan(x, y, index, rows, buckets, best):
    """Lower ``best[r]`` to the least gap over bucket b, for each pair (r, b); rows nondecreasing.

    Returns the number of pairs evaluated.
    """
    sizes = index.size[buckets]
    ends = np.cumsum(sizes)
    c0 = 0
    while c0 < len(buckets):
        done = ends[c0 - 1] if c0 else 0
        c1 = max(c0 + 1, int(np.searchsorted(ends, done + _TILE, side="right")))
        size = sizes[c0:c1]
        offset = ends[c0:c1] - size - done
        member = np.repeat(index.start[buckets[c0:c1]] - offset, size) + np.arange(offset[-1] + size[-1])
        xs = np.repeat(x[rows[c0:c1]], size, axis=0)
        ys = xs if y is x else np.repeat(y[rows[c0:c1]], size, axis=0)
        gap2 = _gaps(xs, ys, index.lo.take(member, axis=0), index.hi.take(member, axis=0))
        heads = np.flatnonzero(np.concatenate([[True], rows[c0 + 1 : c1] != rows[c0 : c1 - 1]]))
        r = rows[c0:c1][heads]
        best[r] = np.minimum(best[r], np.minimum.reduceat(gap2, offset[heads]))
        c0 = c1
    return int(ends[-1]) if len(ends) else 0


def _min_gap(x, y, index):
    """Per query row: the least squared gap over all targets, and the gaps evaluated."""
    n, nb = x.shape[0], len(index.start)
    best = np.full(n, np.inf)
    evaluated = 0
    step = max(1, _TILE // nb)
    for r0 in range(0, n, step):
        xs, part = x[r0 : r0 + step], best[r0 : r0 + step]
        ys = xs if y is x else y[r0 : r0 + step]
        bound = _gaps(xs[:, None], ys[:, None], index.bucket_lo, index.bucket_hi)
        rows = np.arange(len(xs))
        first = bound.argmin(axis=1)
        evaluated += bound.size + _scan(xs, ys, index, rows, first, part)
        candidate = bound < part[:, None]
        candidate[rows, first] = False
        evaluated += _scan(xs, ys, index, *np.nonzero(candidate), part)
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
