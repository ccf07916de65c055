"""Distance passes of the Hausdorff branch-and-bound: query boxes against target boxes.

All three are plain float64 numpy over (n, d) corner arrays and go through
one helper, ``_gap_tiles``.  It yields the squared gaps
``sum_k max(lo_b - x, y - hi_b, 0)**2`` between query rows ``(x, y)`` and
target boxes ``[lo_b, hi_b]``, one bounded tile at a time.  A point p is
``(p, p)``; the farthest point of query box a from a target is
``(lo_a, hi_a)``; the gap between the two boxes is ``(hi_a, lo_a)``.

* ``bounds_pass``: per query box, an upper bound (farthest corner) and an
  achieved lower bound (centre), each a min over the targets.
* ``filter_pass``: the targets that can still be nearest for some point of
  some query box, given its upper bound; dropping the rest changes no
  distance to the target union on the query boxes.
* ``corner_pass``: tighter achieved lower bounds from all 2**d corners.
"""

import numpy as np

BACKEND = "numpy"

_CHUNK_A = 256
_CHUNK_B = 2048


def _gap_tiles(x, y, lo_b, hi_b):
    """Yield (rows, cols, squared gaps) over tiles of query rows x target boxes."""
    n, m = x.shape[0], lo_b.shape[0]
    for i0 in range(0, n, _CHUNK_A):
        rows = slice(i0, min(i0 + _CHUNK_A, n))
        for j0 in range(0, m, _CHUNK_B):
            cols = slice(j0, min(j0 + _CHUNK_B, m))
            gap = np.maximum(lo_b[None, cols] - x[rows, None], y[rows, None] - hi_b[None, cols])
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            yield rows, cols, gap.sum(axis=2)


def _min_gap(x, y, lo_b, hi_b):
    """Per query row: the least squared gap over all target boxes."""
    best = np.full(x.shape[0], np.inf)
    for rows, _, gap2 in _gap_tiles(x, y, lo_b, hi_b):
        best[rows] = np.minimum(best[rows], gap2.min(axis=1))
    return best


def bounds_pass(lo_a, hi_a, lo_b, hi_b):
    """Per query box: (upper, lower) on sup over the box of dist(x, target union)."""
    centers = 0.5 * (lo_a + hi_a)
    return np.sqrt(_min_gap(lo_a, hi_a, lo_b, hi_b)), np.sqrt(_min_gap(centers, centers, lo_b, hi_b))


def filter_pass(lo_a, hi_a, lo_b, hi_b, upper, slack):
    """Mask of target boxes that can still be nearest for some query-box point."""
    keep = np.zeros(lo_b.shape[0], dtype=np.bool_)
    cut2 = (upper + slack) ** 2
    for rows, cols, gap2 in _gap_tiles(hi_a, lo_a, lo_b, hi_b):
        keep[cols] |= (gap2 <= cut2[rows, None]).any(axis=0)
    return keep


def corner_pass(lo_a, hi_a, lo_b, hi_b):
    """Achieved distances: max over box corners of dist(corner, target union)."""
    d = lo_a.shape[1]
    best = np.zeros(lo_a.shape[0])
    for c in range(1 << d):
        corners = np.where([(c >> k) & 1 for k in range(d)], hi_a, lo_a)
        best = np.maximum(best, _min_gap(corners, corners, lo_b, hi_b))
    return np.sqrt(best)
