"""Reference distance computations for the indexed kernels.

``bounds_pass`` and ``corner_pass`` compute, one query box, target box
and axis at a time, what the matching public pass in
``spongedims._kernels`` computes with an index over the targets.  Each
squared sum adds the axes in order, as the kernels do for every d, so
the tests compare the two exactly.

``directed_distance`` is the brute-force branch and bound the index
replaced: every pass sweeps all query-target pairs in numpy tiles, and
each round first drops the targets that cannot be nearest to any
surviving query box.  It halves boxes with its own ``_split_boxes``,
not the package's.  It is fast enough for the tangent corpus and gives
the same floats as ``spongedims._kernels._directed_distance``.
"""

import numpy as np


def _split_boxes(lo, hi):
    """Each box's two halves across the midpoint of its longest axis (the first on a tie): lower halves first."""
    rows, axis = np.arange(len(lo)), np.argmax(hi - lo, axis=1)
    mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
    lower_hi, upper_lo = hi.copy(), lo.copy()
    lower_hi[rows, axis] = mid
    upper_lo[rows, axis] = mid
    return np.concatenate([lo, upper_lo]), np.concatenate([lower_hi, hi])


def bounds_pass(lo_a, hi_a, lo_b, hi_b):
    n, d = lo_a.shape
    m = lo_b.shape[0]
    upper = np.empty(n)
    lower = np.empty(n)
    for i in range(n):
        far_best = np.inf
        cen_best = np.inf
        for j in range(m):
            far2 = 0.0
            cen2 = 0.0
            for k in range(d):
                g = lo_b[j, k] - lo_a[i, k]
                h = hi_a[i, k] - hi_b[j, k]
                f = g if g > h else h
                if f > 0.0:
                    far2 += f * f
                c = 0.5 * (lo_a[i, k] + hi_a[i, k])
                g = lo_b[j, k] - c
                h = c - hi_b[j, k]
                f = g if g > h else h
                if f > 0.0:
                    cen2 += f * f
            if far2 < far_best:
                far_best = far2
            if cen2 < cen_best:
                cen_best = cen2
        upper[i] = np.sqrt(far_best)
        lower[i] = np.sqrt(cen_best)
    return upper, lower


def corner_pass(lo_a, hi_a, lo_b, hi_b):
    n, d = lo_a.shape
    m = lo_b.shape[0]
    lower = np.zeros(n)
    for i in range(n):
        best_over_corners = 0.0
        for c in range(1 << d):
            dist_best = np.inf
            for j in range(m):
                p2 = 0.0
                for k in range(d):
                    x = hi_a[i, k] if (c >> k) & 1 else lo_a[i, k]
                    g = lo_b[j, k] - x
                    h = x - hi_b[j, k]
                    f = g if g > h else h
                    if f > 0.0:
                        p2 += f * f
                if p2 < dist_best:
                    dist_best = p2
            if dist_best > best_over_corners:
                best_over_corners = dist_best
        lower[i] = np.sqrt(best_over_corners)
    return lower


def _gap_tiles(x, y, lo_b, hi_b):
    """Yield (rows, cols, squared gaps) over 256 x 2048 tiles of query rows x target boxes."""
    n, m = x.shape[0], lo_b.shape[0]
    for i0 in range(0, n, 256):
        rows = slice(i0, min(i0 + 256, n))
        for j0 in range(0, m, 2048):
            cols = slice(j0, min(j0 + 2048, m))
            gap = np.maximum(lo_b[None, cols] - x[rows, None], y[rows, None] - hi_b[None, cols])
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            yield rows, cols, gap.sum(axis=2)


def _min_gap(x, y, lo_b, hi_b):
    best = np.full(x.shape[0], np.inf)
    for rows, _, gap2 in _gap_tiles(x, y, lo_b, hi_b):
        best[rows] = np.minimum(best[rows], gap2.min(axis=1))
    return best


def _brute_bounds(lo_a, hi_a, lo_b, hi_b):
    centers = 0.5 * (lo_a + hi_a)
    return np.sqrt(_min_gap(lo_a, hi_a, lo_b, hi_b)), np.sqrt(_min_gap(centers, centers, lo_b, hi_b))


def _brute_corners(lo_a, hi_a, lo_b, hi_b):
    d = lo_a.shape[1]
    best = np.zeros(lo_a.shape[0])
    for c in range(1 << d):
        corners = np.where([(c >> k) & 1 for k in range(d)], hi_a, lo_a)
        best = np.maximum(best, _min_gap(corners, corners, lo_b, hi_b))
    return np.sqrt(best)


def _brute_filter(lo_a, hi_a, lo_b, hi_b, upper, slack):
    keep = np.zeros(lo_b.shape[0], dtype=np.bool_)
    cut2 = (upper + slack) ** 2
    for rows, cols, gap2 in _gap_tiles(hi_a, lo_a, lo_b, hi_b):
        keep[cols] |= (gap2 <= cut2[rows, None]).any(axis=0)
    return keep


def directed_distance(lo_a, hi_a, lo_b, hi_b, tol):
    upper, lower = _brute_bounds(lo_a, hi_a, lo_b, hi_b)
    best = float(lower.max())
    keep = upper > best + tol
    lo_f, hi_f, up_f = lo_a[keep], hi_a[keep], upper[keep]
    lo_t, hi_t = lo_b, hi_b
    while len(lo_f):
        tmask = _brute_filter(lo_f, hi_f, lo_t, hi_t, up_f, tol)
        lo_t, hi_t = lo_t[tmask], hi_t[tmask]
        best = max(best, float(_brute_corners(lo_f, hi_f, lo_t, hi_t).max()))
        keep = up_f > best + tol
        lo_f, hi_f = lo_f[keep], hi_f[keep]
        if not len(lo_f):
            break
        lo_f, hi_f = _split_boxes(lo_f, hi_f)
        upper, lower = _brute_bounds(lo_f, hi_f, lo_t, hi_t)
        best = max(best, float(lower.max()))
        keep = upper > best + tol
        lo_f, hi_f, up_f = lo_f[keep], hi_f[keep], upper[keep]
    return best
