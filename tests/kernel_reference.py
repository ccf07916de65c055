"""Reference distance passes: plain per-pair loops over the (n, d) corner arrays.

Each function computes, one query box, target box and axis at a time,
what the matching public pass in ``spongedims._kernels`` computes with
tiled numpy.  Each squared sum adds the axes in order, as numpy's sum
over fewer than 8 terms does, so the tests compare the two exactly.
"""

import numpy as np


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


def filter_pass(lo_a, hi_a, lo_b, hi_b, upper, slack):
    n, d = lo_a.shape
    m = lo_b.shape[0]
    keep = np.zeros(m, dtype=np.bool_)
    for j in range(m):
        for i in range(n):
            near2 = 0.0
            cut = upper[i] + slack
            for k in range(d):
                g = lo_b[j, k] - hi_a[i, k]
                h = lo_a[i, k] - hi_b[j, k]
                f = g if g > h else h
                if f > 0.0:
                    near2 += f * f
            if near2 <= cut * cut:
                keep[j] = True
                break
    return keep


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
