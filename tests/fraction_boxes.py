"""Reference box builders: the per-box ``Fraction`` loops the integer builders replaced.

Each function returns a tuple of boxes, a box being one ``(lo, hi)``
pair of exact rationals per coordinate, in the order the package's
builders must reproduce.  The budget checks raise the package's
``BudgetExceededError`` at the same counts.  Only the depths come from
the package.  The rest is derived here from the digit set: the
maximizing digits, the engineered word that spends each depth band in the
fattest column, the digits allowed at each position of the zoomed cube,
box construction, a column's blocks and containment.  The package
describes the zoomed cube by depth bands instead, so comparing the two
checks one derivation against the other.  The package keeps its boxes
as integer cells only; ``rational`` is the exact view the comparisons
read them through.
"""

import itertools
from fractions import Fraction

from spongedims import BudgetExceededError
from spongedims.measure import depths_bm


def rational_box(grid, cell):
    """The exact box of one integer cell index row on ``grid``: per axis [c, c + 1] / base**depth."""
    return tuple((Fraction(c, b**m), Fraction(c + 1, b**m)) for c, (b, m) in zip(cell, grid))


def rational(boxes):
    """A box set's exact rational view, one box per cell row, in row order."""
    return tuple(rational_box(boxes.grid, row) for row in boxes.cells.tolist())


def _check_budget(count, budget):
    if count > budget:
        raise BudgetExceededError(f"construction needs {count} boxes, budget is {budget}")


def maximizers(spec):
    """Per cluster l >= 2, the smallest digit above the prefix with the most cluster-l blocks.

    Ties go to the lexicographically smallest prefix.  Blocks are counted
    straight from the digit set.
    """
    clusters = spec.clusters
    out = {}
    for l in range(2, clusters.d_star + 1):
        start, stop = clusters.prefix_len(l - 1), clusters.prefix_len(l)
        columns = {}
        for d in spec.digits:
            columns.setdefault(d[:start], set()).add(d[start:stop])
        best = min(columns, key=lambda p: (-len(columns[p]), p))
        out[l] = min(d for d in spec.digits if d[:start] == best)
    return out


def engineered_word(spec, cluster_depths):
    """The word as a symbol function: positions k_l <= t < k_{l-1} (0-based) carry the cluster-l maximizer.

    Every other position carries the last cluster's maximizer, or the
    smallest digit if there is one cluster; that fill leaves every
    constrained block unchanged.
    """
    best = maximizers(spec)
    fill = best[len(cluster_depths)] if best else min(spec.digits)
    head = [fill] * cluster_depths[0]
    for l in range(2, len(cluster_depths) + 1):
        for t in range(cluster_depths[l - 1], cluster_depths[l - 2]):
            head[t] = best[l]
    return lambda t: head[t] if t < len(head) else fill


def position_choices(spec, symbol, cluster_depths, total):
    """Per position t = 1..total, the digits agreeing with the word on every cluster still pinned at t."""
    digits = sorted(spec.digit_set)
    choices = []
    for t in range(1, total + 1):
        plen = spec.clusters.prefix_len(sum(1 for k in cluster_depths if k >= t))
        choices.append([d for d in digits if d[:plen] == symbol(t - 1)[:plen]])
    return choices


def column_prefixes(spec):
    """Per cluster, the grouped prefix of its maximizing digit, () for cluster 1."""
    best, clusters = maximizers(spec), spec.clusters
    return ((),) + tuple(best[l][: clusters.prefix_len(l - 1)] for l in range(2, clusters.d_star + 1))


def prefractal(spec, depth, budget):
    digits = sorted(spec.digit_set)
    _check_budget(len(digits) ** depth, budget)
    sides = [Fraction(1, n**depth) for n in spec.bases]
    boxes = []
    for path in itertools.product(digits, repeat=depth):
        box = []
        for j, n in enumerate(spec.bases):
            corner = Fraction(0)
            pw = Fraction(1)
            for sym in path:
                pw /= n
                corner += sym[j] * pw
            box.append((corner, corner + sides[j]))
        boxes.append(tuple(box))
    return tuple(boxes)


def cluster_prefractal(spec, level, prefix, depth, budget):
    clusters = spec.clusters
    start, stop = clusters.prefix_len(level - 1), clusters.prefix_len(level)
    blocks = sorted({d[start:stop] for d in spec.digits if d[:start] == prefix})
    base = clusters.cluster_bases[level - 1]
    _check_budget(len(blocks) ** depth, budget)
    side = Fraction(1, base**depth)
    boxes = []
    for path in itertools.product(blocks, repeat=depth):
        box = []
        for j in range(clusters.cluster_sizes[level - 1]):
            corner = Fraction(0)
            pw = Fraction(1)
            for blk in path:
                pw /= base
                corner += blk[j] * pw
            box.append((corner, corner + side))
        boxes.append(tuple(box))
    return tuple(boxes)


def zoomed_fragment(spec, scale, extra_depth, budget):
    cluster_depths = depths_bm(spec, scale)
    depths = [cluster_depths[c] for c in spec.clusters.cluster_of]  # each coordinate's cluster depth
    total = cluster_depths[0] + extra_depth
    choices = position_choices(spec, engineered_word(spec, cluster_depths), cluster_depths, total)
    count = 1
    for c in choices:
        count *= len(c)
    _check_budget(count, budget)
    boxes = []
    for path in itertools.product(*choices):
        box = []
        for j, n in enumerate(spec.bases):
            corner = Fraction(0)
            pw = Fraction(1)
            for t in range(depths[j], total):
                pw /= n
                corner += path[t][j] * pw
            box.append((corner, corner + pw))
        boxes.append(tuple(box))
    return tuple(boxes)


def tangent_product(spec, scale, extra_depth, budget):
    clusters = spec.clusters
    per_cluster = depths_bm(spec, scale)
    prefixes = column_prefixes(spec)
    factors = [cluster_prefractal(spec, 1, (), extra_depth, budget)]
    for l in range(2, clusters.d_star + 1):
        depth = (per_cluster[0] - per_cluster[l - 1]) + extra_depth
        factors.append(cluster_prefractal(spec, l, prefixes[l - 1], depth, budget))
    count = 1
    for f in factors:
        count *= len(f)
    _check_budget(count, budget)
    return tuple(tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*factors))


def containment_witness(spec, boxes, cluster_depths, extra_depth):
    """First fragment box whose truncated corner is not a factor corner, or None."""
    clusters = spec.clusters
    prefixes = column_prefixes(spec)
    corner_sets = []
    for l in range(1, clusters.d_star + 1):
        depth = extra_depth if l == 1 else cluster_depths[l - 2] - cluster_depths[l - 1]
        factor = cluster_prefractal(spec, l, prefixes[l - 1], depth, float("inf"))
        corners = {tuple(lo for lo, _ in box) for box in factor}
        corner_sets.append((clusters.coord_range(l), clusters.cluster_bases[l - 1], depth, corners))
    for box in boxes:
        for coords, base, depth, corners in corner_sets:
            scale_pow = base**depth
            truncated = tuple(Fraction(int(box[j][0] * scale_pow), scale_pow) for j in coords)
            if truncated not in corners:
                return box
    return None
