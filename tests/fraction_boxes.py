"""Reference box builders: the per-box ``Fraction`` loops the integer builders replaced.

Each function returns a tuple of boxes, a box being one ``(lo, hi)``
pair of exact rationals per coordinate, in the order the package's
builders must reproduce.  The budget checks raise the package's
``BudgetExceededError`` at the same counts.  Word, cube and digit-choice
logic is shared with the package; only box construction and containment
are re-implemented here.
"""

import itertools
from fractions import Fraction

from spongedims import BudgetExceededError, approximate_cube
from spongedims.measure import depths_bm
from spongedims.tangent import _position_choices, select_maximizers, tangent_word


def _check_budget(count, budget):
    if count > budget:
        raise BudgetExceededError(f"construction needs {count} boxes, budget is {budget}")


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
    node = spec.tree.root
    for l in range(1, level):
        node = node.children[prefix[clusters.prefix_len(l - 1) : clusters.prefix_len(l)]]
    blocks = sorted(node.children)
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
    word = tangent_word(spec, scale)
    cube = approximate_cube(spec, word, scale)
    total = cube.cluster_depths[0] + extra_depth
    choices = _position_choices(spec, word, cube.cluster_depths, total)
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
            for t in range(cube.depths[j], total):
                pw /= n
                corner += path[t][j] * pw
            box.append((corner, corner + pw))
        boxes.append(tuple(box))
    return tuple(boxes)


def tangent_product(spec, scale, extra_depth, budget):
    clusters = spec.clusters
    _, per_cluster = depths_bm(spec, scale)
    maximizers = select_maximizers(spec)
    factors = [cluster_prefractal(spec, 1, (), extra_depth, budget)]
    for l in range(2, clusters.d_star + 1):
        depth = (per_cluster[0] - per_cluster[l - 1]) + extra_depth
        prefix = maximizers[l][: clusters.prefix_len(l - 1)]
        factors.append(cluster_prefractal(spec, l, prefix, depth, budget))
    count = 1
    for f in factors:
        count *= len(f)
    _check_budget(count, budget)
    return tuple(tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*factors))


def containment_witness(spec, boxes, cluster_depths, extra_depth):
    """First fragment box whose truncated corner is not a factor corner, or None."""
    clusters = spec.clusters
    maximizers = select_maximizers(spec)
    corner_sets = []
    for l in range(1, clusters.d_star + 1):
        if l == 1:
            prefix, depth = (), extra_depth
        else:
            prefix = maximizers[l][: clusters.prefix_len(l - 1)]
            depth = cluster_depths[l - 2] - cluster_depths[l - 1]
        factor = cluster_prefractal(spec, l, prefix, depth, float("inf"))
        corners = {tuple(lo for lo, _ in box) for box in factor}
        corner_sets.append((clusters.coord_range(l), clusters.cluster_bases[l - 1], depth, corners))
    for box in boxes:
        for coords, base, depth, corners in corner_sets:
            scale_pow = base**depth
            truncated = tuple(Fraction(int(box[j][0] * scale_pow), scale_pow) for j in coords)
            if truncated not in corners:
                return box
    return None
