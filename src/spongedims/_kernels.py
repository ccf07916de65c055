"""The Hausdorff branch-and-bound and its distance passes: query boxes against indexed target boxes.

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

``build_index`` cuts each factor, in its own row order, into leaves of
``_LEAF`` consecutive boxes (a factor of fewer boxes is one leaf of its
own size), and the query rows, in their order, into blocks of
``_BLOCK`` consecutive rows.  One rule pads both: a short leaf or block
repeats its last row.  A repeated box changes no least gap and no
bounding box, and a repeated query row's results are dropped.  Each
leaf keeps its bounding box ``[L, H]`` over its lanes.  The bound of a
block on a leaf is the gap from the block's (max x, min y, min start)
to ``[L, H]``: for every row and
member, ``lo_b - x >= L - max x`` and ``y - hi_b >= min y - H``, and in
float64 every later operation (subtraction, max, square, addition) is
monotone under rounding, so the bound is at or below the row's
continued gap to every member.  Each block scans its leaf of least bound
densely, every row against every lane, which gives each row an exact
least gap U over that leaf; it then scans every leaf whose bound is
below the block's largest U.  The member attaining a row's least gap g
has g <= U, so either g == U or its leaf's bound is <= g < U.  The
minima are therefore the chained minima above, whatever the order of the
rows: order decides only how tight the bounds are, and so the speed.
No step holds more than about ``_TILE`` lanes, so memory stays bounded
when pruning fails.

* ``bounds_pass``: per query box, an upper bound (farthest corner) and an
  achieved lower bound (centre).
* ``corner_pass``: tighter achieved lower bounds from all 2**d corners,
  of the boxes whose upper bound can still raise the maximum.

``_directed_distance`` is the branch-and-bound.  It indexes the targets
once; each round runs ``bounds_pass``, prunes each box whose upper bound
cannot beat the best achieved distance by more than ``tol``, runs
``corner_pass`` on the survivors, prunes again and halves the rest along
their longest axis.  Past ``EVALUATION_BUDGET`` gaps, counted as the last
paragraph says, it refuses a further round.

The loop reads less than every row's least gap: of the far
rows, which exceed ``best + tol`` and the upper bounds of those; of the
centres and corners, only ``max(best, lower.max())``.  So the passes take
its running ``best`` (and ``tol``) and cut what it cannot read.  At the
last factor, where the chained sums are final, a block whose every
row's root after its first leaf is at most the cut scans no other leaf,
and its rows report their first-leaf gaps.  Such a gap is achieved by a
member, so it is at or above the row's least gap, and its root is at or
below the cut, as sqrt is monotone and correctly rounded.  The far rows'
cut is ``max(best, centre maximum) + tol``: a row that reports a root at
or below it would have been pruned on its exact value too, and every row
above it is in a scanned block, so the keep mask and the survivors'
upper bounds are the exact ones.  The centres' and corners' cut starts
at ``best`` and rises to roots at or below the pass's largest exact root M:
each exact root found, and the root of each block's floor, the lesser of
its largest first-leaf gap and its least candidate bound.  The floor is
at or below the least gap of the block's row of largest first-leaf gap,
which lies in the first leaf or in a candidate.  A skipped row reports
at most the cut, so at most ``max(best, M)``, and the row attaining M
reports M, so ``max(best, lower.max())`` is exact.  No earlier factor is cut: a
first-leaf partial sum within the cut can continue above it over the
later factors where the least partial sum continues below it.

Most far rows are settled without a scan.  The centre pass tracks, per
row and factor, a box whose gap, continued from the row's sum at the
factor before, is the row's sum at that factor (a tie may take any such
box); chained over the factors, the boxes, one product box, attain the
row's reported gap.  ``bounds_pass`` takes each far row's gap to its
centre's product box, chained factor by factor in axis order: the
brute-force sweep's float for that box.  A row whose root is at most the
far cut is settled and reports that root.  The gap is achieved by a box,
so it is at or above the row's least gap, the least of those floats, and
as sqrt is monotone the row's exact root is at or below the reported
one, and so within the cut too: the row is pruned on either value.  Only
the other far rows are scanned, with the same cut, so the keep mask and
the survivors' upper bounds stay the exact ones.  One achieved gap
within the cut is all the loop needs of a pruned row: the
early break of Taha & Hanbury's exact Hausdorff algorithm (IEEE TPAMI
37(11), 2015).

The same break, on whole boxes, skips most corners.  Each box reaches
``corner_pass`` with its exact far root u, its ``bounds_pass`` upper
bound.  Per axis, ``lo_a <= p <= hi_a`` for every corner p, and float
subtraction is monotone, so ``lo_b - p <= lo_b - lo_a`` and ``p - hi_b
<= hi_a - hi_b``; max, square and in-order addition are monotone too, so
a corner's gap to every target box is at most the far row's gap to it,
its least gap is at most the far row's least gap, and, as sqrt is
monotone, its root is at most u.  The pass visits the boxes by falling
u, in groups of 1, 2, 4, ... boxes, each group's corners cut from the
running maximum, which starts at ``best`` and after each group rises to
the largest root the group reports.  It stops at the first box whose u
is at or below the running maximum, and each box it skips reports its
u.  Every reported root is at most ``max(best, M)``, M the largest exact
corner root over all the boxes: a visited group reports at most the
maximum before it or its own largest exact root, and a skipped box at
most the running maximum.  If the box attaining M is visited, its group
reports M or a maximum already at or above it; if it is skipped, the
running maximum is at least its u, so at least M.  So ``max(best,
lower.max())`` is exact, and each skipped box reports a root at least
its exact corner maximum and at most ``max(best, M)``.  Doubling groups
let a box whose corners reach its u end the pass after one group, and
keep the groups few where many upper bounds tie above every corner.

Each pass also returns the number of gaps it evaluated, summed over the
factors: one per block and leaf bound, plus ``_BLOCK`` per lane of
each leaf a block scans, padded rows and lanes included.  A block
decided by its first leaf scans no other leaf.  ``bounds_pass`` adds
one gap per far row and factor for the settle step.  ``corner_pass``
counts the groups it visits and nothing for the boxes it skips.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass

from .errors import BudgetExceededError


def _lazy_import(name: str):
    """The module ``name`` if loaded, else one in ``sys.modules`` that loads on its first attribute access.

    A ``None`` entry or no spec raises ``ModuleNotFoundError`` now, as an import would.  The first access
    is not thread-safe on Python < 3.12; the package starts no threads.
    """
    if (module := sys.modules.get(name)) is not None:
        return module
    if (spec := importlib.util.find_spec(name)) is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")  # only box sets and distances pay numpy's import, at their first use
BACKEND = "numpy"
EVALUATION_BUDGET = 500_000_000

_LEAF = 32
_BLOCK = 8
_TILE = 1 << 16


@dataclass(frozen=True, eq=False)
class Factor:
    """One factor's ``boxes`` boxes, on the product axes ``axes``, cut into leaves in row order.

    The corner arrays are axis-major, so a pass reads each axis
    contiguously: ``lo`` and ``hi`` are (axes, lanes, leaves), and
    ``leaf_lo`` and ``leaf_hi`` (axes, leaves).  A leaf
    has ``min(_LEAF, boxes)`` lanes.  Leaves are the last axis, and query
    blocks too, so a scan's lane and row reductions run over leading
    axes, which numpy vectorises.
    """

    axes: slice
    boxes: int
    lo: np.ndarray
    hi: np.ndarray
    leaf_lo: np.ndarray
    leaf_hi: np.ndarray


@dataclass(frozen=True, eq=False)
class TargetIndex:
    """The target set as a product of indexed factors, in axis order."""

    factors: tuple[Factor, ...]

    @property
    def shape(self) -> tuple[int, int]:
        """(product boxes, axes); ``perfbench/tracing.py`` reads the target count here."""
        return math.prod(f.boxes for f in self.factors), self.factors[-1].axes.stop


def build_index(factors) -> TargetIndex:
    """Index the product of the box sets ``factors``, (lo, hi) pairs in axis order, factor by factor."""
    built, first = [], 0
    for lo_b, hi_b in factors:
        (m, d), lanes = lo_b.shape, min(_LEAF, len(lo_b))
        lo, hi = (_blocked(c, lanes).reshape(-1, lanes, d).transpose(2, 1, 0).copy() for c in (lo_b, hi_b))
        axes = slice(first, first + d)
        built.append(Factor(axes, m, lo, hi, lo.min(axis=1), hi.max(axis=1)))
        first = axes.stop
    return TargetIndex(tuple(built))


def _gaps(acc, x, y, lo_b, hi_b):
    """``acc`` plus the squared gaps of axis-major rows, added one axis at a time in axis order; broadcast."""
    for k in range(len(lo_b)):
        gap = lo_b[k] - x[k]
        np.maximum(gap, y[k] - hi_b[k], out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        acc = acc + gap
    return acc


def _dense(x, y, acc, factor, blocks, leaves, best, boxes=None):
    """Lower ``best[:, b]`` to the least gaps from ``acc[:, b]`` over leaf l, for each pair (b, l).

    ``x``, ``y`` are (axes, ``_BLOCK``, blocks) and ``acc``, ``best``
    (``_BLOCK``, blocks).  With ``boxes``, of ``best``'s shape, each row whose
    least gap over a pair equals its lowered ``best`` records the box
    ``leaf * lanes + lane`` of the pair's first least lane; a tie between
    pairs may record either.  A padded lane repeats the lane before it, so
    it is never a first least lane.  Returns the number of lanes evaluated.
    """
    lanes = factor.lo.shape[1]
    step = max(1, _TILE // (_BLOCK * lanes))
    for p0 in range(0, len(blocks), step):
        b, l = blocks[p0 : p0 + step], leaves[p0 : p0 + step]
        xs = x.take(b, axis=2)[:, None]
        ys = xs if y is x else y.take(b, axis=2)[:, None]
        lo, hi = factor.lo.take(l, axis=2)[:, :, None], factor.hi.take(l, axis=2)[:, :, None]
        gaps = _gaps(acc.take(b, axis=1), xs, ys, lo, hi)
        least = gaps.min(axis=0)
        np.minimum.at(best, (slice(None), b), least)
        if boxes is not None:
            row, pair = np.nonzero(least == best[:, b])
            boxes[row, b[pair]] = l[pair] * lanes + gaps.argmin(axis=0)[row, pair]
    return len(blocks) * _BLOCK * lanes


def _blocked(rows, size):
    """``rows``, then its last row again until they fill whole blocks of ``size``."""
    return np.concatenate([rows, np.repeat(rows[-1:], -len(rows) % size, axis=0)])


def _min_gap(x, y, index, cut, rise, track=False):
    """Per query row: a squared gap over the product, chained factor by factor, the gaps evaluated, and boxes.

    ``x`` and ``y`` are rows padded to whole blocks, as ``_blocked`` pads them; the blocks are views of them.
    A row's gap is its least gap, or, in a block decided by its first leaf at the last factor, its
    first-leaf gap, whose root is at most ``cut``.  With ``rise`` the cut rises as the module docstring says.
    With ``track`` the boxes are a (rows, factors) array: per row, one box of each factor, in the factor's
    row order, such that the gaps chained over them in axis order are the row's gap; else they are None.
    """
    blocks, d = x.shape[0] // _BLOCK, x.shape[1]
    xb = x.reshape(blocks, _BLOCK, d).transpose(2, 1, 0)
    yb = xb if y is x else y.reshape(blocks, _BLOCK, d).transpose(2, 1, 0)
    best, evaluated, tracked = np.zeros((_BLOCK, blocks)), 0, []
    for factor in index.factors:
        last = factor is index.factors[-1]
        xf = xb[factor.axes]
        yf = xf if yb is xb else yb[factor.axes]
        acc, best = best, np.full((_BLOCK, blocks), np.inf)
        boxes = np.zeros((_BLOCK, blocks), dtype=np.intp) if track else None
        step = max(1, _TILE // max(factor.leaf_lo.shape[1], _BLOCK * factor.lo.shape[1]))
        for b0 in range(0, blocks, step):
            xs, part, start = xf[..., b0 : b0 + step], best[:, b0 : b0 + step], acc[:, b0 : b0 + step]
            box = None if boxes is None else boxes[:, b0 : b0 + step]
            ys = xs if yf is xf else yf[..., b0 : b0 + step]
            corner = start.min(axis=0), xs.max(axis=1), ys.min(axis=1)
            bound = _gaps(*corner, factor.leaf_lo[..., None], factor.leaf_hi[..., None])
            chunk = np.arange(part.shape[1])
            first = bound.argmin(axis=0)
            evaluated += bound.size + _dense(xs, ys, start, factor, chunk, first, part, box)
            top = part.max(axis=0)
            candidate = bound < top
            candidate[first, chunk] = False
            if last:
                if rise:
                    floor = np.minimum(top, np.where(candidate, bound, np.inf).min(axis=0))
                    cut = max(cut, float(np.sqrt(floor.max())))
                candidate[:, np.sqrt(top) <= cut] = False
            evaluated += _dense(xs, ys, start, factor, *np.nonzero(candidate.T), part, box)
            if last and rise:
                cut = max(cut, float(np.sqrt(part.max())))
        if track:
            tracked.append(boxes.T.reshape(-1))
    return best.T.reshape(-1), evaluated, np.stack(tracked, axis=1) if track else None


def _settle(lo_a, hi_a, index, boxes):
    """Per query box, the root of its far gap to the product box ``boxes`` names, chained in axis order.

    ``boxes`` is (rows, factors), as ``_min_gap`` tracks them; the rows are taken ``_TILE`` at a time.
    """
    roots = np.empty(len(lo_a))
    for r0 in range(0, len(lo_a), _TILE):
        rows, acc = slice(r0, r0 + _TILE), 0.0
        for factor, box in zip(index.factors, boxes[rows].T):
            lane, leaf = box % factor.lo.shape[1], box // factor.lo.shape[1]
            x, y = lo_a[rows, factor.axes].T, hi_a[rows, factor.axes].T
            acc = _gaps(acc, x, y, factor.lo[:, lane, leaf], factor.hi[:, lane, leaf])
        np.sqrt(acc, out=roots[rows])
    return roots


def bounds_pass(lo_a, hi_a, index, best, tol):
    """Per query box: (upper, lower, evaluated), bounds on sup over the box of dist(x, target union).

    ``best`` is the branch-and-bound's best achieved distance and ``tol`` its tolerance.  The centres
    run first, cut from ``best``, and track the boxes that attain their gaps.  A far row whose gap to its
    centre's product box has its root within the cut ``max(best, lower.max()) + tol`` is settled and
    reports that root; only the other far rows, gathered once, are scanned, with the same cut.
    """
    n = len(lo_a)
    centers = _blocked(0.5 * (lo_a + hi_a), _BLOCK)
    near, near_count, boxes = _min_gap(centers, centers, index, best, rise=True, track=True)
    lower = np.sqrt(near[:n], out=near[:n])
    cut = max(best, float(lower.max())) + tol
    upper = _settle(lo_a, hi_a, index, boxes[:n])
    rows = np.flatnonzero(upper > cut)
    scan = _blocked(rows, _BLOCK)
    far, far_count, _ = _min_gap(lo_a[scan], hi_a[scan], index, cut, rise=False)
    upper[rows] = np.sqrt(far[: len(rows)])
    return upper, lower, near_count + n * len(index.factors) + far_count


def _corner_max(lo_a, hi_a, index, cut):
    """Per query box, the root of its largest corner gap, cut from ``cut`` with a rising cut; and the gaps.

    The corner rows are box-major, so a block holds the corners of one box, or of a few consecutive
    boxes where a box has fewer corners than a block has rows, and its bound stays tight.
    """
    n, d = lo_a.shape
    rows = n << d
    corners = np.empty((rows + -rows % _BLOCK, d))  # filled in place: no box's corners are held twice
    boxes = corners[:rows].reshape(n, 1 << d, d)
    boxes[:] = lo_a[:, None]
    bit_mask = np.arange(1 << d)[:, None] >> np.arange(d) & 1 == 1  # corner c takes hi on its set bits
    np.copyto(boxes, hi_a[:, None], where=bit_mask)
    corners[rows:] = corners[rows - 1 : rows]
    gaps, evaluated, _ = _min_gap(corners, corners, index, cut, rise=True)
    return np.sqrt(gaps[:rows].reshape(n, 1 << d).max(axis=1)), evaluated


def corner_pass(lo_a, hi_a, index, best, upper):
    """Achieved distances, max over box corners of dist(corner, target union), and the gaps evaluated.

    ``upper`` is each box's exact farthest-corner root, the survivors' upper bounds from
    ``bounds_pass``.  The boxes are visited by falling ``upper`` in groups of 1, 2, 4, ... boxes,
    each group's corners cut from the running maximum, which starts at the branch-and-bound's best
    achieved distance ``best``.  The pass stops at the first box whose ``upper`` is at or below the
    running maximum; each box it skips reports its ``upper``.
    """
    values = upper.tolist()
    # Python's stable sort: numpy's sort kernels would add their code pages, about 0.3 MB, to peak RSS
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    lower, evaluated = upper.copy(), 0
    cut, start, size = best, 0, 1
    while start < len(order) and values[order[start]] > cut:
        visit = np.zeros(len(values), dtype=bool)
        visit[order[start : start + size]] = True
        group = np.flatnonzero(visit & (upper > cut))  # in row order, so neighbouring boxes share blocks
        lower[group], count = _corner_max(lo_a[group], hi_a[group], index, cut)
        cut = max(cut, float(lower[group].max()))
        evaluated += count
        start, size = start + size, 2 * size
    return lower, evaluated


def _split_boxes(lo_f: np.ndarray, hi_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve every box along its longest axis."""
    axis = np.argmax(hi_f - lo_f, axis=1)[:, None]
    mid = 0.5 * (np.take_along_axis(lo_f, axis, 1) + np.take_along_axis(hi_f, axis, 1))
    hi_left, lo_right = hi_f.copy(), lo_f.copy()  # the other halves keep the parent's arrays
    np.put_along_axis(hi_left, axis, mid, 1)
    np.put_along_axis(lo_right, axis, mid, 1)
    return np.concatenate([lo_f, lo_right]), np.concatenate([hi_left, hi_f])


def _directed_distance(lo_a, hi_a, targets, tol: float) -> float:
    """sup over the A-union of the distance to the B-union, within ``tol`` from below.

    B is the product of ``targets``, (lo, hi) float arrays on consecutive axes; a plain box set is
    one target.  The rounds, what they read of each pass, and the budget are the module docstring's.
    """
    index = build_index(targets)
    lo_f, hi_f = lo_a, hi_a
    best, evaluations = 0.0, 0
    while True:
        upper, lower, count = bounds_pass(lo_f, hi_f, index, best, tol)
        best = max(best, float(lower.max()))
        keep = upper > best + tol
        lo_f, hi_f, up_f = lo_f[keep], hi_f[keep], upper[keep]
        evaluations += count
        if not len(lo_f):
            return best
        lower, count = corner_pass(lo_f, hi_f, index, best, up_f)
        best = max(best, float(lower.max()))
        keep = up_f > best + tol
        lo_f, hi_f = lo_f[keep], hi_f[keep]
        evaluations += count
        if not len(lo_f):
            return best
        if evaluations > EVALUATION_BUDGET:
            raise BudgetExceededError(
                f"distance refinement: needs {evaluations} pair evaluations, budget is {EVALUATION_BUDGET}"
            )
        lo_f, hi_f = _split_boxes(lo_f, hi_f)
