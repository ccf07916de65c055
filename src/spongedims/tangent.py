"""Weak-tangent constructions and box-set geometry.

Zooming an approximate cube back onto the unit cube with the affine map
that sends its rectangle to [0,1]^d turns the fragment of the sponge
inside the cube into a candidate tangent set.  Along words engineered to
spend each depth band inside the fattest column, the zoomed fragments
converge (in Hausdorff distance) to a product: the first-cluster
projection of the sponge times, per later cluster, the self-similar set
generated by that fattest column.  This module builds all the pieces at
finite depth so the containment and the convergence can be checked
numerically:

* maximizing digits per cluster boundary (and, for prefix sponges, twist
  digits whose ratio strictly drops across a boundary),
* the engineered word for a scale R,
* affine zoom maps and their Lipschitz constants,
* pre-fractal box sets, restricted-and-zoomed cube fragments, and the
  matched product approximation,
* exact box-by-box containment checks and Hausdorff distances.

Box corners are exact rationals throughout; only the final distance
computation converts to float64.  Geometric constructions are for grid
sponges; prefix sponges participate through their engineered words and
zoom maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from . import _kernels
from .dimensions import lg_moran_exponents
from .errors import (
    BudgetExceededError,
    EmptySetError,
    NoTwistAvailableError,
    ScaleTooLargeError,
)
from .measure import ApproximateCube, Word, approximate_cube, depths_bm, depths_lg
from .model import Digit, LGSpongeSpec, SpongeSpec

AnySpec = Union[SpongeSpec, LGSpongeSpec]

DEFAULT_BOX_BUDGET = 10**7

Box = tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class AffineZoom:
    """Diagonal affine map x -> scale * (x - offset), one factor per coordinate."""

    scales: tuple[Fraction, ...]
    offsets: tuple[Fraction, ...]

    @property
    def lipschitz_lo(self) -> Fraction:
        return min(self.scales)

    @property
    def lipschitz_hi(self) -> Fraction:
        return max(self.scales)

    def apply_point(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(s * (Fraction(x) - o) for s, o, x in zip(self.scales, self.offsets, point))

    def apply_box(self, box: Box) -> Box:
        return tuple(
            (s * (lo - o), s * (hi - o))
            for s, o, (lo, hi) in zip(self.scales, self.offsets, box)
        )


def zoom_map(spec: AnySpec, cube: ApproximateCube) -> AffineZoom:
    """The map sending the cube's rectangle exactly onto the unit cube."""
    scales = tuple(1 / (hi - lo) for lo, hi in cube.rectangle)
    offsets = tuple(lo for lo, _ in cube.rectangle)
    return AffineZoom(scales, offsets)


@dataclass(frozen=True)
class BoxSet:
    """Finite union of axis-aligned boxes with exact rational corners.

    ``grid`` records, per coordinate, the (base, depth) grid the boxes
    are aligned to, when there is one; it drives the lossless voxel
    export format.
    """

    boxes: tuple[Box, ...]
    level: int | None = None
    grid: tuple[tuple[int, int], ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.boxes[0]) if self.boxes else 0

    def __len__(self) -> int:
        return len(self.boxes)

    def float_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([[float(l) for l, _ in box] for box in self.boxes], dtype=np.float64)
        hi = np.array([[float(h) for _, h in box] for box in self.boxes], dtype=np.float64)
        return lo, hi

    def export_text(self, fh: TextIO) -> None:
        """One box per line: d pairs of decimal endpoints (lossy by design)."""
        for box in self.boxes:
            fh.write(" ".join(f"{float(lo)!r} {float(hi)!r}" for lo, hi in box) + "\n")

    def export_voxel(self, fh: TextIO) -> None:
        """Lossless grid-cell export: header with bases/depths, then integer indices."""
        if self.grid is None:
            raise ValueError("box set carries no grid metadata; voxel export needs one")
        bases = ",".join(str(b) for b, _ in self.grid)
        depths = ",".join(str(m) for _, m in self.grid)
        fh.write(f"voxel bases={bases} depths={depths}\n")
        for box in self.boxes:
            idx = []
            for (lo, _), (base, depth) in zip(box, self.grid):
                cell = lo * base**depth
                if cell.denominator != 1:
                    raise ValueError(f"corner {lo} is not aligned to base {base} depth {depth}")
                idx.append(str(cell.numerator))
            fh.write(" ".join(idx) + "\n")


def load_text_boxes(fh: TextIO) -> BoxSet:
    boxes = []
    for line in fh:
        vals = [Fraction(v) for v in line.split()]
        boxes.append(tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2)))
    return BoxSet(tuple(boxes))


def load_voxel_boxes(fh: TextIO) -> BoxSet:
    header = fh.readline().split()
    if not header or header[0] != "voxel":
        raise ValueError("missing voxel header")
    fields = dict(part.split("=", 1) for part in header[1:])
    bases = [int(v) for v in fields["bases"].split(",")]
    depths = [int(v) for v in fields["depths"].split(",")]
    boxes = []
    for line in fh:
        cells = [int(v) for v in line.split()]
        box = []
        for cell, base, depth in zip(cells, bases, depths):
            side = Fraction(1, base**depth)
            box.append((cell * side, (cell + 1) * side))
        boxes.append(tuple(box))
    return BoxSet(tuple(boxes), grid=tuple(zip(bases, depths)))


def _check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise BudgetExceededError(f"construction needs {count} boxes, budget is {budget}")


def select_maximizers(spec: AnySpec) -> dict[int, Digit]:
    """For each cluster l >= 2, a digit whose prefix attains the fattest column.

    Grid sponges maximize the block count N(prefix); prefix sponges
    maximize the Moran exponent.  Ties break to the lexicographically
    smallest prefix, then the smallest digit extending it.
    """
    clusters = spec.clusters
    if isinstance(spec, SpongeSpec):
        score = {p: c for lvl in range(clusters.d_star) for p, c in spec.tree.counts_at_level(lvl).items()}
    else:
        score = {p: sol.exponent for p, sol in lg_moran_exponents(spec).items()}
    digits = sorted(spec.digit_set)
    out: dict[int, Digit] = {}
    for l in range(2, clusters.d_star + 1):
        plen = clusters.prefix_len(l - 1)
        prefixes = sorted({d[:plen] for d in digits})
        best = max(prefixes, key=lambda p: score[p])  # first max = lex smallest tie
        out[l] = next(d for d in digits if d[:plen] == best)
    return out


def select_twists(spec: LGSpongeSpec) -> dict[int, Digit]:
    """Per cluster boundary, a digit whose ratio strictly drops across it.

    Clustering merges exactly the boundaries where no digit drops, so a
    twist always exists at every remaining boundary; failure indicates an
    inconsistent cluster structure and raises.
    """
    clusters = spec.clusters
    out: dict[int, Digit] = {}
    for l in range(2, clusters.d_star + 1):
        before = clusters.prefix_len(l - 1)
        after = clusters.prefix_len(l)
        found = None
        for dig in sorted(spec.digit_set):
            if spec.contraction[dig[:before]] > spec.contraction[dig[:after]]:
                found = dig
                break
        if found is None:
            raise NoTwistAvailableError(f"no ratio drop across cluster boundary {l}")
        out[l] = found
    return out


def _fill_digit(spec: AnySpec, maximizers: dict[int, Digit]) -> Digit:
    d_star_digit = maximizers.get(max(maximizers)) if maximizers else None
    return d_star_digit if d_star_digit is not None else min(spec.digit_set)


def tangent_word(spec: AnySpec, scale: Fraction) -> Word:
    """The word whose approximate cube at ``scale`` we zoom into.

    Positions between the cluster-l and cluster-(l-1) depths carry the
    cluster-l maximizing digit; unconstrained positions repeat the last
    maximizer, a choice that leaves every constrained block unchanged.
    Prefix sponges get a twist prefix first, cycling the twist digits
    over floor(k_last / d*) * d* positions, so the depth gaps grow as the
    scale shrinks.  The word's depths depend on the word itself there;
    since appending symbols past a cluster's depth never changes that
    depth, rebuilding until the word reproduces its own depths converges.
    """
    scale = Fraction(scale)
    maximizers = select_maximizers(spec)
    fill = _fill_digit(spec, maximizers)

    if isinstance(spec, SpongeSpec):
        _, per_cluster = depths_bm(spec, scale)
        head = _blocked_head(per_cluster, maximizers, fill)
        return Word(tuple(head), (fill,))

    if scale > spec.min_full_contraction:
        raise ScaleTooLargeError(
            f"scale {scale} exceeds the smallest full-depth ratio; the engineered word needs depth >= 1"
        )
    clusters = spec.clusters
    twist_digits = [d for _, d in sorted(select_twists(spec).items())] or [fill]
    word = Word((), (fill,))
    for _ in range(64):
        _, per_cluster = depths_lg(spec, word, scale)
        head = _blocked_head(per_cluster, maximizers, fill)
        span = (per_cluster[-1] // clusters.d_star) * clusters.d_star
        for t in range(span):
            head[t] = twist_digits[t % len(twist_digits)]
        rebuilt = Word(tuple(head), (fill,))
        if rebuilt == word:
            return word
        word = rebuilt
    raise ScaleTooLargeError(f"engineered word did not stabilize at scale {scale}")


def _blocked_head(per_cluster: Sequence[int], maximizers: dict[int, Digit], fill: Digit) -> list[Digit]:
    head = [fill] * per_cluster[0]
    for l in range(2, len(per_cluster) + 1):
        for t in range(per_cluster[l - 1], per_cluster[l - 2]):
            head[t] = maximizers[l]
    return head


def prefractal(spec: SpongeSpec, depth: int, budget: int = DEFAULT_BOX_BUDGET) -> BoxSet:
    """All depth-``depth`` cylinder rectangles: |D|**depth boxes with sides n_l**-depth."""
    spec.clusters  # validates
    if depth < 0:
        raise ValueError("depth must be nonnegative")
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
    return BoxSet(tuple(boxes), level=depth, grid=tuple((n, depth) for n in spec.bases))


def cluster_prefractal(
    spec: SpongeSpec,
    level: int,
    prefix: Digit,
    depth: int,
    budget: int = DEFAULT_BOX_BUDGET,
) -> BoxSet:
    """Pre-fractal of the cluster-``level`` column above ``prefix``.

    The column's blocks are the cluster-``level`` extensions of the given
    grouped prefix; the box set lives in the cluster's own coordinates
    and has (number of blocks)**depth cubes of side n_level**-depth.
    Level 1 with the empty prefix gives the first-cluster projection of
    the whole sponge.
    """
    clusters = spec.clusters
    node = spec.tree.root
    for l in range(1, level):
        blk = prefix[clusters.prefix_len(l - 1) : clusters.prefix_len(l)]
        node = node.children[blk]
    blocks = sorted(node.children)
    base = clusters.cluster_bases[level - 1]
    a = clusters.cluster_sizes[level - 1]
    _check_budget(len(blocks) ** depth, budget)
    side = Fraction(1, base**depth)
    boxes = []
    for path in itertools.product(blocks, repeat=depth):
        box = []
        for j in range(a):
            corner = Fraction(0)
            pw = Fraction(1)
            for blk in path:
                pw /= base
                corner += blk[j] * pw
            box.append((corner, corner + side))
        boxes.append(tuple(box))
    return BoxSet(tuple(boxes), level=depth, grid=tuple((base, depth) for _ in range(a)))


def _position_choices(
    spec: SpongeSpec, word: Word, per_cluster: Sequence[int], total_depth: int
) -> list[list[Digit]]:
    """Digits allowed per position inside the cube, out to ``total_depth``.

    At position t the clusters still refined at t (depth >= t) are pinned
    to the word's digits; the rest of the digit tuple ranges over every
    extension present in the digit set.
    """
    digits = sorted(spec.digit_set)
    choices = []
    for t in range(1, total_depth + 1):
        fixed = sum(1 for k in per_cluster if k >= t)
        if fixed == 0:
            choices.append(digits)
        else:
            plen = spec.clusters.prefix_len(fixed)
            want = word.symbol(t - 1)[:plen]
            choices.append([d for d in digits if d[:plen] == want])
    return choices


@dataclass(frozen=True)
class ZoomedFragment:
    """The depth-limited piece of the sponge inside a cube, zoomed to the unit cube."""

    boxes: BoxSet
    cube: ApproximateCube
    cluster_depths: tuple[int, ...]
    extra_depth: int


def zoomed_fragment(
    spec: SpongeSpec,
    scale: Fraction,
    extra_depth: int = 1,
    budget: int = DEFAULT_BOX_BUDGET,
) -> ZoomedFragment:
    """Zoom the engineered cube at ``scale``, refined ``extra_depth`` levels past it.

    Boxes are built directly in zoomed coordinates: coordinate j of a
    cylinder at depth ``total`` contributes only its digits beyond the
    cube's pinned depth k_j, scaled up by n_j**k_j.
    """
    scale = Fraction(scale)
    if extra_depth < 0:
        raise ValueError("extra_depth must be nonnegative")
    word = tangent_word(spec, scale)
    cube = approximate_cube(spec, word, scale)
    per_cluster = cube.cluster_depths
    total = per_cluster[0] + extra_depth
    choices = _position_choices(spec, word, per_cluster, total)
    count = 1
    for c in choices:
        count *= len(c)
    _check_budget(count, budget)

    depths = cube.depths
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
    grid = tuple((n, total - depths[j]) for j, n in enumerate(spec.bases))
    return ZoomedFragment(BoxSet(tuple(boxes), level=total, grid=grid), cube, per_cluster, extra_depth)


def tangent_product(
    spec: SpongeSpec,
    scale: Fraction,
    extra_depth: int = 1,
    budget: int = DEFAULT_BOX_BUDGET,
) -> BoxSet:
    """Box approximation of the limit product at the resolution matched to ``scale``.

    First factor: the first-cluster projection at depth ``extra_depth``.
    Later factors: the maximal column of cluster l at depth
    (k_1* - k_l*) + extra_depth, the same per-coordinate grid the zoomed
    fragment lives on.
    """
    scale = Fraction(scale)
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
    boxes = []
    for combo in itertools.product(*(f.boxes for f in factors)):
        boxes.append(tuple(itertools.chain.from_iterable(combo)))
    grid = tuple(itertools.chain.from_iterable(f.grid for f in factors))
    return BoxSet(tuple(boxes), grid=grid)


@dataclass(frozen=True)
class ContainmentReport:
    """Box-by-box verdict: zoomed fragment inside the product of column pre-fractals."""

    ok: bool
    witness: Box | None
    scale: Fraction
    cluster_depths: tuple[int, ...]
    fragment_boxes: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "witness": None
            if self.witness is None
            else [[str(lo), str(hi)] for lo, hi in self.witness],
            "scale": str(self.scale),
            "cluster_depths": list(self.cluster_depths),
            "fragment_boxes": self.fragment_boxes,
        }


def containment_check(
    spec: SpongeSpec, fragment: ZoomedFragment, budget: int = DEFAULT_BOX_BUDGET
) -> ContainmentReport:
    """Verify a zoomed fragment of ``spec`` sits inside the product of column pre-fractals.

    The product's cluster-l factor is the maximal column at depth
    k_{l-1}* - k_l*; the first factor is the first-cluster projection
    rendered at the fragment's own extra depth.  Containment is exact:
    each fragment box's corner, truncated to the factor grid, must be a
    factor corner (nested grids make the interval check equivalent).
    Returns the first violating box as witness, if any.
    """
    clusters = spec.clusters
    scale, extra_depth = fragment.cube.scale, fragment.extra_depth
    per_cluster = fragment.cluster_depths
    maximizers = select_maximizers(spec)

    corner_sets: list[tuple[range, int, int, set[tuple[Fraction, ...]]]] = []
    pi1 = cluster_prefractal(spec, 1, (), extra_depth, budget)
    corner_sets.append(
        (clusters.coord_range(1), clusters.cluster_bases[0], extra_depth,
         {tuple(lo for lo, _ in box) for box in pi1.boxes})
    )
    for l in range(2, clusters.d_star + 1):
        depth = per_cluster[l - 2] - per_cluster[l - 1]
        prefix = maximizers[l][: clusters.prefix_len(l - 1)]
        factor = cluster_prefractal(spec, l, prefix, depth, budget)
        corner_sets.append(
            (clusters.coord_range(l), clusters.cluster_bases[l - 1], depth,
             {tuple(lo for lo, _ in box) for box in factor.boxes})
        )

    for box in fragment.boxes.boxes:
        for coords, base, depth, corners in corner_sets:
            scale_pow = base**depth
            truncated = tuple(
                Fraction(int(box[j][0] * scale_pow), scale_pow) for j in coords
            )
            if truncated not in corners:
                return ContainmentReport(False, box, scale, per_cluster, len(fragment.boxes))
    return ContainmentReport(True, None, scale, per_cluster, len(fragment.boxes))


def _split_boxes(lo_f: np.ndarray, hi_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve every box along its longest axis."""
    axis = np.argmax(hi_f - lo_f, axis=1)[:, None]
    mid = 0.5 * (np.take_along_axis(lo_f, axis, 1) + np.take_along_axis(hi_f, axis, 1))
    lo_left, hi_left = lo_f.copy(), hi_f.copy()
    np.put_along_axis(hi_left, axis, mid, 1)
    lo_right, hi_right = lo_f.copy(), hi_f.copy()
    np.put_along_axis(lo_right, axis, mid, 1)
    return np.concatenate([lo_left, lo_right]), np.concatenate([hi_left, hi_right])


def _directed_distance(lo_a, hi_a, lo_b, hi_b, tol: float) -> float:
    """sup over the A-union of the distance to the B-union, within tol from below.

    Branch and bound: every A box carries a farthest-corner upper bound
    and achieved lower bounds (center, then corners) against the B union;
    boxes whose upper bound cannot beat the best achieved distance by more
    than tol are pruned, the rest split along their longest side.  Targets
    that cannot be nearest for any surviving box are dropped, which leaves
    every distance to the union unchanged on the surviving region.
    """
    upper, lower = _kernels.bounds_pass(lo_a, hi_a, lo_b, hi_b)
    best = float(lower.max())
    keep = upper > best + tol
    lo_f, hi_f, up_f = lo_a[keep], hi_a[keep], upper[keep]
    lo_t, hi_t = lo_b, hi_b
    evaluations = lo_a.shape[0] * lo_b.shape[0]
    while len(lo_f):
        tmask = _kernels.filter_pass(lo_f, hi_f, lo_t, hi_t, up_f, tol)
        lo_t, hi_t = lo_t[tmask], hi_t[tmask]
        best = max(best, float(_kernels.corner_pass(lo_f, hi_f, lo_t, hi_t).max()))
        keep = up_f > best + tol
        lo_f, hi_f = lo_f[keep], hi_f[keep]
        if not len(lo_f):
            break
        lo_f, hi_f = _split_boxes(lo_f, hi_f)
        evaluations += 3 * lo_f.shape[0] * lo_t.shape[0]
        if evaluations > 500_000_000:
            raise BudgetExceededError("distance refinement exceeded its evaluation budget")
        upper, lower = _kernels.bounds_pass(lo_f, hi_f, lo_t, hi_t)
        best = max(best, float(lower.max()))
        keep = upper > best + tol
        lo_f, hi_f, up_f = lo_f[keep], hi_f[keep], upper[keep]
    return best


def hausdorff_distance(first: BoxSet, second: BoxSet, tol: float = 1e-9) -> float:
    """Hausdorff distance between two finite unions of boxes, within ``tol``."""
    if not first.boxes or not second.boxes:
        raise EmptySetError("Hausdorff distance needs two nonempty sets")
    if first.dim != second.dim:
        raise ValueError("box sets have different dimensions")
    lo_a, hi_a = first.float_arrays()
    lo_b, hi_b = second.float_arrays()
    return max(
        _directed_distance(lo_a, hi_a, lo_b, hi_b, tol),
        _directed_distance(lo_b, hi_b, lo_a, hi_a, tol),
    )


@dataclass(frozen=True)
class SweepRow:
    scale: Fraction
    cluster_depths: tuple[int, ...]
    fragment_boxes: int
    product_boxes: int
    distance: float
    contained: bool

    def to_json(self) -> dict:
        return {
            "scale": str(self.scale),
            "cluster_depths": list(self.cluster_depths),
            "fragment_boxes": self.fragment_boxes,
            "product_boxes": self.product_boxes,
            "distance": self.distance,
            "contained": self.contained,
        }


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    extra_depth: int

    @property
    def nonincreasing(self) -> bool:
        d = [row.distance for row in self.rows]
        return all(a >= b - 1e-12 for a, b in zip(d, d[1:]))

    def to_json(self) -> dict:
        return {
            "extra_depth": self.extra_depth,
            "nonincreasing": self.nonincreasing,
            "rows": [r.to_json() for r in self.rows],
        }


def convergence_sweep(
    spec: SpongeSpec,
    scales: Iterable[Fraction],
    extra_depth: int | None = None,
    budget: int = DEFAULT_BOX_BUDGET,
    tol: float = 1e-6,
) -> SweepReport:
    """Distance between zoomed fragments and the matched product, per scale.

    One extra refinement level past the cube is the minimum that exposes
    the structure the product misses; the deepest feasible level within
    the box budget (capped at 2, which keeps the numpy fallback fast) is
    chosen automatically and shared by every scale so the distances are
    comparable.  The distance tolerance is far below the scale-to-scale
    gaps the sweep is meant to resolve.
    """
    scales = [Fraction(s) for s in scales]
    if extra_depth is None:
        chosen = None
        for e in (2, 1):
            try:
                for s in scales:
                    _estimate_sweep_boxes(spec, s, e, budget)
            except BudgetExceededError:
                continue
            chosen = e
            break
        if chosen is None:
            raise BudgetExceededError("no feasible extra depth within the box budget")
        extra_depth = chosen
    rows = []
    for s in scales:
        fragment = zoomed_fragment(spec, s, extra_depth, budget)
        product = tangent_product(spec, s, extra_depth, budget)
        dist = hausdorff_distance(fragment.boxes, product, tol)
        contained = containment_check(spec, fragment, budget).ok
        rows.append(
            SweepRow(s, fragment.cluster_depths, len(fragment.boxes), len(product), dist, contained)
        )
    return SweepReport(tuple(rows), extra_depth)


def _estimate_sweep_boxes(spec: SpongeSpec, scale: Fraction, extra_depth: int, budget: int) -> None:
    """Raise BudgetExceededError if either side of the sweep would overflow."""
    clusters, tree = spec.clusters, spec.tree
    word = tangent_word(spec, scale)
    _, per_cluster = depths_bm(spec, scale)
    total = per_cluster[0] + extra_depth
    choices = _position_choices(spec, word, per_cluster, total)
    count = 1
    for c in choices:
        count *= len(c)
    _check_budget(count, budget)
    maximizers = select_maximizers(spec)
    product_count = tree.root_count**extra_depth
    for l in range(2, clusters.d_star + 1):
        prefix = maximizers[l][: clusters.prefix_len(l - 1)]
        n_blocks = tree.counts_at_level(l - 1)[prefix]
        product_count *= n_blocks ** ((per_cluster[0] - per_cluster[l - 1]) + extra_depth)
    _check_budget(product_count, budget)
