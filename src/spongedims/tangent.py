"""Weak-tangent constructions and box-set geometry.

Zooming an approximate cube back onto the unit cube with the affine map
that sends its rectangle to [0,1]^d turns the fragment of the sponge
inside the cube into a candidate tangent set.  Zooming along cubes that
spend each depth band inside the fattest column, the fragments converge
(in Hausdorff distance) to a product: the first-cluster projection of the
sponge times, per later cluster, the self-similar set generated by that
fattest column (the weak-tangent method of J. M. Fraser, Trans. Amer.
Math. Soc. 366 (2014)).  This module builds all the pieces at finite
depth so the containment and the convergence can be checked numerically:

* the tangent plan of a spec at a scale R and an extra depth: per
  cluster its column's grouped prefix and depth, and what they fix: the
  column, band and band level, and the grid the builders below share,
* pre-fractal box sets, restricted-and-zoomed cube fragments, and the
  matched product approximation,
* exact box-by-box containment checks and Hausdorff distances.

Box sets are integer cell indices on a per-axis (base, depth) grid, so
geometry stays exact; only the distances, measured in ``_kernels``, use
float64.  Each builder refuses an over-fine grid, then an over-budget
box count, from Python ints; only then does ``_cylinders``, which makes
every box set, turn digits and bases into int64 and grow the indices
level by level.  Tangent geometry is for grid sponges only.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, TextIO

from . import _kernels
from .errors import BudgetExceededError, EmptySetError
from .measure import depths_bm
from .model import Digit, SpongeSpec

np = sys.modules["numpy"]  # the module ``_kernels`` bound; an import statement would load it at once
DEFAULT_BOX_BUDGET = 10**7
MAX_RESOLUTION = 2**53
SWEEP_TOL = 1e-6

Grid = tuple[tuple[int, int], ...]
_VOXEL_HEADER = re.compile(r"voxel bases=([0-9]+(?:,[0-9]+)*) depths=([0-9]+(?:,[0-9]+)*)")


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Finite union of grid cells with exact integer coordinates.

    ``grid`` gives (base, depth) per axis and ``cells`` is an (n, d)
    ``int64`` array: box i is the product over axes j of
    ``[c, c + 1] / base_j**depth_j`` with ``c = cells[i, j]``; float or
    ``uint64`` cells, which do not cast safely to it, raise ``TypeError``.  Every
    ``base**depth`` is at most 2**53, so float64 holds each corner's
    numerator and denominator exactly.

    A product set may also keep its ``factors``: box sets on consecutive
    axes whose cartesian product is ``cells``.  The Hausdorff distance to
    such a set is computed factor by factor.

    Row order is a speed property, not a correctness property: the
    distance kernels bound runs of consecutive rows together, so rows
    that lie near each other make those bounds tight, but any order
    gives the same floats.
    """

    grid: Grid
    cells: np.ndarray
    factors: tuple[BoxSet, ...] = ()

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.size and not np.can_cast(cells.dtype, np.int64):
            raise TypeError(f"cells of dtype {cells.dtype} do not cast safely to int64")
        if cells.ndim != 2 or cells.shape[1] != len(self.grid):
            raise ValueError(f"cells of shape {cells.shape} do not match a {len(self.grid)}-axis grid")
        if self.factors and (
            sum((f.grid for f in self.factors), ()) != self.grid or math.prod(map(len, self.factors)) != len(cells)
        ):
            raise ValueError("factors do not multiply to the box set's grid and size")
        _check_resolution("box set", self.grid)
        object.__setattr__(self, "cells", cells.astype(np.int64, copy=False))

    @property
    def dim(self) -> int:
        return len(self.grid)

    def __len__(self) -> int:
        return len(self.cells)

    def float_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # Both operands are exact in float64, and one division rounds
        # correctly, so each corner equals float() of its Fraction.
        side = np.array([float(b**m) for b, m in self.grid])
        return self.cells / side, (self.cells + 1) / side

    def export_text(self, fh: TextIO) -> None:
        """One box per line: d pairs of decimal endpoints (lossy by design).

        An endpoint is the shortest ``repr`` of ``float(c / base**depth)``,
        the corner ``float_arrays`` gives.  Every endpoint is a lattice
        point of its axis, and boxes share most of them, so each distinct
        one is formatted once per axis, never the whole lattice.
        """
        rows = np.empty((len(self), 2 * self.dim), dtype=object)
        for j, (base, depth) in enumerate(self.grid):
            ends = self.cells[:, j, None] + np.array([0, 1])
            points, inverse = np.unique(ends, return_inverse=True)
            names = np.array([repr(x) for x in (points / float(base**depth)).tolist()], dtype=object)
            rows[:, 2 * j : 2 * j + 2] = names[inverse.reshape(ends.shape)]
        _write_rows(fh, rows, "%s")

    def export_voxel(self, fh: TextIO) -> None:
        """Lossless grid-cell export: header with bases/depths, then integer indices."""
        bases = ",".join(str(b) for b, _ in self.grid)
        depths = ",".join(str(m) for _, m in self.grid)
        fh.write(f"voxel bases={bases} depths={depths}\n")
        _write_rows(fh, self.cells, "%d")


def _write_rows(fh: TextIO, rows: np.ndarray, fmt: str) -> None:
    """One line per row, values space-separated; formatted 4096 rows at a time."""
    line = " ".join([fmt] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), 4096):
        part = rows[start : start + 4096]
        fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def load_text_boxes(fh: TextIO) -> BoxSet:
    """Read a text export, snapping axis j to the lattice 1/N_j, N_j = round(1/side).

    The side is the first box's.  Every endpoint must lie within one unit
    in the last place (of max(1, |x|)) of its lattice point, as the
    correctly rounded endpoints of a text export do; otherwise the boxes
    share no grid and ``ValueError`` is raised.  It is also raised, naming
    the line, when a line's endpoint count differs from the first line's,
    on a token numpy reads as no decimal, and when a box lies outside the
    unit cube; ``BudgetExceededError`` when an axis needs over 2**53 cells.
    """
    lines = fh.read().split("\n")
    first = next(filter(None, map(str.split, lines)), [])
    if not first or len(first) % 2:
        raise ValueError("text boxes need one line of d endpoint pairs per box")
    message = "text line {line} holds {count} endpoints, the first box holds {width}"
    vals = _read_rows(lines, np.float64, len(first), 1, message)
    lo, hi = vals[:, 0::2], vals[:, 1::2]
    with np.errstate(divide="ignore"):
        lattice = np.rint(1 / (hi[0] - lo[0]))
    cells = np.rint(lo * lattice)
    snapped = np.stack([cells, cells + 1], axis=2).reshape(vals.shape) / np.repeat(lattice, 2)
    ulp = np.spacing(np.maximum(1.0, np.abs(vals)))
    if not (np.isfinite(lattice).all() and (lattice >= 1).all() and (np.abs(vals - snapped) <= ulp).all()):
        raise ValueError("text boxes share no grid: an endpoint is off the lattice 1/N of its axis")
    return _on_grid(BoxSet(tuple((int(n), 1) for n in lattice), cells.astype(np.int64)), "text")


def load_voxel_boxes(fh: TextIO) -> BoxSet:
    """Read a voxel export, headed by the line ``export_voxel`` writes (surrounding whitespace stripped).

    That header is ``voxel bases=B1,...,Bd depths=M1,...,Md`` in ASCII digits; ``ValueError`` on any
    other header, unequal list lengths or a base below 2 (each naming the header), a line without one
    index per axis (named), a token that is no ``int64``, or an index off the grid;
    ``BudgetExceededError`` when an axis needs over 2**53 cells.
    """
    header = fh.readline().strip()
    match = _VOXEL_HEADER.fullmatch(header)
    if not match:
        raise ValueError(f"voxel header {header!r} needs bases= and depths= as nonnegative integer lists")
    bases, depths = ([int(v) for v in field.split(",")] for field in match.groups())
    if len(bases) != len(depths) or min(bases) < 2:
        raise ValueError(f"voxel header {header!r} needs one depth per base and every base at least 2")
    message = "voxel line {line} holds {count} cell indices, the header names {width} axes"
    cells = _read_rows(fh.read().split("\n"), np.int64, len(bases), 2, message)
    return _on_grid(BoxSet(tuple(zip(bases, depths)), cells), "voxel")


def _read_rows(lines: list[str], dtype: type, width: int, first: int, misaligned: str) -> np.ndarray:
    """The nonblank ``lines`` as (n, ``width``) rows, read in one pass of numpy's C reader."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no nonblank line is an empty array
            rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
        if rows.size and rows.shape[1] != width:
            raise ValueError(f"rows of {rows.shape[1]} values, not {width}")
    except ValueError:  # rows of unequal or wrong width, or a token the parser refuses
        for number, line in enumerate(lines, first):  # name the first nonblank line without width tokens
            count = len(line.split())
            if count and count != width:
                raise ValueError(misaligned.format(line=number, count=count, width=width)) from None
        raise
    return rows.reshape(-1, width)


def _on_grid(boxes: BoxSet, kind: str) -> BoxSet:
    """``boxes``, or ``ValueError`` when a cell index lies off its axis's grid."""
    # one unsigned comparison: a negative index wraps past every grid size
    if (boxes.cells.view(np.uint64) >= np.array([b**m for b, m in boxes.grid], dtype=np.uint64)).any():
        raise ValueError(f"a {kind} cell index lies outside [0, base**depth) on its axis")
    return boxes


def _check_resolution(stage: str, grid: Grid) -> None:
    for j, (base, depth) in enumerate(grid):  # every base is at least 2: past depth 53, base**depth is never computed
        if depth > 53 or base**depth > MAX_RESOLUTION:
            size = f"{base}**{depth}" + ("" if depth > 53 else f" = {base**depth}")
            limit = f"2**53 = {MAX_RESOLUTION}"
            raise BudgetExceededError(f"grid resolution: {stage} axis {j} needs {size} cells, limit is {limit}")


def _cylinders(grid: Grid, levels: Iterable[tuple], factors: tuple = ()) -> BoxSet:
    """The box set on ``grid`` of every path through ``levels``, in ``itertools.product`` order.

    A level is (digit rows, per-axis radix), as arrays or Python ints;
    each level extends every cell index as ``index * radix + digit``, one
    numpy operation per level.  In this order a run of consecutive cells
    stays within a few sibling cylinders, which keeps the distance
    kernels' leaf and block bounds tight; that is a matter of speed only.
    Its caller has refused the grid and the count, so an axis a level refines
    has base and digits below 2**53, and numpy reads each level as int64.
    """
    idx = np.zeros((1, len(grid)), dtype=np.int64)
    for digits, radix in levels:
        idx = (idx[:, None, :] * radix + digits).reshape(-1, len(grid))
    return BoxSet(grid, idx, factors)


def _check_count(stage: str, count: int, budget: int) -> None:
    if count > budget:
        raise BudgetExceededError(f"{stage}: needs {count} boxes, budget is {budget}")


@dataclass(frozen=True, eq=False)
class TangentPlan:
    """Everything the tangent builders need at one scale of ``spec``, derived once, in Python ints.

    ``prefixes[l-1]`` is the grouped prefix of the column cluster l zooms
    along, ``()`` for cluster 1; ``tangent_plan`` picks the fattest.
    ``cluster_depths`` are the per-cluster depths k_l at ``scale``;
    coordinate j's depth is that of its cluster, ``spec.clusters.cluster_of[j]``.
    The other five fields are derived from these, so ``dataclasses.replace``
    re-derives them all.  ``columns[l-1]`` is the block table's column above
    ``prefixes[l-1]``, the blocks of the product's cluster-l factor: the
    first-cluster projection for l = 1.  ``levels[l-1]`` is band l's (digit
    rows, per-axis radix): the digits extending ``prefixes[l-1]``, the axes
    of clusters < l zeroed and given radix 1.  Fragment and product refine
    to k_0 = k_1 + ``extra_depth``: ``bands[l-1]`` is band l's length
    k_{l-1} - k_l, ``depths[l-1]`` is k_0 - k_l, cluster l's depth on their
    shared ``grid``.
    """

    spec: SpongeSpec
    scale: Fraction
    prefixes: tuple[Digit, ...]
    cluster_depths: tuple[int, ...]
    extra_depth: int
    columns: tuple[tuple[Digit, ...], ...] = field(init=False)
    levels: tuple[tuple[tuple[Digit, ...], Digit], ...] = field(init=False)
    bands: tuple[int, ...] = field(init=False)
    depths: tuple[int, ...] = field(init=False)
    grid: Grid = field(init=False)

    def __post_init__(self) -> None:
        if self.extra_depth < 0:
            raise ValueError("extra_depth must be nonnegative")
        spec = self.spec
        object.__setattr__(self, "columns", tuple(row[p] for row, p in zip(spec.blocks, self.prefixes, strict=True)))
        object.__setattr__(self, "levels", tuple(
            (tuple((0,) * n + d[n:] for d in spec.digits if d[:n] == p), (1,) * n + spec.bases[n:])
            for p, n in zip(self.prefixes, map(len, self.prefixes))
        ))
        k = (self.cluster_depths[0] + self.extra_depth, *self.cluster_depths)
        object.__setattr__(self, "bands", tuple(a - b for a, b in zip(k, k[1:])))
        object.__setattr__(self, "depths", tuple(k[0] - b for b in k[1:]))
        cluster_of = spec.clusters.cluster_of
        object.__setattr__(self, "grid", tuple((n, self.depths[c]) for n, c in zip(spec.bases, cluster_of)))


def tangent_plan(spec: SpongeSpec, scale: Fraction, extra_depth: int = 1) -> TangentPlan:
    """The plan of a grid sponge at ``scale`` that zooms along each cluster's fattest column."""
    _grid_only(spec)
    # each row iterates its prefixes in order, so max keeps the smallest tied count
    prefixes = tuple(max(row, key=lambda p: len(row[p])) for row in spec.blocks)
    return TangentPlan(spec, Fraction(scale), prefixes, depths_bm(spec, scale), extra_depth)


def _grid_only(spec: SpongeSpec) -> None:
    if not isinstance(spec, SpongeSpec):
        raise TypeError(f"tangent geometry is grid-only: unsupported spec type {type(spec).__name__}")


def prefractal(spec: SpongeSpec, depth: int, budget: int = DEFAULT_BOX_BUDGET) -> BoxSet:
    """All depth-``depth`` cylinders, the digit set as one column: |D|**depth boxes with sides n_l**-depth."""
    _grid_only(spec)
    spec.clusters  # validates
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    grid = tuple((b, depth) for b in spec.bases)
    _check_resolution("prefractal", grid)
    _check_count("prefractal", len(spec.digits) ** depth, budget)
    return _cylinders(grid, itertools.repeat((spec.digits, spec.bases), depth))


@dataclass(frozen=True)
class ZoomedFragment:
    """The depth-limited piece of the sponge inside a plan's cube, zoomed to the unit cube."""

    boxes: BoxSet
    plan: TangentPlan


def zoomed_fragment(plan: TangentPlan, budget: int = DEFAULT_BOX_BUDGET) -> ZoomedFragment:
    """Zoom the plan's cube, refined ``plan.extra_depth`` levels past it.

    Boxes are built directly in zoomed coordinates: axis j keeps only the
    digits past its cluster's pinned depth k_l, scaled up by n_j**k_l, so
    it has ``plan.depths`` of its cluster.  Band l, the ``plan.bands[l-1]``
    positions k_l < t <= k_{l-1}, pins clusters 1..l-1 and stays in the
    column above ``plan.prefixes[l-1]``: each of its positions is one
    level, ``plan.levels[l-1]``, read once the grid has passed.  Bands run
    from l = d* to 1; positions t <= k_{d*} pin every axis and add nothing.
    """
    _check_fragment(plan, budget)
    levels = (plan.levels[l] for l in reversed(range(len(plan.bands))) for _ in range(plan.bands[l]))
    return ZoomedFragment(_cylinders(plan.grid, levels), plan)


def _check_fragment(plan: TangentPlan, budget: int) -> None:
    """Refuse the fragment's grid, then its count: band l picks one of ``levels[l-1]``'s rows per position."""
    _check_resolution("zoomed_fragment", plan.grid)
    _check_count("zoomed_fragment", math.prod(len(rows) ** b for (rows, _), b in zip(plan.levels, plan.bands)), budget)


def tangent_product(plan: TangentPlan, budget: int = DEFAULT_BOX_BUDGET) -> BoxSet:
    """Box approximation of the limit product at the resolution matched to the plan's scale.

    Factor l is the plan's column l at depth ``plan.depths[l-1]``,
    (k_1 - k_l) + ``plan.extra_depth``: the first-cluster projection at
    the extra depth, then the maximal columns, on ``plan.grid``, the
    per-coordinate grid the zoomed fragment lives on.  The product keeps
    its factors, so a Hausdorff distance to it is computed factor by factor.
    """
    factors = tuple(_cylinders(grid, itertools.repeat(level, k)) for grid, level, k in _check_product(plan, budget))
    # One radix-1 level per factor: its cells moved onto its own axes, zero on the rest.
    starts = itertools.accumulate((f.dim for f in factors), initial=0)
    levels = [(f.cells @ np.eye(f.dim, len(plan.grid), start, dtype=np.int64), 1) for f, start in zip(factors, starts)]
    return _cylinders(plan.grid, levels, factors)


def _check_product(plan: TangentPlan, budget: int) -> list[tuple[Grid, tuple, int]]:
    """Each factor's grid, level and depth, once its grid and count, in cluster order, then the product's count pass."""
    clusters, factors, counts = plan.spec.clusters, [], []
    per_cluster = zip(plan.columns, clusters.cluster_bases, clusters.cluster_sizes, plan.depths)
    for l, (column, n, size, k) in enumerate(per_cluster, 1):
        factors.append((((n, k),) * size, (column, (n,) * size), k))
        _check_resolution(f"tangent_product factor {l}", factors[-1][0])
        counts.append(len(column) ** k)
        _check_count(f"tangent_product factor {l}", counts[-1], budget)
    _check_count("tangent_product", math.prod(counts), budget)  # its grid joins the factors' grids
    return factors


def _check_plan(plan: TangentPlan, budget: int) -> None:
    """Raise the refusal ``zoomed_fragment``, then ``tangent_product``, would raise first on ``plan``; build nothing."""
    _check_fragment(plan, budget)
    _check_product(plan, budget)


@dataclass(frozen=True)
class ContainmentReport:
    """Box-by-box verdict: zoomed fragment inside the product of column pre-fractals."""

    ok: bool
    witness: tuple[int, ...] | None
    fragment_boxes: int


def containment_check(fragment: ZoomedFragment) -> ContainmentReport:
    """Verify a zoomed fragment sits inside the product of its plan's column pre-fractals.

    The product's cluster-l factor is the plan's column l at the depth of
    band l, ``plan.bands[l-1]`` = k_{l-1} - k_l with k_0 = k_1 + the plan's
    extra depth, so the first factor is the first-cluster projection at
    that extra depth.
    Containment is exact: each fragment cell, floor-divided to the factor
    grid, must be a factor cell, i.e. its base-n digits at every factor
    level must form a column block (nested grids make the interval check
    equivalent), compared as whole rows of exact digits.  The witness is
    the first violating cell, its integer index row on
    ``fragment.boxes.grid``, or None.
    """
    plan, boxes = fragment.plan, fragment.boxes
    clusters = plan.spec.clusters
    inside = np.ones(len(boxes), dtype=bool)
    for l, (column, base, depth) in enumerate(zip(plan.columns, clusters.cluster_bases, plan.bands), 1):
        coords = clusters.coord_range(l)
        cells = np.ascontiguousarray(boxes.cells[:, coords])  # C order, so each digit row views as one ``row``
        fine = np.array([boxes.grid[j][1] for j in coords])  # never coarser than the factor grid
        row = np.dtype((np.void, 8 * len(coords)))  # a row of int64 digits as one key, compared whole
        for t in range(depth):  # the grid has refined these axes, so base and blocks are below 2**53
            digits = cells // base ** (fine - 1 - t) % base  # level-t digits of every cell
            inside &= np.isin(digits.view(row)[:, 0], np.array(column, dtype=np.int64).view(row))
    bad = np.flatnonzero(~inside)
    witness = tuple(boxes.cells[bad[0]].tolist()) if len(bad) else None
    return ContainmentReport(witness is None, witness, len(boxes))


def hausdorff_distance(first: BoxSet, second: BoxSet, tol: float = 1e-9) -> float:
    """Hausdorff distance between two finite unions of boxes, within ``tol``.

    A set that keeps its factors is indexed as the product of them when
    it is the target of a direction.
    """
    if not len(first) or not len(second):
        raise EmptySetError("Hausdorff distance needs two nonempty sets")
    if first.dim != second.dim:
        raise ValueError("box sets have different dimensions")
    if not tol >= 0:  # a NaN tol would prune every box in the first round
        raise ValueError(f"tol must be a nonnegative number, not {tol!r}")
    arrays_a, arrays_b = first.float_arrays(), second.float_arrays()
    factors_a = [f.float_arrays() for f in first.factors] or [arrays_a]
    factors_b = [f.float_arrays() for f in second.factors] or [arrays_b]
    return max(
        _kernels._directed_distance(*arrays_a, factors_b, tol),
        _kernels._directed_distance(*arrays_b, factors_a, tol),
    )


@dataclass(frozen=True)
class SweepRow:
    scale: Fraction
    cluster_depths: tuple[int, ...]
    fragment_boxes: int
    product_boxes: int
    distance: float
    contained: bool


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    extra_depth: int

    @property
    def nonincreasing(self) -> bool:
        d = [row.distance for row in self.rows]
        return all(a >= b - 1e-12 for a, b in zip(d, d[1:]))


def convergence_sweep(spec: SpongeSpec, scales: Iterable[Fraction], budget: int = DEFAULT_BOX_BUDGET) -> SweepReport:
    """Distance between zoomed fragments and the matched product, per scale.

    One extra refinement level past the cube is the minimum that exposes
    the structure the product misses.  Every scale shares one extra depth,
    so the distances are comparable: 2 if every scale passes ``_check_plan``
    on its grid and exact box counts, else 1.  At depth 1 the first scale
    that fails raises its builders' refusal, before any box is built or
    distance computed; else each scale is built, measured and dropped in
    turn.  ``SWEEP_TOL`` is far below the scale-to-scale gaps it resolves.
    """
    plans = [tangent_plan(spec, s, extra_depth=2) for s in scales]
    extra_depth = 2
    try:
        for plan in plans:
            _check_plan(plan, budget)
    except BudgetExceededError:
        extra_depth = 1
        plans = [replace(p, extra_depth=1) for p in plans]
        for plan in plans:  # the first that fails at depth 1 raises
            _check_plan(plan, budget)
    return SweepReport(tuple(_sweep_row(p, budget) for p in plans), extra_depth)


def _sweep_row(plan: TangentPlan, budget: int) -> SweepRow:
    """Build, measure and drop one scale's fragment and product."""
    fragment = zoomed_fragment(plan, budget)
    product = tangent_product(plan, budget)
    distance = hausdorff_distance(fragment.boxes, product, SWEEP_TOL)
    contained = containment_check(fragment).ok
    return SweepRow(plan.scale, plan.cluster_depths, len(fragment.boxes), len(product), distance, contained)
