"""Dimension formulas for grouped-coordinate sponges.

The Assouad dimension of a grid sponge with grouped coordinates is

    log N / log n_1*  +  sum over clusters l >= 2 of
        log(max over prefixes of N(prefix)) / log n_l*

where N counts distinct first-cluster blocks and N(prefix) counts the
cluster-l blocks extending a grouped prefix; the lower dimension replaces
max by min.  The older strict-ordering formula is the same sum with every
coordinate in its own cluster; it overshoots whenever a cluster's biggest
multi-coordinate column is thinner than the product of its per-coordinate
maxima; ``dimension_drop`` quantifies the gap and tests that product
condition exactly.  All three formulas read the counts from a
:func:`~spongedims.model.block_table` and pick their extremes in
``_extreme_terms``.

Prefix sponges replace each count by a Moran exponent: the unique s with
``sum(c_j ** s) == 1`` over the child ratios, found here by bisection.
Natural logarithms throughout; every formula is a ratio of logs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import BudgetExceededError, InvalidRatioError, NoSolutionError
from .model import BlockTable, Digit, LGSpongeSpec, SpongeSpec, block_table

MORAN_TOL = 1e-12
MORAN_MAX_ITERATIONS = 200
SPREAD_BUDGET = 10_000  # coordinate orders old_formula_spread may evaluate


@dataclass(frozen=True)
class MoranSolution:
    """Root of sum(c**s) = 1 with the achieved residual and iteration count."""

    exponent: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class ClusterTerm:
    """One cluster's contribution: extreme terms and the prefixes attaining them."""

    cluster: int
    max_term: float
    min_term: float
    argmax_prefix: Digit
    argmin_prefix: Digit


@dataclass(frozen=True)
class DimensionReport:
    assouad: float
    lower: float
    per_cluster_terms: tuple[ClusterTerm, ...]
    formula: str
    order_dependent: bool = False


@dataclass(frozen=True)
class DropReport:
    """Old-formula value minus the grouped-formula value, plus the exact test."""

    drop: float
    equality_condition_holds: bool
    grouped: DimensionReport
    old: DimensionReport


def moran_solve(ratios: Sequence[Fraction | float]) -> MoranSolution:
    """Solve sum(c**s) = 1 for s >= 0 by bisection, to ``MORAN_TOL``.

    The map s -> sum(c**s) is strictly decreasing when every ratio is
    below 1, so the root is bracketed by [0, hi] with hi grown by
    doubling.  A single ratio gives s = 0 exactly (c**0 = 1); two or
    more ratios with any of them equal to 1 leave the sum above 1 for
    every s, so there is no solution.
    """
    rs = [float(c) for c in ratios]
    if not rs:
        raise InvalidRatioError("empty ratio list")
    for c in rs:
        if not 0.0 < c <= 1.0:
            raise InvalidRatioError(f"ratio {c} outside (0, 1]")
    if len(rs) == 1:
        return MoranSolution(0.0, 0.0, 0)
    if any(c == 1.0 for c in rs):
        raise NoSolutionError("multiple ratios with one equal to 1: sum never reaches 1")

    def excess(s: float) -> float:
        return math.fsum(c**s for c in rs) - 1.0

    hi = 1.0
    iterations = 0
    while excess(hi) > 0.0:
        hi *= 2.0
        iterations += 1
        if iterations > 200:  # unreachable for valid ratios; guards float quirks
            raise NoSolutionError("failed to bracket the Moran root")
    lo = 0.0
    mid = hi
    residual = abs(excess(mid))
    while residual > MORAN_TOL and iterations < MORAN_MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        e = excess(mid)
        residual = abs(e)
        if e > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return MoranSolution(mid, residual, iterations)


def _extreme_terms(scores_per_level: Sequence[Mapping[Digit, float]]) -> list[ClusterTerm]:
    """Max/min term per cluster level; ties go to the lexicographically smallest prefix.

    Level ``l`` scores every grouped prefix through clusters 1..l-1, in
    lexicographic order (a :func:`block_table` row's order), so the first
    max and min found are the smallest tied prefixes.
    """
    terms = []
    for level, scores in enumerate(scores_per_level, 1):
        amax = max(scores, key=scores.__getitem__)
        amin = min(scores, key=scores.__getitem__)
        terms.append(ClusterTerm(level, scores[amax], scores[amin], amax, amin))
    return terms


def _report(
    scores_per_level: Sequence[Mapping[Digit, float]], formula: str, order_dependent: bool = False
) -> DimensionReport:
    terms = _extreme_terms(scores_per_level)
    return DimensionReport(
        assouad=math.fsum(t.max_term for t in terms),
        lower=math.fsum(t.min_term for t in terms),
        per_cluster_terms=tuple(terms),
        formula=formula,
        order_dependent=order_dependent,
    )


def _log_count_scores(blocks: BlockTable, bases: Sequence[int]) -> list[dict[Digit, float]]:
    """log N(prefix) / log n per level, N(prefix) the number of next-cluster blocks."""
    return [
        {p: math.log(len(extensions)) / log_n for p, extensions in row.items()}
        for row, log_n in zip(blocks, map(math.log, bases))
    ]


def assouad_lower_bm(spec: SpongeSpec) -> DimensionReport:
    """Grouped-coordinate Assouad and lower dimensions of a grid sponge."""
    return _report(_log_count_scores(spec.blocks, spec.clusters.cluster_bases), "grouped")


def old_formula_spread(spec: SpongeSpec) -> dict:
    """Evaluate the per-coordinate formula over all within-cluster orders.

    Coordinates in different clusters have different bases and cannot be
    swapped, so only permutations inside each cluster are tried, and each
    permuted digit set is scored on its own single-coordinate block
    table.  Returns the canonical (identity order's) value together with
    the min/max/spread over orders.  The orders are counted before any is
    generated; a count past 2**53 is named by its factorials, not computed.
    """
    clusters = spec.clusters
    sizes = clusters.cluster_sizes
    fits = math.fsum(math.lgamma(s + 1) for s in sizes) <= 53 * math.log(2)  # at most about 2**53 orders
    total = math.prod(map(math.factorial, sizes)) if fits else 0
    if not total or total > SPREAD_BUDGET:
        needs = total or " * ".join(f"{s}!" for s in sizes if s > 1)
        raise BudgetExceededError(f"old_formula_spread: needs {needs} coordinate orders, budget is {SPREAD_BUDGET}")
    per_cluster_perms = [itertools.permutations(clusters.coord_range(l)) for l in range(1, clusters.d_star + 1)]
    singletons = (1,) * spec.ambient_dim
    values = []
    for combo in itertools.product(*per_cluster_perms):  # the identity order first
        order = [i for block in combo for i in block]
        table = block_table([tuple(d[i] for i in order) for d in spec.digits], singletons)
        values.append(math.fsum(max(scores.values()) for scores in _log_count_scores(table, spec.bases)))
    return {
        "canonical": values[0],
        "orders": total,
        "min": min(values),
        "max": max(values),
        "spread": max(values) - min(values),
    }


def _equality_condition(spec: SpongeSpec, coordinate_blocks: BlockTable) -> bool:
    """Exact check: each cluster's max block count factors into per-coordinate maxima."""
    clusters = spec.clusters
    coord_max = [max(map(len, row.values())) for row in coordinate_blocks]
    return all(
        max(map(len, row.values())) == math.prod(coord_max[k] for k in clusters.coord_range(l))
        for l, row in enumerate(spec.blocks, 1)
    )


def dimension_drop(spec: SpongeSpec) -> DropReport:
    """Gap between the per-coordinate and grouped formulas, with the exact criterion.

    ``old`` is the strict-ordering formula evaluated coordinate by
    coordinate: the grouped formula with every coordinate in its own
    cluster.  It is correct only when all bases differ; on weakly ordered
    sponges it is order-dependent and can exceed the true value, and its
    report flags that case.
    """
    grouped = assouad_lower_bm(spec)  # validates
    coordinate_blocks = block_table(spec.digits, (1,) * spec.ambient_dim)
    weak = spec.clusters.d_star < spec.ambient_dim  # some cluster holds two coordinates
    old = _report(_log_count_scores(coordinate_blocks, spec.bases), "per_coordinate", weak)
    condition = _equality_condition(spec, coordinate_blocks)
    drop = old.assouad - grouped.assouad
    if abs(drop) <= 1e-12:  # the two formulas agree exactly; absorb float noise
        drop = 0.0
    return DropReport(drop, condition, grouped, old)


def lg_moran_exponents(spec: LGSpongeSpec) -> dict[Digit, MoranSolution]:
    """Moran exponent for every grouped prefix of a prefix sponge.

    The empty prefix () maps to the exponent of the first-cluster system;
    a level-l prefix maps to the exponent of its cluster-(l+1) children,
    each child weighted by its ratio at the cluster's last coordinate.
    """
    clusters = spec.clusters
    exponents: dict[Digit, MoranSolution] = {}
    for level, row in enumerate(spec.blocks):
        depth = clusters.prefix_len(level + 1)
        for prefix, blocks in row.items():
            try:
                exponents[prefix] = moran_solve([spec.contraction[prefix + blk] for blk in blocks])
            except (InvalidRatioError, NoSolutionError) as exc:
                raise type(exc)(f"prefix {prefix} (depth {depth}): {exc}") from exc
    return exponents


def assouad_lower_lg(spec: LGSpongeSpec) -> DimensionReport:
    """Assouad and lower dimensions of a prefix sponge with grouped coordinates."""
    exponents = spec.moran_exponents
    return _report([{p: exponents[p].exponent for p in row} for row in spec.blocks], "moran_grouped")


def dimensions(spec) -> DimensionReport:
    """Dispatch on spec type: grid sponges use counts, prefix sponges use exponents."""
    if isinstance(spec, SpongeSpec):
        return assouad_lower_bm(spec)
    if isinstance(spec, LGSpongeSpec):
        return assouad_lower_lg(spec)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")
