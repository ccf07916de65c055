"""Dimension formulas for grouped-coordinate sponges.

The Assouad dimension of a grid sponge with grouped coordinates is

    log N / log n_1*  +  sum over clusters l >= 2 of
        log(max over prefixes of N(prefix)) / log n_l*

where N counts distinct first-cluster blocks and N(prefix) counts the
cluster-l blocks extending a grouped prefix; the lower dimension replaces
max by min.  The older strict-ordering formula sums single-coordinate
counts instead and overshoots whenever a cluster's biggest multi-
coordinate column is thinner than the product of its per-coordinate
maxima; ``dimension_drop`` quantifies the gap and tests that product
condition exactly.

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
from .model import Digit, LGSpongeSpec, SpongeSpec, per_coordinate_counts


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

    def to_json(self) -> dict:
        return {
            "cluster": self.cluster,
            "max_term": self.max_term,
            "min_term": self.min_term,
            "argmax_prefix": list(self.argmax_prefix),
            "argmin_prefix": list(self.argmin_prefix),
        }


@dataclass(frozen=True)
class DimensionReport:
    assouad: float
    lower: float
    per_cluster_terms: tuple[ClusterTerm, ...]
    formula: str
    order_dependent: bool = False

    def to_json(self) -> dict:
        return {
            "formula": self.formula,
            "assouad": self.assouad,
            "lower": self.lower,
            "order_dependent": self.order_dependent,
            "per_cluster_terms": [t.to_json() for t in self.per_cluster_terms],
        }


@dataclass(frozen=True)
class DropReport:
    """Old-formula value minus the grouped-formula value, plus the exact test."""

    drop: float
    equality_condition_holds: bool
    grouped: DimensionReport
    old: DimensionReport

    def to_json(self) -> dict:
        return {
            "drop": self.drop,
            "equality_condition_holds": self.equality_condition_holds,
            "grouped": self.grouped.to_json(),
            "old": self.old.to_json(),
        }


def moran_solve(
    ratios: Sequence[Fraction | float],
    tol: float = 1e-12,
    max_iterations: int = 200,
) -> MoranSolution:
    """Solve sum(c**s) = 1 for s >= 0 by bisection.

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
    while residual > tol and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        e = excess(mid)
        residual = abs(e)
        if e > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return MoranSolution(mid, residual, iterations)


def _extreme_terms(
    counts_by_level: Mapping[int, Mapping[Digit, int]],
    log_base_at: Mapping[int, float],
    levels: Sequence[int],
) -> list[ClusterTerm]:
    """Max/min log-count terms per level, lexicographic tie-break on prefixes."""
    terms = []
    for lvl in levels:
        counts = counts_by_level[lvl]
        items = sorted(counts.items())
        amax = max(items, key=lambda kv: kv[1])
        amin = min(items, key=lambda kv: kv[1])
        # sorted input + stable max/min keeps the lexicographically smallest tie
        log_n = log_base_at[lvl]
        terms.append(
            ClusterTerm(
                cluster=lvl,
                max_term=math.log(amax[1]) / log_n,
                min_term=math.log(amin[1]) / log_n,
                argmax_prefix=amax[0],
                argmin_prefix=amin[0],
            )
        )
    return terms


def has_weak_ordering(spec: SpongeSpec) -> bool:
    """True when some adjacent coordinates share a base (order matters for Eq-by-coordinate formulas)."""
    return any(a == b for a, b in zip(spec.bases, spec.bases[1:]))


def assouad_lower_bm(spec: SpongeSpec) -> DimensionReport:
    """Grouped-coordinate Assouad and lower dimensions of a grid sponge."""
    clusters, tree = spec.clusters, spec.tree
    first = math.log(tree.root_count) / math.log(clusters.cluster_bases[0])
    terms = [ClusterTerm(1, first, first, (), ())]
    counts_by_level = {l: tree.counts_at_level(l - 1) for l in range(2, clusters.d_star + 1)}
    log_bases = {l: math.log(clusters.cluster_bases[l - 1]) for l in range(2, clusters.d_star + 1)}
    terms += _extreme_terms(counts_by_level, log_bases, range(2, clusters.d_star + 1))
    return DimensionReport(
        assouad=math.fsum(t.max_term for t in terms),
        lower=math.fsum(t.min_term for t in terms),
        per_cluster_terms=tuple(terms),
        formula="grouped",
    )


def assouad_lower_old(spec: SpongeSpec) -> DimensionReport:
    """Strict-ordering formula evaluated coordinate by coordinate.

    Correct only when all bases differ; on weakly ordered sponges it is
    order-dependent and can exceed the true value, which is exactly what
    ``dimension_drop`` measures.  The report flags that case.
    """
    counts = per_coordinate_counts(spec)
    first = math.log(counts[1][()]) / math.log(spec.bases[0])
    terms = [ClusterTerm(1, first, first, (), ())]
    log_bases = {l: math.log(spec.bases[l - 1]) for l in range(2, spec.ambient_dim + 1)}
    terms += _extreme_terms(counts, log_bases, range(2, spec.ambient_dim + 1))
    return DimensionReport(
        assouad=math.fsum(t.max_term for t in terms),
        lower=math.fsum(t.min_term for t in terms),
        per_cluster_terms=tuple(terms),
        formula="per_coordinate",
        order_dependent=has_weak_ordering(spec),
    )


def old_formula_spread(spec: SpongeSpec, budget: int = 10000) -> dict:
    """Evaluate the per-coordinate formula over all within-cluster orders.

    Coordinates in different clusters have different bases and cannot be
    swapped, so only permutations inside each cluster are tried.  Returns
    the canonical value together with the min/max/spread over orders.
    """
    clusters = spec.clusters
    per_cluster_perms = [
        list(itertools.permutations(clusters.coord_range(l)))
        for l in range(1, clusters.d_star + 1)
    ]
    total = 1
    for perms in per_cluster_perms:
        total *= len(perms)
    if total > budget:
        raise BudgetExceededError(f"{total} coordinate orders exceed budget {budget}")
    values = []
    for combo in itertools.product(*per_cluster_perms):
        order = [i for block in combo for i in block]
        permuted = SpongeSpec(
            spec.bases, tuple(tuple(d[i] for i in order) for d in spec.digits)
        )
        values.append(assouad_lower_old(permuted).assouad)
    return {
        "canonical": assouad_lower_old(spec).assouad,
        "orders": total,
        "min": min(values),
        "max": max(values),
        "spread": max(values) - min(values),
    }


def _equality_condition(spec: SpongeSpec) -> bool:
    """Exact check: each cluster's max block count factors into per-coordinate maxima."""
    clusters, tree = spec.clusters, spec.tree
    coord_counts = per_coordinate_counts(spec)
    for l in range(1, clusters.d_star + 1):
        if l == 1:
            grouped_max = tree.root_count
        else:
            grouped_max = max(tree.counts_at_level(l - 1).values())
        product = 1
        for k in clusters.coord_range(l):
            product *= max(coord_counts[k + 1].values())
        if grouped_max != product:
            return False
    return True


def dimension_drop(spec: SpongeSpec) -> DropReport:
    """Gap between the per-coordinate and grouped formulas, with the exact criterion."""
    grouped = assouad_lower_bm(spec)
    old = assouad_lower_old(spec)
    condition = _equality_condition(spec)
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
    clusters, tree = spec.clusters, spec.tree
    exponents: dict[Digit, MoranSolution] = {}
    for level in range(clusters.d_star):
        depth = clusters.prefix_len(level + 1)
        for node in tree.nodes_at_level(level):
            ratios = [spec.contraction[node.prefix + blk] for blk in sorted(node.children)]
            try:
                exponents[node.prefix] = moran_solve(ratios)
            except (InvalidRatioError, NoSolutionError) as exc:
                raise type(exc)(f"prefix {node.prefix} (depth {depth}): {exc}") from exc
    return exponents


def assouad_lower_lg(spec: LGSpongeSpec) -> DimensionReport:
    """Assouad and lower dimensions of a prefix sponge with grouped coordinates."""
    clusters, tree = spec.clusters, spec.tree
    exponents = lg_moran_exponents(spec)
    s0 = exponents[()].exponent
    terms = [ClusterTerm(1, s0, s0, (), ())]
    for l in range(2, clusters.d_star + 1):
        prefixes = sorted(n.prefix for n in tree.nodes_at_level(l - 1))
        vals = [(p, exponents[p].exponent) for p in prefixes]
        amax = max(vals, key=lambda kv: kv[1])
        amin = min(vals, key=lambda kv: kv[1])
        terms.append(ClusterTerm(l, amax[1], amin[1], amax[0], amin[0]))
    return DimensionReport(
        assouad=math.fsum(t.max_term for t in terms),
        lower=math.fsum(t.min_term for t in terms),
        per_cluster_terms=tuple(terms),
        formula="moran_grouped",
    )


def dimensions(spec) -> DimensionReport:
    """Dispatch on spec type: grid sponges use counts, prefix sponges use exponents."""
    if isinstance(spec, SpongeSpec):
        return assouad_lower_bm(spec)
    if isinstance(spec, LGSpongeSpec):
        return assouad_lower_lg(spec)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")
