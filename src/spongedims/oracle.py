"""Brute-force scaling oracle, independent of the closed-form dimensions.

Counts the scale-r approximate cubes inside a scale-R one exactly, with
R = n_1**-k and r = n_1**-(k+m) for the smallest base n_1.  One anchor k
serves a table: the least k that keeps each cluster's counted band clear
of the coarser cluster's pinned band at the largest m
(:func:`build_count_table`); no fixed multiple of m does, as bases (2,3)
need about 1.7m, (3,4) 3.8m and (4,5) 6.2m.  Then log(count) / (m log n_1)
estimates the Assouad and lower dimensions within an O(1/m) bracket built
from the depths and bases alone (:func:`estimate`), not from the formulas.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

from .errors import BudgetExceededError
from .measure import depths_bm
from .model import SpongeSpec

DEPTH_BUDGET = 100_000  # total depth k + m subcube_counts may reach
COUNT_DIGITS = 4_000  # decimal digits a count may have; Python prints an int of up to 4,300


@dataclass(frozen=True)
class CountTable:
    """(max, min) sub-cube counts per (anchor depth, refinement) pair."""

    base: int
    entries: dict[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Estimate:
    """log(count) / (m log n_1) of the max and min counts at a table's largest m; each bracket holds its formula."""

    assouad_estimate: float
    lower_estimate: float
    assouad_bracket: tuple[float, float]
    lower_bracket: tuple[float, float]


def _cluster_depths(spec: SpongeSpec, depth: int) -> tuple[int, ...]:
    """Per-cluster depths at scale n_1**-depth."""
    return depths_bm(spec, Fraction(1, spec.clusters.cluster_bases[0] ** depth))


def subcube_counts(spec: SpongeSpec, anchor_depth: int, refinement: int) -> tuple[int, int]:
    """Exact extreme counts of depth-(k+m) sub-cubes inside a depth-k cube.

    Never enumerates words: anchors act on each position only through
    the grouped prefix they pin there, and any prefix is reachable at any
    position, so the extremes factor into per-position extremes of the
    number of finer prefixes extending the pinned one.  Positions sharing
    a (pinned, counted) level pair share their factor; they form runs
    between consecutive distinct cluster depths, so only the runs are
    walked.  The max count's size is estimated from the factors'
    logarithms and bounded by ``COUNT_DIGITS`` before any is multiplied.
    """
    if anchor_depth < 0 or refinement < 0:
        raise ValueError("depths must be nonnegative")
    if anchor_depth + refinement > DEPTH_BUDGET:
        total = anchor_depth + refinement
        raise BudgetExceededError(f"subcube_counts: needs total depth {total}, budget is {DEPTH_BUDGET}")
    clusters, blocks = spec.clusters, spec.blocks
    outer = _cluster_depths(spec, anchor_depth)
    inner = _cluster_depths(spec, anchor_depth + refinement)
    positions: Counter[tuple[int, int]] = Counter()
    cuts = sorted({0, *outer, *inner})
    for lo, hi in zip(cuts, cuts[1:]):  # positions lo < t <= hi pin, and count, the same clusters
        pinned, counted = sum(k >= hi for k in outer), sum(k >= hi for k in inner)
        if counted > pinned:
            positions[pinned, counted] += hi - lo
    factors = []  # (max, min, repetitions) per level pair
    for (pinned, counted), reps in positions.items():
        cut = clusters.prefix_len(pinned)
        finer = (p + blk for p, extensions in blocks[counted - 1].items() for blk in extensions)
        per_prefix = Counter(q[:cut] for q in finer).values()
        factors.append((max(per_prefix), min(per_prefix), reps))
    digits = math.floor(math.fsum(reps * math.log10(mx) for mx, _, reps in factors)) + 1
    if digits > COUNT_DIGITS:
        raise BudgetExceededError(f"subcube_counts: needs {digits} decimal digits per count, limit is {COUNT_DIGITS}")
    return math.prod(mx**reps for mx, _, reps in factors), math.prod(mn**reps for _, mn, reps in factors)


def build_count_table(spec: SpongeSpec, refinements: Sequence[int]) -> CountTable:
    """Count table over the given refinements, all at one anchor k.

    Cluster l (bases n_1 < n_2 < ...) is pinned to depth k_l(R) and counted
    to k_l(r).  k is the least anchor with k_{l+1}(r) <= k_l(R) for every
    consecutive pair at the largest m, decided on integer depths; the bands
    stay apart at every smaller m, as k_{l+1}(r) falls with r.  As
    k_{l+1}(r) > (k + m) a - 1 and k_l(R) <= k b, for a = log n_1 / log n_{l+1}
    and b = log n_1 / log n_l, no k <= (m a - 1) / (b - a) passes, so the
    search starts a unit below that floor, for rounding, and stops once
    k + m passes ``DEPTH_BUDGET``, where :func:`subcube_counts` refuses.
    """
    bases, top = spec.clusters.cluster_bases, max(refinements)
    rate = [math.log(bases[0]) / math.log(n) for n in bases]  # depth per unit of k, per cluster
    k = max(0, math.floor(max(((top * a - 1) / (b - a) for b, a in zip(rate, rate[1:])), default=0)) - 1)
    while k + top <= DEPTH_BUDGET and any(
        deep > shallow for shallow, deep in zip(_cluster_depths(spec, k), _cluster_depths(spec, k + top)[1:])
    ):
        k += 1
    return CountTable(bases[0], {(k, m): subcube_counts(spec, k, m) for m in refinements})


def estimate(spec: SpongeSpec, table: CountTable) -> Estimate:
    """The estimates at the table's largest refinement m, each with a bracket that holds its formula.

    Cluster l has base n_l, d_l coordinates, and Delta_l = k_l(r) - k_l(R)
    positions on which it is counted but not pinned.  As the bands are
    apart, the clusters before l are pinned and those after it uncounted
    on its band, so the max count is the product of N_l**Delta_l, N_l the
    most cluster-l blocks above one pinned prefix.  The formula's term is
    a_l = log N_l / log n_l, so with e_l = 1 - Delta_l log n_l / (m log n_1),

        formula - log(max count) / (m log n_1) = sum over l of a_l e_l.

    Delta_1 = m, so e_1 = 0; Delta_l differs by two floors from the real
    depth span m log n_1 / log n_l, so |e_l| < log n_l / (m log n_1).  A
    column holds 1 to n_l**d_l blocks, so a_l lies in [0, d_l] and a_l e_l
    in [min(0, d_l e_l), max(0, d_l e_l)]; the sums bound the difference.
    The min count and the lower formula (the fewest blocks) share the
    identity and the bounds.  Only the float logarithms round.
    """
    (k, m), (most, fewest) = max(table.entries.items(), key=lambda item: item[0][1])
    if m == 0:
        raise ValueError("the largest refinement must be at least 1")
    bases, scale = spec.clusters.cluster_bases, m * math.log(table.base)
    deltas = [deep - shallow for shallow, deep in zip(_cluster_depths(spec, k), _cluster_depths(spec, k + m))]
    spans = [d * (1 - delta * math.log(n) / scale) for n, d, delta in zip(bases, spec.clusters.cluster_sizes, deltas)]
    low, high = math.fsum(min(0.0, s) for s in spans), math.fsum(max(0.0, s) for s in spans)
    assouad, lower = math.log(most) / scale, math.log(fewest) / scale
    return Estimate(assouad, lower, (assouad + low, assouad + high), (lower + low, lower + high))


def write_count_csv(table: CountTable, fh: IO[str]) -> None:
    """CSV rows k, m, max_count, min_count, one per table entry in (k, m) order."""
    writer = csv.writer(fh)
    writer.writerow(["k", "m", "max_count", "min_count"])
    writer.writerows([k, m, mx, mn] for (k, m), (mx, mn) in sorted(table.entries.items()))
