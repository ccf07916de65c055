"""Brute-force scaling oracle, independent of the closed-form dimensions.

Counts how many scale-r approximate cubes fit inside a scale-R one, with
both scales anchored to powers of the smallest base so depth vectors are
integer shifts.  Position by position, the digits still pinned by the
outer cube are fixed while the finer clusters range over every extension
in the digit set, so the count is an exact product over positions of
the number of finer prefixes under each pinned one, read off the spec's
block table; maximizing or minimizing the pinned prefix independently
per position gives the densest and thinnest anchors.  The
slope of log(count) against log(R/r) then estimates the Assouad and
lower dimensions without touching the formulas they are checked against.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .errors import BudgetExceededError, InsufficientDataError
from .measure import power_depth
from .model import SpongeSpec

DEPTH_BUDGET = 100_000  # total depth k + m subcube_counts may reach
COUNT_DIGITS = 4_000  # decimal digits a count may have; Python prints an int of up to 4,300


@dataclass(frozen=True)
class CountTable:
    """(max, min) sub-cube counts per (anchor depth, refinement) pair."""

    base: int
    entries: dict[tuple[int, int], tuple[int, int]]


def subcube_counts(spec: SpongeSpec, anchor_depth: int, refinement: int) -> tuple[int, int]:
    """Exact extreme counts of depth-(k+m) sub-cubes inside a depth-k cube.

    Never enumerates words: anchors act on each position only through
    the grouped prefix they pin there, and any prefix is reachable at any
    position, so the extremes factor into per-position extremes of the
    number of finer prefixes extending the pinned one.  Positions sharing
    a (pinned, counted) level pair share their factor, counted once.  The
    max count's size is estimated from those factors' logarithms and
    bounded by ``COUNT_DIGITS`` before any factor is multiplied in.
    """
    if anchor_depth < 0 or refinement < 0:
        raise ValueError("depths must be nonnegative")
    if anchor_depth + refinement > DEPTH_BUDGET:
        raise BudgetExceededError(
            f"subcube_counts: needs total depth {anchor_depth + refinement}, budget is {DEPTH_BUDGET}"
        )
    clusters, blocks = spec.clusters, spec.blocks
    n1 = clusters.cluster_bases[0]
    big = Fraction(1, n1**anchor_depth)
    small = Fraction(1, n1 ** (anchor_depth + refinement))
    outer = tuple(power_depth(n, big) for n in clusters.cluster_bases)
    inner = tuple(power_depth(n, small) for n in clusters.cluster_bases)

    positions: Counter[tuple[int, int]] = Counter()
    for t in range(1, inner[0] + 1):
        pinned = sum(1 for k in outer if k >= t)
        counted = sum(1 for k in inner if k >= t)
        if counted > pinned:
            positions[pinned, counted] += 1
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
    """Count table over the given refinements at anchor depth three times the largest.

    The densest anchors only dominate once the outer cube is deep
    relative to the zoom span, and 3x keeps every tabulated refinement in
    that regime for any base pair.
    """
    anchor_depth = 3 * max(refinements)
    entries = {(anchor_depth, m): subcube_counts(spec, anchor_depth, m) for m in refinements}
    return CountTable(spec.clusters.cluster_bases[0], entries)


@dataclass(frozen=True)
class FitResult:
    assouad_estimate: float
    lower_estimate: float
    incremental_slopes_max: tuple[float, ...]
    incremental_slopes_min: tuple[float, ...]
    residuals_max: tuple[float, ...]
    residuals_min: tuple[float, ...]


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), y - (slope * x + intercept)


def fit_exponent(table: CountTable) -> FitResult:
    """Least-squares slopes of log count against log scale ratio."""
    items = sorted(table.entries.items())
    if len(items) < 3:
        raise InsufficientDataError(f"need at least 3 entries, have {len(items)}")
    log_n = math.log(table.base)
    x = np.array([m * log_n for (_, m), _ in items])
    y_max = np.array([math.log(mx) for _, (mx, _) in items])
    y_min = np.array([math.log(mn) for _, (_, mn) in items])
    slope_max, res_max = _ols(x, y_max)
    slope_min, res_min = _ols(x, y_min)
    inc_max = tuple(float((y_max[i + 1] - y_max[i]) / (x[i + 1] - x[i])) for i in range(len(x) - 1))
    inc_min = tuple(float((y_min[i + 1] - y_min[i]) / (x[i + 1] - x[i])) for i in range(len(x) - 1))
    return FitResult(slope_max, slope_min, inc_max, inc_min, tuple(map(float, res_max)), tuple(map(float, res_min)))


def write_count_csv(table: CountTable, fit: FitResult, fh: IO[str]) -> None:
    """CSV rows k, m, max_count, min_count, incremental_slope (the fit's, vs previous row)."""
    writer = csv.writer(fh)
    writer.writerow(["k", "m", "max_count", "min_count", "incremental_slope"])
    for i, ((k, m), (mx, mn)) in enumerate(sorted(table.entries.items())):
        writer.writerow([k, m, mx, mn, fit.incremental_slopes_max[i - 1] if i else ""])
