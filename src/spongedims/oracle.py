"""Brute-force scaling oracle, independent of the closed-form dimensions.

Counts how many scale-r approximate cubes fit inside a scale-R one, with
both scales anchored to powers of the smallest base so depth vectors are
integer shifts.  Position by position, the digits still pinned by the
outer cube are fixed while the finer clusters range over every extension
in the digit set, so the count is an exact product over positions of
digit-tree descendant counts; maximizing or minimizing the pinned prefix
independently per position gives the densest and thinnest anchors.  The
slope of log(count) against log(R/r) then estimates the Assouad and
lower dimensions without touching the formulas they are checked against.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .errors import BudgetExceededError, InsufficientDataError
from .measure import power_depth
from .model import SpongeSpec


@dataclass(frozen=True)
class CountTable:
    """(max, min) sub-cube counts per (anchor depth, refinement) pair."""

    base: int
    entries: dict[tuple[int, int], tuple[int, int]]

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "entries": [
                {"k": k, "m": m, "max_count": mx, "min_count": mn}
                for (k, m), (mx, mn) in sorted(self.entries.items())
            ],
        }


def subcube_counts(
    spec: SpongeSpec, anchor_depth: int, refinement: int, budget: int = 100_000
) -> tuple[int, int]:
    """Exact extreme counts of depth-(k+m) sub-cubes inside a depth-k cube.

    Never enumerates words: anchors act on each position only through
    the digit-tree node they pin there, and any node is reachable at any
    position, so the extremes factor into per-position extremes of
    descendant counts.
    """
    if anchor_depth < 0 or refinement < 0:
        raise ValueError("depths must be nonnegative")
    if anchor_depth + refinement > budget:
        raise BudgetExceededError(f"total depth {anchor_depth + refinement} exceeds budget {budget}")
    clusters, tree = spec.clusters, spec.tree
    n1 = clusters.cluster_bases[0]
    big = Fraction(1, n1**anchor_depth)
    small = Fraction(1, n1 ** (anchor_depth + refinement))
    outer = tuple(power_depth(n, big) for n in clusters.cluster_bases)
    inner = tuple(power_depth(n, small) for n in clusters.cluster_bases)

    max_count = 1
    min_count = 1
    for t in range(1, inner[0] + 1):
        pinned = sum(1 for k in outer if k >= t)
        counted = sum(1 for k in inner if k >= t)
        if counted <= pinned:
            continue
        sources = tree.nodes_at_level(pinned)
        per_node = [tree.descendant_count(node, counted) for node in sources]
        max_count *= max(per_node)
        min_count *= min(per_node)
    return max_count, min_count


def subcube_counts_naive(
    spec: SpongeSpec, anchor_depth: int, refinement: int
) -> tuple[int, int]:
    """Same counts by enumerating words; exponential, for cross-checks only."""
    n1 = spec.clusters.cluster_bases[0]
    big = Fraction(1, n1**anchor_depth)
    small = Fraction(1, n1 ** (anchor_depth + refinement))
    outer = tuple(power_depth(n, big) for n in spec.bases)
    inner = tuple(power_depth(n, small) for n in spec.bases)
    digits = sorted(spec.digit_set)
    total = inner[0]

    counts = []
    for anchor in itertools.product(digits, repeat=anchor_depth):
        seen = set()
        for word in itertools.product(digits, repeat=total):
            ok = True
            for j in range(spec.ambient_dim):
                for t in range(min(outer[j], anchor_depth)):
                    if word[t][j] != anchor[t][j]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            ident = tuple(
                tuple(word[t][j] for t in range(inner[j])) for j in range(spec.ambient_dim)
            )
            seen.add(ident)
        counts.append(len(seen))
    return max(counts), min(counts)


def build_count_table(
    spec: SpongeSpec,
    refinements: Sequence[int],
    anchor_depth: int | None = None,
    budget: int = 100_000,
) -> CountTable:
    """Count table over the given refinements at a fixed anchor depth.

    The default anchor is three times the largest refinement: the densest
    anchors only dominate once the outer cube is deep relative to the
    zoom span, and 3x keeps every tabulated refinement in that regime for
    any base pair.
    """
    base = spec.clusters.cluster_bases[0]
    if anchor_depth is None:
        anchor_depth = 3 * max(refinements)
    entries = {
        (anchor_depth, m): subcube_counts(spec, anchor_depth, m, budget) for m in refinements
    }
    return CountTable(base, entries)


@dataclass(frozen=True)
class FitResult:
    assouad_estimate: float
    lower_estimate: float
    incremental_slopes_max: tuple[float, ...]
    incremental_slopes_min: tuple[float, ...]
    residuals_max: tuple[float, ...]
    residuals_min: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "assouad_estimate": self.assouad_estimate,
            "lower_estimate": self.lower_estimate,
            "incremental_slopes_max": list(self.incremental_slopes_max),
            "incremental_slopes_min": list(self.incremental_slopes_min),
            "residuals_max": list(self.residuals_max),
            "residuals_min": list(self.residuals_min),
        }


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


def write_count_csv(table: CountTable, fh: IO[str]) -> None:
    """CSV rows k, m, max_count, min_count, incremental_slope (vs previous row)."""
    writer = csv.writer(fh)
    writer.writerow(["k", "m", "max_count", "min_count", "incremental_slope"])
    log_n = math.log(table.base)
    prev = None
    for (k, m), (mx, mn) in sorted(table.entries.items()):
        if prev is None:
            slope = ""
        else:
            (pk, pm), pmx = prev
            slope = (math.log(mx) - math.log(pmx)) / ((m - pm) * log_n)
        writer.writerow([k, m, mx, mn, slope])
        prev = ((k, m), mx)
