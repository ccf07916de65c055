"""Refinement depths and Bernoulli measures.

An approximate cube refines a symbolic cylinder, a word of digits,
coordinate by coordinate: at scale ``r`` coordinate ``l`` is pinned to
depth ``k_l(r)``, the unique integer with
``(1/n_l)**(k_l+1) < r <= (1/n_l)**k_l``.  Depths are decided by exact
integer comparison, never by logarithms: the defining inequality is
half-open and a float rounding at ``r == n**-k`` would silently shift a
depth by one.

For prefix sponges the depth of coordinate ``l`` additionally depends on
the word, through the running product of per-symbol ratios, kept as an
unreduced integer pair (``_walk_depths``), and is only defined for scales
at or below the smallest full-depth ratio.

The measure lives in the block table ``spec.blocks``: on grid sponges
the block-uniform measure gives each block mass 1/N(prefix) above its
prefix, N(prefix) the prefix's number of blocks; on prefix sponges the
Moran-weight measure gives it its ratio to the power of its prefix's
Moran exponent, necessarily a float.  The mass of a cube needs only its
word and per-cluster depths.  ``ratio_bound_check`` drives both families through
the two-scale mass-ratio inequalities that sandwich the Assouad and lower
dimensions on integers and per-digit conditionals read off that table;
it builds no ``Fraction`` mass, and a grid sponge's mass ratio is an
exact integer.  Its scales are unreduced integer pairs (every comparison
on them is scale-invariant), a row's ``Fraction`` strings are built only
when the row is written or violated, and a trial draws only the digits
it reads.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Callable, Sequence

from .dimensions import dimensions
from .errors import BudgetExceededError
from .model import AnySpec, Digit, LGSpongeSpec, SpongeSpec


def power_depth(base: int, r: Fraction) -> int:
    """Unique k >= 0 with (1/base)**(k+1) < r <= (1/base)**k, exactly; ``ValueError`` for a base below 2."""
    if base < 2:
        raise ValueError(f"base {base} is below 2")
    p, q = r.numerator, r.denominator
    if not 0 < p <= q:
        raise ValueError(f"scale {r} outside (0, 1]")
    return _depth(base, p, q)


def _depth(base: int, p: int, q: int) -> int:
    """``power_depth`` of p/q in (0, 1], which need not be reduced: the largest k with p * base**k <= q."""
    k, pw = 0, p * base
    if q.bit_length() - p.bit_length() > 64:  # count on from one below a float guess, whose error is far below 1
        k = max(0, math.floor((math.log(q) - math.log(p)) / math.log(base)) - 1)
        pw = p * base ** (k + 1)
    while pw <= q:
        pw *= base
        k += 1
    return k


def depths_bm(spec: SpongeSpec, r: Fraction) -> tuple[int, ...]:
    """Per-cluster refinement depths at scale ``r``; coordinate j's is that of ``clusters.cluster_of[j]``."""
    r = Fraction(r)
    return tuple(power_depth(n, r) for n in spec.clusters.cluster_bases)


def _cluster_ratios(spec: LGSpongeSpec) -> list[dict[Digit, tuple[int, int]]]:
    """Per cluster, each digit's ratio as an int pair; a cluster's coordinates share every ratio."""
    ends = [spec.clusters.prefix_len(l) for l in range(1, spec.clusters.d_star + 1)]
    return [{dig: spec.contraction[dig[:end]].as_integer_ratio() for dig in spec.digits} for end in ends]


def _walk_depths(columns: list[dict[Digit, tuple[int, int]]], word: list[Digit],
                 scales: list[tuple[int, int]], more: Callable[[list[Digit]], None]) -> list[list[int]]:
    """Per-cluster depths of ``word`` at each of the decreasing ``scales`` p/q, one walk per cluster.

    The ratio product stays an unreduced int pair (num, den); the depth at
    p/q is the index of the first symbol taking it below p/q, exactly when
    ``num * q < p * den``.  ``more(word)`` extends the word in place.
    """
    depths: list[list[int]] = [[] for _ in scales]
    for column in columns:
        num = den = 1
        k = -1
        for out, (p, q) in zip(depths, scales):
            while num * q >= p * den:
                k += 1
                if k == len(word):
                    more(word)
                a, b = column[word[k]]
                num *= a
                den *= b
            out.append(k)
    return depths


@dataclass(frozen=True)
class RatioBoundReport:
    """Worst normalized two-scale mass ratios over a randomized corpus."""

    trials: int
    seed: int
    assouad: float
    lower: float
    upper_constant: float
    lower_constant: float
    max_normalized_upper: float
    min_normalized_lower: float
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def ratio_bound_check(
    spec: AnySpec,
    trials: int = 10000,
    seed: int = 0,
    csv_file: IO[str] | None = None,
) -> RatioBoundReport:
    """Sample (word, r, R) pairs and test the two-scale mass-ratio bounds.

    Checks ``mass(Q(w, R)) / mass(Q(w, r)) <= C_up * (R/r)**assouad`` and
    ``>= C_low * (R/r)**lower`` with C_up the ambient-grid constant
    ``n_d**d`` for grid sponges (its inverse for C_low); prefix sponges
    use ``min_full_contraction**-d``; a C_up that float64 cannot hold is
    refused with ``BudgetExceededError`` before the first trial.  The
    inequalities hold exactly in exact arithmetic, so comparisons allow
    1e-9 relative slack purely for the float powers involved.  One
    generator is reseeded from (seed, index) for each trial, so every
    trial is reproducible on its own; ``seed`` must be nonnegative, since
    ``random`` seeds with its absolute value.
    A trial draws R, then r = R * num/den, then the word, one digit at a
    time and only as far as it is read; the word is its last draw, so
    digits it leaves undrawn would change nothing.  R and r stay
    unreduced integer pairs: depths compare them by scale-invariant
    cross-multiplication, and a row's ``Fraction`` strings are built only
    when it is written or violated.  A grid sponge's mass ratio is the
    exact integer product of ``N(prefix)``, read off ``spec.blocks``, over
    the positions ``k_l(R) <= j < k_l(r)`` of each cluster.  A prefix
    sponge's conditionals are each block's ratio to the power of its
    prefix's Moran exponent, one tuple per digit, and its depths come from
    one integer walk (``_walk_depths``), both at once.
    """
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    report = dimensions(spec)
    clusters = spec.clusters
    levels = range(1, clusters.d_star + 1)
    grid = isinstance(spec, SpongeSpec)
    try:  # a ratio below float64's least subnormal rounds to 0.0, whose negative power raises too
        c_up = float(max(spec.bases) ** spec.ambient_dim) if grid else float(spec.min_full_contraction) ** -spec.dims
    except (OverflowError, ZeroDivisionError):
        constant = f"{max(spec.bases)}**{spec.ambient_dim}" if grid else f"({spec.min_full_contraction})**-{spec.dims}"
        raise BudgetExceededError(
            f"measure-check upper constant: {constant} exceeds the float64 limit {sys.float_info.max!r}"
        ) from None
    if grid:
        cap_p = cap_q = 1
        bases: Sequence[int] = spec.bases
        counts = {dig: tuple(len(spec.blocks[l - 1][clusters.prefix(dig, l - 1)]) for l in levels)  # N(prefix)
                  for dig in spec.digit_set}
    else:
        cap_p, cap_q = spec.min_full_contraction.as_integer_ratio()
        bases = tuple(range(2, 6))
        columns = _cluster_ratios(spec)
        exponents = spec.moran_exponents
        conditionals = {
            dig: tuple(
                float(spec.contraction[clusters.prefix(dig, l)]) ** exponents[clusters.prefix(dig, l - 1)].exponent
                for l in levels
            )
            for dig in spec.digit_set
        }
    c_low = 1.0 / c_up
    digits = spec.digits
    rng = random.Random()
    choice = rng.choice

    def more(word: list[Digit]) -> None:
        word.append(choice(digits))

    header = ("trial", "r", "R", "ratio", "normalized_upper", "normalized_lower")
    writer = None
    if csv_file is not None:
        writer = csv.writer(csv_file)
        writer.writerow(header)

    max_up = 0.0
    min_lo = math.inf
    violations: list[dict] = []
    for t in range(trials):
        rng.seed(seed * 1_000_003 + t)
        # R is the cap times a random scale in (0, 1], an exact power a quarter of the time
        if rng.random() < 0.25:
            big_p, big_q = cap_p, cap_q * choice(bases) ** rng.randint(0, 6)
        else:
            q = rng.randint(2, 2187)
            big_p, big_q = cap_p * rng.randint(1, q), cap_q * q
        den = rng.randint(2, 2187)
        num = rng.randint(1, den - 1)
        small_p, small_q = big_p * num, big_q * den

        if grid:
            big_depths = [_depth(n, big_p, big_q) for n in clusters.cluster_bases]
            small_depths = [_depth(n, small_p, small_q) for n in clusters.cluster_bases]
            word = [choice(digits) for _ in range(max(small_depths))]
            spans = enumerate(zip(big_depths, small_depths))
            ratio = float(math.prod(counts[sym][l] for l, (k, k_small) in spans for sym in word[k:k_small]))
        else:
            word = []
            scales = [(big_p, big_q), (small_p, small_q)]
            big_depths, small_depths = _walk_depths(columns, word, scales, more)
            # all of Q(w, R), then all of Q(w, r), then divide: the float order is part of the output
            mass_big = math.prod(conditionals[sym][l] for l, k in enumerate(big_depths) for sym in word[:k])
            mass_small = math.prod(conditionals[sym][l] for l, k in enumerate(small_depths) for sym in word[:k])
            ratio = mass_big / mass_small
        scale_ratio = den / num  # R / r exactly, rounded once as float(big / small) is
        norm_up = ratio / scale_ratio**report.assouad
        norm_lo = ratio / scale_ratio**report.lower

        max_up = max(max_up, norm_up)
        min_lo = min(min_lo, norm_lo)
        violated = norm_up > c_up * (1 + 1e-9) or norm_lo < c_low * (1 - 1e-9)
        if violated or writer is not None:  # the row's Fraction strings cost more than the trial's test
            row = (t, str(Fraction(small_p, small_q)), str(Fraction(big_p, big_q)), ratio, norm_up, norm_lo)
            if violated:
                violations.append(dict(zip(header, row)))
            if writer is not None:
                writer.writerow(row)

    return RatioBoundReport(
        trials=trials,
        seed=seed,
        assouad=report.assouad,
        lower=report.lower,
        upper_constant=c_up,
        lower_constant=c_low,
        max_normalized_upper=max_up,
        min_normalized_lower=min_lo,
        violations=tuple(violations),
    )
