"""Symbolic words, approximate cubes, and Bernoulli measures.

An approximate cube refines a symbolic cylinder coordinate by coordinate:
at scale ``r`` coordinate ``l`` is pinned to depth ``k_l(r)``, the unique
integer with ``(1/n_l)**(k_l+1) < r <= (1/n_l)**k_l``.  Its geometric
shadow is an axis-aligned rectangle whose side lengths all lie in
``[r, n_l * r)``.  Depths are computed by exact rational comparison, never
through logarithms: the defining inequality is half-open and a float
rounding at ``r == n**-k`` would silently shift a depth by one.

For prefix sponges the depth of coordinate ``l`` additionally depends on
the word, through the running product of per-symbol ratios, and is only
defined for scales at or below the smallest full-depth ratio.

One conditional table, ``block_weights(spec)``, carries the measure of
either family, keyed by (cluster level, prefix, block): the block-uniform
measure on grid sponges (mass 1/N at the first cluster, then 1/N(prefix)
per extension, all exact rationals) and the Moran-weight measure on
prefix sponges (each block weighted by ratio**exponent, necessarily
floating point).  The mass of a cube needs only its word and per-cluster
depths (``cube_depths``); ``approximate_cube`` builds the exact rectangle
as well, and only when asked.  ``ratio_bound_check`` drives both families
through the two-scale mass-ratio inequalities that sandwich the Assouad
and lower dimensions, from depth vectors alone.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence, Union

from .dimensions import dimensions, lg_moran_exponents
from .errors import (
    InsufficientLengthError,
    ScaleTooLargeError,
    WordTooShortError,
)
from .model import Digit, LGSpongeSpec, SpongeSpec

AnySpec = Union[SpongeSpec, LGSpongeSpec]


@dataclass(frozen=True)
class Word:
    """Finite or eventually periodic sequence of digit tuples.

    ``head`` lists the leading symbols; a nonempty ``cycle`` repeats
    forever after it.  An empty cycle means the word is finite.
    """

    head: tuple[Digit, ...]
    cycle: tuple[Digit, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(tuple(s) for s in self.head))
        object.__setattr__(self, "cycle", tuple(tuple(s) for s in self.cycle))

    def symbol(self, j: int) -> Digit:
        """0-based symbol access."""
        if j < 0:
            raise IndexError("negative symbol index")
        if j < len(self.head):
            return self.head[j]
        if not self.cycle:
            raise InsufficientLengthError(
                f"finite word of length {len(self.head)} has no symbol {j}"
            )
        return self.cycle[(j - len(self.head)) % len(self.cycle)]

    def prefix(self, n: int) -> tuple[Digit, ...]:
        return tuple(self.symbol(j) for j in range(n))


def power_depth(base: int, r: Fraction) -> int:
    """Unique k >= 0 with (1/base)**(k+1) < r <= (1/base)**k, exactly."""
    if not 0 < r <= 1:
        raise ValueError(f"scale {r} outside (0, 1]")
    p, q = r.numerator, r.denominator
    k = 0
    pw = p * base
    while pw <= q:
        pw *= base
        k += 1
    return k


def depths_bm(spec: SpongeSpec, r: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-coordinate and per-cluster refinement depths at scale ``r``."""
    clusters = spec.clusters
    r = Fraction(r)
    per_cluster = tuple(power_depth(n, r) for n in clusters.cluster_bases)
    per_coord = tuple(per_cluster[clusters.cluster_of[j]] for j in range(spec.ambient_dim))
    return per_coord, per_cluster


def depths_lg(spec: LGSpongeSpec, word: Word, r: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Word-dependent depths: k_l is the last index where the ratio product stays >= r.

    Defined for ``r`` at or below the smallest full-depth ratio, which
    guarantees every depth is at least 1.  Needs ``k_l + 1`` symbols per
    coordinate to witness the product dropping below ``r``.
    """
    clusters = spec.clusters
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"scale {r} must be positive")
    if r > spec.min_full_contraction:
        raise ScaleTooLargeError(
            f"scale {r} exceeds the smallest full-depth ratio {spec.min_full_contraction}"
        )
    digit_set = spec.digit_set
    per_coord = []
    for l in range(1, spec.dims + 1):
        prod = Fraction(1)
        k = 0
        while True:
            try:
                sym = word.symbol(k)
            except InsufficientLengthError as exc:
                raise WordTooShortError(
                    f"word exhausted before bracketing scale {r} at coordinate {l}"
                ) from exc
            if sym not in digit_set:
                raise ValueError(f"symbol {sym} not in the digit set")
            prod *= spec.contraction[sym[:l]]
            if prod < r:
                break
            k += 1
        per_coord.append(k)
    per_cluster = tuple(per_coord[clusters.prefix_len(l) - 1] for l in range(1, clusters.d_star + 1))
    return tuple(per_coord), per_cluster


def cube_depths(spec: AnySpec, word: Word, r: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-coordinate and per-cluster depths of the approximate cube of ``word`` at ``r``.

    Raises ``WordTooShortError`` when ``word`` ends before the deepest
    coordinate and ``ValueError`` on a symbol outside the digit set, for
    either sponge family.
    """
    r = Fraction(r)
    if not isinstance(spec, SpongeSpec):
        return depths_lg(spec, word, r)
    per_coord, per_cluster = depths_bm(spec, r)
    need = max(per_coord, default=0)
    try:
        symbols = word.prefix(need)
    except InsufficientLengthError as exc:
        raise WordTooShortError(f"need {need} symbols for scale {r}") from exc
    digit_set = spec.digit_set
    for sym in symbols:
        if sym not in digit_set:
            raise ValueError(f"symbol {sym} not in the digit set")
    return per_coord, per_cluster


@dataclass(frozen=True)
class ApproximateCube:
    """A word pinned to per-coordinate depths, with its containing rectangle."""

    word: Word
    scale: Fraction
    depths: tuple[int, ...]
    cluster_depths: tuple[int, ...]
    rectangle: tuple[tuple[Fraction, Fraction], ...]

    @property
    def sides(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in self.rectangle)


def approximate_cube(spec: AnySpec, word: Word, r: Fraction) -> ApproximateCube:
    """Build the approximate cube of ``word`` at scale ``r``, rectangle included.

    The rectangle of coordinate ``l`` composes the maps of the first
    ``k_l`` symbols along that coordinate: the corner picks up each
    translation scaled by the ratios before it.  For grid sponges the map
    of digit ``a`` is ``x -> (x + a_l) / n_l``, so the corner is
    ``sum(a_l * n_l**-t)``.
    """
    r = Fraction(r)
    per_coord, per_cluster = cube_depths(spec, word, r)
    grid = isinstance(spec, SpongeSpec)
    rectangle = []
    for l, depth in enumerate(per_coord, 1):
        corner = Fraction(0)
        prod = Fraction(1)
        for t in range(depth):
            sym = word.symbol(t)
            if grid:
                ratio = Fraction(1, spec.bases[l - 1])
                shift = sym[l - 1] * ratio
            else:
                ratio, shift = spec.contraction[sym[:l]], spec.translation[sym[:l]]
            corner += prod * shift
            prod *= ratio
        rectangle.append((corner, corner + prod))
    return ApproximateCube(word, r, per_coord, per_cluster, tuple(rectangle))


def block_weights(spec: AnySpec) -> dict[tuple[int, Digit, Digit], Fraction | float]:
    """The measure's conditional table, keyed (cluster level, prefix, block).

    ``prefix`` is the flattened prefix through the previous cluster and
    ``block`` the digit's block in this one.  Grid sponges get the
    block-uniform measure: each block has mass ``1 / N(prefix)`` given its
    prefix, an exact rational.  Prefix sponges get Moran weights: each
    block has mass ``ratio**s``, with ``s`` the Moran exponent of its
    prefix, a float.  Multiplying the d* conditionals of a digit gives its
    weight, and the weights sum to 1 (up to roundoff for Moran weights).
    """
    clusters, tree = spec.clusters, spec.tree
    grid = isinstance(spec, SpongeSpec)
    exponents = None if grid else lg_moran_exponents(spec)
    table: dict[tuple[int, Digit, Digit], Fraction | float] = {}
    for level in range(clusters.d_star):
        for node in tree.nodes_at_level(level):
            for blk in node.children:
                if grid:
                    mass = Fraction(1, node.child_count)
                else:
                    mass = float(spec.contraction[node.prefix + blk]) ** exponents[node.prefix].exponent
                table[(level + 1, node.prefix, blk)] = mass
    return table


def cube_measure(
    spec: AnySpec,
    weights: Mapping[tuple[int, Digit, Digit], Fraction | float],
    word: Word,
    cluster_depths: Sequence[int],
) -> Fraction | float:
    """Mass of the approximate cube of ``word`` with the given per-cluster depths.

    Cluster ``l`` contributes one conditional from ``weights`` (see
    ``block_weights``) per symbol up to its depth ``k_l``; combining the
    coordinates of a cluster into a single block conditional is what keeps
    the product well-defined when several coordinates share a depth.  The
    product starts from the integer 1, so it is a ``Fraction`` for grid
    sponges and a float for prefix sponges.
    """
    clusters = spec.clusters
    total: Fraction | float = 1
    for l in range(1, clusters.d_star + 1):
        for j in range(cluster_depths[l - 1]):
            sym = word.symbol(j)
            key = (l, clusters.prefix(sym, l - 1), clusters.block(sym, l))
            try:
                total *= weights[key]
            except KeyError:
                raise ValueError(f"symbol {sym} has no conditional at cluster {l}") from None
    return total


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

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "assouad": self.assouad,
            "lower": self.lower,
            "upper_constant": self.upper_constant,
            "lower_constant": self.lower_constant,
            "max_normalized_upper": self.max_normalized_upper,
            "min_normalized_lower": self.min_normalized_lower,
            "violations": list(self.violations),
        }


def _sample_scale(rng: random.Random, bases: Sequence[int]) -> Fraction:
    """Random scale in (0, 1]: sometimes an exact power to hit closed boundaries."""
    if rng.random() < 0.25:
        n = rng.choice(list(bases))
        return Fraction(1, n ** rng.randint(0, 6))
    den = rng.randint(2, 2187)
    num = rng.randint(1, den)
    return Fraction(num, den)


def _random_word(rng: random.Random, digits: Sequence[Digit], length: int) -> Word:
    return Word(tuple(rng.choice(digits) for _ in range(length)))


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
    use ``min_full_ratio**-d``.  The inequalities hold exactly in exact
    arithmetic, so comparisons allow 1e-9 relative slack purely for the
    float powers involved.  Each trial reseeds from (seed, index), so
    trials are reproducible individually.  Masses are those of
    ``block_weights(spec)``, read from the two cubes' depth vectors; no
    rectangle is built.
    """
    report = dimensions(spec)
    weights = block_weights(spec)
    if isinstance(spec, SpongeSpec):
        c_up = float(max(spec.bases) ** spec.ambient_dim)
        scale_cap = Fraction(1)
        bases: Sequence[int] = spec.bases
    else:
        c_up = float(spec.min_full_contraction) ** -spec.dims
        scale_cap = spec.min_full_contraction
        bases = tuple(range(2, 6))
    c_low = 1.0 / c_up
    digits = sorted(spec.digit_set)

    writer = None
    if csv_file is not None:
        writer = csv.writer(csv_file)
        writer.writerow(["trial", "r", "R", "ratio", "normalized_upper", "normalized_lower"])

    max_up = 0.0
    min_lo = math.inf
    violations: list[dict] = []
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        big = _sample_scale(rng, bases) * scale_cap
        den = rng.randint(2, 2187)
        small = big * Fraction(rng.randint(1, den - 1), den)

        word = _random_word(rng, digits, 8)
        while True:
            try:
                _, small_depths = cube_depths(spec, word, small)
                break
            except WordTooShortError:
                word = Word(word.head + _random_word(rng, digits, len(word.head) + 8).head)
        _, big_depths = cube_depths(spec, word, big)

        # all of Q(w, R), then all of Q(w, r), then divide: the float order is part of the output
        mass_big = cube_measure(spec, weights, word, big_depths)
        mass_small = cube_measure(spec, weights, word, small_depths)
        ratio = float(mass_big / mass_small)
        scale_ratio = float(big / small)
        norm_up = ratio / scale_ratio**report.assouad
        norm_lo = ratio / scale_ratio**report.lower

        max_up = max(max_up, norm_up)
        min_lo = min(min_lo, norm_lo)
        row = {
            "trial": t,
            "r": str(small),
            "R": str(big),
            "ratio": ratio,
            "normalized_upper": norm_up,
            "normalized_lower": norm_lo,
        }
        if norm_up > c_up * (1 + 1e-9) or norm_lo < c_low * (1 - 1e-9):
            violations.append(row)
        if writer is not None:
            writer.writerow([t, str(small), str(big), ratio, norm_up, norm_lo])

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
