"""Reference approximate cubes, cube measures and trial loop for ``spongedims.measure``.

``approximate_cube`` builds the approximate cube of a word at a scale,
exact rectangle included, and ``cube_measure`` multiplies its mass from a
conditional table one symbol at a time.  The cubes are the d-dimensional
form of the approximate squares that J. M. Fraser, Trans. Amer. Math. Soc.
366 (2014), uses on self-affine carpets.
A ``Word`` is a head of symbols and a repeating cycle; only these loops
use it, so it and its ``WordTooShortError`` live here.
``ratio_bound_check`` is the loop the package ran before its trials moved
to integers.  Each trial builds ``Word`` objects, finds both cubes' depths
with ``cube_depths`` and multiplies both masses with ``cube_measure``:
exact ``Fraction`` masses for grid sponges, floats for prefix sponges,
divided once.  Its conditionals come from ``conditionals``, which counts
N(prefix) from the digit set and raises prefix-sponge ratios to the Moran
exponents; the package keeps no such table, and reads its per-digit
conditionals straight off ``spec.blocks``.
Prefix-sponge depths come from ``depths_lg``, a running ``Fraction``
product compared with the scale one coordinate at a time.  Each trial
builds a fresh ``random.Random``, samples ``Fraction`` scales with its own
copy of the sampler, and draws its word in doubling batches: 8 digits,
then ``len(word) + 8`` more while the word is too short.  The package's
loop draws the same numbers in the same order up to the last digit a trial
reads and nothing after it, and the digits drawn here past that one are
never read, so the tests require the same report and the same CSV bytes
from both.
"""

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from spongedims.dimensions import dimensions
from spongedims.measure import RatioBoundReport, depths_bm
from spongedims.model import SpongeSpec


class ScaleTooLargeError(Exception):
    """A prefix-sponge scale above the smallest full-depth ratio, where depths are undefined."""


class WordTooShortError(Exception):
    """A word does not supply enough symbols to bracket a scale."""


@dataclass(frozen=True)
class Word:
    """Finite or eventually periodic sequence of digit tuples.

    ``head`` lists the leading symbols; a nonempty ``cycle`` repeats
    forever after it.  An empty cycle means the word is finite.
    """

    head: tuple
    cycle: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(tuple(s) for s in self.head))
        object.__setattr__(self, "cycle", tuple(tuple(s) for s in self.cycle))

    def symbol(self, j):
        """0-based symbol access; ``WordTooShortError`` past the end of a finite word."""
        if j < 0:
            raise IndexError("negative symbol index")
        if j < len(self.head):
            return self.head[j]
        if not self.cycle:
            raise WordTooShortError(f"finite word of length {len(self.head)} has no symbol {j}")
        return self.cycle[(j - len(self.head)) % len(self.cycle)]


def depths_lg(spec, word, r):
    """Per-coordinate and per-cluster depths of ``word`` at ``r`` by a ``Fraction`` product walk."""
    clusters = spec.clusters
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"scale {r} must be positive")
    if r > spec.min_full_contraction:
        raise ScaleTooLargeError(f"scale {r} exceeds the smallest full-depth ratio {spec.min_full_contraction}")
    per_coord = []
    for l in range(1, spec.dims + 1):
        prod = Fraction(1)
        k = 0
        while True:
            try:
                sym = word.symbol(k)
            except WordTooShortError as exc:
                raise WordTooShortError(f"word exhausted before bracketing scale {r} at coordinate {l}") from exc
            if sym not in spec.digit_set:
                raise ValueError(f"symbol {sym} not in the digit set")
            prod *= spec.contraction[sym[:l]]
            if prod < r:
                break
            k += 1
        per_coord.append(k)
    per_cluster = tuple(per_coord[clusters.prefix_len(l) - 1] for l in range(1, clusters.d_star + 1))
    return tuple(per_coord), per_cluster


def cube_depths(spec, word, r):
    """Depths of the approximate cube of ``word`` at ``r``, checking length and digits."""
    r = Fraction(r)
    if not isinstance(spec, SpongeSpec):
        return depths_lg(spec, word, r)
    per_cluster = depths_bm(spec, r)
    per_coord = tuple(per_cluster[c] for c in spec.clusters.cluster_of)
    need = max(per_coord, default=0)
    try:
        symbols = [word.symbol(j) for j in range(need)]
    except WordTooShortError as exc:
        raise WordTooShortError(f"need {need} symbols for scale {r}") from exc
    for sym in symbols:
        if sym not in spec.digit_set:
            raise ValueError(f"symbol {sym} not in the digit set")
    return per_coord, per_cluster


@dataclass(frozen=True)
class ApproximateCube:
    """A word pinned to per-coordinate depths, with its containing rectangle."""

    word: Word
    scale: Fraction
    depths: tuple
    cluster_depths: tuple
    rectangle: tuple

    @property
    def sides(self):
        return tuple(hi - lo for lo, hi in self.rectangle)


def approximate_cube(spec, word, r):
    """The approximate cube of ``word`` at scale ``r``, rectangle included.

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


def conditionals(spec):
    """The measure's conditionals keyed (cluster level, prefix, block).

    Grid sponges: 1/N(prefix), N(prefix) the number of distinct cluster-l
    blocks among the digits with that prefix.  Prefix sponges: the block's
    ratio to the power of its prefix's Moran exponent.
    """
    clusters = spec.clusters
    table = {}
    for l in range(1, clusters.d_star + 1):
        start, stop = clusters.prefix_len(l - 1), clusters.prefix_len(l)
        extensions = {}
        for dig in spec.digits:
            extensions.setdefault(dig[:start], set()).add(dig[start:stop])
        for prefix, blocks in extensions.items():
            for blk in blocks:
                if isinstance(spec, SpongeSpec):
                    mass = Fraction(1, len(blocks))
                else:
                    mass = float(spec.contraction[prefix + blk]) ** spec.moran_exponents[prefix].exponent
                table[(l, prefix, blk)] = mass
    return table


def cluster_block(clusters, digit, level):
    """The cluster-``level`` components of a digit tuple (levels count from 1)."""
    start = clusters.prefix_len(level - 1)
    return digit[start : start + clusters.cluster_sizes[level - 1]]


def cube_measure(spec, weights, word, cluster_depths):
    """Mass of the approximate cube of ``word`` with the given per-cluster depths.

    Cluster ``l`` contributes one conditional from ``weights`` per symbol
    up to its depth ``k_l``; combining the coordinates of a cluster into a
    single block conditional is what keeps the product well-defined when
    several coordinates share a depth.  The product starts from the integer
    1, so it is a ``Fraction`` for exact conditionals and a float otherwise.
    """
    clusters = spec.clusters
    total = 1
    for l in range(1, clusters.d_star + 1):
        for j in range(cluster_depths[l - 1]):
            sym = word.symbol(j)
            key = (l, clusters.prefix(sym, l - 1), cluster_block(clusters, sym, l))
            try:
                total *= weights[key]
            except KeyError:
                raise ValueError(f"symbol {sym} has no conditional at cluster {l}") from None
    return total


def _sample_scale(rng, bases):
    """Random scale in (0, 1]: sometimes an exact power to hit closed boundaries."""
    if rng.random() < 0.25:
        n = rng.choice(list(bases))
        return Fraction(1, n ** rng.randint(0, 6))
    den = rng.randint(2, 2187)
    num = rng.randint(1, den)
    return Fraction(num, den)


def trial_scales(spec, rng):
    """A trial's (R, r) as ``Fraction``s: R scaled to the spec's cap, then r = R * num/den."""
    if isinstance(spec, SpongeSpec):
        big = _sample_scale(rng, spec.bases)
    else:
        big = _sample_scale(rng, range(2, 6)) * spec.min_full_contraction
    den = rng.randint(2, 2187)
    return big, big * Fraction(rng.randint(1, den - 1), den)


def _random_word(rng, digits, length):
    return Word(tuple(rng.choice(digits) for _ in range(length)))


def ratio_bound_check(spec, trials=10000, seed=0, csv_file=None):
    """The per-cube trial loop: same arguments, report and CSV as the package's."""
    report = dimensions(spec)
    weights = conditionals(spec)
    if isinstance(spec, SpongeSpec):
        c_up = float(max(spec.bases) ** spec.ambient_dim)
    else:
        c_up = float(spec.min_full_contraction) ** -spec.dims
    c_low = 1.0 / c_up
    digits = sorted(spec.digit_set)

    writer = None
    if csv_file is not None:
        writer = csv.writer(csv_file)
        writer.writerow(["trial", "r", "R", "ratio", "normalized_upper", "normalized_lower"])

    max_up = 0.0
    min_lo = math.inf
    violations = []
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        big, small = trial_scales(spec, rng)

        word = _random_word(rng, digits, 8)
        while True:
            try:
                _, small_depths = cube_depths(spec, word, small)
                break
            except WordTooShortError:
                word = Word(word.head + _random_word(rng, digits, len(word.head) + 8).head)
        _, big_depths = cube_depths(spec, word, big)

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
