"""Reference trial loop for ``spongedims.measure.ratio_bound_check``.

``ratio_bound_check`` here is the loop the package ran before its trials
moved to integers.  Each trial builds ``Word`` objects, finds both cubes'
depths with ``cube_depths`` and multiplies both masses with
``cube_measure``: exact ``Fraction`` masses for grid sponges, floats for
prefix sponges, divided once.  Prefix-sponge depths come from
``depths_lg``, a running ``Fraction`` product compared with the scale one
coordinate at a time.  Each trial builds a fresh ``random.Random``, samples
``Fraction`` scales with its own copy of the sampler, and draws its word
in doubling batches: 8 digits, then ``len(word) + 8`` more while the word
is too short.  The package's loop draws the same numbers in the same
order up to the last digit a trial reads and nothing after it, and the
digits drawn here past that one are never read, so the tests require the
same report and the same CSV bytes from both.
"""

import csv
import math
import random
from fractions import Fraction

from spongedims.dimensions import dimensions
from spongedims.errors import ScaleTooLargeError, WordTooShortError
from spongedims.measure import RatioBoundReport, Word, block_weights, cube_measure, depths_bm
from spongedims.model import SpongeSpec


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
    per_coord, per_cluster = depths_bm(spec, r)
    need = max(per_coord, default=0)
    try:
        symbols = [word.symbol(j) for j in range(need)]
    except WordTooShortError as exc:
        raise WordTooShortError(f"need {need} symbols for scale {r}") from exc
    for sym in symbols:
        if sym not in spec.digit_set:
            raise ValueError(f"symbol {sym} not in the digit set")
    return per_coord, per_cluster


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
    weights = block_weights(spec)
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
