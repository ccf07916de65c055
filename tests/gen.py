"""Sponge spec corpora: seeded random specs, every digit set of a small grid up to symmetry, and a grid spec's JSON.

A grid sponge maps onto an isometric copy when an axis is reflected (digit
d_j -> n_j - 1 - d_j) or coordinates of one cluster (equal bases) are
permuted.  These maps form the grid's symmetry group.
"""

import itertools
import random

from spongedims import SpongeSpec


def random_bm_spec(
    rng: random.Random,
    max_dim: int = 4,
    max_base: int = 5,
    max_digits: int = 12,
    min_dim: int = 1,
) -> SpongeSpec:
    """A valid grid sponge: random bases, a random sample of distinct digits."""
    d = rng.randint(min_dim, max_dim)
    bases = tuple(sorted(rng.randint(2, max_base) for _ in range(d)))
    cells = list(itertools.product(*(range(n) for n in bases)))
    count = rng.randint(2, min(max_digits, len(cells)))
    digits = tuple(rng.sample(cells, count))
    return SpongeSpec(bases, digits)


SMALL_GRIDS = ((2, 3), (3, 3), (2, 2, 2), (2, 4), (3, 4))


def grid_symmetries(bases):
    """Each symmetry of the grid ``bases`` as a map of digits: a within-cluster permutation, then reflections."""
    clusters = [list(run) for _, run in itertools.groupby(range(len(bases)), key=bases.__getitem__)]
    for combo in itertools.product(*map(itertools.permutations, clusters)):
        order = [i for block in combo for i in block]
        for flips in itertools.product((False, True), repeat=len(bases)):
            yield lambda d, order=order, flips=flips: tuple(
                n - 1 - d[i] if flip else d[i] for n, i, flip in zip(bases, order, flips)
            )


def grid_orbits(bases):
    """(spec, orbit size) for every digit set of at least two cells on ``bases``, one per symmetry orbit.

    Every such set is a valid grid sponge.  The representative is the orbit's
    lexicographically least member, as a sorted tuple of digits.
    """
    symmetries = list(grid_symmetries(bases))
    cells = list(itertools.product(*map(range, bases)))
    for count in range(2, len(cells) + 1):
        for digits in itertools.combinations(cells, count):
            images = {tuple(sorted(map(g, digits))) for g in symmetries}
            if digits == min(images):
                yield SpongeSpec(bases, digits), len(images)


def bm_json(spec: SpongeSpec) -> dict:
    """The spec-file document of a grid sponge, as ``spec_from_json`` reads it."""
    return {"type": "bedford-mcmullen", "bases": list(spec.bases), "digits": [list(d) for d in spec.digits]}
