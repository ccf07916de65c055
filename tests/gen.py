"""Seeded random sponge specs for property-style corpora, and a grid spec's JSON document."""

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


def bm_json(spec: SpongeSpec) -> dict:
    """The spec-file document of a grid sponge, as ``spec_from_json`` reads it."""
    return {"type": "bedford-mcmullen", "bases": list(spec.bases), "digits": [list(d) for d in spec.digits]}
