"""Reference sub-cube counts by enumerating every word, the brute force ``subcube_counts`` avoids.

Exponential in the anchor and refinement depths, so only small specs and
depths are fed to it; the tests require ``spongedims.subcube_counts`` to
return exactly the same (max, min) pair.
"""

import itertools
from fractions import Fraction

from spongedims.measure import power_depth


def subcube_counts_naive(spec, anchor_depth, refinement):
    """Extreme counts of depth-(k+m) sub-cubes inside a depth-k cube, by enumerating words."""
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
