import io
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from spongedims import SpongeSpec, dimension_drop, subcube_counts
from spongedims.dimensions import dimensions
from spongedims.measure import power_depth
from spongedims.oracle import build_count_table, estimate, write_count_csv
from count_reference import subcube_counts_naive
from gen import random_bm_spec


def test_counts_first_refinement(fig1):
    # R = 1, r = 1/2: only the first coordinate refines, two first digits exist
    assert subcube_counts(fig1, 0, 1) == (2, 2)


def test_counts_single_cluster_powers():
    spec = SpongeSpec((2, 2, 2), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
    for k in (0, 1, 2):
        for m in (1, 2, 3):
            assert subcube_counts(spec, k, m) == (4**m, 4**m)


def test_counts_monotone_in_refinement(fig1, modified):
    for spec in (fig1, modified):
        for k in (0, 2, 5):
            prev_max, prev_min = 1, 1
            for m in range(0, 6):
                mx, mn = subcube_counts(spec, k, m)
                assert 1 <= mn <= mx
                assert mx >= prev_max
                assert mn >= prev_min
                prev_max, prev_min = mx, mn


# (k, m) pairs; on fig1, from (1, 2) on, one (pinned, counted) cluster-level
# pair covers two or more positions, whose shared factor is raised to a power
DEPTH_PAIRS = ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (1, 3), (0, 4), (2, 2))


def _shared_level_pairs(spec, k, m):
    """(pinned, counted) cluster-level pairs that two or more positions share."""
    n1 = spec.clusters.cluster_bases[0]
    outer = [power_depth(n, Fraction(1, n1**k)) for n in spec.clusters.cluster_bases]
    inner = [power_depth(n, Fraction(1, n1 ** (k + m))) for n in spec.clusters.cluster_bases]
    pairs = Counter(
        (sum(o >= t for o in outer), sum(i >= t for i in inner)) for t in range(1, inner[0] + 1)
    )
    return {pair for pair, reps in pairs.items() if pair[1] > pair[0] and reps >= 2}


def test_dp_matches_naive_spot_checks(fig1, modified):
    assert (0, 1) in _shared_level_pairs(fig1, 1, 3)
    for spec in (fig1, modified):
        for k, m in DEPTH_PAIRS:
            assert subcube_counts(spec, k, m) == subcube_counts_naive(spec, k, m)
    # a shared pair that pins a nonempty prefix, whose columns differ (2 vs 1)
    wide = SpongeSpec((2, 8), ((0, 0), (0, 5), (1, 3)))
    assert (1, 2) in _shared_level_pairs(wide, 2, 4)
    assert subcube_counts(wide, 2, 4) == subcube_counts_naive(wide, 2, 4) == (64, 16)


def test_dp_matches_naive_random_corpus():
    rng = random.Random(71)
    for _ in range(40):
        spec = random_bm_spec(rng, max_dim=3, max_base=3, max_digits=5)
        for k, m in DEPTH_PAIRS:
            assert subcube_counts(spec, k, m) == subcube_counts_naive(spec, k, m)


# Float rounding of the logarithms in the estimate, the bracket and the
# formula; the bracket itself is exact in real arithmetic.
ROUNDING = 1e-9


def _bracket_misses(spec, refinements):
    """Formula values outside the oracle's bracket at the largest refinement, as (name, value, bracket)."""
    report = dimensions(spec)
    est = estimate(spec, build_count_table(spec, refinements))
    pairs = (("assouad", report.assouad, est.assouad_bracket), ("lower", report.lower, est.lower_bracket))
    return [(name, value, (lo, hi)) for name, value, (lo, hi) in pairs if not lo - ROUNDING <= value <= hi + ROUNDING]


def _gen_spec(seed):
    return random_bm_spec(random.Random(seed), max_dim=4, min_dim=2)


def _power_depths(bases, depth):
    """Per-cluster depths at scale bases[0]**-depth, one ``power_depth`` each."""
    return [power_depth(n, Fraction(1, bases[0] ** depth)) for n in bases]


def _anchor(spec, m):
    """The anchor k ``build_count_table`` picks for largest refinement m."""
    (k, _), = build_count_table(spec, (m,)).entries
    return k


def test_fit_single_cluster_exact():
    # one cluster: the count is N**m and the bracket closes on the estimate
    spec = SpongeSpec((2, 2), ((0, 0), (0, 1), (1, 0), (1, 1)))
    est = estimate(spec, build_count_table(spec, range(4, 11)))
    assert abs(est.assouad_estimate - 2.0) <= ROUNDING
    assert abs(est.lower_estimate - 2.0) <= ROUNDING
    assert est.assouad_bracket == (est.assouad_estimate, est.assouad_estimate)


def test_fit_fig1_band(fig1):
    # the formula's 2 and 1 lie in brackets of width d_2 |e_2| < 2 log 3 / (10 log 2)
    est = estimate(fig1, build_count_table(fig1, range(4, 11)))
    assert not _bracket_misses(fig1, range(4, 11))
    for lo, hi in (est.assouad_bracket, est.lower_bracket):
        assert hi - lo < 2 * math.log(3) / (10 * math.log(2))


GRID4 = SpongeSpec((2, 3, 3, 4), ((0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 3), (1, 0, 1, 2)))


@pytest.mark.parametrize("case", ["fig1", "modified", "grid4", 12, 79, 285, 315])
def test_bracket_contains_formula(request, case):
    # pinned specs, then gen specs with close bases: seed 12 (3,4,4), 79 (4,5), 285 and 315 (2,4,5)
    if isinstance(case, int):
        spec = _gen_spec(case)
    else:
        spec = GRID4 if case == "grid4" else request.getfixturevalue(case)
    for refinements in ((4, 5, 6), range(4, 11), (30,)):
        assert not _bracket_misses(spec, refinements)


def test_close_bases_need_a_deeper_anchor():
    # (4,5) needs k of about 6.2m, more than twice the old fixed 3m
    assert _gen_spec(79).clusters.cluster_bases == (4, 5)
    assert _anchor(_gen_spec(79), 10) > 3 * 10
    assert _gen_spec(12).bases == (3, 4, 4)
    assert _gen_spec(285).clusters.cluster_bases == _gen_spec(315).clusters.cluster_bases == (2, 4, 5)


def test_modified_bracket_excludes_the_old_fit(modified):
    # At depths 4,5,6 the least-squares fit read 3.0; at 4..10 it read 2.2143,
    # inside the m = 10 bracket but 0.048 below the formula.
    old = estimate(modified, build_count_table(modified, (4, 5, 6)))
    lo, hi = old.assouad_bracket
    assert not lo <= 3.0 <= hi
    est = estimate(modified, build_count_table(modified, range(4, 11)))
    assert [round(x, 3) for x in est.assouad_bracket] == [2.2, 2.298]
    assert not _bracket_misses(modified, range(4, 11))


@pytest.mark.parametrize("m", [10, 100])
def test_bracket_contains_formula_on_gen_corpus(m):
    # every gen spec with two or more clusters; a 3m anchor misses 119 of 353 at m = 10
    specs = [spec for spec in map(_gen_spec, range(400)) if spec.clusters.d_star >= 2]
    assert len(specs) == 353
    misses = [(spec.bases, miss) for spec in specs for miss in _bracket_misses(spec, (m,))]
    assert not misses, misses[:5]


def _per_coordinate_formula(bases, digits):
    """(Assouad, lower) of the per-coordinate formula in the given coordinate order, counted from the digits.

    Coordinate j contributes log(max N) / log n_j, or log(min N) / log n_j,
    with N the number of distinct j-th entries above a prefix of the
    first j entries.
    """
    most, fewest = [], []
    for j, n in enumerate(bases):
        extensions = {}
        for d in digits:
            extensions.setdefault(d[:j], set()).add(d[j])
        counts = [len(entries) for entries in extensions.values()]
        most.append(math.log(max(counts)) / math.log(n))
        fewest.append(math.log(min(counts)) / math.log(n))
    return math.fsum(most), math.fsum(fewest)


def _outside(value, bracket):
    """How far ``value`` lies outside ``bracket``; at most ``ROUNDING`` counts as inside."""
    lo, hi = bracket
    return max(lo - value, value - hi)


def test_bracket_excludes_the_per_coordinate_formula_on_gen_corpus():
    # The paper's headline: where the per-coordinate formula differs from the
    # grouped one, the exact counts at m = 100 reject it.  Its smallest gap
    # outside the bracket is 0.1025, far above ROUNDING.
    specs = [spec for spec in map(_gen_spec, range(400)) if spec.clusters.d_star >= 2]
    assert len(specs) == 353
    differing = {"assouad": [], "lower": []}
    for spec in specs:
        est = estimate(spec, build_count_table(spec, (100,)))
        drop = dimension_drop(spec)
        for name, bracket in (("assouad", est.assouad_bracket), ("lower", est.lower_bracket)):
            old, grouped = getattr(drop.old, name), getattr(drop.grouped, name)
            if abs(old - grouped) > ROUNDING:
                differing[name].append((_outside(old, bracket), spec))
    assert (len(differing["assouad"]), len(differing["lower"])) == (102, 66)
    inside = [(name, spec) for name, rows in differing.items() for gap, spec in rows if gap <= ROUNDING]
    assert not inside, inside[:5]


def test_bracket_excludes_every_differing_coordinate_order_on_gen_corpus():
    # The per-order version: every within-cluster coordinate order, scored by
    # ``_per_coordinate_formula``, either gives the grouped value or lies
    # outside the bracket.
    specs = [spec for spec in map(_gen_spec, range(400)) if spec.clusters.d_star >= 2]
    differing_specs, values, inside = 0, 0, []
    for spec in specs:
        est = estimate(spec, build_count_table(spec, (100,)))
        drop = dimension_drop(spec)
        cl = spec.clusters
        orders = itertools.product(*(itertools.permutations(cl.coord_range(l)) for l in range(1, cl.d_star + 1)))
        found = False
        for i, combo in enumerate(orders):  # the identity order first
            order = [j for block in combo for j in block]
            scores = _per_coordinate_formula(spec.bases, [tuple(d[j] for j in order) for d in spec.digits])
            if i == 0:
                assert scores == (drop.old.assouad, drop.old.lower), spec
            pairs = zip(scores, (drop.grouped.assouad, drop.grouped.lower), (est.assouad_bracket, est.lower_bracket))
            for value, grouped, bracket in pairs:
                if abs(value - grouped) > ROUNDING:
                    found, values = True, values + 1
                    if _outside(value, bracket) <= ROUNDING:
                        inside.append((spec, order, value, bracket))
        differing_specs += found
    assert (differing_specs, values) == (122, 488)
    assert not inside, inside[:5]


def test_separated_counts_are_products_of_cluster_extremes():
    # the estimate's premise: at the anchor, max and min count = prod over l of N_l**Delta_l
    for seed in range(0, 400, 7):
        spec = _gen_spec(seed)
        bases = spec.clusters.cluster_bases
        for m in (3, 10):
            k = _anchor(spec, m)
            outer, inner = _power_depths(bases, k), _power_depths(bases, k + m)
            columns = [[len(ext) for ext in level.values()] for level in spec.blocks]
            most = math.prod(max(c) ** (i - o) for c, i, o in zip(columns, inner, outer))
            fewest = math.prod(min(c) ** (i - o) for c, i, o in zip(columns, inner, outer))
            assert subcube_counts(spec, k, m) == (most, fewest)


def _reflected(spec, j):
    """The spec mirrored on coordinate j, x_j -> n_j - 1 - x_j: a cube isometry taking one sponge onto the other."""
    digits = tuple(d[:j] + (spec.bases[j] - 1 - d[j],) + d[j + 1 :] for d in spec.digits)
    return SpongeSpec(spec.bases, digits)


def test_reflection_keeps_dimensions_and_counts_on_gen_corpus():
    specs = [spec for spec in map(_gen_spec, range(100)) if spec.clusters.d_star >= 2][:50]
    assert len(specs) == 50
    for i, spec in enumerate(specs):
        mirror = _reflected(spec, i % spec.ambient_dim)
        before, after = dimensions(spec), dimensions(mirror)
        assert (before.assouad, before.lower) == (after.assouad, after.lower), spec
        assert subcube_counts(spec, 12, 4) == subcube_counts(mirror, 12, 4), spec


def test_anchor_is_the_least_separating_depth():
    # the float start never skips past the least k found by scanning from 0
    def scan(bases, m):
        for k in range(0, 20 * m + 20):
            outer, inner = _power_depths(bases, k), _power_depths(bases, k + m)
            if all(inner[l + 1] <= outer[l] for l in range(len(bases) - 1)):
                return k

    for seed in range(60):
        spec = _gen_spec(seed)
        for m in (1, 3, 10, 50):
            assert _anchor(spec, m) == scan(spec.clusters.cluster_bases, m)


def test_estimate_needs_a_refinement_above_zero(fig1):
    with pytest.raises(ValueError):
        estimate(fig1, build_count_table(fig1, (0,)))


def test_count_csv(fig1):
    table = build_count_table(fig1, (4, 5, 6))
    buf = io.StringIO()
    write_count_csv(table, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,m,max_count,min_count"
    assert lines[1:] == [f"{k},{m},{mx},{mn}" for (k, m), (mx, mn) in sorted(table.entries.items())]


def test_subcube_counts_budget_names_stage_size_and_limit(fig1, monkeypatch):
    from spongedims import BudgetExceededError

    monkeypatch.setattr("spongedims.oracle.DEPTH_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match=r"^subcube_counts: needs total depth 12, budget is 10$"):
        subcube_counts(fig1, 8, 4)
