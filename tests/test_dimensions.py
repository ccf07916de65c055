import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedims import (
    BudgetExceededError,
    InvalidRatioError,
    LGSpongeSpec,
    NoSolutionError,
    SpongeSpec,
    assouad_lower_bm,
    dimension_drop,
    encode_uniform_grid,
    old_formula_spread,
    subcube_counts,
)
from spongedims.dimensions import MORAN_TOL, assouad_lower_lg, moran_solve
from gen import random_bm_spec


# ----------------------------------------------------------------- moran

def test_moran_binary_split():
    sol = moran_solve([Fraction(1, 2), Fraction(1, 2)])
    assert abs(sol.exponent - 1.0) <= 1e-12
    assert sol.residual <= 1e-12


def test_moran_three_quarters():
    sol = moran_solve([Fraction(1, 4)] * 3)
    assert abs(sol.exponent - math.log(3) / math.log(4)) <= 1e-12


def test_moran_mixed_sums_to_one():
    sol = moran_solve([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    assert abs(sol.exponent - 1.0) <= 1e-12


def test_moran_single_ratio_is_zero():
    sol = moran_solve([Fraction(7, 10)])
    assert sol.exponent == 0.0
    assert sol.residual == 0.0


def test_moran_rejects_bad_ratios():
    with pytest.raises(InvalidRatioError):
        moran_solve([])
    with pytest.raises(InvalidRatioError):
        moran_solve([Fraction(3, 2)])
    with pytest.raises(InvalidRatioError):
        moran_solve([Fraction(0)])
    with pytest.raises(NoSolutionError):
        moran_solve([Fraction(1), Fraction(1, 2)])


@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_moran_residual_bound(ratios):
    sol = moran_solve(ratios)
    assert sol.residual <= 1e-12
    assert sol.iterations <= 200
    assert sol.exponent >= 0.0


@given(
    st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=5),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.3, max_value=0.9),
)
@settings(max_examples=100, deadline=None)
def test_moran_monotone_under_shrinking(ratios, idx, factor):
    before = moran_solve(ratios).exponent
    shrunk = list(ratios)
    shrunk[idx % len(shrunk)] *= factor
    after = moran_solve(shrunk).exponent
    assert after <= before + 1e-9


# ------------------------------------------------------------- grid formulas

def test_fig1_values(fig1):
    report = assouad_lower_bm(fig1)
    assert abs(report.assouad - 2.0) <= 1e-12
    assert abs(report.lower - 1.0) <= 1e-12
    assert report.per_cluster_terms[1].argmax_prefix == (0,)
    assert report.per_cluster_terms[1].argmin_prefix == (1,)


def test_modified_values(modified):
    report = assouad_lower_bm(modified)
    assert abs(report.assouad - (1 + math.log(4) / math.log(3))) <= 1e-12
    assert abs(report.lower - 1.0) <= 1e-12


def test_single_cluster_self_similar():
    spec = SpongeSpec((2, 2, 2), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
    report = assouad_lower_bm(spec)
    assert abs(report.assouad - 2.0) <= 1e-12
    assert abs(report.lower - 2.0) <= 1e-12


def test_old_formula_values(fig1, modified):
    assert abs(dimension_drop(fig1).old.assouad - 2.0) <= 1e-12
    report = dimension_drop(modified).old
    assert abs(report.assouad - (2 + math.log(2) / math.log(3))) <= 1e-12
    assert report.order_dependent


def test_old_formula_matches_on_strict_ordering():
    rng = random.Random(31)
    trials = 0
    while trials < 25:
        spec = random_bm_spec(rng, max_dim=3)
        if len(set(spec.bases)) != spec.ambient_dim:
            continue
        trials += 1
        old = dimension_drop(spec).old
        new = assouad_lower_bm(spec)
        # every cluster is one coordinate, so the two formulas are one sum
        assert not old.order_dependent and not new.order_dependent
        assert (old.formula, new.formula) == ("per_coordinate", "grouped")
        assert old.assouad == new.assouad
        assert old.lower == new.lower
        assert old.per_cluster_terms == new.per_cluster_terms


def test_dimension_drop_examples(fig1, modified):
    d1 = dimension_drop(fig1)
    assert d1.drop == 0.0
    assert d1.equality_condition_holds

    d2 = dimension_drop(modified)
    assert abs(d2.drop - (1 - math.log(2) / math.log(3))) <= 1e-12
    assert not d2.equality_condition_holds


def test_drop_nonnegative_and_matches_condition():
    rng = random.Random(37)
    for _ in range(150):
        spec = random_bm_spec(rng, max_dim=4, max_base=4, max_digits=8)
        report = dimension_drop(spec)
        assert report.drop >= 0.0
        assert (report.drop < 1e-12) == report.equality_condition_holds


def test_bounds_and_ordering():
    rng = random.Random(41)
    for _ in range(100):
        spec = random_bm_spec(rng)
        report = assouad_lower_bm(spec)
        assert 0.0 <= report.lower <= report.assouad + 1e-12
        assert report.assouad <= spec.ambient_dim + 1e-12


def test_permutation_invariance():
    # Permuting coordinates inside a cluster permutes each block's tuple but no
    # count N(prefix), so the formulas sum the same floats; a swap across
    # clusters changes the sponge (``SpongeSpec`` sorts coordinates by base).
    specs = [random_bm_spec(random.Random(s), max_dim=4, min_dim=2) for s in range(400)]
    specs = [s for s in specs if s.clusters.d_star >= 2 and max(s.clusters.cluster_sizes) >= 2]
    assert len(specs) == 184
    rng = random.Random(43)
    for spec in specs:
        order = []
        for l in range(1, spec.clusters.d_star + 1):
            coords = tuple(spec.clusters.coord_range(l))
            order += rng.choice(list(itertools.permutations(coords))[1:]) if len(coords) > 1 else coords
        permuted = SpongeSpec(spec.bases, tuple(tuple(d[i] for i in order) for d in spec.digits))
        a, b = assouad_lower_bm(spec), assouad_lower_bm(permuted)
        assert (a.assouad, a.lower) == (b.assouad, b.lower), (spec, order)
        assert subcube_counts(spec, 12, 4) == subcube_counts(permuted, 12, 4), (spec, order)
        # the two evaluators of the per-coordinate formula agree on the identity order
        assert old_formula_spread(spec)["canonical"] == dimension_drop(spec).old.assouad, spec


def _second_iterate(spec):
    """The same sponge as a grid sponge of the squared bases: digits n_j * a_j + b_j for a, b in D."""
    digits = tuple(tuple(n * x + y for n, x, y in zip(spec.bases, a, b)) for a in spec.digits for b in spec.digits)
    return SpongeSpec(tuple(n * n for n in spec.bases), digits)


def test_second_iterate_keeps_dimensions_on_gen_corpus():
    # Every count N(prefix) of the iterate is a product of two counts of the
    # spec, so its extremes are the squares of the spec's, and each term
    # log(N**2) / log(n**2) equals the spec's in exact arithmetic; the floats
    # must agree too.
    specs = [random_bm_spec(random.Random(s), max_dim=4, min_dim=2) for s in range(400)]
    specs = [s for s in specs if s.clusters.d_star >= 2]
    assert len(specs) == 353
    for i, spec in enumerate(specs):
        iterate = _second_iterate(spec)
        a, b = assouad_lower_bm(spec), assouad_lower_bm(iterate)
        assert (a.assouad, a.lower) == (b.assouad, b.lower), spec
        if i < 40:
            # Its prefix-sponge encoding solves one Moran equation per term.
            # A solve stops within MORAN_TOL of 1 for sum(c**s), whose slope at
            # the root is -log(n**2) <= -log 4, so each exponent is off by at
            # most about MORAN_TOL / log 4; doubling covers the rounding of the
            # sum and of the logs.
            tol = 2 * spec.clusters.d_star * MORAN_TOL / math.log(4)
            lg = assouad_lower_lg(encode_uniform_grid(iterate))
            assert abs(lg.assouad - a.assouad) <= tol and abs(lg.lower - a.lower) <= tol, spec


def test_old_formula_spread_detects_order_dependence():
    spec = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 0, 0)))
    spread = old_formula_spread(spec)
    assert spread["spread"] > 0.1
    assert spread["min"] <= spread["canonical"] <= spread["max"]
    # the grouped value never exceeds the smallest order's value
    assert assouad_lower_bm(spec).assouad <= spread["min"] + 1e-12


def test_old_formula_spread_budget(monkeypatch):
    spec = SpongeSpec((2, 2, 2, 2), ((0, 0, 0, 0), (1, 1, 1, 1)))
    monkeypatch.setattr("spongedims.dimensions.SPREAD_BUDGET", 3)
    with pytest.raises(BudgetExceededError, match=r"^old_formula_spread: needs 24 coordinate orders, budget is 3$"):
        old_formula_spread(spec)


def test_old_formula_spread_budget_bounds_memory():
    # 9 coordinates in one cluster: 9! orders, refused before any is generated
    spec = SpongeSpec((2,) * 9, ((0,) * 9, (1,) * 9))
    tracemalloc.start()
    try:
        message = r"^old_formula_spread: needs 362880 coordinate orders, budget is 10000$"
        with pytest.raises(BudgetExceededError, match=message):
            old_formula_spread(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- lg formula

def test_lg_reduction_fig1(fig1, modified):
    for spec in (fig1, modified):
        grid = assouad_lower_bm(spec)
        lg = assouad_lower_lg(encode_uniform_grid(spec))
        assert abs(lg.assouad - grid.assouad) <= 1e-9
        assert abs(lg.lower - grid.lower) <= 1e-9


def test_lg_single_map_dimension_zero():
    spec = LGSpongeSpec(1, {(0,): Fraction(1, 2)}, {(0,): Fraction(0)})
    report = assouad_lower_lg(spec)
    assert report.assouad == 0.0
    assert report.lower == 0.0


def test_lg_nonuniform_hand_computed():
    c = {
        (0,): Fraction(1, 3), (1,): Fraction(1, 2),
        (0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 3),
        (0, 0, 0): Fraction(1, 4), (0, 1, 1): Fraction(1, 4), (1, 0, 0): Fraction(1, 3),
    }
    t = {
        (0,): Fraction(0), (1,): Fraction(1, 2),
        (0, 0): Fraction(0), (0, 1): Fraction(1, 2), (1, 0): Fraction(0),
        (0, 0, 0): Fraction(0), (0, 1, 1): Fraction(1, 4), (1, 0, 0): Fraction(0),
    }
    spec = LGSpongeSpec(3, c, t)
    s0 = moran_solve([Fraction(1, 3), Fraction(1, 2)]).exponent
    report = assouad_lower_lg(spec)
    # cluster 2 exponents: two quarter-maps give 1/2, the single third-map gives 0
    assert abs(report.assouad - (s0 + 0.5)) <= 1e-9
    assert abs(report.lower - s0) <= 1e-9
