import math
import random
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
)
from spongedims.dimensions import assouad_lower_lg, assouad_lower_old, moran_solve
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
    assert abs(assouad_lower_old(fig1).assouad - 2.0) <= 1e-12
    report = assouad_lower_old(modified)
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
        old = assouad_lower_old(spec)
        new = assouad_lower_bm(spec)
        assert not old.order_dependent
        assert abs(old.assouad - new.assouad) <= 1e-12
        assert abs(old.lower - new.lower) <= 1e-12


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
    rng = random.Random(43)
    for _ in range(40):
        spec = random_bm_spec(rng, min_dim=2)
        order = list(range(spec.ambient_dim))
        rng.shuffle(order)
        permuted = SpongeSpec(
            tuple(spec.bases[i] for i in order),
            tuple(tuple(d[i] for i in order) for d in spec.digits),
        )
        a, b = assouad_lower_bm(spec), assouad_lower_bm(permuted)
        assert abs(a.assouad - b.assouad) <= 1e-12
        assert abs(a.lower - b.lower) <= 1e-12


def test_old_formula_spread_detects_order_dependence():
    spec = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 0, 0)))
    spread = old_formula_spread(spec)
    assert spread["spread"] > 0.1
    assert spread["min"] <= spread["canonical"] <= spread["max"]
    # the grouped value never exceeds the smallest order's value
    assert assouad_lower_bm(spec).assouad <= spread["min"] + 1e-12


def test_old_formula_spread_budget():
    spec = SpongeSpec((2, 2, 2, 2), ((0, 0, 0, 0), (1, 1, 1, 1)))
    with pytest.raises(BudgetExceededError, match=r"^old_formula_spread: needs 24 coordinate orders, budget is 3$"):
        old_formula_spread(spec, budget=3)


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
