import io
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedims import (
    ScaleTooLargeError,
    SpongeSpec,
    Word,
    WordTooShortError,
    approximate_cube,
    cube_measure,
    depths_bm,
    depths_lg,
    encode_uniform_grid,
    lg_moran_exponents,
    lg_weights,
    pcu_weights,
    power_depth,
    ratio_bound_check,
)
from gen import random_bm_spec


# ------------------------------------------------------------------ depths

def test_power_depth_examples():
    assert power_depth(3, Fraction(1, 9)) == 2
    assert power_depth(3, Fraction(1, 10)) == 2
    assert power_depth(2, Fraction(1)) == 0


def test_depths_bm_fig1(fig1):
    per_coord, per_cluster = depths_bm(fig1, Fraction(1, 3))
    assert per_coord == (1, 1, 1)
    assert per_cluster == (1, 1)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_power_depth_defining_inequality(base, p, q):
    if p > q:
        p, q = q, p
    r = Fraction(p, q)
    k = power_depth(base, r)
    assert Fraction(1, base) ** (k + 1) < r <= Fraction(1, base) ** k


def test_depths_lg_uniform_grid(fig1):
    lg = encode_uniform_grid(fig1)
    word = Word((), (min(fig1.digit_set),))
    per_coord, per_cluster = depths_lg(lg, word, Fraction(1, 10))
    assert per_coord == (3, 2, 2)
    assert per_cluster == (3, 2)


def test_depths_lg_closed_boundary():
    from spongedims import LGSpongeSpec

    spec = LGSpongeSpec(
        1,
        {(0,): Fraction(1, 2), (1,): Fraction(1, 4)},
        {(0,): Fraction(0), (1,): Fraction(1, 2)},
    )
    word = Word(((0,),), ((1,),))
    # products 1/2, 1/8, 1/32: at r = 1/8 the bound is closed on the right
    per_coord, _ = depths_lg(spec, word, Fraction(1, 8))
    assert per_coord == (2,)


def test_depths_lg_scale_too_large(fig1):
    lg = encode_uniform_grid(fig1)
    with pytest.raises(ScaleTooLargeError):
        depths_lg(lg, Word((), (min(fig1.digit_set),)), Fraction(1, 2))


def test_depths_lg_word_too_short(fig1):
    lg = encode_uniform_grid(fig1)
    with pytest.raises(WordTooShortError):
        depths_lg(lg, Word((min(fig1.digit_set),)), Fraction(1, 100))


LG_TWO_LEVELS = encode_uniform_grid(SpongeSpec((2, 4), ((0, 0), (1, 1), (0, 2))))


# ------------------------------------------------------------ cubes & zooms

def test_approximate_cube_fig1(fig1):
    word = Word((), ((0, 0, 0),))
    cube = approximate_cube(fig1, word, Fraction(1, 3))
    assert cube.rectangle == (
        (Fraction(0), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 3)),
    )


def test_approximate_cube_unit_scale(fig1):
    cube = approximate_cube(fig1, Word((), ((1, 0, 1),)), Fraction(1))
    assert cube.depths == (0, 0, 0)
    assert cube.rectangle == ((Fraction(0), Fraction(1)),) * 3


def test_side_length_bound_random(fig1):
    rng = random.Random(5)
    digits = sorted(fig1.digit_set)
    for _ in range(1000):
        r = Fraction(rng.randint(1, 3**6), 3**6)
        word = Word(tuple(rng.choice(digits) for _ in range(16)))
        cube = approximate_cube(fig1, word, r)
        for side, n in zip(cube.sides, fig1.bases):
            assert r <= side < n * r
        # nondecreasing bases force nonincreasing depths
        assert list(cube.depths) == sorted(cube.depths, reverse=True)


def test_cube_word_too_short(fig1):
    with pytest.raises(WordTooShortError):
        approximate_cube(fig1, Word(((0, 0, 0),)), Fraction(1, 9))


def test_cube_rejects_foreign_symbols(fig1):
    with pytest.raises(ValueError):
        approximate_cube(fig1, Word((), ((1, 2, 2),)), Fraction(1, 3))


# ---------------------------------------------------------------- weights

def test_pcu_weights_fig1(fig1):
    w = pcu_weights(fig1)
    assert w.weight[(1, 0, 1)] == Fraction(1, 2)
    for dig in ((0, 0, 0), (0, 1, 1), (0, 2, 2)):
        assert w.weight[dig] == Fraction(1, 6)
    assert sum(w.weight.values()) == 1


def test_pcu_weights_modified(modified):
    w = pcu_weights(modified)
    assert w.weight[(1, 0, 1)] == Fraction(1, 2)
    for dig in modified.digit_set - {(1, 0, 1)}:
        assert w.weight[dig] == Fraction(1, 8)


def test_pcu_uniform_on_single_cluster():
    spec = SpongeSpec((3, 3), ((0, 0), (1, 1), (2, 0), (0, 2)))
    w = pcu_weights(spec)
    assert all(v == Fraction(1, 4) for v in w.weight.values())


def test_pcu_chain_rule_exact():
    rng = random.Random(47)
    for _ in range(25):
        spec = random_bm_spec(rng)
        cl = spec.clusters
        w = pcu_weights(spec)
        for dig in spec.digit_set:
            product = Fraction(1)
            for l in range(1, cl.d_star + 1):
                product *= w.conditional[(l, cl.prefix(dig, l - 1), cl.block(dig, l))]
            assert product == w.weight[dig]
        assert sum(w.weight.values()) == 1


def test_lg_weights_match_pcu_on_uniform_grid(fig1):
    lg = encode_uniform_grid(fig1)
    lw = lg_weights(lg, lg_moran_exponents(lg))
    pw = pcu_weights(fig1)
    for dig, value in lw.weight.items():
        assert abs(value - float(pw.weight[dig])) <= 1e-12


def test_lg_weights_binary():
    spec = encode_uniform_grid(SpongeSpec((2,), ((0,), (1,))))
    lw = lg_weights(spec, lg_moran_exponents(spec))
    assert abs(lw.weight[(0,)] - 0.5) <= 1e-12
    assert abs(lw.weight[(1,)] - 0.5) <= 1e-12


def test_lg_weights_normalized_random():
    rng = random.Random(53)
    for _ in range(20):
        spec = encode_uniform_grid(random_bm_spec(rng))
        lw = lg_weights(spec, lg_moran_exponents(spec))
        assert abs(sum(lw.weight.values()) - 1.0) <= 1e-10


# ----------------------------------------------------------------- measures

def test_cube_measure_fig1(fig1):
    w = pcu_weights(fig1)
    cube = approximate_cube(fig1, Word((), ((0, 0, 0),)), Fraction(1, 3))
    assert cube_measure(fig1, w, cube) == Fraction(1, 6)


def test_cube_measure_unit_scale(fig1):
    w = pcu_weights(fig1)
    cube = approximate_cube(fig1, Word((), ((0, 1, 1),)), Fraction(1))
    assert cube_measure(fig1, w, cube) == 1


def test_cube_measures_partition_to_one(fig1, modified):
    for spec in (fig1, modified):
        for r in (Fraction(1, 3), Fraction(1, 9)):
            assert sum(_distinct_cube_table(spec, r).values()) == 1


def _distinct_cube_table(spec, r):
    """Map each distinct cube key (per-cluster block prefixes) to its mass."""
    cl = spec.clusters
    weights = pcu_weights(spec)
    _, per_cluster = depths_bm(spec, r)
    total = per_cluster[0]
    seen = {}
    for symbols in itertools.product(sorted(spec.digit_set), repeat=total):
        key = tuple(
            tuple(cl.block(symbols[t], l + 1) for t in range(per_cluster[l]))
            for l in range(cl.d_star)
        )
        if key not in seen:
            cube = approximate_cube(spec, Word(symbols), r)
            seen[key] = cube_measure(spec, weights, cube)
    return seen


def test_cube_measure_additivity(fig1):
    parents = _distinct_cube_table(fig1, Fraction(1, 6))
    children = _distinct_cube_table(fig1, Fraction(1, 36))
    for parent_key, parent_mass in parents.items():
        mass = sum(
            child_mass
            for child_key, child_mass in children.items()
            if all(
                child_blocks[: len(parent_blocks)] == parent_blocks
                for parent_blocks, child_blocks in zip(parent_key, child_key)
            )
        )
        assert mass == parent_mass


# -------------------------------------------------------------- ratio bounds

def test_ratio_bounds_hold(fig1, modified):
    for spec in (fig1, modified):
        report = ratio_bound_check(spec, pcu_weights(spec), trials=500, seed=3)
        assert report.ok
        assert report.max_normalized_upper <= report.upper_constant
        assert report.min_normalized_lower >= report.lower_constant


def test_ratio_bounds_lg(fig1):
    lg = encode_uniform_grid(fig1)
    report = ratio_bound_check(lg, lg_weights(lg, lg_moran_exponents(lg)), trials=200, seed=4)
    assert report.ok


def test_ratio_bound_csv(fig1):
    buf = io.StringIO()
    report = ratio_bound_check(fig1, pcu_weights(fig1), trials=5, seed=0, csv_file=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["trial", "r", "R", "ratio", "normalized_upper", "normalized_lower"]
    assert len(lines) == 1 + report.trials


def _count_validations(monkeypatch):
    from spongedims import model

    calls = []
    for name in ("validate_bm", "validate_lg"):
        original = getattr(model, name)

        def counted(spec, _original=original):
            calls.append(spec)
            return _original(spec)

        monkeypatch.setattr(model, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["grid", "prefix"])
def test_ratio_bound_check_validates_once(monkeypatch, kind):
    fig1 = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1)))
    spec = fig1 if kind == "grid" else encode_uniform_grid(fig1)
    calls = _count_validations(monkeypatch)
    weights = pcu_weights(spec) if kind == "grid" else lg_weights(spec, lg_moran_exponents(spec))
    report = ratio_bound_check(spec, weights, trials=500, seed=3)
    assert report.trials == 500
    assert len(calls) == 1
