import csv
import dataclasses
import io
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedims import SpongeSpec, encode_uniform_grid
from spongedims import measure, spec_from_json
from spongedims.dimensions import MORAN_TOL, dimensions
from spongedims.measure import _depth, depths_bm, power_depth, ratio_bound_check
from gen import random_bm_spec
from test_golden import SPECS
import measure_reference
from measure_reference import (
    ScaleTooLargeError,
    Word,
    WordTooShortError,
    approximate_cube,
    cluster_block,
    conditionals,
    cube_depths,
    cube_measure,
)


# ------------------------------------------------------------------ depths

def test_power_depth_examples():
    assert power_depth(3, Fraction(1, 9)) == 2
    assert power_depth(3, Fraction(1, 10)) == 2
    assert power_depth(2, Fraction(1)) == 0


@pytest.mark.parametrize("base", [0, 1])
def test_power_depth_refuses_a_base_below_two(base):
    with pytest.raises(ValueError, match="base"):
        power_depth(base, Fraction(1, 2**70))  # past 64 bits the depth is first guessed from logarithms


def test_depths_bm_fig1(fig1):
    per_cluster = depths_bm(fig1, Fraction(1, 3))
    assert per_cluster == (1, 1)
    assert tuple(per_cluster[c] for c in fig1.clusters.cluster_of) == (1, 1, 1)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_power_depth_defining_inequality(base, p, q):
    if p > q:
        p, q = q, p
    r = Fraction(p, q)
    k = power_depth(base, r)
    assert Fraction(1, base) ** (k + 1) < r <= Fraction(1, base) ** k


def _counted_depth(base, p, q):
    """The largest k with p * base**k <= q, counted up from 0."""
    k, pw = 0, p * base
    while pw <= q:
        k, pw = k + 1, pw * base
    return k


def test_power_depth_deep_scales_match_a_count_from_zero():
    # past 64 bits of q/p the count starts from a float guess; exact powers
    # and their neighbours sit where a rounded logarithm would shift a depth
    for base in (2, 3, 4, 5, 8, 9, 1000):
        for n in (2, 3, 5):
            for depth in (30, 41, 64, 65, 200, 1_000, 3_000):
                for q in (n**depth - 1, n**depth, n**depth + 1):
                    for p in (1, 7, 3**40):
                        if p <= q:
                            want = _counted_depth(base, p, q)
                            assert power_depth(base, Fraction(p, q)) == want, (base, p, q)
                            assert _depth(base, 5 * p, 5 * q) == want, (base, p, q)


def _walk_lg(spec, word, r):
    """Depths of ``word`` at ``r`` from the package's integer walk, with the reference's argument checks."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"scale {r} must be positive")
    if r > spec.min_full_contraction:
        raise ScaleTooLargeError(f"scale {r} exceeds the smallest full-depth ratio {spec.min_full_contraction}")

    def more(symbols):
        sym = word.symbol(len(symbols))
        if sym not in spec.digit_set:
            raise ValueError(f"symbol {sym} not in the digit set")
        symbols.append(sym)

    (per_cluster,) = measure._walk_depths(measure._cluster_ratios(spec), [], [r.as_integer_ratio()], more)
    return tuple(per_cluster[c] for c in spec.clusters.cluster_of), tuple(per_cluster)


def test_depths_lg_uniform_grid(fig1):
    lg = encode_uniform_grid(fig1)
    word = Word((), (min(fig1.digit_set),))
    per_coord, per_cluster = _walk_lg(lg, word, Fraction(1, 10))
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
    per_coord, _ = _walk_lg(spec, word, Fraction(1, 8))
    assert per_coord == (2,)


def test_depths_lg_scale_too_large(fig1):
    lg = encode_uniform_grid(fig1)
    with pytest.raises(ScaleTooLargeError):
        measure_reference.depths_lg(lg, Word((), (min(fig1.digit_set),)), Fraction(1, 2))


def test_depths_lg_word_too_short(fig1):
    lg = encode_uniform_grid(fig1)
    with pytest.raises(WordTooShortError):
        _walk_lg(lg, Word((min(fig1.digit_set),)), Fraction(1, 100))


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


def test_cube_depths_errors(fig1):
    lg = encode_uniform_grid(fig1)
    for spec in (fig1, lg):
        with pytest.raises(WordTooShortError):
            cube_depths(spec, Word(((0, 0, 0),)), Fraction(1, 9))
        with pytest.raises(ValueError, match="not in the digit set"):
            cube_depths(spec, Word((), ((1, 2, 2),)), Fraction(1, 9))


def test_grid_and_its_prefix_encoding_agree_on_cubes():
    # The paper's reduction of grid sponges to prefix sponges, spec by spec
    # over the gen corpus.  Rectangles are exact on both sides, so they are
    # equal.  Masses: the encoding's conditional w of a block above a prefix
    # with N blocks solves N w**s = 1 by bisection, stopped at a residual of
    # at most MORAN_TOL (asserted below); the residual is the correctly
    # rounded fsum of N copies of w, minus 1, so |N w - 1| <= MORAN_TOL + 2**-52.
    # Multiplying K such conditionals (K = the sum of the cube's cluster
    # depths) rounds K times and converting the exact grid mass rounds once,
    # by 2**-53 each.  To first order the relative gap is at most
    # K (MORAN_TOL + 2**-52) + (K + 1) 2**-53; (K + 1)(MORAN_TOL + 2**-51)
    # exceeds that by more than MORAN_TOL, far above the K**2 MORAN_TOL**2
    # second-order terms.
    specs = [spec for spec in (random_bm_spec(random.Random(s), max_dim=4, min_dim=2) for s in range(400))
             if spec.clusters.d_star >= 2]
    assert len(specs) == 353
    rng = random.Random(13)
    for spec in specs:
        lg = encode_uniform_grid(spec)
        assert all(sol.residual <= MORAN_TOL for sol in lg.moran_exponents.values())
        grid_w, lg_w = conditionals(spec), conditionals(lg)
        digits = sorted(spec.digit_set)
        for _ in range(20):
            r = Fraction(rng.randint(1, 3**4), 3**6)
            word = Word(tuple(rng.choice(digits) for _ in range(16)))
            grid_cube, lg_cube = approximate_cube(spec, word, r), approximate_cube(lg, word, r)
            assert grid_cube.rectangle == lg_cube.rectangle, (spec, word, r)
            want = float(_mass(spec, grid_w, grid_cube))
            tol = (sum(lg_cube.cluster_depths) + 1) * (MORAN_TOL + 2**-51)
            assert abs(_mass(lg, lg_w, lg_cube) - want) <= tol * want, (spec, word, r)


# ---------------------------------------------------------------- weights

def _digit_weights(spec):
    """Each digit's weight: the mass of the one-symbol word's cube at cluster depths (1,)*d*."""
    weights = conditionals(spec)
    ones = (1,) * spec.clusters.d_star
    return {dig: cube_measure(spec, weights, Word((dig,)), ones) for dig in spec.digit_set}


def test_pcu_weights_fig1(fig1):
    w = _digit_weights(fig1)
    assert w[(1, 0, 1)] == Fraction(1, 2)
    for dig in ((0, 0, 0), (0, 1, 1), (0, 2, 2)):
        assert w[dig] == Fraction(1, 6)
    assert sum(w.values()) == 1


def test_pcu_weights_modified(modified):
    w = _digit_weights(modified)
    assert w[(1, 0, 1)] == Fraction(1, 2)
    for dig in modified.digit_set - {(1, 0, 1)}:
        assert w[dig] == Fraction(1, 8)


def test_pcu_uniform_on_single_cluster():
    spec = SpongeSpec((3, 3), ((0, 0), (1, 1), (2, 0), (0, 2)))
    w = _digit_weights(spec)
    assert all(v == Fraction(1, 4) for v in w.values())


def test_pcu_chain_rule_exact():
    rng = random.Random(47)
    for _ in range(25):
        spec = random_bm_spec(rng)
        cl = spec.clusters
        table = conditionals(spec)
        w = _digit_weights(spec)
        for dig in spec.digit_set:
            product = Fraction(1)
            for l in range(1, cl.d_star + 1):
                product *= table[(l, cl.prefix(dig, l - 1), cluster_block(cl, dig, l))]
            assert product == w[dig]
        assert sum(w.values()) == 1


def test_lg_weights_match_pcu_on_uniform_grid(fig1):
    lw = _digit_weights(encode_uniform_grid(fig1))
    pw = _digit_weights(fig1)
    for dig, value in lw.items():
        assert abs(value - float(pw[dig])) <= 1e-12


def test_lg_weights_binary():
    lw = _digit_weights(encode_uniform_grid(SpongeSpec((2,), ((0,), (1,)))))
    assert abs(lw[(0,)] - 0.5) <= 1e-12
    assert abs(lw[(1,)] - 0.5) <= 1e-12


def test_lg_weights_normalized_random():
    rng = random.Random(53)
    for _ in range(20):
        spec = encode_uniform_grid(random_bm_spec(rng))
        assert abs(sum(_digit_weights(spec).values()) - 1.0) <= 1e-10


def test_block_weights_exact_only_on_grid(fig1):
    assert all(type(v) is Fraction for v in conditionals(fig1).values())
    assert all(type(v) is float for v in conditionals(encode_uniform_grid(fig1)).values())


# ----------------------------------------------------------------- measures

def _mass(spec, weights, cube):
    return cube_measure(spec, weights, cube.word, cube.cluster_depths)


def test_cube_measure_fig1(fig1):
    w = conditionals(fig1)
    cube = approximate_cube(fig1, Word((), ((0, 0, 0),)), Fraction(1, 3))
    assert _mass(fig1, w, cube) == Fraction(1, 6)


def test_cube_measure_unit_scale(fig1):
    w = conditionals(fig1)
    cube = approximate_cube(fig1, Word((), ((0, 1, 1),)), Fraction(1))
    assert _mass(fig1, w, cube) == 1


def test_cube_measure_rejects_symbol_without_conditional(fig1):
    # (1, 2, 2) passes cluster 1 (block (1,) exists) but (1,) has no child (2, 2)
    w = conditionals(fig1)
    with pytest.raises(ValueError, match=r"^symbol \(1, 2, 2\) has no conditional at cluster 2$"):
        cube_measure(fig1, w, Word(((1, 2, 2),)), (1, 1))


def test_cube_measures_partition_to_one(fig1, modified):
    for spec in (fig1, modified):
        for r in (Fraction(1, 3), Fraction(1, 9)):
            assert sum(_distinct_cube_table(spec, r).values()) == 1


def _distinct_cube_table(spec, r):
    """Map each distinct cube key (per-cluster block prefixes) to its mass."""
    cl = spec.clusters
    weights = conditionals(spec)
    per_cluster = depths_bm(spec, r)
    total = per_cluster[0]
    seen = {}
    for symbols in itertools.product(sorted(spec.digit_set), repeat=total):
        key = tuple(
            tuple(cluster_block(cl, symbols[t], l + 1) for t in range(per_cluster[l]))
            for l in range(cl.d_star)
        )
        if key not in seen:
            cube = approximate_cube(spec, Word(symbols), r)
            seen[key] = _mass(spec, weights, cube)
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
        report = ratio_bound_check(spec, trials=500, seed=3)
        assert report.ok
        assert report.max_normalized_upper <= report.upper_constant
        assert report.min_normalized_lower >= report.lower_constant


def test_ratio_bounds_lg(fig1):
    lg = encode_uniform_grid(fig1)
    report = ratio_bound_check(lg, trials=200, seed=4)
    assert report.ok


def test_ratio_bound_csv(fig1):
    buf = io.StringIO()
    report = ratio_bound_check(fig1, trials=5, seed=0, csv_file=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["trial", "r", "R", "ratio", "normalized_upper", "normalized_lower"]
    assert len(lines) == 1 + report.trials


def test_ratio_bound_check_rejects_negative_seed(fig1):
    with pytest.raises(ValueError, match="seed -1 is negative"):
        ratio_bound_check(fig1, trials=3, seed=-1)
    assert ratio_bound_check(fig1, trials=3, seed=0).seed == 0


def _count_digit_draws(monkeypatch):
    """Per generator seeding, the digits ``measure``'s generators draw (tuples; the bases drawn are ints)."""
    draws: list[list] = []

    class Counting(random.Random):
        def seed(self, *args, **kwargs):
            super().seed(*args, **kwargs)
            draws.append([])

        def choice(self, seq):
            value = super().choice(seq)
            if isinstance(value, tuple):
                draws[-1].append(value)
            return value

    monkeypatch.setattr(measure.random, "Random", Counting)
    return draws


def _doubling_draws(need):
    """Digits drawn by a word grown 8 at first, then ``len(word) + 8`` at a time, until it holds ``need``."""
    length = 8
    while length < need:
        length += length + 8
    return length


@pytest.mark.parametrize("kind", ["grid", "prefix"])
def test_trials_draw_only_the_digits_they_read(monkeypatch, fig1, kind):
    spec = fig1 if kind == "grid" else encode_uniform_grid(fig1)
    draws = _count_digit_draws(monkeypatch)
    buf = io.StringIO()
    trials = 2000
    ratio_bound_check(spec, trials=trials, seed=0, csv_file=buf)
    words = draws[-trials:]
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    need = []
    for row, word in zip(rows, words):
        r = Fraction(row["r"])
        if kind == "grid":
            need.append(max(depths_bm(spec, r)))
        else:
            # the walk reads each cluster's symbol at its depth, the one taking the product below r
            need.append(max(measure_reference.depths_lg(spec, Word(tuple(word)), r)[1]) + 1)
    assert [len(word) for word in words] == need
    assert sum(need) < sum(map(_doubling_draws, need))


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
    report = ratio_bound_check(spec, trials=500, seed=3)
    assert report.trials == 500
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["grid", "prefix"])
def test_ratio_bound_check_builds_no_rectangle(monkeypatch, kind):
    """Trials read no per-scale depth function: neither ``depths_bm`` nor ``power_depth``."""
    fig1 = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1)))
    spec = fig1 if kind == "grid" else encode_uniform_grid(fig1)

    def refuse(*args, **kwargs):
        raise AssertionError("ratio_bound_check ran a per-scale depth function")

    for name in ("depths_bm", "power_depth"):
        monkeypatch.setattr(measure, name, refuse)
    report = ratio_bound_check(spec, trials=200, seed=3)
    assert report.trials == 200
    assert report.ok


def test_ratio_bound_check_solves_each_moran_system_once(monkeypatch):
    from spongedims import dimensions as dimensions_module

    spec = encode_uniform_grid(SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1))))
    cl = spec.clusters
    systems = len({d[: cl.prefix_len(level)] for d in spec.digits for level in range(cl.d_star)})
    calls = []
    original = dimensions_module.moran_solve

    def counted(ratios, *args, **kwargs):
        calls.append(ratios)
        return original(ratios, *args, **kwargs)

    monkeypatch.setattr(dimensions_module, "moran_solve", counted)
    ratio_bound_check(spec, trials=50, seed=3)
    assert len(calls) == systems == 3
    ratio_bound_check(spec, trials=50, seed=4)
    assert len(calls) == systems


# ------------------------------------------------ integer loop vs reference

def _both_checks(spec, trials, seed):
    """(report, CSV text) of the package's loop and of the reference loop."""
    got, want = io.StringIO(), io.StringIO()
    return (
        (ratio_bound_check(spec, trials, seed, got), got.getvalue()),
        (measure_reference.ratio_bound_check(spec, trials, seed, want), want.getvalue()),
    )


def _golden_specs():
    specs = {name: spec_from_json(doc) for name, doc in SPECS.items()}
    specs["fig1-prefix"] = encode_uniform_grid(specs["fig1"])
    specs["modified-prefix"] = encode_uniform_grid(specs["modified"])
    return specs


@pytest.mark.parametrize("name", sorted(_golden_specs()))
def test_trial_loop_matches_reference_on_golden_specs(name):
    spec = _golden_specs()[name]
    for seed in (0, 7, 11):
        (report, csv_text), (want_report, want_csv) = _both_checks(spec, 150, seed)
        assert csv_text == want_csv
        assert report == want_report


def _boundary_seed(spec, bases, trials):
    """The least seed with a trial whose r is 1/n**k for one of ``bases``, drawn as the reference draws.

    For a grid's cluster bases such an r is the closed end of a depth's
    half-open interval, and a running-product boundary of the walk on the
    grid's prefix encoding.
    """
    powers = {Fraction(1, n**k) for n in bases for k in range(64)}
    for seed in range(2000):
        for t in range(trials):
            _, small = measure_reference.trial_scales(spec, random.Random(seed * 1_000_003 + t))
            if small in powers:
                return seed
    raise AssertionError(f"no trial of seeds 0..1999 hits a power of {bases}")


def test_trial_loop_matches_reference_on_random_specs():
    rng = random.Random(97)
    for i in range(30):
        grid = random_bm_spec(rng)
        for spec in (grid, encode_uniform_grid(grid)):
            seeds = (1, 5, 9, _boundary_seed(spec, grid.clusters.cluster_bases, 40)) if i < 4 else (1, 5, 9)
            for seed in seeds:
                (report, csv_text), (want_report, want_csv) = _both_checks(spec, 40, seed)
                assert csv_text == want_csv
                assert report == want_report


@pytest.mark.parametrize("name", ["modified", "prefix3"])
def test_trial_loop_matches_reference_on_violations(monkeypatch, name):
    """Forced exponents make most trials violate, so the violation rows are compared too."""
    spec = _golden_specs()[name]
    forced = dataclasses.replace(dimensions(spec), assouad=0.0, lower=5.0)
    monkeypatch.setattr(measure, "dimensions", lambda _spec: forced)
    monkeypatch.setattr(measure_reference, "dimensions", lambda _spec: forced)
    (report, csv_text), (want_report, want_csv) = _both_checks(spec, 100, 2)
    assert len(report.violations) > 10
    assert csv_text == want_csv
    assert report == want_report


_PREFIX_SPECS = [spec_from_json(SPECS["lg-modified"]), spec_from_json(SPECS["prefix3"])]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, WordTooShortError, ScaleTooLargeError) as exc:
        return type(exc)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_depths_lg_matches_fraction_walk(data):
    """The package's integer walk gives the Fraction walk's depths or error, also on scales equal to a product."""
    pick = data.draw(st.integers(0, len(_PREFIX_SPECS)))
    if pick < len(_PREFIX_SPECS):
        spec = _PREFIX_SPECS[pick]
    else:
        spec = encode_uniform_grid(random_bm_spec(random.Random(data.draw(st.integers(0, 10**6)))))
    digits = sorted(spec.digit_set)
    symbols = st.sampled_from(digits + [(9,) * spec.dims]) if data.draw(st.booleans()) else st.sampled_from(digits)
    head = tuple(data.draw(st.lists(symbols, min_size=1, max_size=24)))
    cycle = tuple(data.draw(st.lists(st.sampled_from(digits), max_size=3)))
    word = Word(head, cycle)
    if data.draw(st.booleans()):
        # a scale on the boundary prod == r of some coordinate's running product
        l = data.draw(st.integers(1, spec.dims))
        t = data.draw(st.integers(1, len(head)))
        r = math.prod((spec.contraction.get(sym[:l], Fraction(1, 2)) for sym in head[:t]), start=Fraction(1))
    else:
        p = data.draw(st.integers(1, 10**6))
        r = spec.min_full_contraction * Fraction(p, data.draw(st.integers(p, 10**6)))
    assert _outcome(_walk_lg, spec, word, r) == _outcome(measure_reference.depths_lg, spec, word, r)
