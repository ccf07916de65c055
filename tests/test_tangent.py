import dataclasses
import io
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spongedims import (
    BudgetExceededError,
    EmptySetError,
    BoxSet,
    SpongeSpec,
    containment_check,
    convergence_sweep,
    encode_uniform_grid,
    hausdorff_distance,
    prefractal,
    spec_from_json,
    tangent_plan,
    tangent_product,
    zoomed_fragment,
)
from spongedims import _kernels, measure, tangent
from spongedims.dimensions import dimensions
from spongedims.tangent import (
    DEFAULT_BOX_BUDGET,
    SWEEP_TOL,
    _column_prefractal,
    load_text_boxes,
    load_voxel_boxes,
)

import fraction_boxes
import kernel_reference
from gen import random_bm_spec
from measure_reference import Word, approximate_cube
from test_golden import SPECS


def cluster_prefractal(spec, level, prefix, depth, budget=DEFAULT_BOX_BUDGET):
    """The cluster-``level`` column above ``prefix`` at ``depth``, built as ``tangent_product`` builds its factors."""
    blocks = np.array(spec.blocks[level - 1][prefix], dtype=np.int64)
    bases = (spec.clusters.cluster_bases[level - 1],) * blocks.shape[1]
    return _column_prefractal("cluster_prefractal", blocks, bases, depth, budget)


# -------------------------------------------------------------- maximizers

def test_select_maximizers(fig1, modified):
    # the reference's maximizing digit and the plan's prefix name the same column
    for spec in (fig1, modified):
        assert fraction_boxes.maximizers(spec) == {2: (0, 0, 0)}
        assert tangent_plan(spec, Fraction(1, 81)).prefixes == ((), (0,)) == fraction_boxes.column_prefixes(spec)


def test_select_maximizers_tie_breaks_lexicographically():
    # columns (0,) and (1,) both hold 2 blocks: the smaller prefix wins
    spec = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)))
    assert fraction_boxes.maximizers(spec) == {2: (0, 0, 0)}
    assert tangent_plan(spec, Fraction(1, 81)).prefixes == ((), (0,)) == fraction_boxes.column_prefixes(spec)


_GRID4 = SpongeSpec((2, 3, 3, 4), ((0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 3), (1, 0, 1, 2)))


@pytest.mark.parametrize("name", ["fig1", "modified", "grid4", *(f"random{seed}" for seed in range(40))])
def test_plan_columns_attain_the_max_terms(name, request):
    if name.startswith("random"):
        spec = random_bm_spec(random.Random(int(name[6:])))
    elif name == "grid4":
        spec = _GRID4
    else:
        spec = request.getfixturevalue(name)
    plan = tangent_plan(spec, Fraction(1, 81))
    terms = dimensions(spec).per_cluster_terms
    for l, (term, n) in enumerate(zip(terms, spec.clusters.cluster_bases), 1):
        assert math.log(len(plan.columns[l - 1])) / math.log(n) == term.max_term
    # the prefixes are the reference maximizers', and band l spans k_{l-1} - k_l positions
    assert plan.prefixes == fraction_boxes.column_prefixes(spec)
    k = plan.cluster_depths
    assert plan.bands == (1, *(k[l - 2] - k[l - 1] for l in range(2, len(k) + 1)))


def test_plan_prefixes_agree_with_the_formula_on_the_gen_corpus():
    # The plan picks each column by exact block count, the formula by its
    # float score: both must name the same prefixes, and the columns' log
    # ratios, summed as the formula sums them, must give its Assouad value.
    gen = (random_bm_spec(random.Random(seed), max_dim=4, min_dim=2) for seed in range(400))
    specs = [spec_from_json(SPECS[name]) for name in ("fig1", "modified", "grid4", "seed12")]
    specs += [spec for spec in gen if spec.clusters.d_star >= 2]
    assert len(specs) == 4 + 353
    for spec in specs:
        plan = tangent_plan(spec, Fraction(1, 81))
        report = dimensions(spec)
        assert plan.prefixes == tuple(term.argmax_prefix for term in report.per_cluster_terms)
        terms = (math.log(len(c)) / math.log(n) for c, n in zip(plan.columns, spec.clusters.cluster_bases))
        assert math.fsum(terms) == report.assouad


# --------------------------------------------------------- engineered word
# The reference zooms along an engineered word; the package zooms band by band.

def test_engineered_word_fig1(fig1):
    plan = tangent_plan(fig1, Fraction(1, 81))
    # depths are (6, 4): positions 5..6 carry the cluster-2 maximizer, so band 2
    # spans 2 positions on the column above (0,), and band 1 the one extra position
    assert plan.cluster_depths == (6, 4)
    symbol = fraction_boxes.engineered_word(fig1, plan.cluster_depths)
    assert symbol(4) == symbol(5) == symbol(6) == (0, 0, 0)
    assert plan.bands == (1, 2)
    assert plan.prefixes[1] == (0,)


def test_engineered_word_unit_scale(fig1):
    plan = tangent_plan(fig1, Fraction(1))
    assert plan.cluster_depths == (0, 0)
    assert fraction_boxes.engineered_word(fig1, plan.cluster_depths)(0) == (0, 0, 0)
    assert plan.bands == (1, 0)


def test_tangent_plan_fig1(fig1):
    plan = tangent_plan(fig1, Fraction(1, 81))
    assert plan.scale == Fraction(1, 81)
    assert plan.cluster_depths == (6, 4)
    # each axis keeps k_1 + 1 - k_l digits of its cluster's depth k_l
    assert (plan.extra_depth, plan.depths) == (1, (1, 3))
    assert plan.grid == zoomed_fragment(plan).boxes.grid == ((2, 1), (3, 3), (3, 3))
    # the first-cluster projection, then the column above the maximizer's prefix (0,), as block-table tuples
    assert plan.columns == (((0,), (1,)), ((0, 0), (1, 1), (2, 2)))
    # band 2's level keeps the digits above (0,) with axis 0 pinned: zero digit, radix 1
    assert plan.levels[1] == (((0, 0, 0), (0, 1, 1), (0, 2, 2)), (1, 3, 3))
    assert plan.levels[0] == (fig1.digits, fig1.bases)


# ------------------------------------------------------------------- zooms
# Zooming a cube onto [0,1]^d scales axis j by 1/side_j, so the zoom's
# distortion is max(sides) / min(sides).

def test_zoom_map_fig1(fig1):
    cube = approximate_cube(fig1, Word((), ((0, 0, 0),)), Fraction(1, 3))
    assert cube.sides == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))


def test_zoom_map_identity_at_unit_scale(fig1):
    cube = approximate_cube(fig1, Word((), ((0, 0, 0),)), Fraction(1))
    assert cube.sides == (Fraction(1),) * 3


def test_zoom_distortion_bound(fig1):
    rng = random.Random(61)
    digits = sorted(fig1.digit_set)
    for _ in range(1000):
        r = Fraction(rng.randint(1, 2**10), 2**10)
        word = Word(tuple(rng.choice(digits) for _ in range(12)))
        sides = approximate_cube(fig1, word, r).sides
        assert max(sides) / min(sides) <= max(fig1.bases)


def test_zoom_distortion_bound_lg(fig1):
    lg = encode_uniform_grid(fig1)
    min_ratio = lg.min_full_contraction
    rng = random.Random(71)
    digits = sorted(lg.digit_set)
    for _ in range(200):
        r = min_ratio * Fraction(rng.randint(1, 3**4), 3**4)
        word = Word(tuple(rng.choice(digits) for _ in range(20)))
        sides = approximate_cube(lg, word, r).sides
        assert max(sides) / min(sides) <= 1 / min_ratio


# ------------------------------------------------------------- pre-fractals

def test_prefractal_first_level(fig1):
    boxes = prefractal(fig1, 1)
    assert len(boxes) == 4
    assert all(
        tuple(hi - lo for lo, hi in box) == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))
        for box in fraction_boxes.rational(boxes)
    )


def test_prefractal_depth_zero(fig1):
    boxes = prefractal(fig1, 0)
    assert fraction_boxes.rational(boxes) == (((Fraction(0), Fraction(1)),) * 3,)


def test_prefractal_counts(fig1):
    for m in (1, 2, 3):
        assert len(prefractal(fig1, m)) == 4**m


def test_prefractal_budget(fig1):
    with pytest.raises(BudgetExceededError):
        prefractal(fig1, 4, budget=10)


def test_cluster_prefractal_fig1(fig1):
    boxes = cluster_prefractal(fig1, 2, (0,), 2)
    assert len(boxes) == 9
    assert boxes.dim == 2
    assert all(hi - lo == Fraction(1, 9) for box in fraction_boxes.rational(boxes) for lo, hi in box)


def test_cluster_prefractal_level_one_is_projection(fig1):
    boxes = cluster_prefractal(fig1, 1, (), 1)
    assert len(boxes) == 2
    assert boxes.dim == 1


# ------------------------------------------------------------- containment

def test_containment_fig1(fig1):
    report = containment_check(zoomed_fragment(tangent_plan(fig1, Fraction(1, 81))))
    assert report.ok
    assert report.witness is None


def test_containment_modified(modified):
    report = containment_check(zoomed_fragment(tangent_plan(modified, Fraction(1, 3**5))))
    assert report.ok


def test_containment_near_unit_scale(fig1):
    report = containment_check(zoomed_fragment(tangent_plan(fig1, Fraction(1))))
    assert report.ok


def test_containment_compares_whole_digit_rows():
    # one cluster of four base-2**17 axes: packed into one int64 key, the row
    # (8193, 0, 0, 0) gives 8193 * 2**51, which wraps to 2**51, the key of (1, 0, 0, 0)
    spec = SpongeSpec((2**17,) * 4, ((0, 0, 0, 0), (1, 0, 0, 0)))
    plan = tangent_plan(spec, Fraction(1), extra_depth=1)
    assert plan.grid == ((2**17, 1),) * 4
    report = containment_check(tangent.ZoomedFragment(BoxSet(plan.grid, [[1, 0, 0, 0], [8193, 0, 0, 0]]), plan))
    assert (report.ok, report.witness) == (False, (8193, 0, 0, 0))


def test_containment_on_gen_corpus():
    # Every zoomed fragment lies in its product: each band's level draws only
    # digits above the band's prefix, whose blocks make up the product column.
    specs = [random_bm_spec(random.Random(s), max_dim=4, min_dim=2) for s in range(400)]
    specs = [s for s in specs if s.clusters.d_star >= 2][:100]
    built = refused = 0
    for spec in specs:
        n = max(spec.bases)
        for scale, extra in itertools.product((Fraction(1, n), Fraction(1, n**2)), (1, 2)):
            try:
                fragment = zoomed_fragment(tangent_plan(spec, scale, extra), budget=20_000)
            except BudgetExceededError:
                refused += 1
                continue
            built += 1
            assert containment_check(fragment).ok, (spec, scale, extra)
    assert built > 9 * refused, (built, refused)


# ---------------------------------------------------------------- distances

def test_hausdorff_two_points():
    # points have no cell form; two unit cells one apart stand in for them
    unit = ((2, 0),)
    assert hausdorff_distance(BoxSet(unit, [[0]]), BoxSet(unit, [[1]])) == 1.0


def test_hausdorff_identity(fig1):
    boxes = prefractal(fig1, 2)
    assert hausdorff_distance(boxes, boxes) == 0.0


def test_hausdorff_known_offset():
    unit = ((2, 0), (2, 0))
    a = BoxSet(unit, [[0, 0]])
    b = BoxSet(unit, [[2, 0]])
    assert abs(hausdorff_distance(a, b) - 2.0) <= 1e-9


def test_hausdorff_interior_farthest_point():
    # the farthest point of [0,1] from the two flanking stubs is the midpoint,
    # not any box vertex; the bound refinement must find it
    a = BoxSet(((2, 0),), [[0]])
    b = BoxSet(((4, 1),), [[-1], [4]])
    assert abs(hausdorff_distance(a, b) - 0.5) <= 1e-9


def test_hausdorff_empty_raises():
    with pytest.raises(EmptySetError):
        hausdorff_distance(BoxSet(((2, 0),), np.empty((0, 1))), BoxSet(((2, 0),), [[0]]))


@pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
def test_hausdorff_refuses_a_nan_or_negative_tol_before_any_pass(monkeypatch, tol):
    # A NaN tol prunes every box in the first round, so the distance would be
    # a centre's; a negative one prunes none, so the refinement would run
    # until the evaluation budget refused it under the wrong name.
    def no_pass(*args):
        raise AssertionError("a distance pass ran")

    for name in ("build_index", "bounds_pass", "corner_pass"):
        monkeypatch.setattr(_kernels, name, no_pass)
    a, b = BoxSet(((2, 0),), [[0]]), BoxSet(((4, 1),), [[-1], [4]])
    with pytest.raises(ValueError, match="tol must be a nonnegative number"):
        hausdorff_distance(a, b, tol)


def _lattice_samples(boxes, lattice):
    """Centres of the side-1/lattice cells that tile every box; 1/lattice must divide every box side."""
    per_axis = np.array([lattice // base**depth for base, depth in boxes.grid])
    offsets = np.array(list(itertools.product(*(range(q) for q in per_axis))))
    cells = (boxes.cells * per_axis)[:, None, :] + offsets[None]
    return (cells.reshape(-1, boxes.dim) + 0.5) / lattice


@pytest.mark.parametrize("pair", ["prefractal-fragment", "fragment-product"])
def test_hausdorff_matches_scipy_on_dense_samples(fig1, pair):
    distance = pytest.importorskip("scipy.spatial.distance")
    scale = Fraction(1, 81)
    fragment = zoomed_fragment(tangent_plan(fig1, scale)).boxes
    first, second = {
        "prefractal-fragment": (prefractal(fig1, 2), fragment),
        "fragment-product": (fragment, tangent_product(tangent_plan(fig1, scale))),
    }[pair]
    lattice = 108  # 1/108 divides every box side of both sets (1/4, 1/9, 1/2, 1/27)
    sa, sb = _lattice_samples(first, lattice), _lattice_samples(second, lattice)
    sampled = max(distance.directed_hausdorff(sa, sb)[0], distance.directed_hausdorff(sb, sa)[0])
    # Every point of a box lies within half the sample spacing times sqrt(d)
    # of a sample, so each sample set is that close to its union (delta_A,
    # delta_B); hausdorff_distance is exact to within tol from below.
    tol = 1e-9
    delta = 0.5 / lattice * np.sqrt(first.dim)
    assert abs(hausdorff_distance(first, second, tol) - sampled) <= 2 * delta + tol


@pytest.mark.parametrize(
    "name, small_blocks",
    [("fig1", False), ("modified", False), ("grid4", False), ("grid4", True)]
    + [(f"gen{seed}", small) for seed in (5, 10, 26, 29) for small in (False, True)],
)
def test_directed_distance_matches_brute_reference(request, monkeypatch, name, small_blocks):
    # The indexed kernels must give the brute-force sweep's floats exactly,
    # in both directions, on the sets the tangent sweep compares.  The
    # fragment->product direction runs through the product's factors; the
    # reference sweeps the flat cartesian product.
    if small_blocks:  # many leaves, blocks and candidate pieces even on small sets
        monkeypatch.setattr(_kernels, "_LEAF", 3)
        monkeypatch.setattr(_kernels, "_BLOCK", 2)
        monkeypatch.setattr(_kernels, "_TILE", 64)
    if name.startswith("gen"):
        spec = random_bm_spec(random.Random(int(name[3:])), max_dim=4, min_dim=2)
        scales, extra_depth = [Fraction(1, max(spec.bases) ** k) for k in range(1, 4)], 1
    else:
        spec = _GRID4 if name == "grid4" else request.getfixturevalue(name)
        scales, extra_depth = [Fraction(1, {"fig1": 6561, "modified": 729, "grid4": 6561}[name])], 2
    for scale in scales:
        plan = tangent_plan(spec, scale, extra_depth)
        fragment = zoomed_fragment(plan).boxes.float_arrays()
        product = tangent_product(plan)
        flat = product.float_arrays()
        if name == "grid4":  # three factors, the last a single box
            assert len(product.factors) == 3 and len(product.factors[-1]) == 1
        factors = [f.float_arrays() for f in product.factors]
        want = kernel_reference.directed_distance(*fragment, *flat, SWEEP_TOL)
        assert _kernels._directed_distance(*fragment, factors, SWEEP_TOL) == want
        want = kernel_reference.directed_distance(*flat, *fragment, SWEEP_TOL)
        assert _kernels._directed_distance(*flat, [fragment], SWEEP_TOL) == want


def test_convergence_sweep_fig1(fig1):
    scales = [Fraction(1, 3**4), Fraction(1, 3**6), Fraction(1, 3**8)]
    sweep = convergence_sweep(fig1, scales)
    assert sweep.nonincreasing
    assert all(row.contained for row in sweep.rows)
    assert [row.scale for row in sweep.rows] == scales
    assert convergence_sweep(fig1, []) == tangent.SweepReport((), 2)
    # consecutive depth gaps grow, so distances drop by the cluster-2 base
    d = [row.distance for row in sweep.rows]
    assert d[0] > d[1] > d[2] > 0


@pytest.mark.parametrize("name", ["fig1", "grid4"])
def test_corner_pass_waits_for_the_centre_bound(request, monkeypatch, name):
    # The corner pass sees only the boxes the centre bounds could not prune,
    # and of those only the ones whose upper bound passes the running
    # maximum, so over the default sweep it evaluates far fewer gaps than
    # the bounds pass (scanning every survivor's corners takes 208,760 on
    # fig1 and 7,686 on grid4).  These are the gaps the tangent-sweep
    # benchmark times, pinned exactly.
    spec = _GRID4 if name == "grid4" else request.getfixturevalue(name)
    gaps = {"bounds_pass": 0, "corner_pass": 0}
    for pass_name in gaps:
        original = getattr(_kernels, pass_name)

        def counted(*args, _original=original, _name=pass_name):
            result = _original(*args)
            gaps[_name] += result[-1]
            return result

        monkeypatch.setattr(_kernels, pass_name, counted)
    convergence_sweep(spec, [Fraction(1, 81), Fraction(1, 729), Fraction(1, 6561)])
    assert gaps == {"fig1": {"bounds_pass": 360_646, "corner_pass": 1_729},
                    "grid4": {"bounds_pass": 315_142, "corner_pass": 4_536}}[name]


def test_tangent_product_counts(fig1):
    product = tangent_product(tangent_plan(fig1, Fraction(1, 81)))
    # 2 first-cluster cells x 3**(depth gap 2 + 1) column squares
    assert len(product) == 2 * 27
    fragment = zoomed_fragment(tangent_plan(fig1, Fraction(1, 81)))
    assert len(fragment.boxes) == (3**2) * 4


def test_tangent_product_keeps_its_factors(fig1):
    product = tangent_product(tangent_plan(fig1, Fraction(1, 81)))
    assert [len(f) for f in product.factors] == [2, 27]
    rows = [np.concatenate(parts) for parts in itertools.product(*(f.cells for f in product.factors))]
    assert np.array_equal(product.cells, rows)
    with pytest.raises(ValueError, match="factors do not multiply"):
        BoxSet(product.grid, product.cells[1:], product.factors)


def test_single_cluster_product_is_projection():
    spec = SpongeSpec((2, 2), ((0, 0), (1, 1)))
    plan = tangent_plan(spec, Fraction(1, 4), extra_depth=2)
    product = tangent_product(plan)
    assert len(product) == 4
    fragment = zoomed_fragment(plan)
    assert hausdorff_distance(fragment.boxes, product) == 0.0


# ------------------------------------------------------------------ exports

def test_voxel_round_trip(fig1):
    boxes = prefractal(fig1, 2)
    buf = io.StringIO()
    boxes.export_voxel(buf)
    buf.seek(0)
    loaded = load_voxel_boxes(buf)
    assert fraction_boxes.rational(loaded) == fraction_boxes.rational(boxes)
    assert loaded.grid == boxes.grid


def test_text_round_trip(fig1):
    boxes = prefractal(fig1, 1)
    buf = io.StringIO()
    boxes.export_text(buf)
    buf.seek(0)
    loaded = load_text_boxes(buf)
    assert len(loaded) == len(boxes)
    for box, orig in zip(fraction_boxes.rational(loaded), fraction_boxes.rational(boxes)):
        for (lo, hi), (olo, ohi) in zip(box, orig):
            assert abs(float(lo) - float(olo)) <= 1e-15
            assert abs(float(hi) - float(ohi)) <= 1e-15
    # snapping to the lattice 1/N recovers the exact boxes
    assert fraction_boxes.rational(loaded) == fraction_boxes.rational(boxes)


@pytest.mark.parametrize(
    "cells",
    [[[0.7], [1.9]], np.array([[0.0]]), np.array([[2**63]], dtype=np.uint64)],
    ids=["float-list", "float-array", "uint64"],
)
def test_boxset_refuses_cells_that_do_not_cast_safely_to_int64(cells):
    with pytest.raises(TypeError, match="cast safely to int64"):
        BoxSet(((2, 1),), cells)


def test_boxset_keeps_int32_cells_and_an_empty_float_array():
    kept = BoxSet(((2, 1),), np.array([[1], [0]], dtype=np.int32)).cells
    assert kept.dtype == np.int64 and kept.tolist() == [[1], [0]]
    assert BoxSet(((2, 1),), np.empty((0, 1))).cells.dtype == np.int64


def test_boxset_rejects_cells_width_mismatch():
    with pytest.raises(ValueError):
        BoxSet(((2, 1), (3, 1)), [[0]])
    with pytest.raises(ValueError):
        BoxSet(((2, 1),), [0, 1])


def test_convergence_sweep_builds_one_fragment_per_scale(monkeypatch, fig1):
    from spongedims import tangent

    builds = []
    original = tangent.zoomed_fragment

    def counted(*args, **kwargs):
        builds.append(args[0].scale)
        return original(*args, **kwargs)

    monkeypatch.setattr(tangent, "zoomed_fragment", counted)
    scales = (Fraction(1, 3), Fraction(1, 9), Fraction(1, 27))
    report = convergence_sweep(fig1, scales)
    assert all(row.contained for row in report.rows)
    assert builds == list(scales)


def _count_calls(monkeypatch, name):
    """Record every call of ``name`` from either module that binds it."""
    calls = []
    original = getattr(measure, name, None) or getattr(tangent, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (measure, tangent):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_derives_each_scale_once(monkeypatch, fig1):
    # falling back to depth 1 (fig1 at 1/81 with budget 200) re-derives only the plans' bands and depths,
    # and no plan evaluates the formulas: its columns come from the block table
    formulas = _count_calls(monkeypatch, "dimensions")
    depths = _count_calls(monkeypatch, "depths_bm")
    for scales, budget, extra_depth in [
        ((Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)), DEFAULT_BOX_BUDGET, 2),
        ((Fraction(1, 81),), 200, 1),
    ]:
        formulas.clear()
        depths.clear()
        assert convergence_sweep(fig1, scales, budget).extra_depth == extra_depth
        assert (len(formulas), len(depths)) == (0, len(scales))


def test_sweep_holds_one_scale_at_a_time(monkeypatch, fig1):
    calls = []
    for name in ("zoomed_fragment", "tangent_product", "hausdorff_distance"):
        original = getattr(tangent, name)
        monkeypatch.setattr(tangent, name, lambda *a, _f=original, _n=name: calls.append(_n[0]) or _f(*a))
    convergence_sweep(fig1, [Fraction(1, 81), Fraction(1, 729), Fraction(1, 6561)])
    assert "".join(calls) == "zth" * 3


def test_sweep_refuses_before_it_builds_or_measures(monkeypatch, fig1):
    # at budget 100 depth 2 does not fit 1/81 (324 product boxes), and depth 1
    # fits 1/81 (36/54 boxes) but not 1/6561, whose fragment would need 324
    fragments = _count_calls(monkeypatch, "zoomed_fragment")
    products = _count_calls(monkeypatch, "tangent_product")
    boxes = _count_calls(monkeypatch, "_cylinders")
    distances = _count_calls(monkeypatch, "hausdorff_distance")
    with pytest.raises(BudgetExceededError) as exc:
        convergence_sweep(fig1, [Fraction(1, 81), Fraction(1, 6561)], budget=100)
    assert str(exc.value) == "zoomed_fragment: needs 324 boxes, budget is 100"
    assert (fragments, products, boxes, distances) == ([], [], [], [])


@pytest.mark.parametrize(
    "name, scales, budget, message",
    [
        # at depth 1 the fragment (36) and both factors (2, 27) fit, the product does not
        ("fig1", [Fraction(1, 81)], 50, "tangent_product: needs 54 boxes, budget is 50"),
        # the depth-1 fragment at 1/6561 would hold 9,058,973 boxes before the product refuses
        (
            "seed47",
            [Fraction(1, 81), Fraction(1, 729), Fraction(1, 6561)],
            DEFAULT_BOX_BUDGET,
            "tangent_product: needs 11529602 boxes, budget is 10000000",
        ),
    ],
)
def test_sweep_refusal_builds_no_box(request, monkeypatch, name, scales, budget, message):
    spec = random_bm_spec(random.Random(47), max_dim=4, min_dim=2) if name == "seed47" else request.getfixturevalue(name)
    boxes = _count_calls(monkeypatch, "_cylinders")
    with pytest.raises(BudgetExceededError) as exc:
        convergence_sweep(spec, scales, budget)
    assert (str(exc.value), boxes) == (message, [])


def test_tangent_geometry_refuses_a_prefix_spec():
    spec = spec_from_json(SPECS["prefix3"])
    for build in (lambda: tangent_plan(spec, Fraction(1, 81)), lambda: prefractal(spec, 2)):
        with pytest.raises(TypeError, match="^tangent geometry is grid-only: unsupported spec type LGSpongeSpec$"):
            build()


# ------------------------------------------------------------------ budgets

_ONE_BLOCK_COLUMN = SpongeSpec((2, 3, 3), ((0, 0, 0), (1, 1, 1)))
_ONE_DIGIT_FIRST = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1)))


@pytest.mark.parametrize(
    "stage, build, size, limit",
    [
        ("prefractal", lambda s: prefractal(s, 4, budget=10), "256 boxes", "10"),
        ("cluster_prefractal", lambda s: cluster_prefractal(s, 2, (0,), 3, budget=10), "27 boxes", "10"),
        ("zoomed_fragment", lambda s: zoomed_fragment(tangent_plan(s, Fraction(1, 81)), budget=10), "36 boxes", "10"),
        ("tangent_product", lambda s: tangent_product(tangent_plan(s, Fraction(1, 81)), budget=50), "54 boxes", "50"),
        (
            "tangent_product factor 2",
            lambda s: tangent_product(tangent_plan(s, Fraction(1, 81)), budget=20),
            "27 boxes",
            "20",
        ),
        ("zoomed_fragment", lambda s: convergence_sweep(s, [Fraction(1, 81)], budget=10), "36 boxes", "10"),
        (
            "grid resolution",
            lambda s: cluster_prefractal(_ONE_BLOCK_COLUMN, 2, (0,), 34),
            "3**34 = 16677181699666569 cells",
            "2**53 = 9007199254740992",
        ),
        ("grid resolution", lambda s: prefractal(s, 10**9), "2**1000000000 cells", "2**53 = 9007199254740992"),
    ],
)
def test_budget_errors_name_stage_size_and_limit(fig1, stage, build, size, limit):
    with pytest.raises(BudgetExceededError) as exc:
        build(fig1)
    message = str(exc.value)
    assert message.startswith(stage + ":")
    assert f"needs {size}" in message
    assert message.endswith(f"is {limit}")


def test_product_factor_resolution_refusal_names_the_factor():
    # The README's example: a one-digit first cluster keeps factor 1 at one
    # box, so factor 2, at depth 2 + 32 on base 3, is the first refusal.
    plan = tangent_plan(_ONE_DIGIT_FIRST, Fraction(1, 81), extra_depth=32)
    with pytest.raises(BudgetExceededError) as exc:
        tangent_product(plan)
    assert str(exc.value) == (
        "grid resolution: tangent_product factor 2 axis 0 needs 3**34 = 16677181699666569 cells, "
        "limit is 2**53 = 9007199254740992"
    )


@pytest.mark.parametrize("base", [2**63, 10**160], ids=["2^63", "10^160"])
def test_bases_past_int64_refuse_their_grid_before_any_array(base):
    # a base or digit past int64 stays a Python int until the grid check refuses it:
    # depth 0 refines no axis and builds its one box, depth 1 is refused
    spec = SpongeSpec((2, base), ((0, 0), (1, 1)))
    flat = tangent_plan(spec, Fraction(1), extra_depth=0)
    wide = tangent_plan(SpongeSpec((2, 10**160), ((0, 0), (1, 10**100))), Fraction(1), extra_depth=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for boxes in (prefractal(spec, 0), tangent_product(flat)):
            assert (boxes.grid, boxes.cells.tolist()) == (((2, 0), (base, 0)), [[0, 0]])
        fragment = zoomed_fragment(wide)
        for boxes in (fragment.boxes, tangent_product(wide)):
            assert (boxes.grid, boxes.cells.tolist()) == (((2, 0), (10**160, 0)), [[0, 0]])
        assert containment_check(fragment).ok
        for stage, build in [
            ("prefractal axis 1", lambda: prefractal(spec, 1)),
            ("tangent_product factor 2 axis 0", lambda: tangent_product(tangent_plan(spec, Fraction(1)))),
        ]:
            with pytest.raises(BudgetExceededError, match=rf"^grid resolution: {stage} needs {base}\*\*1 = {base} cells"):
                build()


def _builds(plan, budget):
    """The fragment and product box counts and grids, or the refusal the builders raise first, in the sweep's order."""
    try:
        fragment = zoomed_fragment(plan, budget)
        product = tangent_product(plan, budget)
    except BudgetExceededError as exc:
        return str(exc)
    return len(fragment.boxes), len(product), fragment.boxes.grid, product.grid


# Cluster 2's fattest column, above (0,), holds 2 of the 7 digits, and cluster
# 3's, above (1, 0), holds 5 blocks: the fragment's second band grows by 2
# per level while product factor 3 grows by 5, so that factor can refuse
# after the fragment fits, which no gen spec of the corpus below does.
_THIN_SECOND_COLUMN = SpongeSpec((2, 3, 5), ((0, 0, 0), (0, 1, 0)) + tuple((1, 0, z) for z in range(5)))


def test_check_plan_agrees_with_the_builders():
    # _check_plan decides from the plan alone; the builders decide by
    # counting and checking their grids.  The fragment count is, per band,
    # the rows above the band's prefix to the band length; both builders
    # share the plan's grid.
    specs = [spec_from_json(doc) for doc in SPECS.values() if doc["type"] == "bedford-mcmullen"]
    specs += [s for s in (random_bm_spec(random.Random(seed), max_dim=4, min_dim=2) for seed in range(400))
              if s.clusters.d_star >= 2]
    specs.append(_THIN_SECOND_COLUMN)
    scales = (Fraction(1, 81), Fraction(1, 729), Fraction(1, 6561))
    fits, stages = 0, set()
    for spec, scale, extra in itertools.product(specs, scales, (0, 1, 2)):
        plan = tangent_plan(spec, scale, extra)
        assert plan.depths == tuple(itertools.accumulate(plan.bands))
        rows = [sum(d[: len(p)] == p for d in spec.digits) for p in plan.prefixes]
        fragment = math.prod(n**band for n, band in zip(rows, plan.bands))
        product = math.prod(len(c) ** k for c, k in zip(plan.columns, plan.depths))
        built = _builds(plan, 20_000)
        try:
            tangent._check_plan(plan, 20_000)
        except BudgetExceededError as exc:
            assert str(exc) == built, (spec, scale, extra)
            stages.add(built.split(":")[0])
        else:
            assert built == (fragment, product, plan.grid, plan.grid), (spec, scale, extra)
            fits += 1
    assert 0 < fits < 9 * len(specs), fits
    assert stages == {"zoomed_fragment", "tangent_product factor 3", "tangent_product"}, stages


def test_sweep_falls_back_on_the_product_count(monkeypatch, fig1):
    # at depth 2 the fragment has 144 boxes and the product 324 > 200: depth 1, each built once
    fragments = _count_calls(monkeypatch, "zoomed_fragment")
    products = _count_calls(monkeypatch, "tangent_product")
    report = convergence_sweep(fig1, [Fraction(1, 81)], budget=200)
    assert report.extra_depth == 1
    [row] = report.rows
    assert (row.cluster_depths, row.fragment_boxes, row.product_boxes) == ((6, 4), 36, 54)
    assert row.distance.hex() == "0x1.5338446a121f8p-4"
    assert [call[0].extra_depth for call in fragments] == [call[0].extra_depth for call in products] == [1]


def test_sweep_falls_back_on_the_grid_resolution(monkeypatch):
    # at 2**-85 depth 2 needs 3**34 cells on the column axes, depth 1 3**33
    fragments = _count_calls(monkeypatch, "zoomed_fragment")
    products = _count_calls(monkeypatch, "tangent_product")
    report = convergence_sweep(_ONE_BLOCK_COLUMN, [Fraction(1, 2**85)])
    assert report.extra_depth == 1
    assert [(row.cluster_depths, row.fragment_boxes, row.product_boxes) for row in report.rows] == [((85, 53), 2, 2)]
    assert [call[0].extra_depth for call in fragments] == [call[0].extra_depth for call in products] == [1]
    with pytest.raises(BudgetExceededError) as exc:
        convergence_sweep(_ONE_BLOCK_COLUMN, [Fraction(1, 2**87)])
    assert str(exc.value) == (
        "grid resolution: zoomed_fragment axis 1 needs 3**34 = 16677181699666569 cells, "
        "limit is 2**53 = 9007199254740992"
    )


def test_sweep_refuses_an_over_fine_grid_once(monkeypatch, fig1):
    # one level less cannot lift this refusal, which names the depth-1 fragment's grid and builds nothing
    fragments = _count_calls(monkeypatch, "zoomed_fragment")
    products = _count_calls(monkeypatch, "tangent_product")
    boxes = _count_calls(monkeypatch, "_cylinders")
    with pytest.raises(BudgetExceededError) as exc:
        convergence_sweep(fig1, [Fraction(1, 10**30000)])
    assert str(exc.value) == (
        "grid resolution: zoomed_fragment axis 1 needs 3**36781 cells, limit is 2**53 = 9007199254740992"
    )
    assert (fragments, products, boxes) == ([], [], [])


def test_distance_refinement_budget_names_stage_size_and_limit(monkeypatch):
    monkeypatch.setattr(_kernels, "EVALUATION_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as exc:
        hausdorff_distance(BoxSet(((2, 0),), [[0]]), BoxSet(((4, 1),), [[-1], [4]]))
    message = str(exc.value)
    assert message.startswith("distance refinement: needs ")
    assert " pair evaluations, budget is 5" in message


def test_distance_refinement_budget_counts_evaluated_gaps(monkeypatch):
    # [0, 1] against the stubs [-1/4, 0] and [1, 5/4]: fewer boxes than a
    # leaf, so one leaf of 2 lanes.  Round 1 has three blocks of 8 rows: the
    # centre row, the far row and the 2 corner rows, each padded by
    # repeating its last row.  Each block bounds the leaf and scans its
    # lanes, 1 + 8 * 2 = 17 gaps.  The centre 1/2 is 1/2 from both stubs and
    # its tie takes [-1/4, 0]; the settle step's one gap from the far row
    # (0, 1) to it, 1, is above the cut 1/2 + tol, so the far row is scanned
    # too: 3 * 17 + 1 = 52 gaps, and the box survives.  Round 2 prunes both
    # halves; the reverse direction ends inside its first round, so no
    # further check is made.
    first, second = BoxSet(((2, 0),), [[0]]), BoxSet(((4, 1),), [[-1], [4]])
    assert _kernels._BLOCK == 8
    monkeypatch.setattr(_kernels, "EVALUATION_BUDGET", 51)
    with pytest.raises(BudgetExceededError) as exc:
        hausdorff_distance(first, second)
    assert str(exc.value) == "distance refinement: needs 52 pair evaluations, budget is 51"
    monkeypatch.setattr(_kernels, "EVALUATION_BUDGET", 52)
    assert hausdorff_distance(first, second) == 0.5


def test_grid_resolution_limit_is_inclusive():
    column = cluster_prefractal(_ONE_BLOCK_COLUMN, 2, (0,), 33)
    assert column.grid == ((3, 33), (3, 33))
    lo, hi = column.float_arrays()
    assert lo.tolist() == [[0.0, 0.0]]
    assert hi.tolist() == [[float(Fraction(1, 3**33))] * 2]
    with pytest.raises(BudgetExceededError):
        BoxSet(((2, 54),), [[0]])


def test_fragment_refuses_resolution_before_reading_positions(fig1):
    # at 3**-100 the zoomed axis 1 needs 3**59 cells: refused before any position's level is read
    read = []

    class Logged(tuple):  # a plan's band levels, logging the band of every level handed out
        def __getitem__(self, band):
            read.append(band)
            return super().__getitem__(band)

    plan = tangent_plan(fig1, Fraction(1, 3**100))
    with pytest.raises(BudgetExceededError, match=r"^grid resolution: zoomed_fragment axis 1 needs 3\*\*59 cells"):
        zoomed_fragment(dataclasses.replace(plan, levels=Logged(plan.levels)))
    assert read == []
    # depths (3, 2): band 2 is one position on the 3-block column, band 1 one position on all 4 digits
    plan = tangent_plan(fig1, Fraction(1, 9))
    assert len(zoomed_fragment(dataclasses.replace(plan, levels=Logged(plan.levels))).boxes) == 3 * 4
    assert read == [1, 0]


def test_boxset_costs_eight_bytes_per_axis(fig1):
    boxes = prefractal(fig1, 3)
    assert boxes.cells.dtype == np.int64
    assert boxes.cells.nbytes == 24 * len(boxes)


def test_text_loader_snaps_deep_grids(fig1):
    boxes = prefractal(fig1, 5)
    buf = io.StringIO()
    boxes.export_text(buf)
    buf.seek(0)
    loaded = load_text_boxes(buf)
    assert loaded.grid == ((32, 1), (243, 1), (243, 1))
    assert fraction_boxes.rational(loaded) == fraction_boxes.rational(boxes)


@pytest.mark.parametrize(
    "text",
    [
        "0.0 0.5\n0.5 0.75\n",  # sides 1/2 and 1/4 on one axis
        "0.1 0.6\n",  # side 1/2 but off the lattice
        "0.0 0.5 0.0\n",  # odd number of endpoints
        "",
    ],
)
def test_text_loader_rejects_boxes_without_shared_grid(text):
    with pytest.raises(ValueError):
        load_text_boxes(io.StringIO(text))


@pytest.mark.parametrize("text", ["-0.5 0.0\n", "1.0 1.5\n"])  # cells -1 and 2 of the grid ((2, 1),)
def test_text_loader_rejects_boxes_outside_the_unit_cube(text):
    with pytest.raises(ValueError, match="outside"):
        load_text_boxes(io.StringIO(text))


@pytest.mark.parametrize(
    "text, line",
    [
        ("0.0 0.5\n0.5\n", 2),
        ("0.0 0.5 0.0 1.0\n\n0.5 1.0 0.0 1.0\n0.5 1.0\n", 4),  # a blank line still counts
    ],
)
def test_text_loader_names_the_ragged_line(text, line):
    with pytest.raises(ValueError, match=f"^text line {line} holds"):
        load_text_boxes(io.StringIO(text))


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_text_boxes, "0.0 x\n0.5\n", "^text line 2 holds"),
        (load_voxel_boxes, "voxel bases=2,3 depths=1,1\n0 x\n1\n", "line 3 holds 1 cell indices"),
    ],
)
def test_loaders_name_a_misaligned_line_after_an_unparsed_token(load, text, message):
    with pytest.raises(ValueError, match=message):
        load(io.StringIO(text))


def test_text_loader_refuses_a_token_numpy_reads_as_no_decimal():
    with pytest.raises(ValueError):
        load_text_boxes(io.StringIO("0_0 0.5\n"))  # float("0_0") is 0.0


def test_text_loader_reads_crlf_line_ends():
    boxes = load_text_boxes(io.StringIO("0.0 0.5\r\n0.5 1.0\r\n"))
    assert boxes.grid == ((2, 1),) and boxes.cells.tolist() == [[0], [1]]


def test_text_loader_refuses_an_axis_past_the_resolution_limit():
    with pytest.raises(BudgetExceededError, match="grid resolution"):
        load_text_boxes(io.StringIO("0 1e-20\n"))  # N = 10**20 cells


def test_voxel_loader_rejects_partial_rows():
    with pytest.raises(ValueError):
        load_voxel_boxes(io.StringIO("voxel bases=2,3 depths=1,1\n0 1\n1\n"))


@pytest.mark.parametrize("token", ["1.0", "x", "99999999999999999999"])  # the last one past int64
def test_voxel_loader_rejects_tokens_that_are_no_int64(token):
    with pytest.raises(ValueError):
        load_voxel_boxes(io.StringIO(f"voxel bases=2 depths=1\n0\n{token}\n"))


@pytest.mark.parametrize("body", ["", "\n", " \n\n"])
def test_voxel_loader_reads_an_empty_body_without_warning(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boxes = load_voxel_boxes(io.StringIO("voxel bases=2,3 depths=1,1\n" + body))
    assert len(boxes) == 0 and boxes.grid == ((2, 1), (3, 1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("voxel depths=1\n0\n", "needs bases= and depths="),
        ("voxel bases=2\n0\n", "needs bases= and depths="),
        ("voxel bases=1 depths=1\n0\n", "at least 2"),
        ("voxel bases=2 depths=-1\n0\n", "nonnegative"),
        ("voxel bases=2 depths=1\n5\n", "outside"),
        ("voxel bases=2 depths=1\n2\n", "outside"),
        ("voxel bases=2,3 depths=1,2\n1 8\n0 9\n", "outside"),
        ("voxel bases=2,3 depths=1,2\n0 0\n-1 0\n", "outside"),
        ("voxel bases=2 depths=60\n0\n", "grid resolution"),
        ("voxel bases=2,3 depths=1,1\n0 1 1\n0\n", "line 2 holds 3 cell indices"),  # 4 indices would fill 2 rows
        ("voxel bases=2,3 depths=1,1\n0 1\n\n1 0 1\n", "line 4 holds 3 cell indices"),
        ("voxel bases=2,3 depths=1,1\n0 1 1\n1 0 1\n", "line 2 holds 3 cell indices"),  # every row too wide
    ],
)
def test_voxel_loader_rejects_malformed_input(text, message):
    with pytest.raises((ValueError, BudgetExceededError), match=message):
        load_voxel_boxes(io.StringIO(text))


@pytest.mark.parametrize(
    "header",
    [
        "voxel bases=2_0 depths=1",  # int() reads 2_0 as 20
        "voxel bases=2 depths=1 bases=3",  # a repeated field
        "voxel bases",  # a field without =
        "voxel bases=2 depths=1 extra=5",
        "voxel depths=1 bases=2",  # fields out of order
        "voxel bases=+2 depths=1",
    ],
)
def test_voxel_reader_refuses_headers_the_writer_never_writes(header):
    with pytest.raises(ValueError, match="needs bases= and depths="):
        load_voxel_boxes(io.StringIO(header + "\n0\n"))
