import io
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from spongedims import (
    BudgetExceededError,
    EmptySetError,
    BoxSet,
    SpongeSpec,
    Word,
    approximate_cube,
    cluster_prefractal,
    containment_check,
    convergence_sweep,
    encode_uniform_grid,
    hausdorff_distance,
    prefractal,
    tangent_plan,
    tangent_product,
    zoomed_fragment,
)
from spongedims import _kernels, measure, tangent
from spongedims.tangent import (
    SWEEP_TOL,
    load_text_boxes,
    load_voxel_boxes,
    select_maximizers,
    select_twists,
    tangent_word,
)

import kernel_reference
from gen import random_bm_spec


# -------------------------------------------------------------- maximizers

def test_select_maximizers(fig1, modified):
    assert select_maximizers(fig1) == {2: (0, 0, 0)}
    assert select_maximizers(modified) == {2: (0, 0, 0)}


def test_select_maximizers_tie_breaks_lexicographically():
    spec = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)))
    assert select_maximizers(spec) == {2: (0, 0, 0)}


def test_select_twists_uniform_grid(fig1):
    lg = encode_uniform_grid(fig1)
    assert select_twists(lg) == {2: (0, 0, 0)}


def test_select_twists_single_cluster():
    lg = encode_uniform_grid(SpongeSpec((2, 2), ((0, 0), (1, 1))))
    assert select_twists(lg) == {}


def test_select_twists_unique_candidate():
    from spongedims import LGSpongeSpec

    c = {
        (0,): Fraction(1, 2), (1,): Fraction(1, 2),
        (0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3),
    }
    t = {
        (0,): Fraction(0), (1,): Fraction(1, 2),
        (0, 0): Fraction(0), (1, 0): Fraction(0),
    }
    spec = LGSpongeSpec(2, c, t)
    assert select_twists(spec) == {2: (1, 0)}


# ------------------------------------------------------------ tangent word

def test_tangent_word_fig1(fig1):
    word = tangent_word(fig1, Fraction(1, 81))
    # depths are (6, 4): positions 5..6 carry the cluster-2 maximizer
    assert len(word.head) == 6
    assert word.head[4] == word.head[5] == (0, 0, 0)
    assert word.cycle == ((0, 0, 0),)


def test_tangent_word_unit_scale(fig1):
    word = tangent_word(fig1, Fraction(1))
    assert word.head == ()
    assert word.cycle == ((0, 0, 0),)


def test_tangent_plan_fig1(fig1):
    plan = tangent_plan(fig1, Fraction(1, 81))
    assert plan.scale == Fraction(1, 81)
    assert plan.depths == (6, 4, 4)
    assert plan.cluster_depths == (6, 4)
    assert plan.word.head == tangent_word(fig1, Fraction(1, 81)).head
    # the first-cluster projection, then the column above the maximizer's prefix (0,)
    assert plan.columns[0].tolist() == [[0], [1]]
    assert plan.columns[1].tolist() == [[0, 0], [1, 1], [2, 2]]


def test_tangent_word_lg_reduction(fig1):
    lg = encode_uniform_grid(fig1)
    word = tangent_word(lg, Fraction(1, 81))
    # uniform ratios make the twist prefix and blocks all equal (0,0,0)
    assert all(word.symbol(j) == (0, 0, 0) for j in range(8))


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
        for box in boxes.boxes
    )


def test_prefractal_depth_zero(fig1):
    boxes = prefractal(fig1, 0)
    assert boxes.boxes == (((Fraction(0), Fraction(1)),) * 3,)


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
    assert all(hi - lo == Fraction(1, 9) for box in boxes.boxes for lo, hi in box)


def test_cluster_prefractal_level_one_is_projection(fig1):
    boxes = cluster_prefractal(fig1, 1, (), 1)
    assert len(boxes) == 2
    assert boxes.dim == 1


# ------------------------------------------------------------- containment

def test_containment_fig1(fig1):
    report = containment_check(fig1, zoomed_fragment(fig1, tangent_plan(fig1, Fraction(1, 81))))
    assert report.ok
    assert report.witness is None


def test_containment_modified(modified):
    report = containment_check(modified, zoomed_fragment(modified, tangent_plan(modified, Fraction(1, 3**5))))
    assert report.ok


def test_containment_near_unit_scale(fig1):
    report = containment_check(fig1, zoomed_fragment(fig1, tangent_plan(fig1, Fraction(1))))
    assert report.ok


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
    fragment = zoomed_fragment(fig1, tangent_plan(fig1, scale), extra_depth=1).boxes
    first, second = {
        "prefractal-fragment": (prefractal(fig1, 2), fragment),
        "fragment-product": (fragment, tangent_product(fig1, tangent_plan(fig1, scale), extra_depth=1)),
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
    "name, small_buckets",
    [("fig1", False), ("modified", False)]
    + [(f"gen{seed}", small) for seed in (5, 10, 26, 29) for small in (False, True)],
)
def test_directed_distance_matches_brute_reference(request, monkeypatch, name, small_buckets):
    # The indexed kernels must give the brute-force sweep's floats exactly,
    # in both directions, on the sets the tangent sweep compares.
    if small_buckets:  # many buckets and candidate pieces even on small sets
        monkeypatch.setattr(_kernels, "_BUCKET_SIZE", 2)
        monkeypatch.setattr(_kernels, "_TILE", 64)
    if name.startswith("gen"):
        spec = random_bm_spec(random.Random(int(name[3:])), max_dim=4, min_dim=2)
        scales, extra_depth = [Fraction(1, max(spec.bases) ** k) for k in range(1, 4)], 1
    else:
        spec = request.getfixturevalue(name)
        scales, extra_depth = [Fraction(1, {"fig1": 6561, "modified": 729}[name])], 2
    for scale in scales:
        plan = tangent_plan(spec, scale)
        lo_a, hi_a = zoomed_fragment(spec, plan, extra_depth).boxes.float_arrays()
        lo_b, hi_b = tangent_product(spec, plan, extra_depth).float_arrays()
        for args in ((lo_a, hi_a, lo_b, hi_b), (lo_b, hi_b, lo_a, hi_a)):
            want = kernel_reference.directed_distance(*args, SWEEP_TOL)
            assert tangent._directed_distance(*args, SWEEP_TOL) == want


def test_convergence_sweep_fig1(fig1):
    scales = [Fraction(1, 3**4), Fraction(1, 3**6), Fraction(1, 3**8)]
    sweep = convergence_sweep(fig1, scales, extra_depth=1)
    assert sweep.nonincreasing
    assert all(row.contained for row in sweep.rows)
    assert [row.scale for row in sweep.rows] == scales
    # consecutive depth gaps grow, so distances drop by the cluster-2 base
    d = [row.distance for row in sweep.rows]
    assert d[0] > d[1] > d[2] > 0


def test_tangent_product_counts(fig1):
    product = tangent_product(fig1, tangent_plan(fig1, Fraction(1, 81)), extra_depth=1)
    # 2 first-cluster cells x 3**(depth gap 2 + 1) column squares
    assert len(product) == 2 * 27
    fragment = zoomed_fragment(fig1, tangent_plan(fig1, Fraction(1, 81)), extra_depth=1)
    assert len(fragment.boxes) == (3**2) * 4


def test_single_cluster_product_is_projection():
    spec = SpongeSpec((2, 2), ((0, 0), (1, 1)))
    product = tangent_product(spec, tangent_plan(spec, Fraction(1, 4)), extra_depth=2)
    assert len(product) == 4
    fragment = zoomed_fragment(spec, tangent_plan(spec, Fraction(1, 4)), extra_depth=2)
    assert hausdorff_distance(fragment.boxes, product) == 0.0


# ------------------------------------------------------------------ exports

def test_voxel_round_trip(fig1):
    boxes = prefractal(fig1, 2)
    buf = io.StringIO()
    boxes.export_voxel(buf)
    buf.seek(0)
    loaded = load_voxel_boxes(buf)
    assert loaded.boxes == boxes.boxes
    assert loaded.grid == boxes.grid


def test_text_round_trip(fig1):
    boxes = prefractal(fig1, 1)
    buf = io.StringIO()
    boxes.export_text(buf)
    buf.seek(0)
    loaded = load_text_boxes(buf)
    assert len(loaded) == len(boxes)
    for box, orig in zip(loaded.boxes, boxes.boxes):
        for (lo, hi), (olo, ohi) in zip(box, orig):
            assert abs(float(lo) - float(olo)) <= 1e-15
            assert abs(float(hi) - float(ohi)) <= 1e-15
    # snapping to the lattice 1/N recovers the exact boxes
    assert loaded.boxes == boxes.boxes


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
        builds.append(args[1].scale)
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
    maximizers = _count_calls(monkeypatch, "select_maximizers")
    depths = _count_calls(monkeypatch, "depths_bm")
    cubes = _count_calls(monkeypatch, "approximate_cube")
    scales = (Fraction(1, 3), Fraction(1, 9), Fraction(1, 27))
    convergence_sweep(fig1, scales)
    assert (len(maximizers), len(depths), len(cubes)) == (3, 3, 0)


# ------------------------------------------------------------------ budgets

_ONE_BLOCK_COLUMN = SpongeSpec((2, 3, 3), ((0, 0, 0), (1, 1, 1)))


@pytest.mark.parametrize(
    "stage, build, size, limit",
    [
        ("prefractal", lambda s: prefractal(s, 4, budget=10), "256 boxes", "10"),
        ("cluster_prefractal", lambda s: cluster_prefractal(s, 2, (0,), 3, budget=10), "27 boxes", "10"),
        ("zoomed_fragment", lambda s: zoomed_fragment(s, tangent_plan(s, Fraction(1, 81)), 1, budget=10), "36 boxes", "10"),
        ("tangent_product", lambda s: tangent_product(s, tangent_plan(s, Fraction(1, 81)), 1, budget=50), "54 boxes", "50"),
        ("zoomed_fragment", lambda s: convergence_sweep(s, [Fraction(1, 81)], budget=10), "36 boxes", "10"),
        (
            "grid resolution",
            lambda s: cluster_prefractal(_ONE_BLOCK_COLUMN, 2, (0,), 34),
            "3**34 = 16677181699666569 cells",
            "2**53 = 9007199254740992",
        ),
    ],
)
def test_budget_errors_name_stage_size_and_limit(fig1, stage, build, size, limit):
    with pytest.raises(BudgetExceededError) as exc:
        build(fig1)
    message = str(exc.value)
    assert message.startswith(stage + ":")
    assert f"needs {size}" in message
    assert message.endswith(f"is {limit}")


def test_distance_refinement_budget_names_stage_size_and_limit(monkeypatch):
    monkeypatch.setattr(tangent, "EVALUATION_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as exc:
        hausdorff_distance(BoxSet(((2, 0),), [[0]]), BoxSet(((4, 1),), [[-1], [4]]))
    message = str(exc.value)
    assert message.startswith("distance refinement: needs ")
    assert " pair evaluations, budget is 5" in message


def test_distance_refinement_budget_counts_evaluated_gaps(monkeypatch):
    # [0, 1] against the stubs [-1/4, 0] and [1, 5/4], one bucket holding both.
    # Round 1: far and centre rows, then the 2 corner rows, each bounding the
    # bucket and scanning its 2 members: 4 * (1 + 2) = 12 gaps, and the box
    # survives.  Round 2 prunes both halves; the reverse direction ends
    # inside its first round, so no further check is made.
    first, second = BoxSet(((2, 0),), [[0]]), BoxSet(((4, 1),), [[-1], [4]])
    monkeypatch.setattr(tangent, "EVALUATION_BUDGET", 11)
    with pytest.raises(BudgetExceededError) as exc:
        hausdorff_distance(first, second)
    assert str(exc.value) == "distance refinement: needs 12 pair evaluations, budget is 11"
    monkeypatch.setattr(tangent, "EVALUATION_BUDGET", 12)
    assert hausdorff_distance(first, second) == 0.5


def test_grid_resolution_limit_is_inclusive():
    column = cluster_prefractal(_ONE_BLOCK_COLUMN, 2, (0,), 33)
    assert column.grid == ((3, 33), (3, 33))
    lo, hi = column.float_arrays()
    assert lo.tolist() == [[0.0, 0.0]]
    assert hi.tolist() == [[float(Fraction(1, 3**33))] * 2]
    with pytest.raises(BudgetExceededError):
        BoxSet(((2, 54),), [[0]])


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
    assert loaded.boxes == boxes.boxes


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


def test_voxel_loader_rejects_partial_rows():
    with pytest.raises(ValueError):
        load_voxel_boxes(io.StringIO("voxel bases=2,3 depths=1,1\n0 1\n1\n"))
