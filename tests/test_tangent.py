import io
import random
from fractions import Fraction

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
    select_maximizers,
    select_twists,
    tangent_product,
    tangent_word,
    zoom_map,
    zoomed_fragment,
)
from spongedims.tangent import load_text_boxes, load_voxel_boxes


def _point(*coords):
    return tuple((Fraction(c), Fraction(c)) for c in coords)


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


def test_tangent_word_lg_reduction(fig1):
    lg = encode_uniform_grid(fig1)
    word = tangent_word(lg, Fraction(1, 81))
    # uniform ratios make the twist prefix and blocks all equal (0,0,0)
    assert all(word.symbol(j) == (0, 0, 0) for j in range(8))


# ------------------------------------------------------------------- zooms

def test_zoom_map_fig1(fig1):
    cube = approximate_cube(fig1, Word((), ((0, 0, 0),)), Fraction(1, 3))
    zoom = zoom_map(fig1, cube)
    assert zoom.scales == (Fraction(2), Fraction(3), Fraction(3))
    assert zoom.offsets == (Fraction(0), Fraction(0), Fraction(0))
    assert zoom.lipschitz_lo == 2
    assert zoom.lipschitz_hi == 3


def test_zoom_map_identity_at_unit_scale(fig1):
    cube = approximate_cube(fig1, Word((), ((0, 0, 0),)), Fraction(1))
    zoom = zoom_map(fig1, cube)
    assert zoom.scales == (Fraction(1),) * 3


def test_zoom_distortion_bound(fig1):
    rng = random.Random(61)
    digits = sorted(fig1.digit_set)
    for _ in range(1000):
        r = Fraction(rng.randint(1, 2**10), 2**10)
        word = Word(tuple(rng.choice(digits) for _ in range(12)))
        cube = approximate_cube(fig1, word, r)
        zoom = zoom_map(fig1, cube)
        assert zoom.lipschitz_hi / zoom.lipschitz_lo <= max(fig1.bases)


def test_zoom_sends_rectangle_to_unit_cube(fig1):
    rng = random.Random(67)
    digits = sorted(fig1.digit_set)
    for _ in range(50):
        r = Fraction(rng.randint(1, 3**5), 3**5)
        word = Word(tuple(rng.choice(digits) for _ in range(12)))
        cube = approximate_cube(fig1, word, r)
        zoom = zoom_map(fig1, cube)
        assert zoom.apply_box(cube.rectangle) == ((Fraction(0), Fraction(1)),) * 3


def test_zoom_distortion_bound_lg(fig1):
    lg = encode_uniform_grid(fig1)
    min_ratio = lg.min_full_contraction
    rng = random.Random(71)
    digits = sorted(lg.digit_set)
    for _ in range(200):
        r = min_ratio * Fraction(rng.randint(1, 3**4), 3**4)
        word = Word(tuple(rng.choice(digits) for _ in range(20)))
        cube = approximate_cube(lg, word, r)
        zoom = zoom_map(lg, cube)
        assert zoom.lipschitz_hi / zoom.lipschitz_lo <= 1 / min_ratio


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
    report = containment_check(fig1, zoomed_fragment(fig1, Fraction(1, 81)))
    assert report.ok
    assert report.witness is None


def test_containment_modified(modified):
    report = containment_check(modified, zoomed_fragment(modified, Fraction(1, 3**5)))
    assert report.ok


def test_containment_near_unit_scale(fig1):
    report = containment_check(fig1, zoomed_fragment(fig1, Fraction(1)))
    assert report.ok


# ---------------------------------------------------------------- distances

def test_hausdorff_two_points():
    assert hausdorff_distance(BoxSet((_point(0),)), BoxSet((_point(1),))) == 1.0


def test_hausdorff_identity(fig1):
    boxes = prefractal(fig1, 2)
    assert hausdorff_distance(boxes, boxes) == 0.0


def test_hausdorff_known_offset():
    a = BoxSet((((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),))
    b = BoxSet((((Fraction(2), Fraction(3)), (Fraction(0), Fraction(1))),))
    assert abs(hausdorff_distance(a, b) - 2.0) <= 1e-9


def test_hausdorff_interior_farthest_point():
    # the farthest point of [0,1] from the two flanking stubs is the midpoint,
    # not any box vertex; the bound refinement must find it
    a = BoxSet((((Fraction(0), Fraction(1)),),))
    b = BoxSet((((Fraction(-1, 4), Fraction(0)),), ((Fraction(1), Fraction(5, 4)),)))
    assert abs(hausdorff_distance(a, b) - 0.5) <= 1e-9


def test_hausdorff_empty_raises():
    with pytest.raises(EmptySetError):
        hausdorff_distance(BoxSet(()), BoxSet((_point(0),)))


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
    product = tangent_product(fig1, Fraction(1, 81), extra_depth=1)
    # 2 first-cluster cells x 3**(depth gap 2 + 1) column squares
    assert len(product) == 2 * 27
    fragment = zoomed_fragment(fig1, Fraction(1, 81), extra_depth=1)
    assert len(fragment.boxes) == (3**2) * 4


def test_single_cluster_product_is_projection():
    spec = SpongeSpec((2, 2), ((0, 0), (1, 1)))
    product = tangent_product(spec, Fraction(1, 4), extra_depth=2)
    assert len(product) == 4
    fragment = zoomed_fragment(spec, Fraction(1, 4), extra_depth=2)
    assert hausdorff_distance(fragment.boxes, product) == 0.0


# ------------------------------------------------------------------ exports

def test_voxel_round_trip(fig1):
    boxes = prefractal(fig1, 2)
    buf = io.StringIO()
    boxes.export_voxel(buf)
    buf.seek(0)
    loaded = load_voxel_boxes(buf)
    assert set(loaded.boxes) == set(boxes.boxes)
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


def test_voxel_requires_grid():
    with pytest.raises(ValueError):
        BoxSet((_point(0),)).export_voxel(io.StringIO())


def test_convergence_sweep_builds_one_fragment_per_scale(monkeypatch, fig1):
    from spongedims import tangent

    builds = []
    original = tangent.zoomed_fragment

    def counted(*args, **kwargs):
        builds.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(tangent, "zoomed_fragment", counted)
    scales = (Fraction(1, 3), Fraction(1, 9), Fraction(1, 27))
    report = convergence_sweep(fig1, scales)
    assert all(row.contained for row in report.rows)
    assert builds == list(scales)
