"""The geometry writers against the per-endpoint reference formatter, and the text and voxel round trips."""

import io
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedims import BoxSet, tangent_plan, tangent_product, zoomed_fragment
from spongedims.tangent import MAX_RESOLUTION, load_text_boxes, load_voxel_boxes

import export_reference
import fraction_boxes


@st.composite
def box_sets(draw, max_cells):
    """A ``BoxSet`` of 1 to 40 boxes on 1 to 4 axes of at most ``max_cells`` cells each, depth 0 included."""
    grid = []
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.integers(2, 12))
        top = next(m for m in range(60) if base ** (m + 1) > max_cells)
        grid.append((base, draw(st.integers(0, top))))
    # the first and last cells of an axis, and repeats, share endpoints
    axis = [st.one_of(st.integers(0, b**m - 1), st.sampled_from([0, b**m - 1])) for b, m in grid]
    cells = draw(st.lists(st.tuples(*axis), min_size=1, max_size=40))
    return BoxSet(tuple(grid), cells)


def _written(write, boxes):
    buf = io.StringIO()
    write(boxes, buf)
    return buf.getvalue()


def _assert_reference_bytes(boxes):
    # names the first differing line; a plain == on megabytes of text makes pytest diff them for minutes
    for write, reference in ((BoxSet.export_text, export_reference.export_text),
                             (BoxSet.export_voxel, export_reference.export_voxel)):
        got, want = _written(write, boxes).split("\n"), _written(reference, boxes).split("\n")
        line = next((i for i, pair in enumerate(itertools.zip_longest(got, want), 1) if pair[0] != pair[1]), None)
        assert line is None, f"{write.__name__} line {line}: {got[line - 1 : line]} != {want[line - 1 : line]}"


@given(box_sets(MAX_RESOLUTION))
@settings(max_examples=200, deadline=None)
def test_writers_match_reference_bytes(boxes):
    _assert_reference_bytes(boxes)


@given(box_sets(MAX_RESOLUTION))
@settings(max_examples=300, deadline=None)
def test_voxel_round_trip_keeps_grid_and_cells(boxes):
    loaded = load_voxel_boxes(io.StringIO(_written(BoxSet.export_voxel, boxes)))
    assert loaded.grid == boxes.grid
    assert loaded.cells.tolist() == boxes.cells.tolist()


GOLDEN_VOXEL = sorted((Path(__file__).parent / "golden").glob("export-*-voxel/*.voxel"))


@pytest.mark.parametrize("path", GOLDEN_VOXEL, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_golden_voxel_files_read_back_to_their_own_bytes(path):
    written = path.read_text()
    assert _written(BoxSet.export_voxel, load_voxel_boxes(io.StringIO(written))) == written


def test_golden_voxel_files_are_all_found():
    assert len(GOLDEN_VOXEL) == 12


@pytest.mark.parametrize("piece", ["fragment", "product"])
def test_writers_match_reference_bytes_on_tangent_sets(fig1, piece):
    plan = tangent_plan(fig1, Fraction(1, 3**11), extra_depth=2)
    boxes = zoomed_fragment(plan).boxes if piece == "fragment" else tangent_product(plan)
    assert len(boxes) > 4096  # more than one formatted chunk
    _assert_reference_bytes(boxes)


@given(box_sets(2**26 - 1))
@settings(max_examples=200, deadline=None)
def test_text_round_trip_below_the_documented_limit(boxes):
    loaded = load_text_boxes(io.StringIO(_written(BoxSet.export_text, boxes)))
    assert fraction_boxes.rational(loaded) == fraction_boxes.rational(boxes)
