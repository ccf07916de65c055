"""Differential test: integer cell-index builders against the Fraction reference loops.

The reference zooms along its own engineered word, position by position;
the package zooms band by band from its plan's prefixes.  So the fragment
comparison checks the two derivations of the zoomed cube against each
other, as well as the box arithmetic.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

import fraction_boxes as ref
from gen import random_bm_spec
from spongedims import (
    BoxSet,
    BudgetExceededError,
    containment_check,
    prefractal,
    tangent_plan,
    tangent_product,
    zoomed_fragment,
)
from test_tangent import cluster_prefractal

BUDGET = 2000


def _same(boxset, boxes):
    """Same boxes in the same order, and float corners bit-identical to float(Fraction)."""
    assert ref.rational(boxset) == boxes
    lo, hi = boxset.float_arrays()
    want_lo = np.array([[float(l) for l, _ in box] for box in boxes]).reshape(lo.shape)
    want_hi = np.array([[float(h) for _, h in box] for box in boxes]).reshape(hi.shape)
    assert lo.tobytes() == want_lo.tobytes()
    assert hi.tobytes() == want_hi.tobytes()


def _both(build, reference):
    """Run both builders; they must agree on the boxes or both exceed the budget."""
    try:
        want = reference()
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            build()
        return None
    got = build()
    _same(got, want)
    return got


def _scales(spec, rng):
    n = max(spec.bases)
    return [Fraction(1), Fraction(1, n), Fraction(1, n**2), Fraction(1, rng.randint(2, 40))]


def _off_product(spec, fragment, row):
    """A copy of cell ``row`` moved to the first cell outside the product, or None."""
    for j, (base, depth) in enumerate(fragment.boxes.grid):
        for v in range(min(base**depth, 64)):
            cells = fragment.boxes.cells[row].copy()
            cells[j] = v
            box = ref.rational_box(fragment.boxes.grid, cells.tolist())
            if ref.containment_witness(spec, [box], fragment.plan.cluster_depths, fragment.plan.extra_depth):
                return cells
    return None


@pytest.mark.parametrize("seed", range(16))
def test_integer_builders_match_fraction_loops(seed):
    rng = random.Random(9100 + seed)
    spec = random_bm_spec(rng, max_dim=4, max_base=5, max_digits=8)
    for depth in range(4):
        _both(lambda: prefractal(spec, depth, BUDGET), lambda: ref.prefractal(spec, depth, BUDGET))
    for level, prefix in enumerate(ref.column_prefixes(spec), 1):
        for depth in range(4):
            _both(
                lambda: cluster_prefractal(spec, level, prefix, depth, BUDGET),
                lambda: ref.cluster_prefractal(spec, level, prefix, depth, BUDGET),
            )
    for scale in _scales(spec, rng):
        for extra in (1, 2):
            plan = tangent_plan(spec, scale, extra)
            _both(
                lambda: tangent_product(plan, BUDGET),
                lambda: ref.tangent_product(spec, scale, extra, BUDGET),
            )
            fragment = _both(
                lambda: zoomed_fragment(plan, BUDGET).boxes,
                lambda: ref.zoomed_fragment(spec, scale, extra, BUDGET),
            )
            if fragment is not None:
                _check_witness(spec, zoomed_fragment(plan, BUDGET), rng)


def _check_witness(spec, fragment, rng):
    report = containment_check(fragment)
    assert report.ok and report.witness is None
    n = len(fragment.boxes)
    first = rng.randrange(max(n - 1, 1))
    moved = _off_product(spec, fragment, first)
    if moved is None:  # the product fills the whole grid around this cell
        return
    cells = fragment.boxes.cells.copy()
    cells[first] = moved
    later = _off_product(spec, fragment, n - 1)
    if first < n - 1 and later is not None:  # a later violation must not be reported first
        cells[n - 1] = later
    broken = dataclasses.replace(fragment, boxes=BoxSet(fragment.boxes.grid, cells))
    want = ref.containment_witness(spec, ref.rational(broken.boxes), fragment.plan.cluster_depths, fragment.plan.extra_depth)
    report = containment_check(broken)
    assert not report.ok
    assert report.witness == tuple(cells[first].tolist())
    assert want == ref.rational_box(broken.boxes.grid, report.witness)


def test_differential_corpus_moves_cells_off_the_product():
    # the witness check above must actually run on part of the corpus
    hits = 0
    for seed in range(16):
        rng = random.Random(9100 + seed)
        spec = random_bm_spec(rng, max_dim=4, max_base=5, max_digits=8)
        fragment = zoomed_fragment(tangent_plan(spec, Fraction(1, max(spec.bases))))
        hits += _off_product(spec, fragment, 0) is not None
    assert hits >= 6
