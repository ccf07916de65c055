"""Time the target index and the two distance-kernel passes on a real tangent-sweep workload.

Builds the box sets the tangent sweep actually compares (the zoomed cube
fragment and the matched product for the bases-(2,3,3) example sponge at a
small scale), then times, for each direction of the Hausdorff distance,
``build_index`` over the target and the public ``bounds_pass`` and
``corner_pass`` of ``spongedims._kernels`` against it, best of
``--repeats`` runs each.  As in ``hausdorff_distance``, the product is
indexed through its factors and the fragment as one box set.  The passes
are called as the first round of the branch-and-bound calls them: the
centres from a best of 0, the far rows with the tolerance ``SWEEP_TOL``, then
the corners of the surviving boxes from the centres' maximum, with the
survivors' upper bounds.  For each direction it prints each factor's leaf
count and the query block size, how many far rows ``bounds_pass``
settled at their centre's nearest box and how many it scanned, and how
many surviving boxes ``corner_pass`` visited and how many it skipped,
with the gaps a scan of every survivor's corners evaluates; for each
pass, the gaps evaluated and the
share of query-target pairs the index and the cut pruned: one minus the
gaps evaluated over the pairs a brute-force sweep over the flat target
evaluates (2 rows per box for ``bounds_pass``, 2**d per surviving box
for ``corner_pass``).  The gaps evaluated include the padded rows and
lanes of short blocks and leaves, so small sets show less pruning than
they get.  Run as a script:

    python benchmarks/bench_kernels.py [--scale-exponent 8] [--extra-depth 2] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

from spongedims import SpongeSpec, tangent_plan, tangent_product, zoomed_fragment
from spongedims import _kernels
from spongedims.tangent import SWEEP_TOL


def _workload(scale_exponent: int, extra_depth: int):
    """(fragment arrays, product arrays, the product's factor arrays), each a (lo, hi) pair."""
    spec = SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1)))
    plan = tangent_plan(spec, Fraction(1, 3**scale_exponent), extra_depth=extra_depth)
    fragment = zoomed_fragment(plan)
    product = tangent_product(plan)
    return fragment.boxes.float_arrays(), product.float_arrays(), [f.float_arrays() for f in product.factors]


def _time(fn, args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale-exponent", type=int, default=8, help="use scale 3**-k (default 8)")
    parser.add_argument("--extra-depth", type=int, default=2, help="refinement past the cube (default 2)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    fragment, product, factors = _workload(args.scale_exponent, args.extra_depth)
    sizes = " x ".join(str(len(lo)) for lo, _ in factors)
    print(
        f"workload: {len(fragment[0])} fragment boxes, {len(product[0])} product boxes ({sizes} by factor), "
        f"dim {fragment[0].shape[1]}, {_kernels.BACKEND} kernels"
    )
    for direction, (lo_a, hi_a), targets in (
        ("fragment->product", fragment, factors),
        ("product->fragment", product, [fragment]),
    ):
        index = _kernels.build_index(targets)
        leaves = " x ".join(str(f.leaf_lo.shape[1]) for f in index.factors)
        print(f"{direction}: {leaves} leaves of {_kernels._LEAF} by factor, blocks of {_kernels._BLOCK} rows")
        print(f"  build_index  {_time(_kernels.build_index, (targets,), args.repeats) * 1e3:>8.1f}ms")
        (n, d), m = lo_a.shape, index.shape[0]
        upper, lower, _ = _kernels.bounds_pass(lo_a, hi_a, index, 0.0, SWEEP_TOL)
        best = float(lower.max())
        keep = upper > best + SWEEP_TOL
        centres = _kernels._blocked(0.5 * (lo_a + hi_a), _kernels._BLOCK)
        boxes = _kernels._min_gap(centres, centres, index, 0.0, rise=True, track=True)[-1]
        settled = int((_kernels._settle(lo_a, hi_a, index, boxes[:n]) <= best + SWEEP_TOL).sum())
        print(f"  far rows     {settled} settled at their centre's box, {n - settled} scanned")
        survivors = lo_a[keep], hi_a[keep], index, best
        visited, corner_max = [], _kernels._corner_max
        _kernels._corner_max = lambda lo, *rest: visited.append(len(lo)) or corner_max(lo, *rest)
        try:
            _kernels.corner_pass(*survivors, upper[keep])
        finally:
            _kernels._corner_max = corner_max
        print(
            f"  corner boxes {sum(visited)} visited in groups of {visited}, {int(keep.sum()) - sum(visited)} skipped; "
            f"every corner scanned: {corner_max(*survivors)[-1]} gaps"
        )
        passes = (
            ("bounds_pass", _kernels.bounds_pass, (lo_a, hi_a, index, 0.0, SWEEP_TOL), 2 * n),
            ("corner_pass", _kernels.corner_pass, (*survivors, upper[keep]), int(keep.sum()) << d),
        )
        for name, fn, call, rows in passes:
            evaluated = fn(*call)[-1]
            pruned = 1 - evaluated / (rows * m) if rows else 1.0
            seconds = _time(fn, call, args.repeats)
            print(
                f"  {name:<12} {seconds * 1e3:>8.1f}ms  {evaluated} gaps, pruned {pruned:.1%} of {rows * m} pairs "
                "(padding counted)"
            )


if __name__ == "__main__":
    main()
