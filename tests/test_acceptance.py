"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import random
import time
from fractions import Fraction

from spongedims import (
    assouad_lower_bm,
    containment_check,
    convergence_sweep,
    dimension_drop,
    encode_uniform_grid,
    subcube_counts,
    tangent_plan,
    zoomed_fragment,
)
from spongedims.dimensions import assouad_lower_lg, moran_solve
from spongedims.measure import ratio_bound_check
from spongedims.oracle import build_count_table, fit_exponent
from spongedims.cli import main
from count_reference import subcube_counts_naive
from gen import random_bm_spec


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _dims_via_cli(capsys, spec_file: str) -> dict:
    assert main(["dims", "--input", spec_file, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_fig1_exact_value(capsys, fig1_file):
    start = time.perf_counter()
    doc = _dims_via_cli(capsys, fig1_file)
    elapsed = time.perf_counter() - start
    value = float(doc["assouad"]["decimal"])
    ok = abs(value - 2.0) <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"dims(fig1) assouad={value!r} (target 2.0, tol 1e-12), {elapsed:.3f}s")


def test_criterion_2_modified_exact_value(capsys, modified_file):
    target = 1 + math.log(4) / math.log(3)
    start = time.perf_counter()
    doc = _dims_via_cli(capsys, modified_file)
    elapsed = time.perf_counter() - start
    value = float(doc["assouad"]["decimal"])
    ok = abs(value - target) <= 1e-9 and elapsed < 1.0
    _verdict(2, ok, f"dims(modified) assouad={value!r} (target {target!r}, tol 1e-9), {elapsed:.3f}s")


def test_criterion_3_compare_old_formula(modified):
    target_old = 2 + math.log(2) / math.log(3)
    report = dimension_drop(modified)
    ok = (
        abs(report.old.assouad - target_old) <= 1e-9
        and report.drop > 0
        and not report.equality_condition_holds
    )
    _verdict(
        3,
        ok,
        f"compare(modified) old={report.old.assouad!r} (target {target_old!r}, tol 1e-9), "
        f"drop={report.drop:.7f} > 0, equality_condition_holds={report.equality_condition_holds}",
    )


def test_criterion_4_reduction_consistency():
    start = time.perf_counter()
    rng = random.Random(20240)
    worst = 0.0
    for _ in range(50):
        spec = random_bm_spec(rng, max_dim=4, max_base=5, max_digits=12)
        grid = assouad_lower_bm(spec)
        lifted = assouad_lower_lg(encode_uniform_grid(spec))
        worst = max(worst, abs(grid.assouad - lifted.assouad), abs(grid.lower - lifted.lower))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(4, ok, f"50 uniform-grid encodings, worst |difference|={worst:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_5_measure_ratio_bounds(fig1, modified):
    start = time.perf_counter()
    totals = []
    for spec in (fig1, modified):
        report = ratio_bound_check(spec, trials=10000, seed=0)
        totals.append(len(report.violations))
    elapsed = time.perf_counter() - start
    ok = totals == [0, 0] and elapsed < 60.0
    _verdict(5, ok, f"2 x 10000 trials, violations={totals}, {elapsed:.1f}s")


def test_criterion_6_containment(fig1, modified):
    start = time.perf_counter()
    failures = []
    for spec, name in ((fig1, "fig1"), (modified, "modified")):
        for exponent in (4, 5, 6):
            scale = Fraction(1, 3**exponent)
            report = containment_check(spec, zoomed_fragment(spec, tangent_plan(spec, scale)))
            if not report.ok:
                failures.append((name, exponent, report.witness))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _verdict(6, ok, f"containment at 3^-4..3^-6 on both sponges, witnesses={failures}, {elapsed:.1f}s")


def test_criterion_7_tangent_convergence(fig1):
    start = time.perf_counter()
    sweep = convergence_sweep(fig1, [Fraction(1, 3**4), Fraction(1, 3**6), Fraction(1, 3**8)])
    elapsed = time.perf_counter() - start
    distances = [row.distance for row in sweep.rows]
    ok = sweep.nonincreasing and elapsed < 120.0
    _verdict(7, ok, f"sweep distances={[f'{d:.6f}' for d in distances]} nonincreasing, {elapsed:.1f}s")


def test_criterion_8_oracle_agreement(fig1, modified):
    start = time.perf_counter()
    results = []
    for spec, target in ((fig1, 2.0), (modified, 1 + math.log(4) / math.log(3))):
        table = build_count_table(spec, range(4, 11))
        fit = fit_exponent(table)
        results.append((fit.assouad_estimate, target, fit.incremental_slopes_max))
    elapsed = time.perf_counter() - start
    ok = all(abs(est - target) <= 0.2 for est, target, _ in results) and elapsed < 120.0
    for est, target, slopes in results:
        print(f"    oracle estimate {est:.4f} vs formula {target:.4f}; "
              f"incremental slopes {[f'{s:.3f}' for s in slopes]}")
    _verdict(
        8,
        ok,
        "estimates "
        + ", ".join(f"{est:.4f} (target {target:.4f}, tol 0.2)" for est, target, _ in results)
        + f", {elapsed:.1f}s",
    )


def test_criterion_9_moran_solver():
    rng = random.Random(90)
    worst = 0.0
    for _ in range(1000):
        ratios = [Fraction(rng.randint(1, 98), 100) for _ in range(rng.randint(2, 6))]
        worst = max(worst, moran_solve(ratios).residual)
    binary = moran_solve([Fraction(1, 2), Fraction(1, 2)])
    triple = moran_solve([Fraction(1, 4)] * 3)
    ok = (
        worst <= 1e-12
        and abs(binary.exponent - 1.0) <= 1e-12
        and abs(triple.exponent - math.log(3) / math.log(4)) <= 1e-12
    )
    _verdict(
        9,
        ok,
        f"worst residual {worst:.2e} over 1000 lists; {{1/2,1/2}} -> {binary.exponent!r}; "
        f"{{1/4 x3}} -> {triple.exponent!r}",
    )


def test_criterion_10_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(100)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]
    specs = 0
    mismatches = 0
    while specs < 200:
        spec = random_bm_spec(rng, max_dim=3, max_base=3, max_digits=5)
        specs += 1
        for k, m in pairs:
            if subcube_counts(spec, k, m) != subcube_counts_naive(spec, k, m):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    _verdict(10, ok, f"{specs} specs x {len(pairs)} depth pairs, mismatches={mismatches}, {elapsed:.1f}s")
