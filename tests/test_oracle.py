import io
import random

import pytest

from spongedims import InsufficientDataError, SpongeSpec, subcube_counts
from spongedims.oracle import CountTable, build_count_table, fit_exponent, write_count_csv
from count_reference import subcube_counts_naive
from gen import random_bm_spec


def test_counts_first_refinement(fig1):
    # R = 1, r = 1/2: only the first coordinate refines, two first digits exist
    assert subcube_counts(fig1, 0, 1) == (2, 2)


def test_counts_single_cluster_powers():
    spec = SpongeSpec((2, 2, 2), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
    for k in (0, 1, 2):
        for m in (1, 2, 3):
            assert subcube_counts(spec, k, m) == (4**m, 4**m)


def test_counts_monotone_in_refinement(fig1, modified):
    for spec in (fig1, modified):
        for k in (0, 2, 5):
            prev_max, prev_min = 1, 1
            for m in range(0, 6):
                mx, mn = subcube_counts(spec, k, m)
                assert 1 <= mn <= mx
                assert mx >= prev_max
                assert mn >= prev_min
                prev_max, prev_min = mx, mn


def test_dp_matches_naive_spot_checks(fig1, modified):
    for spec in (fig1, modified):
        for k, m in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1)):
            assert subcube_counts(spec, k, m) == subcube_counts_naive(spec, k, m)


def test_dp_matches_naive_random_corpus():
    rng = random.Random(71)
    for _ in range(40):
        spec = random_bm_spec(rng, max_dim=3, max_base=3, max_digits=5)
        for k, m in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1)):
            assert subcube_counts(spec, k, m) == subcube_counts_naive(spec, k, m)


def test_fit_single_cluster_exact():
    spec = SpongeSpec((2, 2), ((0, 0), (0, 1), (1, 0), (1, 1)))
    fit = fit_exponent(build_count_table(spec, range(4, 11)))
    assert abs(fit.assouad_estimate - 2.0) <= 1e-9
    assert abs(fit.lower_estimate - 2.0) <= 1e-9
    assert all(abs(r) <= 1e-9 for r in fit.residuals_max)


def test_fit_fig1_band(fig1):
    fit = fit_exponent(build_count_table(fig1, range(4, 11)))
    assert 1.85 <= fit.assouad_estimate <= 2.15
    assert abs(fit.lower_estimate - 1.0) <= 0.05


def test_fit_requires_three_entries(fig1):
    with pytest.raises(InsufficientDataError):
        fit_exponent(CountTable(2, {(0, 1): (2, 2), (0, 2): (4, 4)}))


def test_count_csv(fig1):
    table = build_count_table(fig1, (4, 5, 6))
    buf = io.StringIO()
    write_count_csv(table, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,m,max_count,min_count,incremental_slope"
    assert len(lines) == 4


def test_subcube_counts_budget_names_stage_size_and_limit(fig1):
    from spongedims import BudgetExceededError

    with pytest.raises(BudgetExceededError, match=r"^subcube_counts: needs total depth 12, budget is 10$"):
        subcube_counts(fig1, 8, 4, budget=10)
