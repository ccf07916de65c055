import json
import random
from fractions import Fraction

import pytest

from spongedims import (
    InvalidSpecError,
    LGSpongeSpec,
    SpongeSpec,
    encode_uniform_grid,
    spec_from_json,
)
from spongedims.model import per_coordinate_counts, validate_bm, validate_lg
from gen import random_bm_spec


def test_validate_ok(fig1):
    report = validate_bm(fig1)
    assert report.ok
    assert not report.violations


def test_validate_too_few_digits():
    report = validate_bm(SpongeSpec((2, 3, 3), ((0, 0, 0),)))
    assert not report.ok
    assert any("at least 2" in v for v in report.violations)


def test_validate_digit_out_of_range():
    report = validate_bm(SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 3))))
    assert not report.ok
    assert any("outside range" in v for v in report.violations)


def test_validate_duplicates_rejected():
    report = validate_bm(SpongeSpec((2, 2), ((0, 0), (0, 0), (1, 1))))
    assert not report.ok
    assert any("duplicate" in v for v in report.violations)


def test_validate_base_too_small():
    report = validate_bm(SpongeSpec((1, 3), ((0, 0), (0, 1))))
    assert not report.ok


def test_hyperplane_is_warning_not_error():
    report = validate_bm(SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1))))
    assert report.ok
    assert any("hyperplane" in w for w in report.warnings)


def test_canonicalization_sorts_bases():
    spec = SpongeSpec((3, 2, 3), ((0, 1, 2), (2, 0, 1)))
    assert spec.bases == (2, 3, 3)
    assert spec.permutation == (1, 0, 2)
    # digit components follow their coordinates
    assert set(spec.digits) == {(1, 0, 2), (0, 2, 1)}


def test_cluster_examples(fig1):
    cl = fig1.clusters
    assert cl.d_star == 2
    assert cl.cluster_sizes == (1, 2)
    assert cl.cluster_bases == (2, 3)

    all_equal = SpongeSpec((2, 2, 2), ((0, 0, 0), (1, 1, 1))).clusters
    assert all_equal.cluster_sizes == (3,)
    assert all_equal.cluster_bases == (2,)

    distinct = SpongeSpec((2, 3, 5), ((0, 0, 0), (1, 2, 4))).clusters
    assert distinct.cluster_sizes == (1, 1, 1)
    assert distinct.cluster_bases == (2, 3, 5)


def test_cluster_partitions_coordinates():
    rng = random.Random(7)
    for _ in range(50):
        spec = random_bm_spec(rng)
        cl = spec.clusters
        assert sum(cl.cluster_sizes) == spec.ambient_dim
        assert list(cl.cluster_of) == sorted(cl.cluster_of)
        assert all(a < b for a, b in zip(cl.cluster_bases, cl.cluster_bases[1:]))


def test_digit_tree_counts(fig1, modified):
    tree = fig1.tree
    assert tree.root_count == 2
    assert tree.counts_at_level(1) == {(0,): 3, (1,): 1}

    tree2 = modified.tree
    assert tree2.root_count == 2
    assert tree2.counts_at_level(1) == {(0,): 4, (1,): 1}

    single = SpongeSpec((2, 2), ((0, 0), (1, 1))).tree
    assert single.root_count == 2
    assert single.clusters.d_star == 1


def test_digit_tree_reconstruction_complete():
    rng = random.Random(11)
    for _ in range(30):
        spec = random_bm_spec(rng)
        tree = spec.tree
        assert {n.prefix for n in tree.nodes_at_level(tree.clusters.d_star)} == set(spec.digits)


def test_digit_tree_count_bounds():
    rng = random.Random(13)
    for _ in range(30):
        spec = random_bm_spec(rng)
        cl, tree = spec.clusters, spec.tree
        for level in range(cl.d_star):
            for prefix, count in tree.counts_at_level(level).items():
                assert 1 <= count <= cl.cluster_bases[level] ** cl.cluster_sizes[level]


def test_factorization_bound():
    # a cluster's block count never exceeds the product of per-coordinate maxima
    rng = random.Random(17)
    for _ in range(30):
        spec = random_bm_spec(rng)
        cl, tree = spec.clusters, spec.tree
        coord_counts = per_coordinate_counts(spec)
        for level in range(1, cl.d_star):
            bound = 1
            for k in cl.coord_range(level + 1):
                bound *= max(coord_counts[k + 1].values())
            for count in tree.counts_at_level(level).values():
                assert count <= bound


def test_per_coordinate_counts(fig1, modified):
    counts = per_coordinate_counts(modified)
    assert counts[2] == {(0,): 3, (1,): 1}
    assert counts[3] == {(0, 2): 2, (0, 0): 1, (0, 1): 1, (1, 0): 1}

    fig1_counts = per_coordinate_counts(fig1)
    assert all(v == 1 for v in fig1_counts[3].values())

    rng = random.Random(19)
    for _ in range(20):
        spec = random_bm_spec(rng)
        for by_prefix in per_coordinate_counts(spec).values():
            assert all(v >= 1 for v in by_prefix.values())


def test_validate_lg_uniform_grid(fig1):
    lg = encode_uniform_grid(fig1)
    assert validate_lg(lg).ok


def test_validate_lg_accepts_all_uniform_encodings():
    rng = random.Random(23)
    for _ in range(30):
        spec = random_bm_spec(rng)
        assert validate_lg(encode_uniform_grid(spec)).ok


def test_validate_lg_overlap(fig1):
    lg = encode_uniform_grid(fig1)
    contraction = dict(lg.contraction)
    translation = dict(lg.translation)
    translation[(1,)] = Fraction("0.4")  # first-level images [0, 1/2] and [0.4, ...]
    bad = LGSpongeSpec(lg.dims, contraction, translation)
    report = validate_lg(bad)
    assert not report.ok
    assert any("overlap" in v for v in report.violations)


def test_validate_lg_monotonicity(fig1):
    lg = encode_uniform_grid(fig1)
    contraction = dict(lg.contraction)
    contraction[(0, 0)] = Fraction("0.6")  # exceeds the level-1 ratio 1/2
    report = validate_lg(LGSpongeSpec(lg.dims, contraction, dict(lg.translation)))
    assert not report.ok
    assert any("grows along prefix" in v for v in report.violations)


def test_validate_lg_missing_prefix(fig1):
    lg = encode_uniform_grid(fig1)
    contraction = dict(lg.contraction)
    translation = dict(lg.translation)
    del contraction[(0, 0)], translation[(0, 0)]
    report = validate_lg(LGSpongeSpec(lg.dims, contraction, translation))
    assert not report.ok


def test_lg_cluster_matches_grid_clustering():
    rng = random.Random(29)
    for _ in range(20):
        spec = random_bm_spec(rng)
        assert encode_uniform_grid(spec).clusters.cluster_sizes == spec.clusters.cluster_sizes


def test_lg_cluster_requires_equality_for_all_prefixes(fig1):
    lg = encode_uniform_grid(fig1)
    contraction = dict(lg.contraction)
    # one deep prefix drops from 1/3 to 1/4: coordinates 2 and 3 stay separate
    contraction[(0, 2, 2)] = Fraction(1, 4)
    spec = LGSpongeSpec(lg.dims, contraction, dict(lg.translation))
    assert spec.clusters.cluster_sizes == (1, 1, 1)


def test_lg_cluster_single_coordinate():
    spec = LGSpongeSpec(
        1,
        {(0,): Fraction(1, 3), (1,): Fraction(1, 3)},
        {(0,): Fraction(0), (1,): Fraction(2, 3)},
    )
    assert spec.clusters.cluster_sizes == (1,)


def test_spec_json_round_trip(fig1):
    doc = json.loads(json.dumps(fig1.to_json()))
    assert spec_from_json(doc) == fig1

    lg = encode_uniform_grid(fig1)
    doc = json.loads(json.dumps(lg.to_json()))
    assert spec_from_json(doc) == lg


def test_spec_json_errors():
    with pytest.raises(ValueError):
        spec_from_json({"type": "unknown"})
    with pytest.raises(ValueError):
        spec_from_json(
            {
                "type": "lalley-gatzouras",
                "dims": 1,
                "nodes": [
                    {"prefix": [0], "c": "1/2", "t": "0"},
                    {"prefix": [0], "c": "1/2", "t": "0"},
                ],
            }
        )


def test_operations_reject_invalid_specs():
    bad = SpongeSpec((2, 3, 3), ((0, 0, 0),))
    with pytest.raises(InvalidSpecError):
        bad.clusters


def test_invalid_spec_raises_on_every_clusters_access():
    bad = SpongeSpec((2, 3, 3), ((0, 0, 0),))
    for _ in range(2):
        with pytest.raises(InvalidSpecError):
            bad.clusters


def test_spec_derives_clusters_and_tree_once(fig1):
    assert fig1.clusters is fig1.clusters
    assert fig1.tree is fig1.tree
    assert fig1.tree.clusters is fig1.clusters
    # cached structure stays out of equality, hashing and JSON
    twin = SpongeSpec(fig1.bases, fig1.digits)
    assert twin == fig1 and hash(twin) == hash(fig1)
    assert twin.to_json() == fig1.to_json()


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "bedford-mcmullen", "bases": [2.9, 3], "digits": [[0, 0], [1, 2]]},
        {"type": "bedford-mcmullen", "bases": [2, True], "digits": [[0, 0], [1, 0]]},
    ],
    ids=["float", "bool"],
)
def test_spec_json_rejects_non_integer_bases(doc):
    with pytest.raises(ValueError, match="base"):
        spec_from_json(doc)


def test_spec_json_rejects_non_integer_digits():
    with pytest.raises(ValueError, match="digit"):
        spec_from_json({"type": "bedford-mcmullen", "bases": [2, 3], "digits": [[0.7, 0], [1, 2]]})


def test_spec_json_rejects_non_integer_dims():
    doc = {"type": "lalley-gatzouras", "dims": 1.5, "nodes": [
        {"prefix": [0], "c": "1/3", "t": "0"}, {"prefix": [1], "c": "1/3", "t": "1/2"}]}
    with pytest.raises(ValueError, match="dims"):
        spec_from_json(doc)


def test_spec_json_rejects_non_integer_prefix():
    doc = {"type": "lalley-gatzouras", "dims": 1, "nodes": [
        {"prefix": [1.2], "c": "1/3", "t": "0"}, {"prefix": [0], "c": "1/3", "t": "1/2"}]}
    with pytest.raises(ValueError, match="prefix"):
        spec_from_json(doc)
