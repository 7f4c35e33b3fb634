"""Baseline clusterers over order matrices: L1 metric, DBSCAN, average
linkage, per-cluster common matrices.

Claims covered:
- the L1 distance is the cell disagreement count (worked examples and a
  direct cell-sum oracle);
- DBSCAN with min_samples=1 equals connected components of the
  eps-threshold graph (union-find oracle), its cluster count is monotone
  nonincreasing in eps, and duplicated points never change the structure;
- the seven distinct winning-type matrices reproduce the published
  eps -> cluster-count table and the eps=2 common matrices;
- average-linkage merges match a quadratic-time reference exactly
  (rational heights), with nondecreasing heights;
- on multisets drawn from small pools (copies and height ties common),
  dbscan and hierarchical, which work on the distinct points, equal the
  all-points DBSCAN and the Fraction-scan linkage they replaced; copies
  merge first at height 0 and equal positive heights fall to the lowest
  (a, b) pair; a negative eps is refused;
- cut(d, 0) separates distinct points, cut at max height yields one
  cluster, and threshold semantics never depend on float rounding;
- a cluster member that is not an integer index into the sequences is
  refused with a ValueError naming it, and the analysis labels may come
  as a one-shot iterator.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hassemine import (
    BoolMatrix,
    DimensionMismatch,
    EmptyInput,
    EventSequence,
    LabelTable,
)
from hassemine.baselines import (
    Dendrogram,
    MatrixPointSet,
    cluster_common_matrices,
    cut,
    dbscan,
    hierarchical,
    l1_distance,
)
from hassemine.mining import seq_to_matrix

from oracles import (
    average_linkage_fraction_scan,
    average_linkage_oracle,
    components_unionfind,
    dbscan_all_points,
)

E_UNIVERSE = LabelTable(("e1", "e2", "e5", "e6", "e11"))
J5 = ("e1", "e2", "e5", "e6", "e11")


def ev(*events):
    return EventSequence(E_UNIVERSE, tuple(events))


TYPE_SEQS = [
    ev("e2", "e5", "e11"),
    ev("e1", "e2", "e5", "e6"),
    ev("e2", "e1", "e5", "e6"),
    ev("e2", "e5", "e1", "e6"),
    ev("e1", "e2", "e5", "e11"),
    ev("e2", "e1", "e5", "e11"),
    ev("e2", "e5", "e1", "e11"),
]

TYPE_POINTS = MatrixPointSet.from_sequences(TYPE_SEQS, J5)


def _random_points(rng, n, m=3):
    labels = LabelTable(tuple("abcdef")[:m])
    points = tuple(
        BoolMatrix(labels, tuple(rng.randrange(1 << m) for _ in range(m)))
        for _ in range(n)
    )
    return MatrixPointSet(points, tuple(str(i) for i in range(n)))


def test_l1_worked_examples():
    labels = LabelTable(("a", "b"))
    zero = BoolMatrix.from_entries(labels, [[0, 0], [0, 0]])
    three = BoolMatrix.from_entries(labels, [[1, 1], [1, 0]])
    assert l1_distance(zero, zero) == 0
    assert l1_distance(zero, three) == 3
    assert l1_distance(three, zero) == 3


def test_l1_flattening_matrices():
    doors = [seq_to_matrix(s, J5) for s in TYPE_SEQS[1:4]]
    assert l1_distance(doors[0], doors[1]) == 2
    assert l1_distance(doors[1], doors[2]) == 2
    assert l1_distance(doors[0], doors[2]) == 4


def test_l1_matches_cell_sum():
    rng = random.Random(2)
    pts = _random_points(rng, 12)
    for a in pts.points:
        for b in pts.points:
            ea, eb = a.to_entries(), b.to_entries()
            want = sum(
                abs(ea[i][j] - eb[i][j]) for i in range(3) for j in range(3)
            )
            assert l1_distance(a, b) == want


def test_l1_dimension_mismatch():
    a = BoolMatrix.from_entries(LabelTable(("a", "b")), [[0, 1], [0, 0]])
    b = BoolMatrix.from_entries(LabelTable(("a", "c")), [[0, 1], [0, 0]])
    with pytest.raises(DimensionMismatch):
        l1_distance(a, b)


def test_point_set_validation():
    a = BoolMatrix.from_entries(LabelTable(("a", "b")), [[0, 1], [0, 0]])
    b = BoolMatrix.from_entries(LabelTable(("a", "c")), [[0, 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        MatrixPointSet((a, b), ("0", "1"))
    with pytest.raises(ValueError):
        MatrixPointSet((a,), ())
    assert MatrixPointSet.from_sequences([ev("e1")], J5).names == ("0",)


def test_dbscan_published_eps_table():
    expected = {0: 7, 1: 7, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1, 9: 1}
    for eps, count in expected.items():
        clusters, noise = dbscan(TYPE_POINTS, eps)
        assert len(clusters) == count, eps
        assert noise == []


def test_dbscan_eps2_membership_and_common_matrices():
    clusters, _ = dbscan(TYPE_POINTS, 2)
    assert clusters == [[0], [1, 2, 3], [4, 5, 6]]
    mats = cluster_common_matrices(clusters, TYPE_SEQS, J5)
    table = LabelTable(J5)
    chain_to_coin = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    door_order = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 1, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    coin_order = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    assert mats == [chain_to_coin, door_order, coin_order]


def test_dbscan_matches_components_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 10)
        pts = _random_points(rng, n)
        eps = rng.randint(0, 6)
        clusters, noise = dbscan(pts, eps)
        assert noise == []
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if l1_distance(pts.points[i], pts.points[j]) <= eps
        ]
        assert clusters == components_unionfind(n, edges)


def test_dbscan_cluster_count_monotone_in_eps():
    rng = random.Random(11)
    for _ in range(10):
        pts = _random_points(rng, rng.randint(2, 9))
        counts = [len(dbscan(pts, eps)[0]) for eps in range(0, 10)]
        assert counts == sorted(counts, reverse=True)


def test_dbscan_duplicates_keep_structure():
    rng = random.Random(13)
    pts = _random_points(rng, 6)
    doubled = MatrixPointSet(
        pts.points + pts.points, tuple(str(i) for i in range(12))
    )
    for eps in range(0, 7):
        assert len(dbscan(pts, eps)[0]) == len(dbscan(doubled, eps)[0])


def test_dbscan_min_samples_noise():
    labels = LabelTable(("a", "b"))
    zero = BoolMatrix.from_entries(labels, [[0, 0], [0, 0]])
    far = BoolMatrix.from_entries(labels, [[0, 1], [1, 0]])
    pts = MatrixPointSet((zero, zero, zero, far), ("0", "1", "2", "3"))
    clusters, noise = dbscan(pts, 1, min_samples=2)
    assert clusters == [[0, 1, 2]]
    assert noise == [3]
    with pytest.raises(ValueError):
        dbscan(pts, 1, min_samples=0)


def _l1_table(pts):
    return [[l1_distance(a, b) for b in pts.points] for a in pts.points]


def _assert_matches_oracles(pts, eps, min_samples):
    table = _l1_table(pts)
    merges = list(hierarchical(pts).merges)
    assert merges == average_linkage_fraction_scan(table)
    assert merges == average_linkage_oracle(table)
    assert dbscan(pts, eps, min_samples) == dbscan_all_points(table, eps, min_samples)


def test_distinct_point_baselines_match_oracles_on_multisets():
    rng = random.Random(29)
    for _ in range(150):
        m = rng.randint(2, 4)
        pool = _random_points(rng, rng.randint(1, 5), m).points
        n = rng.randint(1, 40)
        pts = MatrixPointSet(
            tuple(rng.choice(pool) for _ in range(n)), tuple(map(str, range(n)))
        )
        eps = rng.choice((0, 1, 1.5, 2, 3))
        _assert_matches_oracles(pts, eps, rng.randint(1, 5))


def test_distinct_point_baselines_all_distinct():
    rng = random.Random(31)
    pts = _random_points(rng, 60, 4)
    uniq = tuple(dict.fromkeys(pts.points))[:30]
    pts = MatrixPointSet(uniq, tuple(map(str, range(len(uniq)))))
    assert len(pts) == 30
    for eps, min_samples in ((2, 1), (3, 3), (0, 1)):
        _assert_matches_oracles(pts, eps, min_samples)


def test_hierarchical_copies_then_equal_positive_heights():
    labels = LabelTable(("a", "b", "c"))
    # one set bit each: every two distinct points are at L1 distance 2
    e1, e2, e3 = (
        BoolMatrix(labels, rows) for rows in ((2, 0, 0), (0, 4, 0), (0, 0, 1))
    )
    pts = MatrixPointSet((e1, e2, e1, e3, e2), tuple(map(str, range(5))))
    merges = hierarchical(pts).merges
    assert merges == ((0, 2, 0), (1, 4, 0), (3, 5, 2), (6, 7, 2))
    assert list(merges) == average_linkage_fraction_scan(_l1_table(pts))


def _bits(labels, *cells):
    rows = [0] * len(labels)
    for cell in cells:
        rows[cell // len(labels)] |= 1 << cell % len(labels)
    return BoolMatrix(labels, tuple(rows))


def test_dbscan_border_point_joins_first_cluster_built():
    labels = LabelTable(("a", "b", "c"))
    a = _bits(labels)
    d = _bits(labels, 0, 1)
    b = _bits(labels, 2, 3)
    c = _bits(labels, 2, 3, 4, 5)
    e = _bits(labels, 2, 3, 4, 5, 6, 7)
    # eps=2, min_samples=4: a and c are core, b is within eps of both but
    # has only 3 points in its ball, and a, c are 4 apart
    for order, want in (
        ((a, d, d, b, c, e, e), ([[0, 1, 2, 3], [4, 5, 6]], [])),
        ((c, e, e, b, a, d, d), ([[0, 1, 2, 3], [4, 5, 6]], [])),
        ((e, b, d, a, e, c, d), ([[1, 2, 3, 6], [0, 4, 5]], [])),
    ):
        pts = MatrixPointSet(order, tuple(map(str, range(7))))
        assert dbscan(pts, 2, 4) == want
        assert dbscan(pts, 2, 4) == dbscan_all_points(_l1_table(pts), 2, 4)


def test_dbscan_negative_eps_rejected():
    with pytest.raises(ValueError, match="eps"):
        dbscan(TYPE_POINTS, -1)
    with pytest.raises(ValueError, match="eps"):
        dbscan(TYPE_POINTS, Fraction(-1, 2))
    assert dbscan(TYPE_POINTS, -0.0) == dbscan(TYPE_POINTS, 0)
    # a bool is not a radius, though Fraction would read True as 1
    for flag in (True, False):
        with pytest.raises(TypeError):
            dbscan(TYPE_POINTS, flag)


def test_hierarchical_two_points():
    labels = LabelTable(("a", "b"))
    zero = BoolMatrix.from_entries(labels, [[0, 0], [0, 0]])
    far = BoolMatrix.from_entries(labels, [[0, 1], [1, 0]])
    d = hierarchical(MatrixPointSet((zero, far), ("0", "1")))
    assert d.merges == ((0, 1, Fraction(2)),)


def test_hierarchical_single_point_and_empty():
    labels = LabelTable(("a", "b"))
    zero = BoolMatrix.from_entries(labels, [[0, 0], [0, 0]])
    d = hierarchical(MatrixPointSet((zero,), ("0",)))
    assert d.merges == ()
    assert cut(d, 0) == [[0]]
    assert cut(d, 100) == [[0]]
    with pytest.raises(EmptyInput):
        hierarchical(MatrixPointSet((), ()))


def test_hierarchical_matches_reference():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 9)
        pts = _random_points(rng, n)
        table = [
            [l1_distance(pts.points[i], pts.points[j]) for j in range(n)]
            for i in range(n)
        ]
        assert hierarchical(pts).merges == tuple(average_linkage_oracle(table))


def test_hierarchical_heights_nondecreasing():
    rng = random.Random(19)
    for _ in range(10):
        pts = _random_points(rng, rng.randint(2, 10))
        merges = hierarchical(pts).merges
        heights = [h for _, _, h in merges]
        assert heights == sorted(heights)


def test_cut_boundaries():
    rng = random.Random(23)
    pts = _random_points(rng, 8)
    d = hierarchical(pts)
    distinct = len({p.rows for p in pts.points})
    assert len(cut(d, 0)) == distinct
    top = d.merges[-1][2]
    assert len(cut(d, top)) == 1
    assert sorted(sum(cut(d, 1), [])) == list(range(8))


def test_cut_exact_threshold_semantics():
    # merges at height exactly equal to the threshold are applied
    d = Dendrogram(3, ((0, 1, Fraction(2)), (2, 3, Fraction(7, 2))))
    assert cut(d, 2) == [[0, 1], [2]]
    assert cut(d, Fraction(7, 2)) == [[0, 1, 2]]
    assert cut(d, 3.49) == [[0, 1], [2]]
    assert cut(d, 3.5) == [[0, 1, 2]]
    for flag in (True, False):  # not a height, though Fraction reads True as 1
        with pytest.raises(TypeError):
            cut(d, flag)


def test_dendrogram_validation():
    with pytest.raises(ValueError):
        Dendrogram(3, ((0, 1, 1),))
    with pytest.raises(ValueError):
        Dendrogram(2, ((0, 0, 1),))
    with pytest.raises(ValueError):
        Dendrogram(3, ((0, 1, 2), (0, 3, 3)))
    with pytest.raises(ValueError):
        Dendrogram(3, ((0, 1, 2), (2, 3, 1)))
    with pytest.raises(ValueError):
        Dendrogram(3, ((0, 4, 1), (2, 3, 2)))
    # a non-integer id or leaf count is refused, not truncated
    with pytest.raises(ValueError, match="merge 0 joins non-integer cluster ids 0, 1.7"):
        Dendrogram(2, ((0, 1.7, 0),))
    with pytest.raises(ValueError, match="merge 1 joins non-integer"):
        Dendrogram(3, ((0, 1, 1), ("2", 3, 2)))
    with pytest.raises(ValueError, match="n_leaves must be an integer"):
        Dendrogram(2.5, ((0, 1, 0),))
    with pytest.raises(ValueError, match="at least one leaf"):
        Dendrogram(0, ())


def test_singleton_cluster_common_matrix():
    mats = cluster_common_matrices([[2]], TYPE_SEQS, J5)
    assert mats == [seq_to_matrix(TYPE_SEQS[2], J5)]


def test_flattening_cluster_common_matrix():
    mats = cluster_common_matrices([[1, 2, 3]], TYPE_SEQS, J5)
    table = LabelTable(J5)
    expected = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 1, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    assert mats == [expected]


def test_cluster_common_matrices_read_the_labels_once():
    # the labels are read into one table that every cluster shares, so a
    # one-shot iterator of them gives what the tuple gives
    clusters = [[0, 4], [1, 2, 3], [5, 6]]
    assert cluster_common_matrices(clusters, TYPE_SEQS, iter(J5)) == (
        cluster_common_matrices(clusters, TYPE_SEQS, J5)
    )


@pytest.mark.parametrize("member", [-1, len(TYPE_SEQS), 0.0, "0", None])
def test_cluster_member_must_index_the_sequences(member):
    with pytest.raises(ValueError, match=f"cluster member {member!r} is not an index in 0..6"):
        cluster_common_matrices([[0, 1], [2, member]], TYPE_SEQS, J5)
