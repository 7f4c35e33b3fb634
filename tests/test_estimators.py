"""Estimator wrappers around the functional API.

Claims covered:
- get_params/set_params round-trip constructor arguments and reject
  unknown names;
- each fit() result matches the corresponding functional call on the
  same data (hasse_cluster, dbscan, hierarchical + cut, relevance_scores);
- labels_ assigns consecutive cluster ids in cluster order with -1 noise;
- encoders accept raw tuples as well as prepared point sets.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hassemine import (
    AgglomerativeL1,
    BoolMatrix,
    EventSequence,
    HasseClustering,
    LabelTable,
    MatrixDBSCAN,
    MatrixPointSet,
    RelevanceScorer,
    SequenceMatrixEncoder,
    cut,
    dbscan,
    hasse_cluster,
    hierarchical,
    relevance_scores,
    seq_to_matrix,
)

UNIVERSE = LabelTable(("e1", "e2", "e5", "e6", "e11"))
J5 = ("e1", "e2", "e5", "e6", "e11")


def ev(*events):
    return EventSequence(UNIVERSE, events)


TYPE_SEQS = (
    ev("e2", "e5", "e11"),
    ev("e1", "e2", "e5", "e6"),
    ev("e2", "e1", "e5", "e6"),
    ev("e2", "e5", "e1", "e6"),
    ev("e1", "e2", "e5", "e11"),
    ev("e2", "e1", "e5", "e11"),
    ev("e2", "e5", "e1", "e11"),
)


def test_param_round_trip():
    est = HasseClustering(J5, t=90, r=2, mode="minimal")
    params = est.get_params()
    assert params == {"labels": J5, "t": 90, "r": 2, "mode": "minimal"}
    est.set_params(t=100, r=1)
    assert est.get_params()["t"] == 100
    with pytest.raises(ValueError):
        est.set_params(eps=3)
    assert "HasseClustering" in repr(est)
    assert MatrixDBSCAN(eps=2).get_params() == {"eps": 2, "min_samples": 1}


def test_encoder_matches_functional():
    encoder = SequenceMatrixEncoder(J5)
    points = encoder.transform(TYPE_SEQS)
    assert points == [seq_to_matrix(s, J5) for s in TYPE_SEQS]


def test_hasse_clustering_matches_functional():
    est = HasseClustering(J5, t=100, r=2).fit(TYPE_SEQS)
    direct = hasse_cluster(TYPE_SEQS, LabelTable(J5), t=100, r=2)
    assert est.result_.clusters == direct.clusters
    assert est.clusters_ == direct.clusters


def test_dbscan_estimator_matches_functional():
    points = MatrixPointSet.from_sequences(TYPE_SEQS, J5)
    est = MatrixDBSCAN(eps=2).fit(points)
    clusters, noise = dbscan(points, eps=2, min_samples=1)
    assert est.clusters_ == clusters
    assert est.noise_ == noise
    assert est.labels_ == [0, 1, 1, 1, 2, 2, 2]
    assert est.fit_predict(points) == est.labels_


def test_dbscan_estimator_rejects_negative_eps():
    points = MatrixPointSet.from_sequences(TYPE_SEQS, J5)
    with pytest.raises(ValueError, match="eps"):
        MatrixDBSCAN(eps=-1).fit(points)


def test_dbscan_noise_labels():
    points = SequenceMatrixEncoder(J5).transform(TYPE_SEQS)
    est = MatrixDBSCAN(eps=2, min_samples=3).fit(points)
    assert est.labels_[0] == -1
    assert all(label >= -1 for label in est.labels_)
    assert sorted(i for i, v in enumerate(est.labels_) if v == -1) == est.noise_


def test_agglomerative_matches_functional():
    rng = random.Random(11)
    table = LabelTable(("a", "b", "c"))
    mats = []
    for _ in range(12):
        rows = tuple(rng.randrange(8) for _ in range(3))
        mats.append(BoolMatrix(table, rows))
    points = MatrixPointSet(tuple(mats), tuple(str(i) for i in range(12)))
    est = AgglomerativeL1(threshold=Fraction(5, 2)).fit(points)
    dendro = hierarchical(points)
    assert est.dendrogram_ == dendro
    assert est.clusters_ == cut(dendro, Fraction(5, 2))
    seen = [None] * 12
    for cid, cluster in enumerate(est.clusters_):
        for idx in cluster:
            seen[idx] = cid
    assert est.labels_ == seen


def test_agglomerative_two_regime_cut():
    est = AgglomerativeL1(threshold=5).fit(SequenceMatrixEncoder(J5).transform(TYPE_SEQS))
    assert sorted(map(sorted, est.clusters_)) == [[0, 4, 5, 6], [1, 2, 3]]


def test_relevance_scorer():
    pairs = ((ev("e1", "e2"), 1), (ev("e2", "e1"), 0), (ev("e2",), 1))
    table = RelevanceScorer().fit(pairs).table_
    direct = relevance_scores(pairs)
    assert table.rows() == direct.rows()
    assert table.score("e1", "e2") == math.inf
    assert table.score("e2", "e1") == Fraction(0)
