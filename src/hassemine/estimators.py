"""Estimator-style wrappers over the functional pipeline.

Each estimator keeps its parameters as constructor arguments
(get_params/set_params for tooling), takes data in fit(), and exposes
results through trailing-underscore attributes, so the clustering
surface composes like any scikit-learn-style pipeline while the
underlying algorithms stay plain functions.
"""

from __future__ import annotations

import inspect

from .baselines import MatrixPointSet, _assignment, cut, dbscan, hierarchical
from .mining import hasse_cluster, relevance_scores


class ParamsMixin:
    """get_params/set_params driven by the constructor signature."""

    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return tuple(name for name in signature.parameters if name != "self")

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"choices: {list(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def _as_point_set(X) -> MatrixPointSet:
    if isinstance(X, MatrixPointSet):
        return X
    points = tuple(X)
    return MatrixPointSet(points, tuple(str(i) for i in range(len(points))))


class SequenceMatrixEncoder(ParamsMixin):
    """Sequences -> order matrices over a fixed label tuple."""

    def __init__(self, labels):
        self.labels = tuple(labels)

    def transform(self, sequences):
        return list(MatrixPointSet.from_sequences(sequences, self.labels).points)


class HasseClustering(ParamsMixin):
    """Covering sets of order graphs mined from sequences."""

    def __init__(self, labels, t=100, r=1, mode="minimal"):
        self.labels = tuple(labels)
        self.t = t
        self.r = r
        self.mode = mode

    def fit(self, sequences):
        self.result_ = hasse_cluster(
            sequences, self.labels, t=self.t, r=self.r, mode=self.mode
        )
        return self

    @property
    def clusters_(self):
        return self.result_.clusters


class MatrixDBSCAN(ParamsMixin):
    """Density clustering of matrices under the L1 metric."""

    def __init__(self, eps, min_samples=1):
        self.eps = eps
        self.min_samples = min_samples

    def fit(self, X):
        points = _as_point_set(X)
        self.clusters_, self.noise_ = dbscan(
            points, self.eps, min_samples=self.min_samples
        )
        self.labels_ = _assignment(self.clusters_, len(points.points))
        return self

    def fit_predict(self, X):
        return self.fit(X).labels_


class AgglomerativeL1(ParamsMixin):
    """Average-linkage hierarchy over matrices, cut at a height threshold."""

    def __init__(self, threshold=0):
        self.threshold = threshold

    def fit(self, X):
        points = _as_point_set(X)
        self.dendrogram_ = hierarchical(points)
        self.clusters_ = cut(self.dendrogram_, self.threshold)
        self.labels_ = _assignment(self.clusters_, len(points.points))
        return self

    def fit_predict(self, X):
        return self.fit(X).labels_


class RelevanceScorer(ParamsMixin):
    """Win/lose relevance ratios for ordered event pairs."""

    def __init__(self):
        pass

    def fit(self, episodes):
        self.table_ = relevance_scores(episodes)
        return self
