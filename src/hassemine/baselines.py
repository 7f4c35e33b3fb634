"""Comparison clusterers over per-sequence order matrices.

Order matrices are compared with the L1 metric (cell-wise disagreement
count). DBSCAN with min_samples=1 reduces to connected components of the
eps-threshold graph; agglomerative average-linkage clustering is computed
with exact rational heights so threshold cuts at integer boundaries are
never decided by float rounding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, EmptyInput
from .exact import exact_fraction
from .graphs import BoolMatrix
from .mining import _analysis_table, _distinct, _encode, common_matrix
from .sequences import AnySequence


@dataclass(frozen=True)
class MatrixPointSet:
    """Order matrices treated as metric points, with back-reference names."""

    points: tuple[BoolMatrix, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) != len(points):
            raise ValueError("one name per point is required")
        for p in points[1:]:
            if p.labels != points[0].labels:
                raise DimensionMismatch("all points must share one label table")

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_sequences(
        cls,
        seqs: Iterable[AnySequence],
        j_labels: Iterable[str],
        names: Optional[Iterable[str]] = None,
    ) -> "MatrixPointSet":
        seqs = list(seqs)
        points = ()
        if seqs:  # an empty corpus needs no analysis labels
            table = _analysis_table(j_labels)
            keys, slots = _encode(seqs, table)
            mats = {rows: BoolMatrix(table, rows) for rows, _ in keys}
            points = tuple(mats[keys[k][0]] for k in slots)
        if names is None:
            names = tuple(str(i) for i in range(len(points)))
        return cls(points, tuple(names))


def l1_distance(a: BoolMatrix, b: BoolMatrix) -> int:
    """Number of cells where the two matrices disagree."""
    if a.labels != b.labels:
        raise DimensionMismatch("matrices must share one label table")
    return sum((ra ^ rb).bit_count() for ra, rb in zip(a.rows, b.rows))


def _distance_table(pts: MatrixPointSet) -> list[list[int]]:
    uniq, slots = _distinct(pts.points)
    dist = [[0] * len(uniq) for _ in uniq]
    for a, b in combinations(range(len(uniq)), 2):
        dist[a][b] = dist[b][a] = l1_distance(uniq[a], uniq[b])
    return [[dist[i][j] for j in slots] for i in slots]


def dbscan(
    pts: MatrixPointSet, eps, min_samples: int = 1
) -> tuple[list[list[int]], list[int]]:
    """DBSCAN under the L1 metric with closed eps-balls.

    Returns (clusters, noise) as sorted point-index lists; with
    min_samples=1 every point is core, clusters are exactly the connected
    components of the eps-threshold graph, and noise is empty.
    """
    if not isinstance(min_samples, int) or min_samples < 1:
        raise ValueError("min_samples must be a positive integer")
    n = len(pts)
    radius = exact_fraction(eps)
    dist = _distance_table(pts)
    neighbors = [
        [j for j in range(n) if dist[i][j] <= radius] for i in range(n)
    ]
    core = [len(neighbors[i]) >= min_samples for i in range(n)]
    labels: list[Optional[int]] = [None] * n
    clusters: list[list[int]] = []
    for start in range(n):
        if labels[start] is not None or not core[start]:
            continue
        cid = len(clusters)
        labels[start] = cid
        queue = deque([start])
        while queue:
            p = queue.popleft()
            if not core[p]:
                continue
            for q in neighbors[p]:
                if labels[q] is None:
                    labels[q] = cid
                    queue.append(q)
        clusters.append(sorted(i for i in range(n) if labels[i] == cid))
    noise = [i for i in range(n) if labels[i] is None]
    return clusters, noise


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge list with exact rational heights.

    Leaves are 0..n_leaves-1; the k-th merge joins two existing cluster ids
    and creates id n_leaves+k. Heights are nondecreasing.
    """

    n_leaves: int
    merges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        merges = tuple(
            (int(a), int(b), exact_fraction(h)) for a, b, h in self.merges
        )
        object.__setattr__(self, "merges", merges)
        if self.n_leaves < 1:
            raise ValueError("a dendrogram needs at least one leaf")
        if len(merges) != self.n_leaves - 1:
            raise ValueError("a dendrogram on n leaves has exactly n-1 merges")
        consumed = set()
        for k, (a, b, h) in enumerate(merges):
            limit = self.n_leaves + k
            if a == b or a >= limit or b >= limit or a < 0 or b < 0:
                raise ValueError(f"merge {k} joins invalid cluster ids {a}, {b}")
            if a in consumed or b in consumed:
                raise ValueError(f"merge {k} reuses an already-merged cluster id")
            if k and h < merges[k - 1][2]:
                raise ValueError("merge heights must be nondecreasing")
            consumed.add(a)
            consumed.add(b)


def hierarchical(pts: MatrixPointSet) -> Dendrogram:
    """Agglomerative clustering under average linkage, exactly.

    Cross-cluster distances are unweighted means of pairwise L1 distances,
    held as Fractions; height ties are broken on the lowest (a, b) id pair.
    """
    n = len(pts)
    if n == 0:
        raise EmptyInput("hierarchical clustering needs at least one point")
    table = _distance_table(pts)
    dist: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = Fraction(table[i][j])
    size = {i: 1 for i in range(n)}
    active = set(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        height, a, b = min((d, a, b) for (a, b), d in dist.items())
        merges.append((a, b, height))
        del dist[(a, b)]
        active.discard(a)
        active.discard(b)
        new = next_id
        next_id += 1
        for k in active:
            da = dist.pop((min(a, k), max(a, k)))
            db = dist.pop((min(b, k), max(b, k)))
            dist[(k, new)] = (size[a] * da + size[b] * db) / (size[a] + size[b])
        size[new] = size[a] + size[b]
        active.add(new)
    return Dendrogram(n, tuple(merges))


def cut(d: Dendrogram, threshold) -> list[list[int]]:
    """Clusters after applying every merge of height <= threshold.

    Returns sorted leaf-index lists, ordered by their smallest member.
    """
    limit = exact_fraction(threshold)
    members = {i: [i] for i in range(d.n_leaves)}
    for k, (a, b, h) in enumerate(d.merges):
        if h > limit:
            break
        members[d.n_leaves + k] = members.pop(a) + members.pop(b)
    return sorted((sorted(v) for v in members.values()), key=lambda c: c[0])


def cluster_common_matrices(
    clusters: Iterable[Iterable[int]],
    seqs: Sequence[AnySequence],
    j_labels: Iterable[str],
) -> list[BoolMatrix]:
    """Common matrix of each cluster's member sequences."""
    j_labels = tuple(j_labels)
    return [
        common_matrix([seqs[i] for i in cluster], j_labels)
        for cluster in clusters
    ]
