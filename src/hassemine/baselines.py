"""Comparison clusterers over per-sequence order matrices.

Order matrices are compared with the L1 metric (cell-wise disagreement
count). DBSCAN with min_samples=1 reduces to connected components of the
eps-threshold graph; eps must be >= 0. Agglomerative average-linkage
clustering is computed with exact rational heights, so threshold cuts at
integer boundaries are never decided by float rounding; copies of a point
merge first, at height 0, in lowest-(a, b) order.

A corpus of n sequences often holds only k << n distinct matrices. Both
clusterers work on the k distinct points and their multiplicities, with
one k x k distance table, so their cost grows with k, not n, apart from
an O(n) pass that maps the answer back to point indices.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, EmptyInput
from .exact import exact_fraction, exact_index, is_count
from .graphs import BoolMatrix
from .sequences import AnySequence, _analysis_table, _distinct, _order_keys, common_matrix


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
            uniq, slots = _distinct(seqs)
            rows = [key[0] for key in _order_keys(uniq, table)]
            mats = {r: BoolMatrix(table, r) for r in set(rows)}
            points = tuple(mats[rows[k]] for k in slots)
        if names is None:
            names = tuple(str(i) for i in range(len(points)))
        return cls(points, tuple(names))


def l1_distance(a: BoolMatrix, b: BoolMatrix) -> int:
    """Number of cells where the two matrices disagree."""
    if a.labels != b.labels:
        raise DimensionMismatch("matrices must share one label table")
    return sum((ra ^ rb).bit_count() for ra, rb in zip(a.rows, b.rows))


def _distance_table(pts: MatrixPointSet) -> tuple[list[list[int]], list[int], list[int]]:
    """(dist, slots, mult): the L1 table of the k distinct points in
    first-seen order, each point's slot among them, and each distinct
    point's number of copies."""
    uniq, slots = _distinct(pts.points)
    dist = [[0] * len(uniq) for _ in uniq]
    for a, b in combinations(range(len(uniq)), 2):
        dist[a][b] = dist[b][a] = l1_distance(uniq[a], uniq[b])
    mult = [0] * len(uniq)
    for u in slots:
        mult[u] += 1
    return dist, slots, mult


def dbscan(
    pts: MatrixPointSet, eps, min_samples: int = 1
) -> tuple[list[list[int]], list[int]]:
    """DBSCAN under the L1 metric with closed eps-balls; eps must be >= 0.

    Returns (clusters, noise) as sorted point-index lists; with
    min_samples=1 every point is core, clusters are exactly the connected
    components of the eps-threshold graph, and noise is empty. Copies of a
    point share its fate, so the search runs over the k distinct points: a
    distinct point is core iff the copies within eps number at least
    min_samples. Clusters are built whole, one after another, from the
    first unlabelled core point, so a border point joins the first cluster
    that reaches it. Cost O(k^2) plus O(n).
    """
    if not is_count(min_samples):
        raise ValueError("min_samples must be a positive integer")
    radius = exact_fraction(eps)
    if radius < 0:
        raise ValueError("eps must be nonnegative")
    limit = math.floor(radius)  # distances are integers
    dist, slots, mult = _distance_table(pts)
    core = [
        sum(c for c, d in zip(mult, row) if d <= limit) >= min_samples
        for row in dist
    ]
    labels: list[Optional[int]] = [None] * len(dist)
    n_clusters = 0
    for start, is_core in enumerate(core):
        if labels[start] is not None or not is_core:
            continue
        labels[start] = n_clusters
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if not core[u]:
                continue
            for v, d in enumerate(dist[u]):
                if d <= limit and labels[v] is None:
                    labels[v] = n_clusters
                    queue.append(v)
        n_clusters += 1
    clusters: list[list[int]] = [[] for _ in range(n_clusters)]
    noise = []
    for i, u in enumerate(slots):
        (noise if labels[u] is None else clusters[labels[u]]).append(i)
    return clusters, noise


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge list with exact rational heights.

    Leaves are 0..n_leaves-1; the k-th merge joins two existing cluster ids
    and creates id n_leaves+k. Heights are nondecreasing. Ids and n_leaves
    must be integers: 1.7 and True are refused, not read as 1.
    """

    n_leaves: int
    merges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "n_leaves", exact_index(self.n_leaves))
        except TypeError:
            raise ValueError(f"n_leaves must be an integer, got {self.n_leaves!r}") from None
        merges = []
        for k, (a, b, h) in enumerate(self.merges):
            try:
                a, b = exact_index(a), exact_index(b)
            except TypeError:
                raise ValueError(f"merge {k} joins non-integer cluster ids {a!r}, {b!r}") from None
            merges.append((a, b, exact_fraction(h)))
        object.__setattr__(self, "merges", tuple(merges))
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


def _assignment(clusters, n) -> list[int]:
    """Per-point cluster ids in input order; a point in no cluster, such
    as DBSCAN noise, gets -1."""
    out = [-1] * n
    for cluster_id, members in enumerate(clusters):
        for i in members:
            out[i] = cluster_id
    return out


def _merge_copies(slots: list[int], k: int):
    """The height-0 merges that join copies of one point, in lowest-(a, b)
    order: the distinct point whose smallest live id is lowest merges its
    two smallest live ids, and the new id, larger than all so far, goes to
    the back of its queue. Returns (merges, each distinct point's cluster
    id, next free id)."""
    queues: list[deque[int]] = [deque() for _ in range(k)]
    for i, u in enumerate(slots):
        queues[u].append(i)
    fronts = [(q[0], u) for u, q in enumerate(queues) if len(q) > 1]
    merges = []
    next_id = len(slots)
    while fronts:  # a heap on each queue's front; sorted, hence one from the start
        u = fronts[0][1]
        q = queues[u]
        merges.append((q.popleft(), q.popleft(), Fraction(0)))
        q.append(next_id)
        next_id += 1
        if len(q) > 1:
            heapreplace(fronts, (q[0], u))
        else:
            heappop(fronts)
    return merges, [q[0] for q in queues], next_id


def hierarchical(pts: MatrixPointSet) -> Dendrogram:
    """Agglomerative clustering under average linkage, exactly.

    Cross-cluster distances are unweighted means of pairwise L1 distances,
    held as Fractions; height ties are broken on the lowest (a, b) id pair.
    Copies of a point merge first, at height 0, in that lowest-(a, b)
    order. The clusters of the k distinct points then merge by integer
    pair sums S(A, B), height S / (|A| |B|), with S(A | B, C) = S(A, C) +
    S(B, C); a heap on (height, a, b) picks each merge, and entries of
    merged clusters are dropped when met, or all at once when they
    outnumber the live ones. Cost O(n log k + k^2 log k) besides the
    O(k^2) distances.
    """
    n = len(pts)
    if n == 0:
        raise EmptyInput("hierarchical clustering needs at least one point")
    dist, slots, size = _distance_table(pts)
    k = len(dist)
    merges, ident, next_id = _merge_copies(slots, k)
    sums = [
        [size[u] * size[v] * d for v, d in enumerate(row)]
        for u, row in enumerate(dist)
    ]
    slot_of = {c: u for u, c in enumerate(ident)}
    heap = [
        (Fraction(sums[u][v], size[u] * size[v]), *sorted((ident[u], ident[v])))
        for u, v in combinations(range(k), 2)
    ]
    heapify(heap)
    while len(slot_of) > 1:
        height, a, b = heappop(heap)
        if a not in slot_of or b not in slot_of:
            continue
        merges.append((a, b, height))
        u, v = slot_of.pop(a), slot_of.pop(b)
        size[u] += size[v]
        for w in slot_of.values():
            s = sums[u][w] = sums[w][u] = sums[u][w] + sums[v][w]
            heappush(heap, (Fraction(s, size[u] * size[w]), ident[w], next_id))
        ident[u] = next_id
        slot_of[next_id] = u
        next_id += 1
        live = len(slot_of) * (len(slot_of) - 1) // 2
        if len(heap) > 2 * live:
            heap = [e for e in heap if e[1] in slot_of and e[2] in slot_of]
            heapify(heap)
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
    """Common matrix of each cluster's member sequences: one common_matrix
    call per cluster, all on one label table.

    A member must be an integer index into seqs: -1 and True are refused,
    not read as the last sequence and as 1. Every member is checked
    before any matrix is built.
    """
    clusters = [list(c) for c in clusters]
    if not clusters:
        return []
    if not all(clusters):
        raise EmptyInput("common matrix needs at least one sequence")
    table = _analysis_table(j_labels)
    for i in chain.from_iterable(clusters):
        try:
            ok = 0 <= exact_index(i) < len(seqs)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"cluster member {i!r} is not an index in 0..{len(seqs) - 1}")
    return [common_matrix([seqs[i] for i in c], table) for c in clusters]
