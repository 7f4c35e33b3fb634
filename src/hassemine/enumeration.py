"""Exhaustive enumeration of quasi-skeleton graphs on a labeled vertex set.

The quasi-skeleton graphs on m labels correspond one-to-one with the strict
partial orders on those labels (take the path matrix one way, the transitive
reduction the other), so the category is built by enumerating strict orders
and reducing each one. Counts follow OEIS A001035.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import LabelMismatch, TooManyLabels
from .graphs import (
    BoolMatrix,
    Digraph,
    LabelTable,
    _bit_indices,
    _pack_rows,
    _reduction_rows,
    path_matrix,
)

#: Number of strict partial orders (equivalently quasi-skeleton graphs) on
#: m labeled vertices, for m = 0..6.
LABELED_POSET_COUNTS = (1, 1, 3, 19, 219, 4231, 130023)

#: Hard enumeration cap; one unit of headroom over the m <= 5 workloads.
MAX_LABELS = 6


@lru_cache(maxsize=None)
def _strict_orders(m: int) -> tuple[tuple[int, ...], ...]:
    """Every transitively closed irreflexive relation on m vertices, as bit rows.

    Built by extending each order on the first m-1 vertices with the new
    vertex's predecessor set (down) and successor set (up): down must be
    downward closed, up upward closed, the two disjoint, and every down
    element already below every up element. Restricting any m-vertex order to
    its first m-1 vertices inverts the construction, so each order is
    produced exactly once.
    """
    if m == 0:
        return ((),)
    prev = _strict_orders(m - 1)
    q = m - 1
    full = (1 << q) - 1
    out = []
    for rows in prev:
        preds = [0] * q
        for i, row in enumerate(rows):
            for j in _bit_indices(row):
                preds[j] |= 1 << i
        down_sets = [
            d for d in range(full + 1)
            if all(preds[x] & ~d == 0 for x in _bit_indices(d))
        ]
        up_sets = [
            u for u in range(full + 1)
            if all(rows[x] & ~u == 0 for x in _bit_indices(u))
        ]
        for down in down_sets:
            for up in up_sets:
                if up & down:
                    continue
                if any(up & ~rows[x] for x in _bit_indices(down)):
                    continue
                new_rows = tuple(
                    row | (1 << q) if (down >> i) & 1 else row
                    for i, row in enumerate(rows)
                ) + (up,)
                out.append(new_rows)
    return tuple(out)


class CategoryRJ:
    """All quasi-skeleton graphs on one label set, in canonical order.

    graphs[i], path_matrices[i] and flats[i] are parallel; flats[i] is the
    path matrix packed into one int (entry (i, j) at bit m*i + j), so that
    H generalizes G iff flats[H] & ~flats[G] == 0. The canonical order is
    ascending lexicographic on the flattened path matrix. Generalization
    up-sets (the morphism relation) are materialized lazily per graph.
    Instances are immutable and safe to share.
    """

    def __init__(self, labels: LabelTable):
        m = len(labels)
        if not 1 <= m <= MAX_LABELS:
            raise TooManyLabels(f"enumeration supports 1..{MAX_LABELS} labels, got {m}")
        orders = sorted(
            _strict_orders(m),
            key=lambda rows: tuple(row >> j & 1 for row in rows for j in range(m)),
        )
        self.labels = labels
        self.path_matrices = tuple(BoolMatrix(labels, rows) for rows in orders)
        self.graphs = tuple(Digraph(labels, _reduction_rows(rows)) for rows in orders)
        self.flats = tuple(_pack_rows(rows, m) for rows in orders)
        self._index = {rows: i for i, rows in enumerate(orders)}
        self._upsets: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.graphs)

    def index_of(self, matrix: BoolMatrix) -> int:
        """Position of a path matrix in the canonical order."""
        if matrix.labels != self.labels:
            raise LabelMismatch("matrix labels differ from the category's")
        try:
            return self._index[matrix.rows]
        except KeyError:
            raise ValueError(
                "matrix is not a strict partial order on this label set"
            ) from None

    def upset(self, i: int) -> tuple[int, ...]:
        """Indices of every generalization of graph i (morphism i -> j)."""
        cached = self._upsets.get(i)
        if cached is None:
            flat_i = self.flats[i]
            cached = tuple(
                j for j, flat_j in enumerate(self.flats) if flat_j & ~flat_i == 0
            )
            self._upsets[i] = cached
        return cached


@lru_cache(maxsize=16)
def enumerate_category(labels: LabelTable) -> CategoryRJ:
    """The category of quasi-skeleton graphs on `labels` (cached, immutable)."""
    return CategoryRJ(labels)


def has_morphism(g_from: Digraph, g_to: Digraph) -> bool:
    """True iff R(g_to) is contained in R(g_from), i.e. g_to generalizes g_from.

    Matrix form: the entrywise difference path_matrix(g_from) -
    path_matrix(g_to) has no negative entry.
    """
    if g_from.labels != g_to.labels:
        raise LabelMismatch("morphism check needs a shared label table")
    pm_from = path_matrix(g_from).rows
    pm_to = path_matrix(g_to).rows
    return all(t & ~f == 0 for f, t in zip(pm_from, pm_to))


def generalizations(cat: CategoryRJ, g: Digraph) -> list[int]:
    """Indices of every H in cat with a morphism g -> H."""
    if g.labels != cat.labels:
        raise LabelMismatch("graph labels differ from the category's")
    return list(cat.upset(cat.index_of(path_matrix(g))))
