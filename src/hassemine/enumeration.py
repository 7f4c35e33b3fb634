"""Exhaustive enumeration of quasi-skeleton graphs on a labeled vertex set.

The quasi-skeleton graphs on m labels correspond one-to-one with the strict
partial orders on those labels (take the path matrix one way, the transitive
reduction the other), so the category is built by enumerating strict orders
and reducing each one. Counts follow OEIS A001035. Mining reads no
catalog: both of its modes find their diagrams as intersections of the
sequences' order matrices. The catalog serves `enumerate` and the
morphism API (`CategoryRJ`, `generalizations`).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import LabelMismatch
from .graphs import (
    BoolMatrix,
    Digraph,
    LabelTable,
    _bit_indices,
    _check_label_count,
    _closure_rows,
    _pack_rows,
    _reduction_rows,
    _transpose,
    _unpack_rows,
    path_matrix,
)

#: Number of strict partial orders (equivalently quasi-skeleton graphs) on
#: m labeled vertices, for m = 0..6.
LABELED_POSET_COUNTS = (1, 1, 3, 19, 219, 4231, 130023)


def _closed_sets(need: Sequence[int]) -> list[int]:
    """Every vertex set S with need[x] inside S for each x in S, each once.

    need[x] must be x's strict down-set (or up-set) in a strict order. Then
    taking the vertices in ascending size of need[x] visits each x after
    all of need[x], and the closed sets of a prefix ending in x are those
    of the prefix before x, each once without x and, where it already
    holds need[x], once more with x.
    """
    sets = [0]
    for x in sorted(range(len(need)), key=lambda x: need[x].bit_count()):
        bit, nx = 1 << x, need[x]
        sets += [s | bit for s in sets if nx & ~s == 0]
    return sets


@lru_cache(maxsize=None)
def _strict_orders(m: int) -> tuple[int, ...]:
    """Every transitively closed irreflexive relation on m vertices, as
    `_pack_rows` ints in ascending order, which is the canonical order.

    Built by extending each order on the first m-1 vertices with the new
    vertex's predecessor set (down) and successor set (up). down must be an
    ideal (downward closed) and up a filter (upward closed); `_closed_sets`
    grows both from the predecessor and successor rows, so no other subset
    is tried. A pair is accepted iff up lies inside rows[x] for every x in
    down. rows[x] is x's strict up-set, so that one test puts every down
    element below every up element, and as no row holds its own vertex it
    also keeps down and up disjoint: the relation stays transitive and
    irreflexive. Restricting any m-vertex order to its first m-1 vertices
    inverts the construction, so each order is produced exactly once. The
    packed order is the (m-1)-order's entries, plus the new column (from
    down) and the new last row (from up), each read from a 2^(m-1) table.
    """
    if m == 0:
        return (0,)
    q = m - 1
    new_bit = 1 << q
    full = new_bit - 1
    column = [
        _pack_rows([new_bit if down >> i & 1 else 0 for i in range(q)], m)
        for down in range(new_bit)
    ]
    last_row = [_pack_rows([0] * q + [up], m) for up in range(new_bit)]
    out = []
    for flat in _strict_orders(q):
        rows = _unpack_rows(flat, q)
        up_sets = _closed_sets(rows)
        base = _pack_rows(rows, m)
        for down in _closed_sets(_transpose(rows, q)):
            cap = full
            for x in _bit_indices(down):
                cap &= rows[x]
            head = base | column[down]
            out.extend(head | last_row[up] for up in up_sets if up & ~cap == 0)
    out.sort()
    return tuple(out)


class CategoryRJ:
    """All quasi-skeleton graphs on one label set, in canonical order.

    The catalog stores flats only: flats[i] is the i-th path matrix packed
    by `_pack_rows` (entry (i, j) at bit m*m - 1 - (m*i + j)), so the
    canonical order, ascending lexicographic on the row-major flattened
    path matrix, is ascending int order, and H generalizes G iff
    flats[H] & ~flats[G] == 0. Mining reads no catalog. Built on first
    access and then kept: rows[i] (the bit rows of flats[i]),
    path_matrices[i] (a BoolMatrix of rows[i]) and graphs[i] (its
    transitive reduction as a Digraph).
    index_of packs its matrix and bisects flats. A generalization up-set
    (the morphism relation) is computed on each call and not kept, so a
    shared catalog does not grow. Instances are immutable and safe to
    share.
    """

    def __init__(self, labels: LabelTable):
        _check_label_count(len(labels))
        self.labels = labels
        self.flats = _strict_orders(len(labels))

    def __len__(self) -> int:
        return len(self.flats)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_unpack_rows(flat, len(self.labels)) for flat in self.flats)

    @cached_property
    def path_matrices(self) -> tuple[BoolMatrix, ...]:
        return tuple(BoolMatrix(self.labels, rows) for rows in self.rows)

    @cached_property
    def graphs(self) -> tuple[Digraph, ...]:
        return tuple(Digraph(self.labels, _reduction_rows(rows)) for rows in self.rows)

    def index_of(self, matrix: BoolMatrix) -> int:
        """Position of a path matrix in the canonical order."""
        if matrix.labels != self.labels:
            raise LabelMismatch("matrix labels differ from the category's")
        flat = _pack_rows(matrix.rows, len(self.labels))
        i = bisect_left(self.flats, flat)
        if i == len(self.flats) or self.flats[i] != flat:
            raise ValueError("matrix is not a strict partial order on this label set")
        return i

    def upset(self, i: int) -> tuple[int, ...]:
        """Indices of every generalization of graph i (morphism i -> j)."""
        flat_i = self.flats[i]
        return tuple(j for j, flat_j in enumerate(self.flats) if flat_j & ~flat_i == 0)


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
    closed_from = _closure_rows(g_from.rows)
    closed_to = _closure_rows(g_to.rows)
    return all(t & ~f == 0 for f, t in zip(closed_from, closed_to))


def generalizations(cat: CategoryRJ, g: Digraph) -> list[int]:
    """Indices of every H in cat with a morphism g -> H."""
    if g.labels != cat.labels:
        raise LabelMismatch("graph labels differ from the category's")
    return list(cat.upset(cat.index_of(path_matrix(g))))
