"""Directed graphs over an ordered label table, with reachability operations.

Vertices are label strings held in a LabelTable; adjacency and boolean
relation matrices are stored as one int bitmask per row (bit j of row i set
iff entry (i, j) is 1), which keeps every matrix operation O(m) words for the
m <= 64 range this package supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Iterable, Iterator

from .errors import CyclicInput, TooManyLabels, UnknownLabel

#: Hard cap on the labels that enumeration and mining accept; one unit of
#: headroom over the m <= 5 workloads.
MAX_LABELS = 6


def _check_label_count(m: int) -> None:
    """Raise TooManyLabels unless 1 <= m <= MAX_LABELS."""
    if not 1 <= m <= MAX_LABELS:
        raise TooManyLabels(f"enumeration supports 1..{MAX_LABELS} labels, got {m}")


@dataclass(frozen=True)
class LabelTable:
    """Ordered, pairwise-distinct label strings.

    Positions are 0-based internally; anything user-facing (serialized
    indices, occurrence positions) is reported 1-based.
    """

    labels: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be pairwise distinct: {labels!r}")
        object.__setattr__(self, "index", {lab: i for i, lab in enumerate(labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.index

    def position(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not in table {self.labels!r}") from None


def _coerce_rows(rows: Iterable[int], m: int) -> tuple[int, ...]:
    """rows as a tuple of m ints, each fitting m columns; a row that is
    not an integer (2.7, "2", None) is refused, not truncated."""
    out = []
    for r in rows:
        try:
            r = index(r)
        except TypeError:
            raise ValueError(f"row {r!r} is not an integer") from None
        if r < 0 or r >> m:
            raise ValueError(f"row {r:#x} does not fit {m} columns")
        out.append(r)
    if len(out) != m:
        raise ValueError(f"expected {m} rows, got {len(out)}")
    return tuple(out)


def _rows_from_entries(entries, m: int) -> tuple[int, ...]:
    rows = []
    for row in entries:
        row = list(row)
        if len(row) != m:
            raise ValueError("entries must form a square matrix")
        bits = 0
        for j, cell in enumerate(row):
            if cell not in (0, 1, False, True):
                raise ValueError(f"matrix entries must be 0/1, got {cell!r}")
            if cell:
                bits |= 1 << j
        rows.append(bits)
    return _coerce_rows(rows, m)


class _BitRows:
    """What Digraph and BoolMatrix share: one int row per label of `labels`,
    bit j of rows[i] holding entry (i, j). A plain class, not a dataclass:
    each subclass's generated equality, hash and repr stay its own, so a
    graph never equals a matrix with the same rows."""

    def __post_init__(self):
        object.__setattr__(self, "rows", _coerce_rows(self.rows, len(self.labels)))

    @classmethod
    def from_entries(cls, labels: LabelTable, entries):
        return cls(labels, _rows_from_entries(entries, len(labels)))

    @property
    def m(self) -> int:
        return len(self.labels)

    def _label_pairs(self) -> Iterator[tuple[str, str]]:
        """(labels[i], labels[j]) for every set bit j of every row i."""
        labs = self.labels.labels
        for i, row in enumerate(self.rows):
            for j in _bit_indices(row):
                yield labs[i], labs[j]


@dataclass(frozen=True)
class Digraph(_BitRows):
    """Directed graph: bit j of rows[i] set iff arrow labels[i] -> labels[j].

    The representation enforces at most one arrow per ordered pair; loops are
    representable (and make is_dag false) but never appear in the
    quasi-skeleton graphs the rest of the package manipulates.
    """

    labels: LabelTable
    rows: tuple[int, ...]

    @classmethod
    def arrowless(cls, labels: LabelTable) -> "Digraph":
        return cls(labels, (0,) * len(labels))

    @classmethod
    def from_arrows(cls, labels: LabelTable, arrows: Iterable[tuple[str, str]]) -> "Digraph":
        rows = [0] * len(labels)
        for u, v in arrows:
            rows[labels.position(u)] |= 1 << labels.position(v)
        return cls(labels, tuple(rows))

    def has_arrow(self, u: str, v: str) -> bool:
        return bool(self.rows[self.labels.position(u)] >> self.labels.position(v) & 1)

    def arrows(self) -> list[tuple[str, str]]:
        return list(self._label_pairs())

    def arrow_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


@dataclass(frozen=True)
class BoolMatrix(_BitRows):
    """Square 0/1 matrix sharing its LabelTable's ordering (same row packing)."""

    labels: LabelTable
    rows: tuple[int, ...]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def to_entries(self) -> list[list[int]]:
        m = self.m
        return [[row >> j & 1 for j in range(m)] for row in self.rows]

    def pairs(self) -> frozenset[tuple[str, str]]:
        """The relation as a set of (label, label) pairs, diagonal included if set."""
        return frozenset(self._label_pairs())

    def sort_key(self) -> tuple[int, ...]:
        """Row-major flattened entries; ascending sort on this is the canonical order."""
        m = self.m
        return tuple(row >> j & 1 for row in self.rows for j in range(m))


def _bit_indices(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _pack_rows(rows: Iterable[int], m: int) -> int:
    """One int holding every row: entry (i, j) at bit m*m - 1 - (m*i + j).

    The packed int is the row-major flattened matrix read as a binary
    number, first entry most significant, so ascending int order is the
    canonical (flattened lexicographic) order. Containment of relations is
    one mask test: a <= b iff a & ~b == 0. Fewer than m rows pack as if the
    missing last rows were zero.
    """
    low_first = 0
    for i, row in enumerate(rows):
        low_first |= row << (m * i)
    return int(f"{low_first:0{m * m}b}"[::-1], 2)


def _unpack_rows(packed: int, m: int) -> tuple[int, ...]:
    """The m bit rows of a `_pack_rows` int."""
    low_first = int(f"{packed:0{m * m}b}"[::-1], 2)
    mask = (1 << m) - 1
    return tuple(low_first >> (m * i) & mask for i in range(m))


def _transpose(rows: Iterable[int], width: int) -> list[int]:
    """The transpose of a bit-row matrix whose rows fit `width` columns:
    bit i of the result's row j is set iff rows[i] has bit j. On a
    graph's rows it gives each vertex's predecessor set; on packed
    matrices (width m*m), each entry's set of matrices holding it."""
    out = [0] * width
    for i, row in enumerate(rows):
        for j in _bit_indices(row):
            out[j] |= 1 << i
    return out


def _closure_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Reachability by paths of length >= 1 (bitset Warshall)."""
    rs = list(rows)
    for k in range(len(rs)):
        bk = 1 << k
        rk = rs[k]
        for i in range(len(rs)):
            if rs[i] & bk:
                rs[i] |= rk
    return tuple(rs)


def _reduction_rows(closed: tuple[int, ...]) -> tuple[int, ...]:
    """Cover relation of a transitively closed, irreflexive relation."""
    out = []
    for row in closed:
        keep = row
        for w in _bit_indices(row):
            keep &= ~closed[w]
        out.append(keep)
    return tuple(out)


def _acyclic_closure(rows: tuple[int, ...]) -> tuple[int, ...] | None:
    """The closure rows (`_closure_rows`), or None when some vertex
    reaches itself, that is, when the graph has a directed cycle. The one
    cycle test that is_dag, transitive_reduction, is_quasi_skeleton,
    restrict and gts share."""
    closed = _closure_rows(rows)
    if any(row >> i & 1 for i, row in enumerate(closed)):
        return None
    return closed


def is_dag(g: Digraph) -> bool:
    return _acyclic_closure(g.rows) is not None


def transitive_closure(g: Digraph) -> Digraph:
    return Digraph(g.labels, _closure_rows(g.rows))


def path_matrix(g: Digraph) -> BoolMatrix:
    """Entry (i, j) = 1 iff a directed path of length >= 1 runs from i to j."""
    return BoolMatrix(g.labels, _closure_rows(g.rows))


def r_set(g: Digraph) -> BoolMatrix:
    """The reflexive-transitive closure of the arrow set, as a matrix."""
    closed = _closure_rows(g.rows)
    return BoolMatrix(g.labels, tuple(row | (1 << i) for i, row in enumerate(closed)))


def transitive_reduction(g: Digraph) -> Digraph:
    """Minimal graph with g's reachability; the cover relation of the induced order."""
    closed = _acyclic_closure(g.rows)
    if closed is None:
        raise CyclicInput("transitive reduction is only unique for acyclic graphs")
    return Digraph(g.labels, _reduction_rows(closed))


def is_quasi_skeleton(g: Digraph) -> bool:
    """True iff g is a DAG with no arrow shortcutting a path of length >= 2.

    Equivalently, g is a DAG equal to the transitive reduction of its
    closure (Aho, Garey & Ullman 1972): an arrow is dropped by the
    reduction exactly when a longer path runs beside it.
    """
    closed = _acyclic_closure(g.rows)
    return closed is not None and _reduction_rows(closed) == g.rows


def restrict(g: Digraph, u: Iterable[str]) -> Digraph:
    """The graph induced on u, preserving reachability among u.

    Computed as the transitive reduction of R(g) restricted to u x u; the
    result's labels keep g's table order.
    """
    positions = sorted({g.labels.position(x) for x in u})
    closed = _acyclic_closure(g.rows)
    if closed is None:
        raise CyclicInput("restriction needs an acyclic graph")
    sub = []
    for new_i, i in enumerate(positions):
        bits = 0
        for new_j, j in enumerate(positions):
            if closed[i] >> j & 1:
                bits |= 1 << new_j
        sub.append(bits)
    # a restriction of a transitive irreflexive relation is itself closed
    table = LabelTable(tuple(g.labels.labels[i] for i in positions))
    return Digraph(table, _reduction_rows(tuple(sub)))


def _dot_id(label: str) -> str:
    """label as a quoted DOT ID, with each backslash doubled and each
    double quote escaped: no label can end the quoted string early, and
    two labels never share an ID."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Digraph, name: str = "G") -> str:
    """Graphviz DOT text: one node per label, one edge per arrow."""
    lines = [f"digraph {name} {{"]
    for lab in g.labels:
        lines.append(f"  {_dot_id(lab)};")
    for u, v in g.arrows():
        lines.append(f"  {_dot_id(u)} -> {_dot_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
