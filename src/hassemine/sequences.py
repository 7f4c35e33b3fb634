"""Sequences of labels or label subsets, and their graph conversions.

Covers restriction to a label subset, the layered-graph conversion (stg) and
its inverse (gts), the consistency predicate between a sequence and a wiring
diagram, flattenings (linear extensions as path graphs), and the order
encoding.

One relation underlies both the per-sequence order matrix and consistency:
label i is ordered before label j when both occur and every occurrence of
i comes strictly before every occurrence of j. `_order_key` computes it
from one scan of a sequence, as (order rows, occurrence mask), and
`_order_keys` encodes a list of sequences after checking the labels once
against each distinct universe. A corpus has one encoding, `_encode`: a
count of its sequences as its distinct order matrices with their
multiplicities, one key per distinct sequence. The miner reads it, and
relevance scoring reads it once per class. `common_matrix`, the pairs
ordered alike across a collection (once per cluster in the baselines'
common matrices), folds the keys of the distinct sequences, as it needs
their occurrence masks; the baselines' point sets key the distinct
sequences to give each sequence its point. `seq_to_matrix` is the order
matrix of one sequence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import (
    EmptyInput,
    EmptyJ,
    EmptyRestriction,
    EmptyTerm,
    LabelNotInUniverse,
    NotLayered,
    NotSimple,
)
from .graphs import (
    BoolMatrix,
    Digraph,
    LabelTable,
    _acyclic_closure,
    _bit_indices,
    _closure_rows,
    _transpose,
)


@dataclass(frozen=True)
class EventSequence:
    """An ordered list of labels drawn from a universe.

    The hash is computed once, at construction: encoding a corpus hashes
    every one of its sequences, and the generated hash would rehash the
    universe and the events each time.
    """

    universe: LabelTable
    events: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        for e in events:
            if e not in self.universe:
                raise LabelNotInUniverse(f"event {e!r} not in universe")
        object.__setattr__(self, "_hash", hash((self.universe.labels, events)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so an unpickled copy
        # computes its own hash instead of carrying the pickled one
        return EventSequence, (self.universe, self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def is_simple(self) -> bool:
        return len(set(self.events)) == len(self.events)

    def positions(self) -> dict[str, tuple[int, ...]]:
        """1-based occurrence positions, keyed by label; absent labels omitted."""
        out: dict[str, list[int]] = {}
        for i, e in enumerate(self.events, start=1):
            out.setdefault(e, []).append(i)
        return {k: tuple(v) for k, v in out.items()}


@dataclass(frozen=True)
class SubsetSequence:
    """An ordered list of label subsets drawn from a universe."""

    universe: LabelTable
    terms: tuple[frozenset[str], ...]

    def __post_init__(self):
        terms = tuple(frozenset(t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        for term in terms:
            for e in term:
                if e not in self.universe:
                    raise LabelNotInUniverse(f"label {e!r} not in universe")

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def is_simple(self) -> bool:
        total = sum(len(t) for t in self.terms)
        union = set().union(*self.terms) if self.terms else set()
        return len(union) == total

    def positions(self) -> dict[str, tuple[int, ...]]:
        """1-based term positions containing each label; absent labels omitted."""
        out: dict[str, list[int]] = {}
        for i, term in enumerate(self.terms, start=1):
            for e in term:
                out.setdefault(e, []).append(i)
        return {k: tuple(v) for k, v in out.items()}


AnySequence = Union[EventSequence, SubsetSequence]


def _analysis_table(j_labels: Iterable[str]) -> LabelTable:
    labels = tuple(j_labels)
    if not labels:
        raise EmptyJ("the analysis label set is empty")
    return LabelTable(labels)


def _order_key(s: AnySequence, table: LabelTable) -> tuple[tuple[int, ...], int]:
    """(order rows, mask of the table labels that occur) of one sequence,
    from one scan of its events or terms; the universe is not checked.

    `seen` is the mask of the table labels met so far, and `upto[i]` its
    value at label i's last occurrence, its own term included. Row i is
    then the labels met only after that: those whose first occurrence
    comes after i's last.
    """
    index = table.index
    seen = 0
    upto = [-1] * len(table)  # an absent label's row is seen & ~-1 == 0
    if isinstance(s, EventSequence):
        for i in map(index.get, s.events):
            if i is not None:
                seen |= 1 << i
                upto[i] = seen
    else:
        for term in s.terms:
            present = [i for i in map(index.get, term) if i is not None]
            seen |= sum(1 << i for i in present)
            for i in present:
                upto[i] = seen
    return tuple([seen & ~u for u in upto]), seen


def _order_keys(seqs, table: LabelTable) -> list[tuple[tuple[int, ...], int]]:
    """_order_key of each sequence. The table is first checked against each
    distinct universe once, told apart by identity, in first-seen order."""
    for universe in {id(s.universe): s.universe for s in seqs}.values():
        for lab in table.labels:
            if lab not in universe.index:
                raise LabelNotInUniverse(f"label {lab!r} not in sequence universe")
    return [_order_key(s, table) for s in seqs]


def _distinct(items) -> tuple[list, list[int]]:
    """The distinct items in first-seen order, and each item's slot among them."""
    index: dict = {}
    slots = [index.setdefault(x, len(index)) for x in items]
    return list(index), slots


def _encode(counts: Counter, table: LabelTable) -> Counter:
    """A Counter of sequences as its distinct order matrices (order rows),
    in first-seen order, each mapped to the number of sequences that have
    it. Each distinct sequence is keyed once; keys whose rows agree but
    whose occurrence masks differ are one matrix."""
    matrices: Counter = Counter()
    for (rows, _), c in zip(_order_keys(counts, table), counts.values()):
        matrices[rows] += c
    return matrices


def seq_to_matrix(s: AnySequence, j_labels: Iterable[str]) -> BoolMatrix:
    """Order matrix of one sequence over an ordered label subset.

    Entry (i, j) is 1 iff both labels occur and every occurrence of label i
    comes strictly before every occurrence of label j. The result is always
    transitive, with zero rows and columns for absent labels.
    """
    table = _analysis_table(j_labels)
    return BoolMatrix(table, _order_keys([s], table)[0][0])


def common_matrix(seqs: Iterable[AnySequence], j_labels: Iterable[str]) -> BoolMatrix:
    """Pairs ordered identically in every sequence where both labels occur.

    Entry (i, j) is 1 iff some sequence witnesses the pair (both occur,
    i strictly first) and no sequence where both occur violates it. The
    key of each distinct sequence is folded once: it adds its order rows
    to the witnesses, and the pairs of its occurring labels that it does
    not order to the vetoes.
    """
    seqs = dict.fromkeys(seqs)  # the distinct sequences, in first-seen order
    if not seqs:
        raise EmptyInput("common matrix needs at least one sequence")
    table = _analysis_table(j_labels)
    witness = [0] * len(table)
    veto = [0] * len(table)
    for rows, occurring in _order_keys(seqs, table):
        for i in _bit_indices(occurring):
            witness[i] |= rows[i]
            veto[i] |= occurring & ~rows[i]  # bit i too, but witness[i] lacks it
    return BoolMatrix(table, tuple(w & ~v for w, v in zip(witness, veto)))


def as_subset_sequence(s: EventSequence) -> SubsetSequence:
    """Lift a label sequence to the sequence of its singleton subsets."""
    return SubsetSequence(s.universe, tuple(frozenset((e,)) for e in s.events))


def restrict_sequence(s: AnySequence, i_labels: Iterable[str]) -> AnySequence:
    """Intersect every term with the given labels and drop emptied terms.

    The universe is kept unchanged; the result is the same sequence kind as
    the input.
    """
    kept = frozenset(i_labels)
    if not kept:
        raise EmptyRestriction("restriction label set is empty")
    for lab in kept:
        if lab not in s.universe:
            raise LabelNotInUniverse(f"label {lab!r} not in universe")
    if isinstance(s, EventSequence):
        return EventSequence(s.universe, tuple(e for e in s.events if e in kept))
    terms = tuple(t & kept for t in s.terms)
    return SubsetSequence(s.universe, tuple(t for t in terms if t))


def stg(s: AnySequence) -> Digraph:
    """The layered graph of a simple subset sequence.

    Vertices are the labels appearing in s (in order of appearance, universe
    order within a term); arrows run from every element of each term to every
    element of the next term. Each term fills a block of consecutive
    positions, so a term's row is the next term's block.
    """
    if isinstance(s, EventSequence):
        s = as_subset_sequence(s)
    if not s.is_simple:
        raise NotSimple("stg needs pairwise disjoint terms")
    if not all(s.terms):
        raise EmptyTerm("stg needs nonempty terms")
    terms = [sorted(term, key=s.universe.position) for term in s.terms]
    rows: list[int] = []
    start = 0
    for cur, nxt in zip(terms, terms[1:] + [[]]):
        start += len(cur)
        rows += [((1 << len(nxt)) - 1) << start] * len(cur)
    return Digraph(LabelTable(tuple(lab for term in terms for lab in term)), tuple(rows))


def gts(g: Digraph) -> SubsetSequence:
    """The layer sequence of a layered graph; inverse of stg on its image.

    After the cycle test, a walk reads the layers: the first is the
    sources, and each next one is the row that every member of the layer
    before shares; a member with another row raises NotLayered. In a
    DAG every vertex lies on a path from a source, so a walk that ends
    without error has reached them all.
    """
    rows = g.rows
    if _acyclic_closure(rows) is None:
        raise NotLayered("graph contains a directed cycle")
    layer = (1 << g.m) - 1
    for row in rows:
        layer &= ~row
    labs = g.labels.labels
    terms = []
    while layer:
        terms.append(frozenset(labs[v] for v in _bit_indices(layer)))
        nexts = {rows[v] for v in _bit_indices(layer)}
        if len(nexts) > 1:
            raise NotLayered("arrows are not complete between consecutive layers")
        layer = nexts.pop()
    return SubsetSequence(g.labels, tuple(terms))


def is_consistent(s: AnySequence, w: Digraph) -> bool:
    """True iff s respects every before-and-after constraint of w.

    For each pair of labels x, y both occurring in s with a path x -> y in w,
    every occurrence of x must precede every occurrence of y.
    """
    rows, occ = _order_keys([s], w.labels)[0]
    closed = _closure_rows(w.rows)
    return all(closed[u] & occ & ~rows[u] == 0 for u in _bit_indices(occ))


def flattenings(g: Digraph) -> list[Digraph]:
    """All path graphs on g's vertex set admitting a morphism into g.

    These are the linear extensions of g's reachability order; each is
    returned as a path Digraph over g's own label table, in lexicographic
    order of the vertex-index sequence.
    """
    m = g.m
    preds = _transpose(g.rows, m)
    orders: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk(remaining: int):
        if not remaining:
            orders.append(tuple(prefix))
            return
        for v in _bit_indices(remaining):
            if preds[v] & remaining == 0:
                prefix.append(v)
                walk(remaining & ~(1 << v))
                prefix.pop()

    walk((1 << m) - 1)
    out = []
    for order in orders:
        rows = [0] * m
        for a, b in zip(order, order[1:]):
            rows[a] |= 1 << b
        out.append(Digraph(g.labels, tuple(rows)))
    return out

