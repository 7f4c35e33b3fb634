"""The one corpus encoding that mining, relevance and the baselines read.

Claims covered:
- on corpora with repeated sequences (event and subset sequences over two
  universes that share the analysis labels), seq_to_matrix, common_matrix,
  relevance_scores, hasse_cluster, dbscan and hierarchical give what the
  per-sequence code they replaced and the brute-force oracles give, and
  equal points of a MatrixPointSet are one shared matrix object;
- cluster_common_matrices gives what one common_matrix call per cluster
  gives;
- the one-scan order keys are what the `positions()` key they replaced
  gives, and the distinct matrices with their multiplicities are the
  keys-plus-slots encoding folded by order rows (a matrix's multiplicity
  is the number of slots whose key has its rows), on event and subset
  corpora with repeated labels, absent table labels, events outside the
  table, empty sequences and terms, universes that are equal but not
  identical, and keys that differ only in their occurrence masks; a table
  label missing from some universe raises the same LabelNotInUniverse;
  relevance_scores gives what the slot tally it replaced gives, or raises
  the same error, also when one sequence appears in both classes; on
  valid and faulty episodes (labels True, False, 1.0, None, "1", [1] and
  2, list, three-item and non-iterable episodes, equal but not identical
  or mismatched universes, list or iterator input) it gives what the
  count of distinct (sequence, label) pairs it replaced gives, or raises
  the same exception with the same message;
- the encoder keeps the error behaviour of the per-sequence code: an empty
  point set needs no labels, an empty common matrix raises EmptyInput,
  the label cap is checked before the universes, every distinct universe
  is checked (not only the first) by each encoding reader, and
  seq_to_matrix raises EmptyJ, then the duplicate-label ValueError, then
  LabelNotInUniverse.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hassemine import (
    EmptyInput,
    EmptyJ,
    EventSequence,
    HassemineError,
    LabelNotInUniverse,
    LabelTable,
    MatrixPointSet,
    SubsetSequence,
    TooManyLabels,
    cluster_common_matrices,
    common_matrix,
    dbscan,
    hasse_cluster,
    hierarchical,
    relevance_scores,
    seq_to_matrix,
)
from hassemine.sequences import _encode, _order_key

from oracles import (
    average_linkage_oracle,
    common_rows_oracle,
    components_unionfind,
    encode_slots,
    hasse_cluster_bruteforce,
    order_key_positions,
    order_rows_oracle,
    relevance_counts_oracle,
    relevance_scores_by_pairs,
    relevance_scores_by_slots,
)

J = ("a", "b", "c")
U1 = LabelTable(("a", "b", "c", "x"))
U2 = LabelTable(("c", "x", "b", "y", "a"))
U1_COPY = LabelTable(U1.labels)  # equal to U1, not the same object
U3 = LabelTable(("b", "a"))


def _random_sequence(rng, universe):
    labels = universe.labels
    if rng.random() < 0.5:
        return EventSequence(universe, tuple(rng.choice(labels) for _ in range(rng.randint(0, 5))))
    terms = [frozenset(rng.sample(labels, rng.randint(1, 2))) for _ in range(rng.randint(0, 4))]
    return SubsetSequence(universe, tuple(terms))


def _pool(rng):
    """A few sequences to draw corpora from, so that draws repeat. The
    fixed ones give equal matrices with unequal occurrence masks, and an
    event sequence next to its singleton-subset lift."""
    pool = [
        EventSequence(U1, ()),
        EventSequence(U1, ("a",)),
        EventSequence(U2, ("b", "a")),
        SubsetSequence(U2, (frozenset(("b",)), frozenset(("a",)))),
    ]
    pool += [_random_sequence(rng, rng.choice((U1, U2))) for _ in range(rng.randint(1, 4))]
    return pool


def _plain(s):
    return s.events if isinstance(s, EventSequence) else s.terms


def test_shared_encoding_matches_per_sequence_oracles():
    rng = random.Random(23)
    for _ in range(40):
        pool = _pool(rng)
        corpus = [rng.choice(pool) for _ in range(rng.randint(6, 14))]
        assert len(set(corpus)) < len(corpus)

        rows = [order_rows_oracle(s, J) for s in corpus]
        assert [seq_to_matrix(s, J).rows for s in corpus] == rows
        assert common_matrix(corpus, J).rows == common_rows_oracle(corpus, J)

        episodes = [(s, rng.randint(0, 1)) for s in corpus if s.universe == U1]
        episodes += [(EventSequence(U1, ("a", "b")), 1), (EventSequence(U1, ("b",)), 0)]
        table = relevance_scores(episodes)
        assert (table.win_counts, table.lose_counts) == relevance_counts_oracle(episodes)
        assert table.n_win == sum(label for _, label in episodes)

        t = rng.choice((0, 40, 75, 100))
        r = rng.randint(1, 2)
        mode = rng.choice(("minimal", "literal"))
        out = hasse_cluster(corpus, J, t, r, mode)
        got = {frozenset(mx.pairs() for mx in cluster) for cluster in out.clusters}
        assert got == hasse_cluster_bruteforce([_plain(s) for s in corpus], J, t, r, mode)

        points = MatrixPointSet.from_sequences(corpus, J)
        n = len(points)
        assert [p.rows for p in points.points] == rows
        for i in range(n):
            for j in range(n):
                assert (points.points[i] is points.points[j]) == (rows[i] == rows[j])
        dist = [
            [sum((a ^ b).bit_count() for a, b in zip(rows[i], rows[j])) for j in range(n)]
            for i in range(n)
        ]
        eps = rng.randint(0, 3)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if dist[i][j] <= eps]
        assert dbscan(points, eps) == (components_unionfind(n, edges), [])
        assert list(hierarchical(points).merges) == average_linkage_oracle(dist)


def _sequences(universe):
    labels = st.sampled_from(universe.labels)
    events = st.lists(labels, max_size=6).map(lambda ev: EventSequence(universe, tuple(ev)))
    terms = st.lists(st.frozensets(labels, max_size=3), max_size=4)
    return events | terms.map(lambda ts: SubsetSequence(universe, tuple(ts)))


def _corpora(universes):
    """Corpora drawn from a pool of a few sequences, so that draws repeat."""
    pool = st.lists(st.sampled_from(universes).flatmap(_sequences), min_size=1, max_size=5)
    return pool.flatmap(lambda seqs: st.lists(st.sampled_from(seqs), max_size=12))


_TABLES = st.lists(st.sampled_from(("a", "b", "c", "x", "y")), min_size=1, max_size=4, unique=True)


@given(_corpora((U1, U1_COPY, U2, U3)), _TABLES.map(tuple).map(LabelTable))
# three distinct keys, (no arrows, mask a), (no arrows, no mask) and (no
# arrows, mask b), of one matrix
@example([EventSequence(U3, ev) for ev in (("a",), (), ("b",))], LabelTable(("a", "b")))
def test_keys_and_multiplicities_match_the_slot_oracle(corpus, table):
    for s in corpus:
        if all(lab in s.universe for lab in table):
            assert _order_key(s, table) == order_key_positions(s, table)
    try:
        keys, slots = encode_slots(corpus, table)
    except LabelNotInUniverse as exc:
        with pytest.raises(LabelNotInUniverse, match=f"^{re.escape(str(exc))}$"):
            _encode(Counter(corpus), table)
        return
    matrices = Counter(keys[k][0] for k in slots)
    assert list(_encode(Counter(corpus), table).items()) == list(matrices.items())


def _outcome(score, episodes):
    try:
        return score(episodes)
    except HassemineError as exc:
        return type(exc), str(exc)


@given(_corpora((U1, U1_COPY, U3)), st.data())
def test_relevance_matches_the_slot_oracle(corpus, data):
    labels = data.draw(st.lists(st.sampled_from((0, 1)), min_size=len(corpus), max_size=len(corpus)))
    episodes = list(zip(corpus, labels))
    assert _outcome(relevance_scores, episodes) == _outcome(relevance_scores_by_slots, episodes)


def _any_outcome(score, episodes):
    try:
        return score(episodes)
    except Exception as exc:
        return type(exc), str(exc)


# mostly valid, so that a run meets tables as well as each fault
_LABELS = st.sampled_from((0, 1) * 20 + (True, False, 1.0, None, "1", [1], 2))
_SHAPES = st.sampled_from(("pair",) * 30 + ("list", "list", "triple", "bare"))


def _episode(s, label, shape):
    return {"pair": (s, label), "list": [s, label], "triple": (s, label, "x"), "bare": 5}[shape]


def _episodes(pool):
    """Two to twelve episodes, their sequences drawn from the pool."""
    one = st.tuples(st.sampled_from(pool), _LABELS, _SHAPES)
    return st.lists(one.map(lambda d: _episode(*d)), min_size=2, max_size=12)


_POOLS = st.lists(
    st.sampled_from((U1, U1, U1_COPY, U3)).flatmap(_sequences), min_size=1, max_size=4
)
_A, _B = EventSequence(U1, ("a",)), EventSequence(U1, ("b",))


@given(_POOLS.flatmap(_episodes))
@example([])
@example([(_A, 1), (EventSequence(U3, ("a",)), True)])  # the label is checked first
@example([(_A, 1), (_B, 0), (_B, [1])])  # an unhashable label
@example([(_A, 1), (_B, True), (_B, 0, "x")])  # a bool before a three-item episode
def test_relevance_matches_the_pair_count_oracle(episodes):
    """Valid and faulty episodes alike: the same table, or the same
    exception type and message, from a list and from an iterator."""
    expected = _any_outcome(relevance_scores_by_pairs, episodes)
    assert _any_outcome(relevance_scores, episodes) == expected
    assert _any_outcome(relevance_scores, iter(episodes)) == expected


def test_relevance_of_a_sequence_in_both_classes():
    both = EventSequence(U1, ("a", "b"))
    episodes = [(both, 1), (EventSequence(U1, ("b", "a")), 0), (both, 0), (both, 1)]
    table = relevance_scores(episodes)
    assert table == relevance_scores_by_slots(episodes)
    assert (table.n_win, table.n_lose) == (2, 2)
    assert table.win_counts[0][1] == 2 and table.lose_counts[0][1] == 1


def test_cluster_common_matrices_match_per_cluster_calls():
    rng = random.Random(37)
    for _ in range(40):
        pool = _pool(rng)
        corpus = [rng.choice(pool) for _ in range(rng.randint(6, 14))]
        points = MatrixPointSet.from_sequences(corpus, J)
        clusters, _ = dbscan(points, rng.randint(0, 2), rng.randint(1, 3))
        got = cluster_common_matrices(clusters, corpus, J)
        assert got == [common_matrix([corpus[i] for i in c], J) for c in clusters]
    assert cluster_common_matrices([], corpus, J) == []
    with pytest.raises(EmptyInput):
        cluster_common_matrices([[0], []], corpus, J)


def test_encoder_error_behaviour():
    assert len(MatrixPointSet.from_sequences([], ())) == 0
    with pytest.raises(EmptyInput):
        common_matrix([], ())
    big = LabelTable(tuple(f"x{i}" for i in range(6)))
    with pytest.raises(TooManyLabels):
        hasse_cluster([EventSequence(big, ("x0",))], big.labels + ("zz",), t=100, r=1)
    # Every distinct universe is checked, not only the first: here only the
    # later sequence's universe lacks y, after a repeat and an equal copy.
    later = [
        EventSequence(U2, ("a",)),
        EventSequence(U2, ("a",)),
        EventSequence(LabelTable(U2.labels), ("y",)),
        EventSequence(U1, ("a",)),
    ]
    readers = (
        common_matrix,
        MatrixPointSet.from_sequences,
        lambda seqs, j_labels: hasse_cluster(seqs, j_labels, t=100, r=1),
    )
    for read in readers:
        with pytest.raises(LabelNotInUniverse, match="^label 'y' not in sequence universe$"):
            read(later, ("a", "y"))
    s = EventSequence(U1, ("a",))
    with pytest.raises(EmptyJ):
        seq_to_matrix(s, ())
    with pytest.raises(ValueError) as dup:
        seq_to_matrix(s, ("zz", "zz"))
    assert type(dup.value) is ValueError
    with pytest.raises(LabelNotInUniverse):
        seq_to_matrix(s, ("a", "zz"))
