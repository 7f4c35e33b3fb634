"""Sequence operations: restriction, stg/gts, consistency, flattenings.

Claims covered:
- restriction drops emptied terms and keeps order (worked examples);
- gts(stg(S)) = S on simple subset sequences with nonempty terms;
- stg output is quasi-skeleton; gts rejects non-layered graphs;
- gts, stg, is_quasi_skeleton, is_dag and transitive_reduction agree with
  the layer peel, the position-lookup stg, the shortcut search, BFS
  reachability and greedy arrow deletion, errors included, on every
  digraph on at most three labels and on seeded random ones on 4-6;
- flattening counts equal a brute-force permutation filter, and every
  flattening maps into its source graph;
- consistency matches the worked examples, is monotone under weakening,
  and all five equivalence-harness characterizations agree;
- consistency read from the order encoding agrees with the span-by-span
  oracle, errors included, on repeated events, subset sequences, cyclic
  diagrams and diagram labels outside the universe;
- an event sequence's hash, computed once at construction, agrees with
  equality, survives dataclasses.replace and pickling into another
  process, and leaves the repr unchanged.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassemine import (
    CyclicInput,
    Digraph,
    EmptyRestriction,
    EmptyTerm,
    LabelNotInUniverse,
    LabelTable,
    NotLayered,
    NotSimple,
    is_dag,
    is_quasi_skeleton,
    path_matrix,
    r_set,
    restrict,
    transitive_reduction,
)
from hassemine.enumeration import enumerate_category, has_morphism
from hassemine.sequences import (
    EventSequence,
    SubsetSequence,
    as_subset_sequence,
    flattenings,
    gts,
    is_consistent,
    restrict_sequence,
    stg,
)

from oracles import (
    check_consistency_equivalences,
    gts_peel,
    is_consistent_spans,
    is_quasi_skeleton_shortcut,
    linear_extensions_bruteforce,
    reachable_pairs_bfs,
    stg_by_position,
    tr_arrow_deletion,
)

X8 = LabelTable(tuple("ABCDEFGH"))


def _subseq(universe, *terms):
    return SubsetSequence(universe, tuple(frozenset(t) for t in terms))


def _evseq(universe, *events):
    return EventSequence(universe, tuple(events))


def test_restrict_subset_sequence_worked_example():
    s = _subseq(X8, "C", "AGH", "G", "BDH")
    out = restrict_sequence(s, "ABCD")
    assert [set(t) for t in out.terms] == [{"C"}, {"A"}, {"B", "D"}]
    assert out.universe == X8


def test_restrict_event_sequence_worked_example():
    s = _evseq(X8, "G", "B", "C", "E", "A")
    out = restrict_sequence(s, "ABCD")
    assert out.events == ("B", "C", "A")


def test_restrict_identity_when_superset():
    s = _subseq(X8, "AB", "C")
    assert restrict_sequence(s, "ABCDEFGH") == s


def test_restrict_errors():
    s = _evseq(X8, "A")
    with pytest.raises(EmptyRestriction):
        restrict_sequence(s, ())
    with pytest.raises(LabelNotInUniverse):
        restrict_sequence(s, ("Z",))


def test_sequence_validation():
    with pytest.raises(LabelNotInUniverse):
        _evseq(X8, "A", "Z")
    with pytest.raises(LabelNotInUniverse):
        _subseq(X8, "AZ")


def test_simplicity_flags():
    assert _evseq(X8, "A", "B").is_simple
    assert not _evseq(X8, "A", "A").is_simple
    assert _subseq(X8, "AB", "CD").is_simple
    assert not _subseq(X8, "AB", "BC").is_simple


def test_stg_layered_example():
    s = _subseq(X8, "A", "BC", "DE", "F")
    g = stg(s)
    assert set(g.arrows()) == {
        ("A", "B"), ("A", "C"),
        ("B", "D"), ("B", "E"), ("C", "D"), ("C", "E"),
        ("D", "F"), ("E", "F"),
    }
    assert is_quasi_skeleton(g)


def test_stg_single_term_and_path():
    assert stg(_subseq(X8, "AB")).arrow_count() == 0
    path = stg(_evseq(X8, "C", "A", "B"))
    assert set(path.arrows()) == {("C", "A"), ("A", "B")}
    assert path.labels.labels == ("C", "A", "B")


def test_stg_errors():
    with pytest.raises(NotSimple):
        stg(_subseq(X8, "AB", "BC"))
    with pytest.raises(EmptyTerm):
        stg(SubsetSequence(X8, (frozenset("A"), frozenset())))


def test_gts_examples():
    path = Digraph.from_arrows(LabelTable(("A", "B", "C")), [("A", "B"), ("B", "C")])
    assert [set(t) for t in gts(path).terms] == [{"A"}, {"B"}, {"C"}]
    diamond = Digraph.from_arrows(
        LabelTable(("A", "B", "C", "D")),
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )
    assert [set(t) for t in gts(diamond).terms] == [{"A"}, {"B", "C"}, {"D"}]


def test_gts_rejects_non_layered():
    g = Digraph.from_arrows(
        LabelTable(("A", "B", "C", "D")), [("A", "B"), ("A", "C"), ("B", "D")]
    )
    with pytest.raises(NotLayered):
        gts(g)
    cyc = Digraph.from_arrows(LabelTable(("A", "B")), [("A", "B"), ("B", "A")])
    with pytest.raises(NotLayered):
        gts(cyc)


@st.composite
def simple_subset_sequences(draw):
    labels = tuple("ABCDEFGH")[: draw(st.integers(2, 8))]
    universe = LabelTable(labels)
    pool = list(labels)
    rng_order = draw(st.permutations(pool))
    n_terms = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, len(pool) - 1), max_size=n_terms)))
    used = draw(st.integers(1, len(pool)))
    chosen = list(rng_order[:used])
    terms, prev = [], 0
    for cut in cuts + [len(chosen)]:
        piece = chosen[prev:cut]
        if piece:
            terms.append(frozenset(piece))
        prev = cut
    if not terms:
        terms = [frozenset(chosen)]
    return SubsetSequence(universe, tuple(terms))


@given(simple_subset_sequences())
def test_gts_stg_roundtrip(s):
    assert gts(stg(s)).terms == s.terms


def _result_or_error(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _relation_core_graphs(rng):
    """Every digraph on 0-3 labels, loops included, then 300 on 4-6
    labels: arbitrary rows, arrows only to later labels (acyclic), and
    layered graphs on a shuffled partition, half of them with one entry
    flipped."""
    for m in range(4):
        table = LabelTable(tuple("ABC"[:m]))
        for rows in product(range(1 << m), repeat=m):
            yield Digraph(table, rows)
    for k in range(300):
        m = rng.randint(4, 6)
        table = LabelTable(tuple("ABCDEF"[:m]))
        if k % 3 == 0:
            rows = [rng.getrandbits(m) for _ in range(m)]
        elif k % 3 == 1:
            rows = [rng.getrandbits(m) & -(2 << i) for i in range(m)]
        else:
            order = rng.sample(table.labels, m)
            cuts = sorted(rng.sample(range(1, m), rng.randint(0, m - 1)))
            terms = [order[a:b] for a, b in zip([0, *cuts], [*cuts, m])]
            layered = stg(_subseq(table, *terms))
            rows = list(Digraph.from_arrows(table, layered.arrows()).rows)
            if k % 2:
                rows[rng.randrange(m)] ^= 1 << rng.randrange(m)
        yield Digraph(table, tuple(rows))


def test_relation_core_matches_oracles():
    rng = random.Random(0)
    layered = 0
    for g in _relation_core_graphs(rng):
        labels, arrows = g.labels.labels, g.arrows()
        reach = reachable_pairs_bfs(labels, arrows)
        dag = all((v, v) not in reach for v in labels)
        assert is_dag(g) == dag
        reduced = _result_or_error(transitive_reduction, g)
        if dag:
            cover = tr_arrow_deletion(labels, arrows)
            assert set(reduced.arrows()) == cover
        else:
            message = "transitive reduction is only unique for acyclic graphs"
            assert reduced == (CyclicInput, message)
        expected = dag and set(arrows) == cover
        assert is_quasi_skeleton(g) == is_quasi_skeleton_shortcut(g) == expected
        layers = _result_or_error(gts, g)
        assert layers == _result_or_error(gts_peel, g)
        if isinstance(layers, SubsetSequence):
            layered += 1
            back = stg(layers)
            assert back == stg_by_position(layers)
            assert Digraph.from_arrows(g.labels, back.arrows()) == g
    assert layered >= 68  # the 18 on <= 3 labels and the 50 unflipped
    universe = LabelTable(tuple("ABCDEF"))
    for _ in range(300):
        terms = [rng.sample("ABCDEF", rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
        events = rng.choices("ABCDEF", k=rng.randint(0, 4))
        for s in (_subseq(universe, *terms), EventSequence(universe, tuple(events))):
            assert _result_or_error(stg, s) == _result_or_error(stg_by_position, s)


def test_consistency_worked_examples():
    claw = Digraph.from_arrows(LabelTable(("A", "B", "C")), [("A", "B"), ("A", "C")])
    ok = _subseq(X8, "D", "AE", "BC")
    bad = _subseq(X8, "D", "AB", "CE")
    assert is_consistent(ok, claw)
    assert not is_consistent(bad, claw)
    any_seq = _evseq(X8, "B", "A", "C")
    assert is_consistent(any_seq, Digraph.arrowless(LabelTable(("A", "B", "C"))))


def test_consistency_multiplicity_rule():
    w = Digraph.from_arrows(LabelTable(("A", "B")), [("A", "B")])
    assert is_consistent(_evseq(X8, "A", "A", "B"), w)
    assert not is_consistent(_evseq(X8, "A", "B", "A"), w)


def test_consistency_label_check():
    w = Digraph.from_arrows(LabelTable(("A", "Z")), [("A", "Z")])
    with pytest.raises(LabelNotInUniverse):
        is_consistent(_evseq(X8, "A"), w)


def test_flattenings_diamond():
    diamond = Digraph.from_arrows(
        LabelTable(("A", "B", "C", "D")),
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )
    flats = flattenings(diamond)
    orders = [tuple(sorted(t)[0] for t in gts(f).terms) for f in flats]
    assert orders == [("A", "B", "C", "D"), ("A", "C", "B", "D")]
    for f in flats:
        assert has_morphism(f, diamond)


def test_flattenings_arrowless_gives_all_permutations():
    t = LabelTable(("A", "B", "C"))
    flats = flattenings(Digraph.arrowless(t))
    assert len(flats) == 6


def test_flattenings_match_bruteforce_filter():
    rng = random.Random(7)
    cat = enumerate_category(LabelTable(("A", "B", "C", "D")))
    for g in rng.sample(cat.graphs, 40):
        flats = flattenings(g)
        pairs = path_matrix(g).pairs()
        brute = linear_extensions_bruteforce(g.labels.labels, pairs)
        assert len(flats) == len(brute)
        got_orders = {
            tuple(next(iter(t)) for t in gts(f).terms) for f in flats
        }
        assert got_orders == set(brute)


@settings(max_examples=60)
@given(st.data())
def test_consistency_monotone_under_weakening(data):
    cat = enumerate_category(LabelTable(("A", "B", "C")))
    idx = data.draw(st.integers(0, len(cat) - 1))
    w = cat.graphs[idx]
    ups = cat.upset(idx)
    weaker = cat.graphs[data.draw(st.sampled_from(ups))]
    events = data.draw(st.permutations(("A", "B", "C")))
    k = data.draw(st.integers(0, 3))
    s = _evseq(X8, *events[:k])
    if is_consistent(s, w):
        assert is_consistent(s, weaker)


@st.composite
def sequences_and_diagrams(draw):
    """A sequence (events with repeats, or subsets) over a universe of 1..6
    labels, and a diagram on labels drawn from the universe or, sometimes,
    from outside it; its arrows are arbitrary, so cycles and loops occur."""
    labels = tuple("ABCDEF")[: draw(st.integers(1, 6))]
    universe = LabelTable(labels)
    if draw(st.booleans()):
        events = draw(st.lists(st.sampled_from(labels), max_size=9))
        s = EventSequence(universe, tuple(events))
    else:
        terms = draw(st.lists(st.frozensets(st.sampled_from(labels)), max_size=5))
        s = SubsetSequence(universe, tuple(terms))
    pool = labels + ("Y", "Z") if draw(st.integers(0, 4)) == 0 else labels
    w_labels = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6))
    k = len(w_labels)
    rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=k))
    return s, Digraph(LabelTable(tuple(w_labels)), tuple(rows))


def _outcome(predicate, s, w):
    try:
        return predicate(s, w)
    except LabelNotInUniverse as exc:
        return str(exc)


@settings(max_examples=400)
@given(sequences_and_diagrams())
def test_consistency_matches_span_oracle(case):
    s, w = case
    assert _outcome(is_consistent, s, w) == _outcome(is_consistent_spans, s, w)


def test_cyclic_diagram_is_inconsistent_where_its_cycle_occurs():
    cyc = Digraph.from_arrows(LabelTable(("A", "B", "C")), [("A", "B"), ("B", "A")])
    assert not is_consistent(_evseq(X8, "A"), cyc)
    assert not is_consistent(_subseq(X8, "D", "B"), cyc)
    assert is_consistent(_evseq(X8, "C", "D", "C"), cyc)
    loop = Digraph(LabelTable(("C",)), (1,))
    assert not is_consistent(_evseq(X8, "C"), loop)
    assert is_consistent(_evseq(X8, "A"), loop)


def test_equivalence_harness_exhaustive_small():
    universe = LabelTable(("A", "B", "C"))
    sequences = []
    for k in range(4):
        for subset in permutations(universe.labels, k):
            sequences.append(EventSequence(universe, subset))
    graphs = []
    for size in (1, 2, 3):
        for verts in permutations(universe.labels, size):
            if list(verts) != sorted(verts):
                continue
            graphs.extend(enumerate_category(LabelTable(verts)).graphs)
    assert len(sequences) == 16
    for s in sequences:
        for w in graphs:
            assert check_consistency_equivalences(s, w)


def test_equivalence_harness_requires_simple():
    with pytest.raises(NotSimple):
        check_consistency_equivalences(
            _evseq(X8, "A", "A"), Digraph.arrowless(LabelTable(("A",)))
        )


def test_factorization_through_restriction():
    # any morphism P -> G with G on a label subset factors through P's restriction
    rng = random.Random(11)
    universe = tuple("ABCDE")
    for _ in range(200):
        perm = list(universe)
        rng.shuffle(perm)
        p = stg(EventSequence(LabelTable(tuple(universe)), tuple(perm)))
        sub = tuple(sorted(rng.sample(universe, rng.randint(1, 5))))
        cat = enumerate_category(LabelTable(sub))
        g = cat.graphs[rng.randrange(len(cat))]
        p_pairs = r_set(p).pairs()
        g_pairs = r_set(g).pairs()
        if not g_pairs <= p_pairs:
            continue
        p_i_pairs = r_set(restrict(p, sub)).pairs()
        assert g_pairs <= p_i_pairs <= p_pairs


def test_event_sequence_hash_agrees_with_equality():
    table = LabelTable(("a", "b", "c"))
    s = EventSequence(table, ["a", "b"])
    t = EventSequence(LabelTable(("a", "b", "c")), ("a", "b"))
    assert s is not t and s == t and hash(s) == hash(t)
    assert len({s, t}) == 1
    assert s != EventSequence(table, ("b", "a"))
    assert s != EventSequence(LabelTable(("a", "b", "d")), ("a", "b"))
    assert repr(s) == (
        "EventSequence(universe=LabelTable(labels=('a', 'b', 'c')), events=('a', 'b'))"
    )
    moved = dataclasses.replace(s, events=("c",))
    fresh = EventSequence(table, ("c",))
    assert moved == fresh and hash(moved) == hash(fresh)
    assert pickle.loads(pickle.dumps(s)) == s


def test_event_sequence_hash_is_recomputed_after_unpickling():
    # string hashes depend on the process's hash seed, so a sequence
    # pickled in another process must not bring its hash along
    code = (
        "import pickle, sys\n"
        "from hassemine import EventSequence, LabelTable\n"
        "s = EventSequence(LabelTable(('a', 'b')), ('b', 'a'))\n"
        "sys.stdout.buffer.write(pickle.dumps(s))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=src)
    data = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    s = pickle.loads(data)
    fresh = EventSequence(LabelTable(("a", "b")), ("b", "a"))
    assert s == fresh and hash(s) == hash(fresh)
    assert s in {fresh}
