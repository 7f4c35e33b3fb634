"""Graph core: reachability, closure/reduction, quasi-skeleton checks, restriction.

Claims covered:
- closure/path matrix agree with a BFS reachability oracle;
- transitive_reduction (cover relation) agrees with greedy arrow deletion;
- closure and reduction are idempotent; reduction-of-closure is the identity
  on quasi-skeleton graphs;
- R(G1) within R(G2) does not imply raw-arrow inclusion;
- restrict preserves reachability among the kept labels;
- DOT export quotes every label as one ID, whatever quotes or backslashes
  it holds.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassemine import (
    BoolMatrix,
    CyclicInput,
    Digraph,
    LabelTable,
    UnknownLabel,
    is_dag,
    is_quasi_skeleton,
    path_matrix,
    r_set,
    restrict,
    to_dot,
    transitive_closure,
    transitive_reduction,
)

from oracles import reachable_pairs_bfs, tr_arrow_deletion

ABCD = LabelTable(("A", "B", "C", "D"))


def _graph(labels, *arrows):
    return Digraph.from_arrows(LabelTable(tuple(labels)), arrows)


def _diamond():
    return _graph("ABCD", ("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))


def _strict_pairs(g):
    return path_matrix(g).pairs()


@st.composite
def random_digraphs(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    bits = draw(st.integers(0, 2 ** (m * m) - 1))
    labels = LabelTable(tuple(f"v{i}" for i in range(m)))
    rows = tuple((bits >> (m * i)) & ((1 << m) - 1) for i in range(m))
    return Digraph(labels, rows)


@st.composite
def random_dags(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    perm = draw(st.permutations(range(m)))
    labels = LabelTable(tuple(f"v{i}" for i in range(m)))
    rows = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if draw(st.booleans()):
                rows[perm[a]] |= 1 << perm[b]
    return Digraph(labels, tuple(rows))


def test_is_dag_examples():
    assert is_dag(_diamond())
    loop = Digraph(LabelTable(("A",)), (1,))
    assert not is_dag(loop)
    two_cycle = _graph("AB", ("A", "B"), ("B", "A"))
    assert not is_dag(two_cycle)


def test_closure_chain_and_arrowless():
    chain = _graph("ABC", ("A", "B"), ("B", "C"))
    closed = transitive_closure(chain)
    assert set(closed.arrows()) == {("A", "B"), ("B", "C"), ("A", "C")}
    empty = Digraph.arrowless(LabelTable(("A", "B", "C")))
    assert transitive_closure(empty) == empty


def test_closure_diamond_adds_long_pair():
    closed = transitive_closure(_diamond())
    assert closed.has_arrow("A", "D")
    assert set(closed.arrows()) == reachable_pairs_bfs("ABCD", _diamond().arrows())


@given(random_digraphs())
def test_closure_matches_bfs_oracle(g):
    assert _strict_pairs(g) == frozenset(reachable_pairs_bfs(g.labels.labels, g.arrows()))


@given(random_digraphs())
def test_closure_idempotent(g):
    once = transitive_closure(g)
    assert transitive_closure(once) == once


def test_reduction_removes_chord():
    g = _graph("ABC", ("A", "B"), ("B", "C"), ("A", "C"))
    assert set(transitive_reduction(g).arrows()) == {("A", "B"), ("B", "C")}


def test_reduction_rejects_cycles():
    with pytest.raises(CyclicInput):
        transitive_reduction(_graph("AB", ("A", "B"), ("B", "A")))


@given(random_dags())
def test_reduction_matches_arrow_deletion_oracle(g):
    reduced = transitive_reduction(g)
    assert set(reduced.arrows()) == tr_arrow_deletion(g.labels.labels, g.arrows())


@given(random_dags())
def test_reduction_idempotent_and_preserves_reachability(g):
    reduced = transitive_reduction(g)
    assert transitive_reduction(reduced) == reduced
    assert _strict_pairs(reduced) == _strict_pairs(g)


@given(random_dags())
def test_reduction_of_closure_is_quasi_skeleton(g):
    reduced = transitive_reduction(transitive_closure(g))
    assert is_quasi_skeleton(reduced)
    assert transitive_reduction(transitive_closure(reduced)) == reduced


def test_quasi_skeleton_examples():
    assert is_quasi_skeleton(_diamond())
    with_chord = _graph("ABCD", ("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("A", "D"))
    assert not is_quasi_skeleton(with_chord)
    assert not is_quasi_skeleton(_graph("AB", ("A", "B"), ("B", "A")))


def test_path_matrix_diamond_rows():
    pm = path_matrix(_diamond())
    assert pm.to_entries() == [
        [0, 1, 1, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]


def test_path_matrix_arrowless_is_zero():
    pm = path_matrix(Digraph.arrowless(ABCD))
    assert all(cell == 0 for row in pm.to_entries() for cell in row)


def test_r_set_examples():
    two = Digraph.arrowless(LabelTable(("A", "B")))
    assert r_set(two).to_entries() == [[1, 0], [0, 1]]
    chain = _graph("AB", ("A", "B"))
    assert r_set(chain).to_entries() == [[1, 1], [0, 1]]


def test_r_inclusion_does_not_force_arrow_inclusion():
    g1 = _graph("ABC", ("A", "C"))
    g2 = _graph("ABC", ("A", "B"), ("B", "C"))
    assert r_set(g1).pairs() <= r_set(g2).pairs()
    assert not set(g1.arrows()) <= set(g2.arrows())


def test_restrict_examples():
    assert set(restrict(_diamond(), ("A", "D")).arrows()) == {("A", "D")}
    assert restrict(_diamond(), "ABCD") == _diamond()
    chain = _graph("ABC", ("A", "B"), ("B", "C"))
    assert set(restrict(chain, ("A", "C")).arrows()) == {("A", "C")}


def test_restrict_unknown_label():
    with pytest.raises(UnknownLabel):
        restrict(_diamond(), ("A", "Z"))


def test_restrict_refuses_a_cycle():
    with pytest.raises(CyclicInput):
        restrict(_graph("ABC", ("A", "B"), ("B", "A")), ("A", "C"))


@given(random_dags())
def test_restrict_preserves_relation(g):
    rng = random.Random(hash(g.rows))
    labs = [lab for lab in g.labels if rng.random() < 0.6]
    qs = transitive_reduction(g)
    sub = restrict(qs, labs)
    assert is_quasi_skeleton(sub)
    kept = set(labs)
    expected = {(u, v) for u, v in r_set(qs).pairs() if u in kept and v in kept}
    assert r_set(sub).pairs() == frozenset(expected)


def test_matrix_entry_accessors():
    mat = BoolMatrix.from_entries(LabelTable(("x", "y")), [[0, 1], [0, 0]])
    assert mat.entry(0, 1) == 1
    assert mat.entry(1, 0) == 0
    assert mat.pairs() == frozenset({("x", "y")})
    assert mat.sort_key() == (0, 1, 0, 0)


def test_bad_matrix_entries_rejected():
    with pytest.raises(ValueError):
        BoolMatrix.from_entries(LabelTable(("x", "y")), [[0, 2], [0, 0]])
    with pytest.raises(ValueError):
        BoolMatrix.from_entries(LabelTable(("x", "y")), [[0, 1, 0], [0, 0, 0]])
    # a row that is not an integer is refused, not truncated to one
    for cls in (Digraph, BoolMatrix):
        for rows in ((1.5, 0), ("1", 0), (None, 0)):
            with pytest.raises(ValueError, match="is not an integer"):
                cls(LabelTable(("x", "y")), rows)
        assert cls(LabelTable(("x", "y")), (True, 0)).rows == (1, 0)
    # rows are checked against the table: each fits its columns, one per label
    with pytest.raises(ValueError, match="does not fit 2 columns"):
        BoolMatrix(LabelTable(("a", "b")), (4, 0))
    with pytest.raises(ValueError, match="expected 2 rows, got 1"):
        BoolMatrix(LabelTable(("a", "b")), (0,))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        LabelTable(("A", "A"))


def test_dot_export_lists_every_node_and_arrow():
    dot = to_dot(_graph("AB", ("A", "B")), name="pair")
    assert dot.splitlines()[0] == "digraph pair {"
    assert '  "A";' in dot
    assert '  "B";' in dot
    assert '  "A" -> "B";' in dot
    assert dot.rstrip().endswith("}")


def test_dot_ids_escape_quotes_and_backslashes():
    labels = LabelTable(('a"b', "c", "d\\", 'x"; "y" -> "z'))
    g = Digraph.from_arrows(labels, [('a"b', "c"), ("d\\", 'x"; "y" -> "z')])
    assert to_dot(g).splitlines()[1:] == [
        r'  "a\"b";',
        r'  "c";',
        r'  "d\\";',
        r'  "x\"; \"y\" -> \"z";',
        r'  "a\"b" -> "c";',
        r'  "d\\" -> "x\"; \"y\" -> \"z";',
        "}",
    ]


@settings(max_examples=30)
@given(random_dags(max_m=4))
def test_dot_roundtrip_arrow_count(g):
    dot = to_dot(g)
    assert dot.count("->") == g.arrow_count()
