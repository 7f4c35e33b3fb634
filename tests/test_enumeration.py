"""Category enumeration: counts, uniqueness, canonical order, morphisms.

Claims covered:
- graph counts match the labeled-poset sequence 1, 3, 19, 219, 4231 (130023
  at the m=6 cap);
- the catalog equals the subset-filtering build entry for entry: rows and
  flats at m <= 6, path matrices, graphs and index_of at m <= 5, and its
  flats strictly ascend (ascending int order is the canonical order);
- every enumerated graph is quasi-skeleton, path matrices are pairwise
  distinct, and reduction-of-closure fixes each graph;
- has_morphism equals direct relation inclusion (independent oracle);
- generalization up-sets match brute force, and asking for them leaves
  the shared catalog as it was;
- the packed flats are the path matrices, one bit per entry with entry
  (i, j) at bit m*m - 1 - (m*i + j), unpack to their rows, and mask
  containment on them is the morphism relation.
"""

from __future__ import annotations

import random

import pytest

from hassemine import BoolMatrix, Digraph, LabelTable, LabelMismatch, TooManyLabels
from hassemine import is_quasi_skeleton, path_matrix, r_set, transitive_closure, transitive_reduction
from hassemine.graphs import _pack_rows, _unpack_rows
from hassemine.enumeration import (
    LABELED_POSET_COUNTS,
    enumerate_category,
    generalizations,
    has_morphism,
)

from oracles import morphism_oracle, strict_orders_filtering


def _table(m):
    return LabelTable(tuple(f"e{i}" for i in range(1, m + 1)))


def _packed(orders, m):
    """Each order's row-major flattened matrix, read as a binary number."""
    reversed_row = [int(f"{row:0{m}b}"[::-1], 2) for row in range(1 << m)]
    out = []
    for rows in orders:
        flat = 0
        for row in rows:
            flat = flat << m | reversed_row[row]
        out.append(flat)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_counts_match_labeled_poset_sequence(m):
    assert len(enumerate_category(_table(m))) == LABELED_POSET_COUNTS[m]


def test_count_at_cap():
    cat = enumerate_category(_table(6))
    assert len(cat) == LABELED_POSET_COUNTS[6]
    # entry for entry against the subset-filtering build, without objects
    want = strict_orders_filtering(6)
    assert list(cat.rows) == want
    assert list(cat.flats) == _packed(want, 6)
    assert all(a < b for a, b in zip(cat.flats, cat.flats[1:]))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_catalog_matches_filtering_oracle(m):
    table = _table(m)
    cat = enumerate_category(table)
    want = strict_orders_filtering(m)
    assert list(cat.rows) == want
    assert list(cat.flats) == _packed(want, m)
    assert all(a < b for a, b in zip(cat.flats, cat.flats[1:]))
    assert cat.path_matrices == tuple(BoolMatrix(table, rows) for rows in want)
    assert cat.graphs == tuple(
        transitive_reduction(Digraph(table, rows)) for rows in want
    )
    for i, rows in enumerate(want):
        assert cat.index_of(BoolMatrix(table, rows)) == i


def test_cap_enforced():
    with pytest.raises(TooManyLabels):
        enumerate_category(_table(7))
    with pytest.raises(TooManyLabels):
        enumerate_category(LabelTable(()))


def test_m2_graphs_are_exactly_the_three():
    cat = enumerate_category(LabelTable(("A", "B")))
    arrow_sets = {frozenset(g.arrows()) for g in cat.graphs}
    assert arrow_sets == {
        frozenset(),
        frozenset({("A", "B")}),
        frozenset({("B", "A")}),
    }


def test_all_graphs_quasi_skeleton_and_unique():
    for m in (1, 2, 3, 4):
        cat = enumerate_category(_table(m))
        assert all(is_quasi_skeleton(g) for g in cat.graphs)
        keys = [pm.rows for pm in cat.path_matrices]
        assert len(set(keys)) == len(keys)
        for g, pm in zip(cat.graphs, cat.path_matrices):
            assert path_matrix(g) == pm
            assert transitive_reduction(transitive_closure(g)) == g


def test_canonical_order_is_flattened_lex():
    cat = enumerate_category(_table(4))
    keys = [pm.sort_key() for pm in cat.path_matrices]
    assert keys == sorted(keys)
    assert cat.graphs[0].arrow_count() == 0


def test_index_of_roundtrip():
    cat = enumerate_category(_table(3))
    for i, pm in enumerate(cat.path_matrices):
        assert cat.index_of(pm) == i


def test_morphism_examples():
    t = LabelTable(("A", "B", "C"))
    chain = Digraph.from_arrows(t, [("A", "B"), ("B", "C")])
    single = Digraph.from_arrows(t, [("A", "C")])
    empty = Digraph.arrowless(t)
    assert has_morphism(chain, single)
    assert has_morphism(chain, chain)
    assert not has_morphism(empty, Digraph.from_arrows(t, [("A", "B")]))


def test_morphism_label_mismatch():
    a = Digraph.arrowless(LabelTable(("A", "B")))
    b = Digraph.arrowless(LabelTable(("A", "C")))
    with pytest.raises(LabelMismatch):
        has_morphism(a, b)


def test_morphism_agrees_with_set_inclusion_oracle():
    cat = enumerate_category(_table(4))
    rng = random.Random(20260819)
    for _ in range(500):
        a = cat.graphs[rng.randrange(len(cat))]
        b = cat.graphs[rng.randrange(len(cat))]
        assert has_morphism(a, b) == morphism_oracle(r_set(a).pairs(), r_set(b).pairs())


def test_morphism_antisymmetric_on_path_matrices():
    cat = enumerate_category(_table(3))
    for i, a in enumerate(cat.graphs):
        for j, b in enumerate(cat.graphs):
            if has_morphism(a, b) and has_morphism(b, a):
                assert i == j


def test_generalizations_examples():
    t2 = LabelTable(("A", "B"))
    cat2 = enumerate_category(t2)
    empty = Digraph.arrowless(t2)
    chain = Digraph.from_arrows(t2, [("A", "B")])
    gen_empty = {frozenset(cat2.graphs[i].arrows()) for i in generalizations(cat2, empty)}
    assert gen_empty == {frozenset()}
    gen_chain = {frozenset(cat2.graphs[i].arrows()) for i in generalizations(cat2, chain)}
    assert gen_chain == {frozenset(), frozenset({("A", "B")})}


def test_generalizations_match_bruteforce_on_full_chain_m3():
    t = _table(3)
    cat = enumerate_category(t)
    chain = Digraph.from_arrows(t, [("e1", "e2"), ("e2", "e3")])
    got = set(generalizations(cat, chain))
    expected = {
        i
        for i, h in enumerate(cat.graphs)
        if morphism_oracle(r_set(chain).pairs(), r_set(h).pairs())
    }
    assert got == expected
    # every up-set contains the graph itself and the arrowless graph
    for i in range(len(cat)):
        ups = set(cat.upset(i))
        assert i in ups
        assert 0 in ups  # canonical order puts the zero matrix first


def test_flats_pack_path_matrices():
    cat = enumerate_category(_table(3))
    assert len(cat.flats) == len(cat)
    for flat, pm in zip(cat.flats, cat.path_matrices):
        assert flat == _pack_rows(pm.rows, 3)
        assert _unpack_rows(flat, 3) == pm.rows
        assert [flat >> (8 - (3 * i + j)) & 1 for i in range(3) for j in range(3)] == list(
            pm.sort_key()
        )
    for i, a in enumerate(cat.graphs):
        for j, b in enumerate(cat.graphs):
            assert (cat.flats[j] & ~cat.flats[i] == 0) == has_morphism(a, b)


def test_upsets_are_not_kept_on_the_shared_catalog():
    cat = enumerate_category(_table(3))
    before = dict(vars(cat))
    ups = [cat.upset(i) for i in range(len(cat))]
    assert vars(cat).keys() == before.keys()
    assert ups == [cat.upset(i) for i in range(len(cat))]
