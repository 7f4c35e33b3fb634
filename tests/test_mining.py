"""Order-mining algorithms: per-sequence matrices, common matrices, Hasse
clustering, and relevance scores.

Claims covered:
- the per-sequence order matrix follows the strict max/min rule on worked
  examples and is always transitive;
- common-matrix entries are witnessed somewhere and contradicted nowhere
  (replay check), and need not be transitive;
- Hasse clustering reproduces the worked outputs in both modes, agrees
  with a brute-force reference on random small inputs, and satisfies its
  coverage, size, consistency, and minimality invariants;
- both modes run one local swap test on each minimal group combination
  and no global dominance filter; minimal mode outputs what the global
  filter over all of its candidates did, which the oracles check against
  the pairwise filter; on all 120 linear orders of five labels at t = 1
  and t = 5 it gives the output that filter gave, pinned by digest;
- minimal mode, with one candidate (the group tops) per minimal group
  combination, outputs what taking every member of each group did;
- minimal mode finds its groups as intersections of the distinct sequence
  matrices, builds no catalog, and outputs what the catalog scan did;
- the fold over the column masks finds the groups that closure extension
  found, and when every linear order occurs the group tops are exactly
  the strict orders;
- literal mode reads the same groups and builds no catalog, and outputs
  what the catalog scan with every pick and the filter did; at t = 0 it
  outputs every linear order on its own;
- the critical-extension search with the gain bound yields exactly the
  minimal group combinations that the size-by-size search over every
  combination of 1..r group masks found, and that the search without the
  bound over the ascending masks found, whatever order the masks come
  in; its byte tables count coverage as a plain bit sum does;
- the swap test, which asks that search whether at most k sub-masks
  meet, agrees with the scan over every k of the maximal sub-masks, and
  on the 30 ordered pairs of six labels it returns at once for any r;
- the combination search stops at the number of groups and at the number
  of distinct sequence matrices, whatever r is;
- relevance scores are infinite exactly when the losing side has no
  witness, invert under class swap, and list rows most-relevant-first,
  ties in label-position order as the rank-keyed sort oracle lists them;
- relevance scoring takes a class label only as the int 0 or 1, as the
  parser does, refuses an unhashable one with the same ValueError, takes
  episodes as 2-item lists, and raises the first fault among episodes.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hassemine import (
    BoolMatrix,
    Digraph,
    EmptyInput,
    EmptyJ,
    InvalidMode,
    InvalidThreshold,
    LabelMismatch,
    LabelNotInUniverse,
    LabelTable,
    MissingClass,
    TooManyLabels,
)
from hassemine import mining
from hassemine.enumeration import _strict_orders, enumerate_category
from hassemine.game import corrupt, simulate, v2_config
from hassemine.graphs import _pack_rows
from hassemine.mining import (
    common_matrix,
    hasse_cluster,
    relevance_scores,
    seq_to_matrix,
)
from hassemine.sequences import EventSequence, SubsetSequence, is_consistent

import oracles
from oracles import (
    closure_groups_lcm,
    dominance_filter_pairwise,
    hasse_cluster_bruteforce,
    hasse_cluster_catalog_tops,
    hasse_cluster_closure_undominated,
    hasse_cluster_every_pick,
    hasse_cluster_literal_catalog,
    minimal_combinations_ascending,
    minimal_combinations_by_size,
    strict_orders_bruteforce,
    strict_orders_filtering,
    swap_meets_by_picks,
)

E_UNIVERSE = LabelTable(("e1", "e2", "e5", "e6", "e11"))
J4 = ("e1", "e2", "e5", "e6")
J5 = ("e1", "e2", "e5", "e6", "e11")


def ev(*events):
    return EventSequence(E_UNIVERSE, tuple(events))


FLATTENING_SEQS = [
    ev("e1", "e2", "e5", "e6"),
    ev("e2", "e1", "e5", "e6"),
    ev("e2", "e5", "e1", "e6"),
]

WINNING_TYPES = FLATTENING_SEQS + [
    ev("e2", "e5", "e11"),
    ev("e1", "e2", "e5", "e11"),
    ev("e2", "e1", "e5", "e11"),
    ev("e2", "e5", "e1", "e11"),
]


def test_seq_to_matrix_worked_example():
    mat = seq_to_matrix(ev("e2", "e5", "e1", "e6"), J4)
    assert mat.to_entries() == [
        [0, 0, 0, 1],
        [1, 0, 1, 1],
        [1, 0, 0, 1],
        [0, 0, 0, 0],
    ]


def test_seq_to_matrix_empty_sequence():
    assert seq_to_matrix(ev(), J4).rows == (0, 0, 0, 0)


def test_seq_to_matrix_repeats_cancel():
    mat = seq_to_matrix(ev("e1", "e2", "e1"), ("e1", "e2"))
    assert mat.rows == (0, 0)


def test_seq_to_matrix_subset_sequence():
    s = SubsetSequence(
        E_UNIVERSE,
        (frozenset(("e2",)), frozenset(("e1", "e5")), frozenset(("e6",))),
    )
    mat = seq_to_matrix(s, J4)
    assert mat.to_entries() == [
        [0, 0, 0, 1],
        [1, 0, 1, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]


def test_seq_to_matrix_validation():
    with pytest.raises(EmptyJ):
        seq_to_matrix(ev("e1"), ())
    with pytest.raises(LabelNotInUniverse):
        seq_to_matrix(ev("e1"), ("e1", "zz"))
    with pytest.raises(ValueError):
        seq_to_matrix(ev("e1"), ("e1", "e1"))


@given(st.data())
def test_seq_to_matrix_transitive(data):
    alphabet = tuple("abcdef")[: data.draw(st.integers(2, 6))]
    universe = LabelTable(alphabet)
    events = data.draw(st.lists(st.sampled_from(alphabet), max_size=12))
    k = data.draw(st.integers(1, len(alphabet)))
    j = tuple(data.draw(st.permutations(alphabet)))[:k]
    ent = seq_to_matrix(EventSequence(universe, tuple(events)), j).to_entries()
    n = len(ent)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if ent[a][b] and ent[b][c]:
                    assert ent[a][c]


def test_common_matrix_single_sequence():
    mat = common_matrix([ev("e1", "e2")], ("e1", "e2"))
    assert mat.to_entries() == [[0, 1], [0, 0]]
    assert mat == seq_to_matrix(ev("e1", "e2"), ("e1", "e2"))


def test_common_matrix_conflict_vetoes():
    mat = common_matrix([ev("e1", "e2"), ev("e2", "e1")], ("e1", "e2"))
    assert mat.rows == (0, 0)


def test_common_matrix_partial_occurrence():
    mat = common_matrix([ev("e1", "e2"), ev("e1")], ("e1", "e2"))
    assert mat.to_entries() == [[0, 1], [0, 0]]


def test_common_matrix_of_flattenings():
    mat = common_matrix(FLATTENING_SEQS, J4)
    assert mat.to_entries() == [
        [0, 0, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]


def test_common_matrix_can_be_cyclic():
    seqs = [ev("e1", "e2"), ev("e2", "e5"), ev("e5", "e1")]
    pairs = common_matrix(seqs, ("e1", "e2", "e5")).pairs()
    assert pairs == {("e1", "e2"), ("e2", "e5"), ("e5", "e1")}


def test_common_matrix_empty_input():
    with pytest.raises(EmptyInput):
        common_matrix([], ("e1",))


@given(st.data())
def test_common_matrix_replay(data):
    alphabet = tuple("abcd")
    universe = LabelTable(alphabet)
    seqs = [
        EventSequence(
            universe, tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=8)))
        )
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    mat = common_matrix(seqs, alphabet)
    for a, b in mat.pairs():
        witnessed = False
        for s in seqs:
            pos = s.positions()
            pa, pb = pos.get(a), pos.get(b)
            if pa and pb:
                assert max(pa) < min(pb)
                witnessed = True
        assert witnessed


def test_hasse_cluster_flattenings():
    out = hasse_cluster(FLATTENING_SEQS, J4, t=100, r=1)
    expected = BoolMatrix.from_entries(
        LabelTable(J4),
        [[0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]],
    )
    assert out.clusters == ((expected,),)
    assert out.covered == (3,)
    assert out.total == 3
    assert out.coverage_fraction(0) == 1


def test_hasse_cluster_single_sequence():
    out = hasse_cluster([ev("e1", "e2")], ("e1", "e2"), t=100, r=1)
    assert out.clusters == ((seq_to_matrix(ev("e1", "e2"), ("e1", "e2")),),)


def test_hasse_cluster_seven_types():
    out = hasse_cluster(WINNING_TYPES, J5, t=100, r=2)
    table = LabelTable(J5)
    chain_to_coin = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    door_order = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 1, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    assert out.clusters == ((chain_to_coin, door_order),)
    assert out.covered == (7,)
    assert out.mode == "minimal"


def test_hasse_cluster_partial_coverers_pair_up():
    # neither chain covers both sequences alone, so the minimal candidates
    # include the chain pair, which dominates every singleton (both modes)
    universe = LabelTable(("A", "B", "C"))
    seqs = [
        EventSequence(universe, ("A", "B", "C")),
        EventSequence(universe, ("A", "C", "B")),
    ]
    j = ("A", "B", "C")
    expected = {
        frozenset({("A", "B"), ("A", "C"), ("B", "C")}),
        frozenset({("A", "B"), ("A", "C"), ("C", "B")}),
    }
    for mode in ("minimal", "literal"):
        out = hasse_cluster(seqs, j, t=100, r=2, mode=mode)
        assert len(out.clusters) == 1
        assert {mx.pairs() for mx in out.clusters[0]} == expected
        assert out.covered == (2,)


def test_hasse_cluster_mode_divergence():
    # literal mode keeps the pair {arrowless, X}, which trades mutual
    # domination arrows with {arrowless} and empties the source set;
    # minimal mode prunes those pairs and keeps the arrowless singleton
    universe = LabelTable(("A", "B"))
    seqs = [
        EventSequence(universe, ("A", "A")),
        EventSequence(universe, ("B", "B", "B")),
    ]
    minimal = hasse_cluster(seqs, ("A", "B"), t=100, r=2, mode="minimal")
    arrowless = BoolMatrix.from_entries(universe, [[0, 0], [0, 0]])
    assert minimal.clusters == ((arrowless,),)
    assert minimal.covered == (2,)

    literal = hasse_cluster(seqs, ("A", "B"), t=100, r=2, mode="literal")
    assert literal.clusters == ()


def test_hasse_cluster_builds_no_catalog_objects():
    # neither mode builds a catalog, at m = 5 or at m = 6
    universe = LabelTable(("a", "b", "c", "d", "e"))
    forward = EventSequence(universe, universe.labels)
    backward = EventSequence(universe, universe.labels[::-1])
    six = LabelTable(universe.labels + ("f",))
    enumerate_category.cache_clear()
    out = hasse_cluster([forward, backward], universe.labels, t=50, r=1)
    literal = hasse_cluster([forward, backward], universe.labels, t=50, r=1, mode="literal")
    for mode in ("minimal", "literal"):
        for r in (1, 2):
            hasse_cluster(
                [EventSequence(six, six.labels), EventSequence(six, ("b", "a", "f"))],
                six.labels,
                t=90,
                r=r,
                mode=mode,
            )
    assert enumerate_category.cache_info().currsize == 0
    # each chain covers half, and every other graph under one generalizes it
    orders = strict_orders_filtering(5)
    chains = sorted(
        orders.index(seq_to_matrix(s, universe.labels).rows) for s in (forward, backward)
    )
    assert out.clusters == tuple((BoolMatrix(universe, orders[i]),) for i in chains)
    assert out.covered == (1, 1)
    assert literal.clusters == out.clusters


def test_hasse_cluster_zero_threshold_minimal_is_empty():
    out = hasse_cluster([ev("e1", "e2")], ("e1", "e2"), t=0, r=1)
    assert out.clusters == ()
    assert out.covered == ()


def test_hasse_cluster_multiplicities_count():
    universe = LabelTable(("A", "B"))
    s_ab = EventSequence(universe, ("A", "B"))
    s_ba = EventSequence(universe, ("B", "A"))
    out = hasse_cluster([s_ab, s_ab, s_ab, s_ba], ("A", "B"), t=75, r=1)
    arrow = BoolMatrix.from_entries(universe, [[0, 1], [0, 0]])
    assert out.clusters == ((arrow,),)
    assert out.covered == (3,)
    assert out.total == 4


def test_hasse_cluster_validation():
    seqs = [ev("e1", "e2")]
    with pytest.raises(EmptyInput):
        hasse_cluster([], ("e1",), t=100, r=1)
    with pytest.raises(EmptyJ):
        hasse_cluster(seqs, (), t=100, r=1)
    with pytest.raises(InvalidThreshold):
        hasse_cluster(seqs, ("e1",), t=-1, r=1)
    with pytest.raises(InvalidThreshold):
        hasse_cluster(seqs, ("e1",), t=100.5, r=1)
    # bools are refused for t as for r, though Fraction reads True as 1
    for flag in (True, False):
        with pytest.raises(InvalidThreshold, match="is not a number"):
            hasse_cluster(seqs, ("e1",), t=flag, r=1)
        with pytest.raises(InvalidThreshold):
            hasse_cluster(seqs, ("e1",), t=100, r=flag)
    with pytest.raises(InvalidThreshold):
        hasse_cluster(seqs, ("e1",), t=100, r=0)
    with pytest.raises(InvalidMode):
        hasse_cluster(seqs, ("e1",), t=100, r=1, mode="strict")
    big = LabelTable(tuple(f"x{i}" for i in range(7)))
    with pytest.raises(TooManyLabels):
        hasse_cluster([EventSequence(big, ("x0",))], big.labels, t=100, r=1)


def test_strict_order_oracle_count():
    assert len(strict_orders_bruteforce(("a", "b", "c"))) == 19


def _random_workloads(seed, trials):
    rng = random.Random(seed)
    for trial in range(trials):
        j = ("a", "b") if trial % 2 else ("a", "b", "c")
        universe = LabelTable(j + ("x",))
        raw = []
        for _ in range(rng.randint(1, 4)):
            length = rng.randint(0, 4)
            raw.append(tuple(rng.choice(universe.labels) for _ in range(length)))
        seqs = [EventSequence(universe, events) for events in raw]
        t = rng.choice((0, 30, 50, 100, 66.5))
        r = rng.randint(1, 2)
        mode = rng.choice(("minimal", "literal"))
        yield raw, seqs, j, t, r, mode


def test_hasse_cluster_matches_bruteforce():
    workloads = list(_random_workloads(3, 40))
    # literal mode scans the whole catalog: a few m = 4 cases at r = 1
    rng = random.Random(4)
    j = ("a", "b", "c", "d")
    universe = LabelTable(j + ("x",))
    for t in (0, 50, 90, 100):
        raw = [
            tuple(rng.choice(universe.labels) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 4))
        ]
        seqs = [EventSequence(universe, events) for events in raw]
        workloads.append((raw, seqs, j, t, 1, "literal"))
    for raw, seqs, j, t, r, mode in workloads:
        out = hasse_cluster(seqs, j, t, r, mode)
        got = {frozenset(mx.pairs() for mx in cluster) for cluster in out.clusters}
        want = hasse_cluster_bruteforce(raw, j, t, r, mode)
        assert got == want, (raw, j, t, r, mode)


def test_hasse_cluster_invariants():
    for raw, seqs, j, t, r, mode in _random_workloads(17, 30):
        out = hasse_cluster(seqs, j, t, r, mode)
        threshold = Fraction(str(t))
        seq_mats = [seq_to_matrix(s, j) for s in seqs]
        for pos, cluster in enumerate(out.clusters):
            assert 1 <= len(cluster) <= r
            covered_ids = set()
            for i, mat in enumerate(seq_mats):
                for member in cluster:
                    if member.pairs() <= mat.pairs():
                        covered_ids.add(i)
                        assert is_consistent(seqs[i], Digraph(member.labels, member.rows))
            assert len(covered_ids) == out.covered[pos]
            assert Fraction(len(covered_ids)) * 100 >= threshold * len(seqs)
            if mode == "minimal" and len(cluster) > 1:
                for drop in range(len(cluster)):
                    sub = [m for q, m in enumerate(cluster) if q != drop]
                    sub_cov = sum(
                        1
                        for mat in seq_mats
                        if any(member.pairs() <= mat.pairs() for member in sub)
                    )
                    assert Fraction(sub_cov) * 100 < threshold * len(seqs)


def _oracle_checked_filter(monkeypatch) -> list[int]:
    """Make the oracles check each call of their dominance filter against
    the pairwise filter; returns the list of candidate counts seen."""
    fast = oracles._undominated
    seen = []

    def checked(candidates):
        assert all(len(set(cand)) == len(cand) for cand in candidates)
        assert len(set(map(frozenset, candidates))) == len(candidates)
        kept = fast(candidates)
        assert kept == dominance_filter_pairwise(candidates)
        seen.append(len(candidates))
        return kept

    monkeypatch.setattr(oracles, "_undominated", checked)
    return seen


def test_dominance_filter_matches_pairwise_oracle(monkeypatch):
    # hasse_cluster runs no global dominance filter, so each cell runs
    # through the oracle of its mode, which does, and hasse_cluster must
    # agree with that oracle. At t=0 the literal oracle takes every pair of
    # the 219 orders on 4 labels as a candidate (24090), too many for the
    # O(C^2) pairwise check here; that one cell runs at r=1 only.
    seen = _oracle_checked_filter(monkeypatch)
    oracle = {
        "minimal": hasse_cluster_closure_undominated,
        "literal": hasse_cluster_literal_catalog,
    }
    rng = random.Random(11)
    for m in (2, 3, 4):
        j = ("a", "b", "c", "d")[:m]
        universe = LabelTable(j + ("x",))
        for mode, r_max in (("minimal", 3), ("literal", 2)):
            for r in range(1, r_max + 1):
                for t in (0, 25, 50, 75, 90, 100):
                    if (mode, m, r, t) == ("literal", 4, 2, 0):
                        continue
                    seqs = [
                        EventSequence(
                            universe,
                            tuple(rng.choice(universe.labels) for _ in range(rng.randint(0, 5))),
                        )
                        for _ in range(rng.randint(1, 8))
                    ]
                    out = hasse_cluster(seqs, j, t, r, mode)
                    want = oracle[mode](seqs, j, t, r)
                    assert _as_flats(out, m) == want, (seqs, t, r, mode)
    # one oracle filter call per cell
    assert len(seen) == 89
    assert max(seen) > 500


def test_dominance_filter_paper_shaped_r3(monkeypatch):
    # The swap test sees each minimal group combination once, and keeps
    # exactly the ones that are output.
    fast = mining._swap_meets
    verdicts = []

    def counted(combo, *args):
        verdicts.append(fast(combo, *args))
        return verdicts[-1]

    monkeypatch.setattr(mining, "_swap_meets", counted)
    episodes = corrupt(simulate(v2_config(seed=0), 30, "scripted-mixed"), 0.10, 0)
    seqs = [ep.events for ep in episodes]
    out = hasse_cluster(seqs, J5, t=95, r=3)
    assert len(verdicts) == 9
    assert verdicts.count(False) == len(out.clusters) == 2
    assert _as_flats(out, 5) == hasse_cluster_closure_undominated(seqs, J5, 95, 3)


def _small_corpus(rng, j, most):
    """1..10 sequences over j plus one outside label, drawn from a pool of
    at most six, so that repeats are common. Each pooled sequence is a
    shuffle of 1..most distinct labels, sometimes with one j label again."""
    universe = LabelTable(j + ("x",))

    def draw():
        events = rng.sample(universe.labels, rng.randint(1, most))
        if rng.random() < 0.3:
            events.insert(rng.randrange(len(events) + 1), rng.choice(j))
        return EventSequence(universe, tuple(events))

    pool = [draw() for _ in range(rng.randint(1, 6))]
    return [rng.choice(pool) for _ in range(rng.randint(1, 10))]


def _as_flats(out, m):
    return [
        (tuple(_pack_rows(mx.rows, m) for mx in cluster), covered)
        for cluster, covered in zip(out.clusters, out.covered)
    ]


def test_minimal_tops_match_every_pick_oracle():
    rng = random.Random(5)
    for m in (2, 3, 4):
        j = ("a", "b", "c", "d")[:m]
        for r in (1, 2, 3):
            for _ in range(4):
                seqs = _small_corpus(rng, j, m + 1)
                for t in range(0, 101, 10):
                    out = hasse_cluster(seqs, j, t, r)
                    assert _as_flats(out, m) == hasse_cluster_every_pick(seqs, j, t, r)
    # At m = 5 a group can hold hundreds of orders, and the oracle takes
    # their product; sequences of at most four labels keep it small.
    j = ("a", "b", "c", "d", "e")
    for _ in range(30):
        seqs = _small_corpus(rng, j, 4)
        t, r = rng.randrange(0, 101, 5), rng.randint(1, 4)
        out = hasse_cluster(seqs, j, t, r)
        assert _as_flats(out, 5) == hasse_cluster_every_pick(seqs, j, t, r)


def test_minimal_closure_matches_catalog_tops_oracle():
    rng = random.Random(12)
    for m in (2, 3, 4):
        j = ("a", "b", "c", "d")[:m]
        for r in (1, 2, 3):
            for _ in range(3):
                seqs = _small_corpus(rng, j, m + 1)
                for t in range(0, 101, 10):
                    out = hasse_cluster(seqs, j, t, r)
                    assert _as_flats(out, m) == hasse_cluster_catalog_tops(seqs, j, t, r)
    for m, trials in ((5, 12), (6, 3)):
        j = ("a", "b", "c", "d", "e", "f")[:m]
        for _ in range(trials):
            seqs = _small_corpus(rng, j, m + 1)
            t, r = rng.randrange(0, 101, 5), rng.randint(1, 3)
            out = hasse_cluster(seqs, j, t, r)
            assert _as_flats(out, m) == hasse_cluster_catalog_tops(seqs, j, t, r)
    # Every linear order once: then every strict order is a group top. At
    # m = 5 and low t, thousands of tops meet the threshold and the
    # dominance filter alone takes seconds on either side.
    for m, thresholds in ((4, (1, 25, 50)), (5, (25, 50))):
        j = ("a", "b", "c", "d", "e")[:m]
        universe = LabelTable(j)
        seqs = [EventSequence(universe, p) for p in permutations(j)]
        for t in thresholds:
            out = hasse_cluster(seqs, j, t, 1)
            assert _as_flats(out, m) == hasse_cluster_catalog_tops(seqs, j, t, 1)


LITERAL_THRESHOLDS = (*range(0, 101, 10), 1, 33.3, 66.7, 99)


def test_minimal_swap_test_matches_closure_undominated_oracle():
    # Every threshold of the grid and every r <= 4 on each small corpus.
    rng = random.Random(16)
    for m in (1, 2, 3, 4):
        j = ("a", "b", "c", "d")[:m]
        for r in (1, 2, 3, 4):
            for _ in range(2):
                seqs = _small_corpus(rng, j, m + 1)
                for t in LITERAL_THRESHOLDS:
                    out = hasse_cluster(seqs, j, t, r)
                    assert _as_flats(out, m) == hasse_cluster_closure_undominated(seqs, j, t, r)
    # Every linear order once: then every strict order is a group top, and
    # at low t thousands of candidates meet the threshold.
    for m, r_max, t_min in ((2, 4, 0), (3, 4, 0), (4, 1, 0), (4, 2, 50)):
        j = ("a", "b", "c", "d")[:m]
        universe = LabelTable(j)
        seqs = [EventSequence(universe, p) for p in permutations(j)]
        for r in range(1, r_max + 1):
            for t in LITERAL_THRESHOLDS:
                if t >= t_min:
                    out = hasse_cluster(seqs, j, t, r)
                    want = hasse_cluster_closure_undominated(seqs, j, t, r)
                    assert _as_flats(out, m) == want, (m, t, r)
    # Near-linear sequences on 5 and 6 labels, some with a repeated label
    # (a partial-order matrix): many groups, and swaps of up to four
    # sub-masks.
    for m, trials, most in ((5, 12, 12), (6, 8, 7)):
        j = ("a", "b", "c", "d", "e", "f")[:m]
        universe = LabelTable(j)
        for _ in range(trials):
            seqs = []
            for _ in range(rng.randint(3, most)):
                events = rng.sample(j, rng.randint(m - 2, m))
                if rng.random() < 0.3:
                    events.insert(rng.randrange(len(events) + 1), rng.choice(j))
                seqs.append(EventSequence(universe, tuple(events)))
            t, r = rng.choice((5, 10, 25, 50, 66.7, 90)), rng.randint(1, 4)
            out = hasse_cluster(seqs, j, t, r)
            assert _as_flats(out, m) == hasse_cluster_closure_undominated(seqs, j, t, r)


def test_minimal_every_linear_order_at_low_threshold():
    # All 120 linear orders of five labels at r = 1: thousands of group
    # combinations meet t, and a global dominance filter over them took
    # seconds. The digests are of the output computed by that filter.
    j = ("a", "b", "c", "d", "e")
    universe = LabelTable(j)
    seqs = [EventSequence(universe, p) for p in permutations(j)]
    for t, sets, digest in (
        (1, 240, "c9718eb36f74e99aa3961fd9c638c0986ff518950639dab5cd21fdf1b5d1cd2b"),
        (5, 300, "e7fef2fda23a28716656d8d3ad101830fef30b791f2f41f9383facec492b47ba"),
    ):
        out = hasse_cluster(seqs, j, t, 1)
        flats = _as_flats(out, 5)
        assert len(flats) == sets
        assert hashlib.sha256(repr(flats).encode()).hexdigest() == digest


def test_literal_matches_catalog_oracle():
    rng = random.Random(14)
    for m in (1, 2, 3, 4):
        j = ("a", "b", "c", "d")[:m]
        for r in (1, 2, 3) if m <= 3 else (1, 2):
            for _ in range(3):
                seqs = _small_corpus(rng, j, m + 1)
                for t in LITERAL_THRESHOLDS:
                    if m == 4 and r == 2 and t < 50:
                        continue
                    out = hasse_cluster(seqs, j, t, r, "literal")
                    assert _as_flats(out, m) == hasse_cluster_literal_catalog(seqs, j, t, r)
    # Every linear order once: then every strict order is a group top.
    for m, r_max, t_min in ((3, 3, 0), (4, 2, 50)):
        j = ("a", "b", "c", "d")[:m]
        universe = LabelTable(j)
        seqs = [EventSequence(universe, p) for p in permutations(j)]
        for r in range(1, r_max + 1):
            for t in LITERAL_THRESHOLDS:
                if t >= t_min:
                    out = hasse_cluster(seqs, j, t, r, "literal")
                    assert _as_flats(out, m) == hasse_cluster_literal_catalog(seqs, j, t, r)
    # At m = 6 the group under a sequence of all six labels can hold
    # thousands of orders, and the oracle's dominance filter over them
    # alone takes seconds; sequences of at most four labels keep it small.
    for m, most, trials in ((5, 6, 4), (6, 4, 2)):
        j = ("a", "b", "c", "d", "e", "f")[:m]
        for _ in range(trials):
            seqs = _small_corpus(rng, j, most)
            t = rng.choice((50, 66.7, 90, 100))
            out = hasse_cluster(seqs, j, t, 1, "literal")
            assert _as_flats(out, m) == hasse_cluster_literal_catalog(seqs, j, t, 1)


def test_literal_zero_threshold_is_every_linear_order():
    # Six random sequences on four labels, where at t = 0, r = 2 the
    # catalog search took every pair of the 219 orders as a candidate, and
    # two copies of one linear order, so that one coverage is not 0.
    rng = random.Random(6)
    j = ("a", "b", "c", "d")
    universe = LabelTable(j + ("x",))
    seqs = [
        EventSequence(
            universe, tuple(rng.choice(universe.labels) for _ in range(rng.randint(0, 6)))
        )
        for _ in range(6)
    ] + [EventSequence(universe, ("b", "a", "d", "c"))] * 2
    mats = [seq_to_matrix(s, j) for s in seqs]
    linear = sorted(
        _pack_rows(seq_to_matrix(EventSequence(universe, p), j).rows, 4)
        for p in permutations(j)
    )
    expected = [
        ((flat,), sum(1 for mx in mats if _pack_rows(mx.rows, 4) == flat))
        for flat in linear
    ]
    assert len(expected) == 24
    assert max(cov for _, cov in expected) >= 2
    for r in (1, 2, 3):
        out = hasse_cluster(seqs, j, 0, r, "literal")
        assert _as_flats(out, 4) == expected
    assert hasse_cluster_literal_catalog(seqs, j, 0, 1) == expected


def test_size_cap_beyond_the_groups():
    # matrices {A<B}, {B<A} and the arrowless one: three groups, the
    # arrowless graph under all three and each chain under its own, so no
    # combination has 4 members
    universe = LabelTable(("A", "B", "C"))
    seqs = [
        EventSequence(universe, ("A", "B")),
        EventSequence(universe, ("B", "A", "C")),
        EventSequence(universe, ("A", "B", "A")),
    ]
    for mode in ("minimal", "literal"):
        for t in (10, 50, 100):
            huge = hasse_cluster(seqs, ("A", "B"), t, 10**9, mode)
            four = hasse_cluster(seqs, ("A", "B"), t, 4, mode)
            assert huge.clusters == four.clusters
            assert huge.covered == four.covered
            assert huge.r == 10**9


def test_size_cap_beyond_the_distinct_matrices():
    # 14 episodes, 30% corrupted: 10 distinct matrices and dozens of
    # groups. Each member of a minimal combination covers a matrix that no
    # other member does, so no combination holds more than 10 members;
    # searching every combination of up to r group masks never returned
    # at r = 10**9. The digest is of the r = 6 output of that search.
    episodes = corrupt(simulate(v2_config(seed=0), 14, "scripted-mixed"), 0.3, 1)
    seqs = [ep.events for ep in episodes]
    assert len({seq_to_matrix(s, J5) for s in seqs}) == 10
    six = _as_flats(hasse_cluster(seqs, J5, 90, 6), 5)
    digest = "6602584351509948ac2eb6ebd3631aaf655b43d43ce3ba198e4ce4e372dddf74"
    assert hashlib.sha256(repr(six).encode()).hexdigest() == digest
    assert _as_flats(hasse_cluster(seqs, J5, 90, 10**9), 5) == six


def _spied_search(monkeypatch) -> list:
    """Record each call of the critical-extension search: its arguments
    and the (combo, covered) pairs it yielded. The swap test's inner
    searches at k > 1, over the bits that a member's sub-masks add, are
    recorded too, after the outer search of their hasse_cluster call;
    they are minimal-combination searches as well."""
    search = mining._minimal_combinations
    calls = []

    def spy(masks, r, need, covered_count):
        found = list(search(masks, r, need, covered_count))
        calls.append((masks, r, need, covered_count, found))
        return iter(found)

    monkeypatch.setattr(mining, "_minimal_combinations", spy)
    return calls


def _check_against_size_by_size(calls) -> int:
    """Compare each recorded search with the size-by-size oracle as sets of
    combinations, before any swap test; returns and forgets the number of
    distinct searches checked."""
    checked = set()
    for masks, r, need, covered_count, found in calls:
        combos = [combo for combo, _ in found]
        assert len(set(combos)) == len(combos)
        for combo, cov in found:
            assert list(combo) == sorted(combo)
            assert cov == covered_count(mining._union(combo))
        if (tuple(masks), r, need) not in checked:
            checked.add((tuple(masks), r, need))
            want = minimal_combinations_by_size(masks, r, lambda u: covered_count(u) >= need)
            assert set(combos) == set(want), (masks, r, need)
    calls.clear()
    return len(checked)


def _near_linear_corpus(rng, j, pool_size):
    """1..12 sequences drawn from a pool of pool_size, each a shuffle of
    all of j but at most one label, sometimes with one label again."""
    universe = LabelTable(j)

    def draw():
        events = rng.sample(j, rng.randint(max(1, len(j) - 1), len(j)))
        if rng.random() < 0.3:
            events.insert(rng.randrange(len(events) + 1), rng.choice(j))
        return EventSequence(universe, tuple(events))

    pool = [draw() for _ in range(pool_size)]
    return [rng.choice(pool) for _ in range(rng.randint(1, 12))]


def test_critical_extension_matches_size_by_size_oracle(monkeypatch):
    calls = _spied_search(monkeypatch)
    checked = 0
    # Every r up to 6 and every threshold of the grid, in both modes.
    rng = random.Random(19)
    for m in (1, 2, 3, 4):
        j = ("a", "b", "c", "d")[:m]
        for trial in range(8):
            if trial % 2:
                seqs = _small_corpus(rng, j, m + 1)
            else:
                seqs = _near_linear_corpus(rng, j, rng.randint(2, 5))
            for r in range(1, 7):
                for t in LITERAL_THRESHOLDS:
                    for mode in ("minimal", "literal"):
                        hasse_cluster(seqs, j, t, r, mode)
            checked += _check_against_size_by_size(calls)
    # Every linear order of three labels: 19 groups, all strict orders.
    j = ("a", "b", "c")
    seqs = [EventSequence(LabelTable(j), p) for p in permutations(j)]
    for r in range(1, 7):
        for t in LITERAL_THRESHOLDS:
            for mode in ("minimal", "literal"):
                hasse_cluster(seqs, j, t, r, mode)
    checked += _check_against_size_by_size(calls)
    # At m = 5 and 6, a pool of at most four sequences keeps the oracle's
    # every-combination scan small at r = 6; larger pools give dozens of
    # groups, where it stays small at r = 3.
    for trial in range(120):
        j = ("a", "b", "c", "d", "e", "f")[: rng.choice((5, 6))]
        if trial % 2:
            seqs = _near_linear_corpus(rng, j, rng.randint(1, 4))
            t, r = rng.choice(LITERAL_THRESHOLDS), rng.randint(1, 6)
        else:
            seqs = _near_linear_corpus(rng, j, rng.randint(5, 8))
            t, r = rng.choice(LITERAL_THRESHOLDS), rng.randint(1, 3)
        for mode in ("minimal", "literal"):
            hasse_cluster(seqs, j, t, r, mode)
        checked += _check_against_size_by_size(calls)
    assert checked > 1000


def test_critical_extension_on_arbitrary_masks():
    # The search reads no group structure: any family of distinct nonzero
    # masks, in any order, any multiplicities and any need will do. It
    # sorts the masks by coverage itself, and each combination ascends.
    rng = random.Random(23)
    for trial in range(2000):
        d = rng.randint(1, 10)
        mult = [rng.randint(1, 9) for _ in range(d)]
        covered_count = mining._coverage_counter(mult)
        masks = sorted({rng.randint(1, (1 << d) - 1) for _ in range(rng.randint(1, 12))})
        need = rng.randint(0, sum(mult) + 1)
        r = rng.randint(1, 7)
        given = masks[:]
        if trial % 2:
            rng.shuffle(given)
        found = list(mining._minimal_combinations(given, r, need, covered_count))
        want = minimal_combinations_by_size(masks, r, lambda u: covered_count(u) >= need)
        assert sorted(combo for combo, _ in found) == sorted(want), (masks, mult, need, r)
        before = minimal_combinations_ascending(masks, r, need, covered_count)
        assert sorted(found) == sorted(before), (masks, mult, need, r)
        assert all(list(combo) == sorted(combo) for combo, _ in found)
        assert all(cov == covered_count(mining._union(combo)) for combo, cov in found)


def test_swap_test_matches_pick_scan_oracle():
    # On minimal combinations of random masks against random columns, for
    # k = 1..4, the swap test that asks the minimal-combination search
    # agrees with the one that tried every k of the maximal sub-masks.
    rng = random.Random(41)
    verdicts = {k: set() for k in (1, 2, 3, 4)}
    for _ in range(300):
        d = rng.randint(2, 10)
        mult = [rng.randint(1, 9) for _ in range(d)]
        covered_count = mining._coverage_counter(mult)
        columns = {rng.randint(1, (1 << d) - 1) for _ in range(rng.randint(1, 14))}
        masks = {rng.randint(1, (1 << d) - 1) for _ in range(rng.randint(1, 8))}
        need = rng.randint(1, sum(mult))

        def meets(union):
            return covered_count(union) >= need

        for combo in minimal_combinations_by_size(masks, 4, meets):
            for k in (1, 2, 3, 4):
                r = len(combo) + k - 1
                got = mining._swap_meets(combo, r, columns, need, covered_count)
                assert got == swap_meets_by_picks(combo, r, columns, meets), (combo, r, columns)
                verdicts[k].add(got)
    assert all(seen == {False, True} for seen in verdicts.values())


def test_swap_test_on_every_ordered_pair():
    # The 30 sequences (a, b) over the ordered pairs of six labels at
    # t = 100: each single arrow covers one sequence, so {arrowless} is
    # dominated only when a swap of 30 sub-masks fits, at r >= 30. Trying
    # every k of the 30 maximal sub-masks took seconds at r = 7 and did
    # not finish at r = 12.
    j = ("a", "b", "c", "d", "e", "f")
    universe = LabelTable(j)
    seqs = [EventSequence(universe, p) for p in permutations(j, 2)]
    arrowless = BoolMatrix(universe, (0,) * 6)
    for r in (12, 29):
        out = hasse_cluster(seqs, j, 100, r)
        assert out.clusters == ((arrowless,),) and out.covered == (30,)
    out = hasse_cluster(seqs, j, 100, 30)
    assert len(out.clusters) == 1 and len(out.clusters[0]) == 30


def test_coverage_tables_match_bit_sums():
    # One table per 8 distinct matrices; 1, 7, 9, 17 and 70 leave the top
    # table short of 8 bits.
    rng = random.Random(8)
    for d in (1, 7, 8, 9, 17, 70):
        mult = [rng.randint(1, 50) for _ in range(d)]
        covered_count = mining._coverage_counter(mult)
        every = (1 << d) - 1
        masks = [0, every, *(1 << j for j in range(d))]
        masks += [rng.getrandbits(d) for _ in range(200)]
        for mask in masks:
            assert covered_count(mask) == sum(c for j, c in enumerate(mult) if mask >> j & 1)


def _spied_group_masks(monkeypatch):
    """mine(seqs, j) runs hasse_cluster in minimal mode and returns the
    group masks it hands to the combination search."""
    calls = _spied_search(monkeypatch)

    def mine(seqs, j):
        hasse_cluster(seqs, j, 100, 1)
        (masks, *_), = calls
        calls.clear()
        return masks

    return mine


def test_column_fold_matches_closure_extension_oracle(monkeypatch):
    mine = _spied_group_masks(monkeypatch)
    # Every corpus of one or two sequences, each an arrangement of some of
    # the labels, at m <= 4; three at m <= 3.
    checked = 0
    for m in (1, 2, 3, 4):
        j = ("a", "b", "c", "d")[:m]
        universe = LabelTable(j)
        pool = [
            EventSequence(universe, p)
            for size in range(m + 1)
            for p in permutations(j, size)
        ]
        for size in (1, 2, 3) if m <= 3 else (1, 2):
            for seqs in combinations_with_replacement(pool, size):
                assert mine(seqs, j) == sorted(closure_groups_lcm(seqs, j)), seqs
                checked += 1
    assert checked == (2 + 3 + 4) + (5 + 15 + 35) + (16 + 136 + 816) + (65 + 2145)
    # Random corpora with repeated and outside labels at m = 3 and 4, random
    # near-linear ones at m = 5 and 6, and random sets of linear orders.
    rng = random.Random(31)
    for _ in range(40):
        j = ("a", "b", "c", "d")[: rng.choice((3, 4))]
        seqs = _small_corpus(rng, j, len(j) + 1)
        assert mine(seqs, j) == sorted(closure_groups_lcm(seqs, j)), seqs
    for trial in range(60):
        j = ("a", "b", "c", "d", "e", "f")[: rng.choice((5, 6))]
        if trial % 3 == 2:
            orders = list(permutations(j))
            seqs = [EventSequence(LabelTable(j), p) for p in rng.sample(orders, 30)]
        else:
            seqs = _near_linear_corpus(rng, j, rng.randint(1, 12))
        assert mine(seqs, j) == sorted(closure_groups_lcm(seqs, j)), seqs


def test_group_tops_of_every_linear_order_are_the_strict_orders(monkeypatch):
    # Every strict order is the intersection of its linear extensions, so
    # when every linear order occurs, every strict order tops a group. A
    # group's top is the AND of the matrices in its mask.
    mine = _spied_group_masks(monkeypatch)
    for m in (1, 2, 3, 4, 5):
        j = ("a", "b", "c", "d", "e")[:m]
        universe = LabelTable(j)
        seqs = [EventSequence(universe, p) for p in permutations(j)]
        flats = [_pack_rows(seq_to_matrix(s, j).rows, m) for s in seqs]
        tops = []
        for mask in mine(seqs, j):
            top = -1
            for k, flat in enumerate(flats):
                if mask >> k & 1:
                    top &= flat
            tops.append(top)
        assert sorted(tops) == list(_strict_orders(m))


def test_hasse_cluster_output_is_sorted_and_canonical():
    for raw, seqs, j, t, r, mode in _random_workloads(29, 12):
        out = hasse_cluster(seqs, j, t, r, mode)
        keys = [
            (len(cluster), tuple(mx.sort_key() for mx in cluster))
            for cluster in out.clusters
        ]
        assert keys == sorted(keys)
        for cluster in out.clusters:
            member_keys = [mx.sort_key() for mx in cluster]
            assert member_keys == sorted(member_keys)


def test_relevance_worked_example():
    universe = LabelTable(("e1", "e2"))
    wins = [(EventSequence(universe, ("e1", "e2")), 1)] * 2
    loses = [(EventSequence(universe, ("e2", "e1")), 0)] * 3
    table = relevance_scores(wins + loses)
    assert table.score("e1", "e2") == math.inf
    assert table.score("e2", "e1") == 0
    assert table.n_win == 2 and table.n_lose == 3


def test_relevance_identical_populations():
    universe = LabelTable(("e1", "e2"))
    episodes = [
        (EventSequence(universe, ("e1", "e2")), 1),
        (EventSequence(universe, ("e1", "e2")), 0),
    ]
    table = relevance_scores(episodes)
    assert table.score("e1", "e2") == 1
    assert table.score("e2", "e1") == math.inf


def test_relevance_swap_and_infinity_rule():
    rng = random.Random(5)
    universe = LabelTable(("a", "b", "c"))
    checked = 0
    for _ in range(30):
        episodes = []
        for _ in range(rng.randint(2, 8)):
            length = rng.randint(0, 5)
            seq = EventSequence(
                universe, tuple(rng.choice(universe.labels) for _ in range(length))
            )
            episodes.append((seq, rng.randint(0, 1)))
        if {lab for _, lab in episodes} != {0, 1}:
            continue
        table = relevance_scores(episodes)
        swapped = relevance_scores([(s, 1 - lab) for s, lab in episodes])
        for a in universe.labels:
            for b in universe.labels:
                if a == b:
                    continue
                i, jj = universe.position(a), universe.position(b)
                w = table.win_counts[i][jj]
                lose = table.lose_counts[i][jj]
                assert (table.score(a, b) == math.inf) == (lose == 0)
                if w > 0 and lose > 0:
                    assert swapped.score(a, b) == 1 / table.score(a, b)
                    checked += 1
    assert checked > 0


def test_relevance_rows_ordering():
    universe = LabelTable(("a", "b", "c"))
    episodes = [
        (EventSequence(universe, ("a", "b")), 1),
        (EventSequence(universe, ("a", "b")), 1),
        (EventSequence(universe, ("b", "a")), 0),
        (EventSequence(universe, ("a", "b")), 0),
    ]
    rows = relevance_scores(episodes).rows()
    assert [(a, b) for a, b, *_ in rows] == [
        ("a", "c"),
        ("b", "c"),
        ("c", "a"),
        ("c", "b"),
        ("a", "b"),
        ("b", "a"),
    ]
    assert rows[4][2] == 2
    assert rows[5][2] == 0


def test_relevance_rows_match_ranked_oracle():
    # small counts make tied finite scores and tied infinite ones common;
    # the stable sort must keep position order within each tie
    rng = random.Random(0)
    seen_finite_tie = seen_inf_tie = False
    for _ in range(200):
        m = rng.randint(2, 5)
        counts = [
            tuple(tuple(rng.randint(0, 2) for _ in range(m)) for _ in range(m)) for _ in range(2)
        ]
        table = mining.RelevanceTable(
            LabelTable(tuple("abcde"[:m])), rng.randint(1, 3), rng.randint(1, 3), *counts
        )
        rows = table.rows()
        assert rows == oracles.relevance_rows_ranked(table)
        scores = [score for _, _, score, _, _ in rows]
        seen_inf_tie |= scores.count(math.inf) > 1
        seen_finite_tie |= any(
            a == b != math.inf for a, b in zip(scores, scores[1:])
        )
    assert seen_finite_tie and seen_inf_tie


def test_relevance_validation():
    universe = LabelTable(("a", "b"))
    wins_only = [(EventSequence(universe, ("a",)), 1)]
    with pytest.raises(MissingClass):
        relevance_scores(wins_only)
    with pytest.raises(MissingClass):
        relevance_scores([])
    other = LabelTable(("a", "c"))
    mixed = [
        (EventSequence(universe, ("a",)), 1),
        (EventSequence(other, ("a",)), 0),
    ]
    with pytest.raises(LabelMismatch):
        relevance_scores(mixed)
    with pytest.raises(ValueError, match="class label must be 0 or 1, got 2"):
        relevance_scores([(EventSequence(universe, ("a",)), 2)])
    table = relevance_scores(
        [(EventSequence(universe, ("a",)), 1), (EventSequence(universe, ("b",)), 0)]
    )
    with pytest.raises(ValueError):
        table.score("a", "a")


def test_relevance_class_label_is_the_int_0_or_1():
    """The parser's rule: True, 1.0 and the like are refused, also after a
    valid episode of the same sequence whose label they equal. An
    unhashable label is refused the same way. Episodes may be 2-item
    lists; an episode of another length is a ValueError, and the first
    fault among the episodes is the one raised."""
    universe = LabelTable(("a", "b"))
    win = EventSequence(universe, ("a", "b"))
    lose = EventSequence(universe, ("b",))
    message = "^class label must be 0 or 1, got {}$"
    for bad in (True, False, 1.0, 0.0, "1", None, [1]):
        for s in (win, lose):
            with pytest.raises(ValueError, match=message.format(re.escape(repr(bad)))) as exc:
                relevance_scores([(win, 1), (lose, 0), (s, bad)])
            assert type(exc.value) is ValueError
    assert relevance_scores([[win, 1], [lose, 0]]) == relevance_scores([(win, 1), (lose, 0)])
    with pytest.raises(ValueError, match="unpack"):
        relevance_scores([(win, 1), (lose, 0, "x")])
    with pytest.raises(ValueError, match="got 2$"):
        relevance_scores([(win, 2), (lose, 0, "x")])
    other = EventSequence(LabelTable(("a", "c")), ("a",))
    with pytest.raises(LabelMismatch):
        relevance_scores([(win, 1), (other, 0), (lose, [1])])
