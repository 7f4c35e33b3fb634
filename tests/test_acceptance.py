"""Acceptance gate: the nine published claims, one test and PASS line each.

1. Catalog counts for m = 1..5 are 1, 3, 19, 219, 4231; m=5 under 10 s.
2. Structure-theorem suite (exhaustive m <= 4, randomized m=5): reduction
   of closure is the identity on quasi-skeleton graphs; greedy arrow
   deletion, the cover relation, and the package reduction agree; closures
   of quasi-skeleton graphs are exactly the strict partial orders, one
   each; morphism existence == path-matrix inclusion == reachability-set
   inclusion; the five consistency characterizations agree on 1,000
   random sequence/diagram pairs plus an exhaustive 3-label sweep.
3. Any multiset of the three v1 winning types mines (t=100, r=1) to the
   single published order matrix in under 1 s.
4. Any multiset covering the seven v2 winning types mines (t=100, r=2) to
   exactly the published two-matrix set in under 60 s.
5. Corrupting 10% of a 125-episode v2 winning set, then mining at t=90,
   r=2, returns the same two matrices for five corruption seeds.
6. DBSCAN on the seven distinct v2 types: eps 0,1 -> 7 clusters; 2 -> 3;
   3,4,5 -> 2; >= 6 -> 1; the eps=2 common matrices are the three
   published ones.
7. Sequence-to-matrix output is transitive on 10,000 random sequences
   over alphabets of size <= 8.
8. Flattening counts equal brute-force linear-extension counts for all
   219 four-label graphs; the diamond has 2, the v1 winning diagram 3.
9. Average-linkage merge heights equal an independent rational oracle on
   100 random point sets (n <= 30), and a 125-point multiset with the
   74-door composition cuts into two clusters whose common matrices are
   the published pair.

Every numeric check is exact (integers, Fractions, or boolean identities);
the only tolerances are the stated wall-clock bounds.
"""

from __future__ import annotations

import random
import time

from oracles import (
    average_linkage_oracle,
    check_consistency_equivalences,
    linear_extensions_bruteforce,
    morphism_oracle,
    reachable_pairs_bfs,
    strict_orders_bruteforce,
    tr_arrow_deletion,
)

from hassemine import (
    BoolMatrix,
    Digraph,
    EventSequence,
    LabelTable,
    MatrixPointSet,
    cluster_common_matrices,
    corrupt,
    cut,
    dbscan,
    hasse_cluster,
    hierarchical,
    l1_distance,
    seq_to_matrix,
    simulate,
    v1_config,
    v2_config,
)
from hassemine.cli import main
from hassemine.enumeration import enumerate_category, has_morphism
from hassemine.graphs import (
    is_quasi_skeleton,
    path_matrix,
    transitive_closure,
    transitive_reduction,
)
from hassemine.sequences import flattenings

J4 = ("e1", "e2", "e5", "e6")
J5 = ("e1", "e2", "e5", "e6", "e11")

V1_WIN_MATRIX = BoolMatrix.from_entries(
    LabelTable(J4),
    [[0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]],
)
V2_COIN_MATRIX = BoolMatrix.from_entries(
    LabelTable(J5),
    [
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
)
V2_DOOR_MATRIX = BoolMatrix.from_entries(
    LabelTable(J5),
    [
        [0, 0, 0, 1, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
)
V2_EXTRA_MATRIX = BoolMatrix.from_entries(
    LabelTable(J5),
    [
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ],
)


def arrow_pairs(g: Digraph) -> set[tuple[str, str]]:
    labs = g.labels.labels
    return {
        (labs[i], labs[j])
        for i, row in enumerate(g.rows)
        for j in range(len(labs))
        if row >> j & 1
    }


def label_table(m: int) -> LabelTable:
    return LabelTable(tuple(f"x{i}" for i in range(1, m + 1)))


def seven_type_sequences():
    """One episode per v2 winning type: doors 1-3 then coins 1-4."""
    episodes = simulate(v2_config(seed=0), 7, "scripted-mixed")
    assert all(ep.label == 1 for ep in episodes)
    return [ep.events for ep in episodes]


def test_criterion_1_enumeration_counts(capsys):
    enumerate_category.cache_clear()
    counts = []
    for m in (1, 2, 3, 4):
        assert main(["enumerate", "--m", str(m)]) == 0
        counts.append(capsys.readouterr().out.strip())
    started = time.perf_counter()
    assert main(["enumerate", "--m", "5"]) == 0
    elapsed = time.perf_counter() - started
    counts.append(capsys.readouterr().out.strip())
    assert counts == ["1", "3", "19", "219", "4231"]
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"criterion 1: PASS (1,3,19,219,4231; m=5 in {elapsed:.2f}s)")


def test_criterion_2_structure_theorems(capsys):
    # reduction-of-closure identity, definition agreement, and the
    # bijection with strict orders: exhaustive through four labels
    for m in (1, 2, 3, 4):
        table = label_table(m)
        cat = enumerate_category(table)
        closure_sets = set()
        for g in cat.graphs:
            closed = transitive_closure(g)
            assert transitive_reduction(closed) == g
            assert is_quasi_skeleton(g)
            closed_pairs = arrow_pairs(closed)
            assert all(a != b for a, b in closed_pairs)
            assert transitive_closure(closed) == closed
            reduced = transitive_reduction(closed)
            assert arrow_pairs(reduced) == tr_arrow_deletion(
                table.labels, sorted(closed_pairs)
            )
            cover = {
                (a, b)
                for a, b in closed_pairs
                if not any(
                    (a, w) in closed_pairs and (w, b) in closed_pairs
                    for w in table.labels
                )
            }
            assert arrow_pairs(reduced) == cover
            closure_sets.add(frozenset(closed_pairs))
        assert len(closure_sets) == len(cat.graphs)
        assert closure_sets == set(strict_orders_bruteforce(table.labels))

    # randomized five-label sweep of the same identities
    rng = random.Random(520)
    cat5 = enumerate_category(label_table(5))
    sample = [cat5.graphs[i] for i in rng.sample(range(len(cat5.graphs)), 400)]
    seen = set()
    for g in sample:
        closed = transitive_closure(g)
        assert transitive_reduction(closed) == g
        closed_pairs = arrow_pairs(closed)
        assert transitive_closure(closed) == closed
        assert all(a != b for a, b in closed_pairs)
        seen.add(frozenset(closed_pairs))
    assert len(seen) == len(sample)
    for g in sample[:60]:
        closed = transitive_closure(g)
        assert arrow_pairs(g) == tr_arrow_deletion(
            g.labels.labels, sorted(arrow_pairs(closed))
        )

    # morphism criterion: categorical test == matrix inclusion == R-set
    # inclusion, exhaustive on three labels and sampled on five
    cat3 = enumerate_category(label_table(3))
    reach3 = [
        reachable_pairs_bfs(g.labels.labels, sorted(arrow_pairs(g)))
        for g in cat3.graphs
    ]
    pms3 = [path_matrix(g) for g in cat3.graphs]
    for i, g1 in enumerate(cat3.graphs):
        for j, g2 in enumerate(cat3.graphs):
            by_pm = all(
                r2 & ~r1 == 0 for r1, r2 in zip(pms3[i].rows, pms3[j].rows)
            )
            assert has_morphism(g1, g2) == by_pm
            assert by_pm == morphism_oracle(reach3[i], reach3[j])
    pms5 = cat5.path_matrices
    for _ in range(1500):
        i = rng.randrange(len(cat5.graphs))
        j = rng.randrange(len(cat5.graphs))
        by_pm = all(
            r2 & ~r1 == 0 for r1, r2 in zip(pms5[i].rows, pms5[j].rows)
        )
        assert has_morphism(cat5.graphs[i], cat5.graphs[j]) == by_pm
        assert by_pm == morphism_oracle(
            reachable_pairs_bfs(
                cat5.graphs[i].labels.labels, sorted(arrow_pairs(cat5.graphs[i]))
            ),
            reachable_pairs_bfs(
                cat5.graphs[j].labels.labels, sorted(arrow_pairs(cat5.graphs[j]))
            ),
        )

    # five-way consistency agreement: exhaustive 3-label sweep ...
    universe3 = LabelTable(("A", "B", "C"))
    from itertools import permutations

    small_graphs = []
    for size in (1, 2, 3):
        for verts in permutations(universe3.labels, size):
            if list(verts) == sorted(verts):
                small_graphs.extend(
                    enumerate_category(LabelTable(verts)).graphs
                )
    checked = 0
    for k in range(4):
        for subset in permutations(universe3.labels, k):
            s = EventSequence(universe3, subset)
            for w in small_graphs:
                assert check_consistency_equivalences(s, w)
                checked += 1
    assert checked == 16 * len(small_graphs)

    # ... plus 1,000 random sequence/diagram pairs
    alphabet = ("A", "B", "C", "D", "E")
    for _ in range(1000):
        m_u = rng.randint(1, 5)
        universe = LabelTable(alphabet[:m_u])
        events = tuple(rng.sample(universe.labels, rng.randint(0, m_u)))
        s = EventSequence(universe, events)
        w_labels = tuple(sorted(rng.sample(universe.labels, rng.randint(1, min(m_u, 4)))))
        w_cat = enumerate_category(LabelTable(w_labels))
        w = w_cat.graphs[rng.randrange(len(w_cat.graphs))]
        assert check_consistency_equivalences(s, w)
    with capsys.disabled():
        print(
            "criterion 2: PASS (exhaustive m<=4, 400 m=5 graphs, "
            "1861 morphism pairs sampled, 1000 consistency pairs)"
        )


def test_criterion_3_v1_reproduction(capsys):
    episodes = simulate(v1_config(seed=0), 12, "scripted-mixed")
    assert all(ep.label == 1 for ep in episodes)
    base = [ep.events for ep in episodes]
    started = time.perf_counter()
    first = hasse_cluster(base, J4, t=100, r=1)
    elapsed = time.perf_counter() - started
    multisets = [
        base[:3],
        base[:3] + base[:1] * 6,
        [base[2]] * 9 + [base[0], base[1]],
    ]
    outputs = [first] + [
        hasse_cluster(ms, J4, t=100, r=1) for ms in multisets
    ]
    for out in outputs:
        assert out.clusters == ((V1_WIN_MATRIX,),)
        assert out.covered == (out.total,)
    assert elapsed < 1.0
    with capsys.disabled():
        print(
            f"criterion 3: PASS (4 multisets -> single published matrix; "
            f"{elapsed:.3f}s)"
        )


def test_criterion_4_v2_reproduction(capsys):
    episodes = simulate(v2_config(seed=0), 14, "scripted-mixed")
    assert all(ep.label == 1 for ep in episodes)
    base = [ep.events for ep in episodes]
    started = time.perf_counter()
    first = hasse_cluster(base, J5, t=100, r=2)
    elapsed = time.perf_counter() - started
    lopsided = base[:7] + base[:2] * 5 + [base[6]] * 3
    outputs = [first, hasse_cluster(lopsided, J5, t=100, r=2)]
    for out in outputs:
        assert len(out.clusters) == 1
        assert set(out.clusters[0]) == {V2_COIN_MATRIX, V2_DOOR_MATRIX}
        assert len(out.clusters[0]) == 2
        assert out.covered == (out.total,)
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"criterion 4: PASS (published two-matrix set; search "
            f"{elapsed:.2f}s)"
        )


def test_criterion_5_corruption_robustness(capsys):
    episodes = simulate(v2_config(seed=0), 125, "scripted-mixed")
    assert all(ep.label == 1 for ep in episodes)
    for seed in range(5):
        mutated = corrupt(episodes, 0.10, seed)
        changed = sum(
            1 for a, b in zip(episodes, mutated) if a.events != b.events
        )
        assert changed == 13
        out = hasse_cluster(
            [ep.events for ep in mutated], J5, t=90, r=2
        )
        assert len(out.clusters) == 1
        assert set(out.clusters[0]) == {V2_COIN_MATRIX, V2_DOOR_MATRIX}
        assert out.covered[0] * 10 >= out.total * 9
    with capsys.disabled():
        print("criterion 5: PASS (seeds 0..4, 13/125 corrupted each)")


def test_criterion_6_dbscan_table(capsys):
    seqs = seven_type_sequences()
    points = MatrixPointSet.from_sequences(seqs, J5)
    counts = {}
    for eps in (0, 1, 2, 3, 4, 5, 6, 7, 10):
        clusters, noise = dbscan(points, eps)
        assert noise == []
        counts[eps] = len(clusters)
    assert counts == {0: 7, 1: 7, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1, 10: 1}
    clusters, _ = dbscan(points, 2)
    mats = cluster_common_matrices(clusters, seqs, J5)
    assert mats == [V2_DOOR_MATRIX, V2_COIN_MATRIX, V2_EXTRA_MATRIX]
    with capsys.disabled():
        print("criterion 6: PASS (eps table exact; eps=2 common matrices)")


def test_criterion_7_matrix_transitivity(capsys):
    rng = random.Random(7)
    alphabet = tuple(f"s{i}" for i in range(8))
    for _ in range(10_000):
        table = LabelTable(alphabet[: rng.randint(1, 8)])
        events = tuple(
            rng.choice(table.labels) for _ in range(rng.randint(0, 20))
        )
        mat = seq_to_matrix(EventSequence(table, events), table.labels)
        for i, row in enumerate(mat.rows):
            assert not row >> i & 1
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                assert mat.rows[j] & ~row == 0
    with capsys.disabled():
        print("criterion 7: PASS (10000 sequences, zero violations)")


def test_criterion_8_flattening_counts(capsys):
    cat4 = enumerate_category(label_table(4))
    for g in cat4.graphs:
        order = arrow_pairs(transitive_closure(g))
        expected = len(
            linear_extensions_bruteforce(g.labels.labels, sorted(order))
        )
        assert len(flattenings(g)) == expected
    diamond = Digraph.from_arrows(
        LabelTable(("a", "b", "c", "d")),
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    assert len(flattenings(diamond)) == 2
    v1_diagram = Digraph.from_arrows(
        LabelTable(J4), [("e1", "e6"), ("e2", "e5"), ("e5", "e6")]
    )
    assert len(flattenings(v1_diagram)) == 3
    with capsys.disabled():
        print("criterion 8: PASS (219 graphs vs oracle; diamond=2, v1=3)")


def test_criterion_9_hierarchical(capsys):
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 30)
        m = rng.randint(1, 3)
        table = LabelTable(tuple(f"y{i}" for i in range(m)))
        mats = tuple(
            BoolMatrix(table, tuple(rng.randrange(1 << m) for _ in range(m)))
            for _ in range(n)
        )
        points = MatrixPointSet(mats, tuple(str(i) for i in range(n)))
        dist = [
            [l1_distance(a, b) for b in points.points] for a in points.points
        ]
        assert hierarchical(points).merges == tuple(
            average_linkage_oracle(dist)
        )

    # a 125-episode multiset with the known 74-door composition cuts into
    # the door cluster and the coin cluster, with the published matrices
    types = seven_type_sequences()
    weights = (25, 25, 24, 40, 4, 4, 3)
    seqs = [s for s, k in zip(types, weights) for _ in range(k)]
    points = MatrixPointSet.from_sequences(seqs, J5)
    clusters = cut(hierarchical(points), 5)
    assert sorted(len(c) for c in clusters) == [51, 74]
    mats = cluster_common_matrices(clusters, seqs, J5)
    assert set(mats) == {V2_DOOR_MATRIX, V2_EXTRA_MATRIX}
    with capsys.disabled():
        print(
            "criterion 9: PASS (100 point sets vs oracle; 74-door multiset "
            "cuts to the published pair)"
        )
