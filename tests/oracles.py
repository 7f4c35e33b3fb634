"""Independent reference implementations used as test oracles.

Most of these deliberately avoid the package's bitset machinery: BFS over
adjacency lists, brute-force permutation filters, greedy arrow deletion,
union-find components, and an O(n^3) rational average-linkage clusterer that
recomputes every cross-cluster mean from the raw distance matrix. The rest
are slower formulations kept to check faster ones: the Fraction-scan
average linkage and the all-points DBSCAN that the baselines ran before
they worked on the distinct points; the global bitset dominance filter
that minimal-mode hasse_cluster ran on all of its candidates before the
local swap test, and the pairwise filter it ran before that; the
minimal-mode search that read the closure groups and ran the global
filter; the minimal-mode candidate search that took every member of each
group of a minimal combination and tested all of its sub-combinations;
the minimal-mode grouping that scanned the whole catalog against every
distinct sequence matrix and took each group's last member as its top;
the literal-mode search that scanned the catalog, took every pick of
every group combination and ran the global filter; the size-by-size
search for minimal group combinations that tried every combination of
1..r group masks before the critical-extension search; that search as
it ran before the gain bound, over the ascending masks with a last-level
skip on each group's own coverage; the swap test that tried every k of
the maximal sub-masks before it asked that search; the closed-set
search (prefix-preserving closure extension) that found the groups
before the fold over the column masks; the subset-filtering
strict order build the catalog used before it grew ideals and filters; the
per-sequence order matrix, common-matrix loop and relevance tally that ran
before the corpus was encoded once per distinct sequence; the order key
that read each label's span from `positions()`, the corpus encoding as
distinct keys plus each sequence's slot among them, and the relevance
scoring that checked every episode and tallied the (slot, label) pairs,
as they ran before one scan per key, keys with multiplicities and one
count of the distinct (sequence, label) pairs; that count, with its
in-order recheck when the count raised, as it ran before one in-order
pass that lists each class's sequences; the relevance
row order that keyed each row by its rank and label positions before one
stable sort on the rank; the sequence
file parser that decoded, checked and built a sequence for every line,
repeated or not; the consistency predicate that compared occurrence
spans pair by pair before it read the order encoding; the layer
conversions as they were before they read the shared cycle test and
block positions (gts peeling layers by in-degree zero, stg looking up
each label's position in the new table); the quasi-skeleton test that
looked for an arrow shortcutting a longer path before it compared the
graph with the reduction of its closure; and a harness that checks five
characterizations of sequence/diagram consistency against each other.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, permutations, product

from hassemine import (
    Digraph,
    EmptyTerm,
    LabelMismatch,
    LabelNotInUniverse,
    LabelTable,
    MissingClass,
    NotLayered,
    NotSimple,
    RelevanceTable,
    SequenceRecords,
    r_set,
    restrict,
    seq_to_matrix,
)
from hassemine.enumeration import enumerate_category
from hassemine.exact import is_class_label
from hassemine.graphs import _bit_indices, _closure_rows, _pack_rows, _transpose
from hassemine.sequences import (
    EventSequence,
    SubsetSequence,
    _analysis_table,
    _encode,
    as_subset_sequence,
    flattenings,
    is_consistent,
    restrict_sequence,
    stg,
)


def reachable_pairs_bfs(labels, arrows):
    """All (u, v) with a directed path of length >= 1, by per-vertex BFS."""
    out_edges = {lab: [] for lab in labels}
    for u, v in arrows:
        out_edges[u].append(v)
    pairs = set()
    for src in labels:
        seen = set()
        frontier = list(out_edges[src])
        while frontier:
            nxt = frontier.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.extend(out_edges[nxt])
        pairs.update((src, v) for v in seen)
    return pairs


def tr_arrow_deletion(labels, arrows):
    """Transitive reduction by greedy arrow deletion.

    Repeatedly drop any arrow whose removal keeps reachability unchanged; for
    a finite DAG the result is independent of deletion order.
    """
    target = reachable_pairs_bfs(labels, arrows)
    kept = sorted(set(arrows))
    changed = True
    while changed:
        changed = False
        for arrow in list(kept):
            trial = [a for a in kept if a != arrow]
            if reachable_pairs_bfs(labels, trial) == target:
                kept = trial
                changed = True
    return set(kept)


def is_quasi_skeleton_shortcut(g: Digraph) -> bool:
    """is_quasi_skeleton as a search for a shortcut: g is a DAG and no
    arrow u -> v has v reachable from another successor of u."""
    closed = _closure_rows(g.rows)
    if any(closed[i] >> i & 1 for i in range(g.m)):
        return False
    for row in g.rows:
        two_plus = 0
        for w in _bit_indices(row):
            two_plus |= closed[w]
        if row & two_plus:
            return False
    return True


def stg_by_position(s) -> Digraph:
    """stg that builds each row by looking up the positions of the next
    term's labels in the new label table."""
    if isinstance(s, EventSequence):
        s = as_subset_sequence(s)
    if not s.is_simple:
        raise NotSimple("stg needs pairwise disjoint terms")
    ordered_terms = []
    labels: list[str] = []
    for term in s.terms:
        if not term:
            raise EmptyTerm("stg needs nonempty terms")
        members = sorted(term, key=s.universe.position)
        labels.extend(members)
        ordered_terms.append(members)
    table = LabelTable(tuple(labels))
    rows = [0] * len(table)
    for cur, nxt in zip(ordered_terms, ordered_terms[1:]):
        target = 0
        for v in nxt:
            target |= 1 << table.position(v)
        for u in cur:
            rows[table.position(u)] = target
    return Digraph(table, tuple(rows))


def gts_peel(g: Digraph) -> SubsetSequence:
    """gts that peels layers by in-degree zero (no layer left to peel
    means a cycle) and then checks each layer's rows against the next."""
    m = g.m
    preds = _transpose(g.rows, m)
    remaining = (1 << m) - 1
    layers: list[int] = []
    while remaining:
        layer = 0
        for v in _bit_indices(remaining):
            if preds[v] & remaining == 0:
                layer |= 1 << v
        if not layer:
            raise NotLayered("graph contains a directed cycle")
        layers.append(layer)
        remaining &= ~layer
    for idx, layer in enumerate(layers):
        target = layers[idx + 1] if idx + 1 < len(layers) else 0
        for v in _bit_indices(layer):
            if g.rows[v] != target:
                raise NotLayered(
                    "arrows are not complete between consecutive layers"
                )
    labs = g.labels.labels
    terms = tuple(
        frozenset(labs[v] for v in _bit_indices(layer)) for layer in layers
    )
    return SubsetSequence(g.labels, terms)


def linear_extensions_bruteforce(labels, order_pairs):
    """All permutations of labels respecting every (u, v) in order_pairs."""
    out = []
    for perm in permutations(labels):
        pos = {lab: i for i, lab in enumerate(perm)}
        if all(pos[u] < pos[v] for u, v in order_pairs):
            out.append(perm)
    return out


def morphism_oracle(pairs_from, pairs_to):
    """Morphism g_from -> g_to exists iff R(g_to) is a subset of R(g_from)."""
    return pairs_to <= pairs_from


def components_unionfind(n, edges):
    """Connected components of an undirected graph, as sorted index lists."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def average_linkage_oracle(dist):
    """Agglomerative average linkage, recomputed from raw distances each step.

    Returns (a, b, height) merge triples with scipy-style cluster ids (leaves
    0..n-1, the k-th merge creates id n+k); ties broken on the lowest (a, b)
    id pair. Heights are exact Fractions.
    """
    n = len(dist)
    members = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(members) > 1:
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if b <= a:
                    continue
                total = sum(dist[x][y] for x in members[a] for y in members[b])
                height = Fraction(total, len(members[a]) * len(members[b]))
                key = (height, a, b)
                if best is None or key < best:
                    best = key
        height, a, b = best
        merges.append((a, b, height))
        members[next_id] = members.pop(a) + members.pop(b)
        next_id += 1
    return merges


def average_linkage_fraction_scan(dist):
    """Average linkage as hierarchical ran before it worked on the distinct
    points: n(n-1)/2 Fraction distances, rescanned with min() on every
    merge and updated by the size-weighted mean of the two merged rows.
    Same merge triples and tie-break as average_linkage_oracle."""
    n = len(dist)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = Fraction(dist[i][j])
    size = {i: 1 for i in range(n)}
    active = set(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        height, a, b = min((d, a, b) for (a, b), d in table.items())
        merges.append((a, b, height))
        del table[(a, b)]
        active.discard(a)
        active.discard(b)
        new = next_id
        next_id += 1
        for k in active:
            da = table.pop((min(a, k), max(a, k)))
            db = table.pop((min(b, k), max(b, k)))
            table[(k, new)] = (size[a] * da + size[b] * db) / (size[a] + size[b])
        size[new] = size[a] + size[b]
        active.add(new)
    return merges


def dbscan_all_points(dist, eps, min_samples=1):
    """DBSCAN as it ran before it worked on the distinct points: a
    neighbour list per point over the n x n table, then a BFS from each
    unlabelled core point in index order. Returns (clusters, noise)."""
    n = len(dist)
    radius = Fraction(eps)
    neighbors = [[j for j in range(n) if dist[i][j] <= radius] for i in range(n)]
    core = [len(neighbors[i]) >= min_samples for i in range(n)]
    labels = [None] * n
    clusters = []
    for start in range(n):
        if labels[start] is not None or not core[start]:
            continue
        cid = len(clusters)
        labels[start] = cid
        queue = deque([start])
        while queue:
            p = queue.popleft()
            if not core[p]:
                continue
            for q in neighbors[p]:
                if labels[q] is None:
                    labels[q] = cid
                    queue.append(q)
        clusters.append(sorted(i for i in range(n) if labels[i] == cid))
    noise = [i for i in range(n) if labels[i] is None]
    return clusters, noise


def strict_orders_bruteforce(labels):
    """All strict partial orders on labels, as frozensets of (u, v) pairs."""
    pairs = [(a, b) for a in labels for b in labels if a != b]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
        if any((b, a) in rel for (a, b) in rel):
            continue
        if any(
            (a, d) not in rel
            for (a, b) in rel
            for (c, d) in rel
            if b == c
        ):
            continue
        out.append(frozenset(rel))
    return out


def strict_orders_filtering(m):
    """Every strict order on m vertices as bit rows, in canonical order, as
    the catalog was first built: each order on the first q vertices is
    extended by every (down, up) pair of its downward and upward closed
    subsets, both found by testing all 2^q subsets, that is disjoint and has
    every down element below every up element; the result is sorted on the
    tuple of row-major flattened entries."""
    orders = [()]
    for q in range(m):
        full = (1 << q) - 1
        grown = []
        for rows in orders:
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
                    grown.append(tuple(
                        row | (1 << q) if (down >> i) & 1 else row
                        for i, row in enumerate(rows)
                    ) + (up,))
        orders = grown
    return sorted(
        orders, key=lambda rows: tuple(row >> j & 1 for row in rows for j in range(m))
    )


def hasse_cluster_bruteforce(event_seqs, j_labels, t, r, mode):
    """Reference clustering: direct scan over all strict-order subsets.

    event_seqs are plain label tuples, or tuples of label frozensets for
    subset sequences. Returns the undominated candidates as a set of
    frozensets, each inner frozenset one order's pair set.
    """
    def order_pairs(events):
        pos = {}
        for idx, e in enumerate(events):
            for lab in e if isinstance(e, frozenset) else (e,):
                pos.setdefault(lab, []).append(idx)
        got = set()
        for a in j_labels:
            for b in j_labels:
                if a != b and a in pos and b in pos and max(pos[a]) < min(pos[b]):
                    got.add((a, b))
        return frozenset(got)

    seq_pairs = [order_pairs(s) for s in event_seqs]
    orders = strict_orders_bruteforce(j_labels)
    p = len(event_seqs)
    t_frac = Fraction(str(t))

    def coverage(cand):
        return len([sp for sp in seq_pairs if any(h <= sp for h in cand)])

    def meets(cand):
        return Fraction(coverage(cand)) * 100 >= t_frac * p

    cands = []
    for size in range(1, r + 1):
        for combo in combinations(orders, size):
            if meets(combo):
                cands.append(frozenset(combo))
    if mode == "minimal":
        def has_meeting_proper_subset(cand):
            items = list(cand)
            return any(
                meets(sub)
                for k in range(len(items))
                for sub in combinations(items, k)
            )

        cands = [c for c in cands if not has_meeting_proper_subset(c)]
    sources = set()
    for b in cands:
        incoming = any(
            a != b and all(any(hb <= ha for hb in b) for ha in a) for a in cands
        )
        if not incoming:
            sources.add(b)
    return sources


def _undominated(candidates):
    """Indices of the candidates that no other candidate dominates, the
    global filter that minimal-mode hasse_cluster ran on all of its
    candidates before it took the local swap test.

    Each candidate is a tuple of flats (`_pack_rows` path matrices). a
    dominates b iff every member fa of a has a generalization fb in b
    (fb & ~fa == 0), i.e. a lies inside up_b, the members of U (all
    candidates' members) that have a generalization in b. b is kept iff
    the holders of the members outside up_b, with b itself, are every
    candidate. The candidates must be pairwise distinct sets: then "every
    candidate other than b" is "every index other than b". O(C * |U|)
    steps for C candidates.
    """
    members = sorted({h for cand in candidates for h in cand})
    slot = {h: k for k, h in enumerate(members)}
    holders = [0] * len(members)
    for i, cand in enumerate(candidates):
        for h in cand:
            holders[slot[h]] |= 1 << i
    ups = []
    for u in members:
        up = 0
        for k, v in enumerate(members):
            if u & ~v == 0:
                up |= 1 << k
        ups.append(up)
    every_member = (1 << len(members)) - 1
    every_cand = (1 << len(candidates)) - 1
    kept = []
    for i, cand in enumerate(candidates):
        up = 0
        for h in cand:
            up |= ups[slot[h]]
        escapes = 1 << i
        for k in _bit_indices(every_member & ~up):
            escapes |= holders[k]
        if escapes == every_cand:
            kept.append(i)
    return kept


def dominance_filter_pairwise(candidates):
    """Indices of the undominated candidates, by comparing every pair.

    candidates are tuples of flats (packed path matrices); a dominates b
    iff every member of a has a generalization in b, i.e. some fb in b
    with fb & ~fa == 0. O(C^2) candidate pairs.
    """

    def has_incoming(b):
        for a in candidates:
            if a == b:
                continue
            if all(any(fb & ~fa == 0 for fb in b) for fa in a):
                return True
        return False

    return [i for i, cand in enumerate(candidates) if not has_incoming(cand)]


def hasse_cluster_every_pick(seqs, j_labels, t, r):
    """Minimal-mode hasse_cluster as it ran before it took one candidate
    per minimal group combination. Catalog graphs are grouped by the mask
    of distinct sequence matrices they lie under; a combination of group
    masks is minimal iff it meets the threshold and none of its 2^size
    proper sub-combinations does; every pick of one member from each of
    its groups is a candidate; the candidates pass the dominance filter.
    Returns the output sets as (flats of the members, covered) pairs."""
    table = LabelTable(tuple(j_labels))
    m = len(table)
    flats = enumerate_category(table).flats
    counts = Counter(_pack_rows(seq_to_matrix(s, table.labels).rows, m) for s in seqs)
    distinct = list(counts)
    groups = {}
    for fh in flats:
        mask = sum(1 << k for k, d in enumerate(distinct) if fh & ~d == 0)
        groups.setdefault(mask, []).append(fh)
    threshold = Fraction(str(t)) * len(seqs)

    def covered(masks):
        union = 0
        for msk in masks:
            union |= msk
        return sum(counts[d] for k, d in enumerate(distinct) if union >> k & 1)

    def meets(masks):
        return covered(masks) * 100 >= threshold

    cands = []
    for size in range(1, r + 1):
        for combo in combinations(sorted(groups), size):
            if not meets(combo) or any(
                meets(sub) for short in range(size) for sub in combinations(combo, short)
            ):
                continue
            for pick in product(*(groups[msk] for msk in combo)):
                cands.append((tuple(sorted(pick)), covered(combo)))
    cands.sort(key=lambda cand: (len(cand[0]), cand[0]))
    kept = _undominated([members for members, _ in cands])
    return [cands[i] for i in kept]


def hasse_cluster_catalog_tops(seqs, j_labels, t, r):
    """Minimal-mode hasse_cluster as it ran before it built its groups from
    the intersections of the distinct sequence matrices: every catalog
    graph is grouped by the mask of distinct matrices it lies under, and
    each group's top is its last member (flats ascend, and the top holds
    every other member). A combination of group masks is minimal iff it
    meets the threshold and each one-smaller sub-combination fails; it
    yields one candidate, its groups' tops; the candidates pass the
    dominance filter. Returns the output sets as (flats of the members,
    covered) pairs."""
    table = LabelTable(tuple(j_labels))
    m = len(table)
    flats = enumerate_category(table).flats
    counts = Counter(_pack_rows(seq_to_matrix(s, table.labels).rows, m) for s in seqs)
    distinct = list(counts)
    groups = {}
    for fh in flats:
        mask = sum(1 << k for k, d in enumerate(distinct) if fh & ~d == 0)
        groups.setdefault(mask, []).append(fh)
    threshold = Fraction(str(t)) * len(seqs)

    def covered(masks):
        union = 0
        for msk in masks:
            union |= msk
        return sum(counts[d] for k, d in enumerate(distinct) if union >> k & 1)

    def meets(masks):
        return covered(masks) * 100 >= threshold

    cands = []
    for size in range(1, r + 1):
        for combo in combinations(sorted(groups), size):
            if meets(combo) and not any(
                meets(sub) for sub in combinations(combo, size - 1)
            ):
                tops = tuple(sorted(groups[msk][-1] for msk in combo))
                cands.append((tops, covered(combo)))
    cands.sort(key=lambda cand: (len(cand[0]), cand[0]))
    kept = _undominated([members for members, _ in cands])
    return [cands[i] for i in kept]


def hasse_cluster_closure_undominated(seqs, j_labels, t, r):
    """Minimal-mode hasse_cluster as it ran before the local swap test:
    the nonempty groups are the distinct ANDs of nonempty sets of the
    distinct sequence matrices (built here one matrix at a time rather than
    by closure extension), each topped by that AND; a combination of group
    masks is minimal iff it meets the threshold and each one-smaller
    sub-combination fails; every minimal combination yields its groups'
    tops; and the candidates pass _undominated, looked up at call time.
    Returns the output sets as (flats of the members, covered) pairs."""
    table = LabelTable(tuple(j_labels))
    m = len(table)
    counts = Counter(_pack_rows(seq_to_matrix(s, table.labels).rows, m) for s in seqs)
    distinct = list(counts)
    tops = set()
    for d in distinct:
        tops |= {d} | {top & d for top in tops}
    groups = {
        sum(1 << k for k, d in enumerate(distinct) if top & ~d == 0): top for top in tops
    }
    threshold = Fraction(str(t)) * len(seqs)

    def covered(masks):
        union = 0
        for msk in masks:
            union |= msk
        return sum(counts[d] for k, d in enumerate(distinct) if union >> k & 1)

    def meets(masks):
        return covered(masks) * 100 >= threshold

    cands = []
    for size in range(1, min(r, len(groups)) + 1):
        for combo in combinations(sorted(groups), size):
            if meets(combo) and not any(
                meets(sub) for sub in combinations(combo, size - 1)
            ):
                cands.append((tuple(sorted(groups[msk] for msk in combo)), covered(combo)))
    cands.sort(key=lambda cand: (len(cand[0]), cand[0]))
    kept = _undominated([members for members, _ in cands])
    return [cands[i] for i in kept]


def hasse_cluster_literal_catalog(seqs, j_labels, t, r):
    """Literal-mode hasse_cluster as it ran before it read the closure
    groups: every catalog graph is grouped by its mask of distinct sequence
    matrices, read from per-entry column masks; every multiset of 1..r
    group masks whose union meets the threshold yields every pick of that
    many distinct members from each of its groups; the candidates pass
    _undominated, looked up at call time. Returns the output sets as
    (flats of the members, covered) pairs."""
    table = LabelTable(tuple(j_labels))
    m = len(table)
    counts = Counter(_pack_rows(seq_to_matrix(s, table.labels).rows, m) for s in seqs)
    distinct = list(counts)
    column = [0] * (m * m)
    for k, d in enumerate(distinct):
        for e in _bit_indices(d):
            column[e] |= 1 << k
    groups = {}
    for fh in enumerate_category(table).flats:
        mask = (1 << len(distinct)) - 1
        for e in _bit_indices(fh):
            mask &= column[e]
        groups.setdefault(mask, []).append(fh)
    threshold = Fraction(str(t)) * len(seqs)

    def covered(masks):
        union = 0
        for msk in masks:
            union |= msk
        return sum(counts[d] for k, d in enumerate(distinct) if union >> k & 1)

    cands = []
    for size in range(1, r + 1):
        for combo in combinations_with_replacement(sorted(groups), size):
            cov = covered(combo)
            if cov * 100 < threshold:
                continue
            picks = product(
                *(combinations(groups[msk], c) for msk, c in Counter(combo).items())
            )
            for pick in picks:
                cands.append((tuple(sorted(chain.from_iterable(pick))), cov))
    cands.sort(key=lambda cand: (len(cand[0]), cand[0]))
    kept = _undominated([members for members, _ in cands])
    return [cands[i] for i in kept]


def closure_groups_lcm(seqs, j_labels):
    """The nonempty groups as hasse_cluster found them before the column
    fold, by prefix-preserving closure extension (Uno et al. 2004, LCM):
    from the AND of every distinct sequence matrix, a closed top is
    extended by each entry bit above the one it was reached by, to the AND
    of the matrices that hold the top and that bit, and the result is kept
    iff it gains no lower entry bit. Bit k of a mask stands for the k-th
    distinct matrix in first-seen order. Returns {closed mask: its top}."""
    table = LabelTable(tuple(j_labels))
    m = len(table)
    distinct = list(Counter(_pack_rows(seq_to_matrix(s, table.labels).rows, m) for s in seqs))
    every = (1 << len(distinct)) - 1
    column = [0] * (m * m)
    for k, d in enumerate(distinct):
        for e in _bit_indices(d):
            column[e] |= 1 << k
    entries = [(1 << e, col) for e, col in enumerate(column) if col]

    def top_of(mask):
        return sum(bit for bit, col in entries if mask & ~col == 0)

    groups = {}
    stack = [(every, top_of(every), 0)]
    while stack:
        mask, top, start = stack.pop()
        assert mask not in groups  # each group is reached once
        groups[mask] = top
        for k in range(start, len(entries)):
            bit, col = entries[k]
            sub = mask & col
            if sub and not top & bit:
                grown = top_of(sub)
                if grown & ~top & (bit - 1) == 0:  # gained no lower entry
                    stack.append((sub, grown, k + 1))
    return groups


def minimal_combinations_by_size(groups, r, meets):
    """The minimal combinations of group masks as hasse_cluster found them
    before the critical-extension search: each combination of 1..r of the
    ascending masks, size by size up to the number of groups, whose union
    meets and each of whose one-smaller sub-combinations fails. groups is
    a dict keyed by the masks (or any iterable of them); meets takes a
    union mask. Returns the combinations as ascending tuples."""
    masks = sorted(groups)

    def union(combo):
        got = 0
        for msk in combo:
            got |= msk
        return got

    found = []
    for size in range(1, min(r, len(masks)) + 1):
        for combo in combinations(masks, size):
            if meets(union(combo)) and not any(
                meets(union(sub)) for sub in combinations(combo, size - 1)
            ):
                found.append(combo)
    return found


def minimal_combinations_ascending(masks, r, need, covered_count):
    """The critical-extension search as hasse_cluster ran it before the
    gain bound: over the masks in ascending order, skipping a group at the
    last level when its own coverage is below the shortfall. masks must
    ascend. Yields (combo, covered), combo ascending."""
    if need <= 0:
        return
    own = [covered_count(msk) for msk in masks]
    stack = [((), 0, 0, (), 0)]
    while stack:
        combo, union, cov, private, start = stack.pop()
        last = len(combo) + 1 == r
        short = need - cov
        for k in range(start, len(masks)):
            if last and own[k] < short:
                continue
            msk = masks[k]
            gain = msk & ~union
            if not gain:
                continue
            for p in private:
                if not p & ~msk:
                    break
            else:
                got = covered_count(gain)
                if got < short:
                    if not last:
                        kept = tuple(p & ~msk for p in private) + (gain,)
                        stack.append((combo + (msk,), union | msk, cov + got, kept, k + 1))
                elif all(got - covered_count(p & ~msk) < short for p in private):
                    yield combo + (msk,), cov + got


def swap_meets_by_picks(combo, r, columns, meets):
    """The swap test as hasse_cluster ran it before it asked the
    minimal-combination search: with k = r - len(combo) + 1, for each
    member, each sub-mask on its own with the other members, then every k
    of the maximal sub-masks. meets takes a union mask."""

    def union(masks):
        got = 0
        for msk in masks:
            got |= msk
        return got

    k = r - len(combo) + 1
    for i, msk in enumerate(combo):
        rest = union(combo[:i] + combo[i + 1 :])
        subs = {msk & col for col in columns} - {msk}
        if not meets(rest | union(subs)):
            continue
        if any(meets(rest | sub) for sub in subs):
            return True
        if k > 1:
            maximal = [a for a in subs if not any(a != b and a & ~b == 0 for b in subs)]
            if len(maximal) <= k or any(
                meets(rest | union(pick)) for pick in combinations(maximal, k)
            ):
                return True
    return False


def order_rows_oracle(s, j_labels):
    """Packed order rows of one sequence, as seq_to_matrix computed them
    before the shared encoding: each label's occurrence positions, then
    max(positions of i) < min(positions of j) for every pair i != j."""
    pos = s.positions()
    occ = [tuple(pos.get(lab, ())) for lab in j_labels]
    rows = []
    for i, pi in enumerate(occ):
        row = 0
        for j, pj in enumerate(occ):
            if j != i and pi and pj and max(pi) < min(pj):
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def common_rows_oracle(seqs, j_labels):
    """Packed common-matrix rows by the per-sequence witness/veto loop."""
    m = len(j_labels)
    witness = [0] * m
    veto = [0] * m
    for s in seqs:
        rows = order_rows_oracle(s, j_labels)
        pos = s.positions()
        occurring = 0
        for j, lab in enumerate(j_labels):
            if pos.get(lab):
                occurring |= 1 << j
        for i in range(m):
            if occurring >> i & 1:
                witness[i] |= rows[i]
                veto[i] |= occurring & ~(1 << i) & ~rows[i]
    return tuple(w & ~v for w, v in zip(witness, veto))


def relevance_counts_oracle(episodes):
    """(win_counts, lose_counts) tallied one episode at a time over the
    universe of the first episode."""
    labels = episodes[0][0].universe.labels
    m = len(labels)
    counts = {c: [[0] * m for _ in range(m)] for c in (0, 1)}
    for s, label in episodes:
        rows = order_rows_oracle(s, labels)
        for i in range(m):
            for j in range(m):
                if rows[i] >> j & 1:
                    counts[label][i][j] += 1
    return tuple(tuple(tuple(row) for row in counts[c]) for c in (1, 0))


def order_key_positions(s, table):
    """(order rows, occurrence mask) of one sequence as `_order_key` built
    it before it scanned the sequence once: the table is checked against
    the sequence's universe, then each label's span is read from
    `positions()` and every pair of spans is compared."""
    for lab in table:
        if lab not in s.universe:
            raise LabelNotInUniverse(f"label {lab!r} not in sequence universe")
    pos = s.positions()
    spans = [(i, min(p), max(p)) for i, lab in enumerate(table) if (p := pos.get(lab))]
    rows = [0] * len(table)
    for i, _, last in spans:
        for j, first, _ in spans:
            if last < first:  # never for j == i
                rows[i] |= 1 << j
    return tuple(rows), sum(1 << i for i, _, _ in spans)


def encode_slots(seqs, table):
    """(keys, slots), the corpus encoding as it was before it kept only the
    distinct keys and their multiplicities: seqs[i] has key
    keys[slots[i]], keys are the distinct order keys in first-seen order,
    and key k's multiplicity is slots.count(k). Each distinct sequence is
    checked and encoded once."""

    def distinct(items):
        index = {}
        slots = [index.setdefault(x, len(index)) for x in items]
        return list(index), slots

    uniq, seq_slots = distinct(seqs)
    keys, key_slots = distinct([order_key_positions(s, table) for s in uniq])
    return keys, [key_slots[k] for k in seq_slots]


def relevance_scores_by_slots(episodes):
    """relevance_scores as it was before it counted the distinct (sequence,
    label) pairs: every episode is checked in order (a label equal to 0 or
    1 passes, True and 1.0 too), the corpus is encoded as keys plus slots,
    and each distinct (slot, label) pair adds its count to the tallies."""
    episodes = list(episodes)
    universe = None
    n_win = n_lose = 0
    for s, label in episodes:
        if label not in (0, 1):
            raise ValueError(f"class label must be 0 or 1, got {label!r}")
        if universe is None:
            universe = s.universe
        elif s.universe is not universe and s.universe != universe:
            raise LabelMismatch("all episodes must share one universe")
        if label == 1:
            n_win += 1
        else:
            n_lose += 1
    if n_win == 0 or n_lose == 0:
        raise MissingClass("need at least one episode of each class")
    m = len(universe)
    keys, slots = encode_slots([s for s, _ in episodes], _analysis_table(universe.labels))
    win_counts = [[0] * m for _ in range(m)]
    lose_counts = [[0] * m for _ in range(m)]
    for (k, label), c in Counter(zip(slots, (lab for _, lab in episodes))).items():
        target = win_counts if label == 1 else lose_counts
        for i in range(m):
            for j in _bit_indices(keys[k][0][i]):
                target[i][j] += c
    return RelevanceTable(
        universe,
        n_win,
        n_lose,
        tuple(tuple(row) for row in win_counts),
        tuple(tuple(row) for row in lose_counts),
    )


def relevance_scores_by_pairs(episodes):
    """relevance_scores as it was before it checked the episodes in one
    pass: the distinct (sequence, type(label), label) triples are counted
    first, the label's type in the key so that True is not counted as 1,
    and each is then checked in first-seen order; when the count raises
    (an episode that is not a pair, or an unhashable label), the episodes
    are checked again in order to raise the first fault among them."""

    def episode_universe(s, label, universe):
        if not is_class_label(label):
            raise ValueError(f"class label must be 0 or 1, got {label!r}")
        if universe is None:
            return s.universe
        if s.universe is not universe and s.universe != universe:
            raise LabelMismatch("all episodes must share one universe")
        return universe

    episodes = list(episodes)
    try:
        pairs = Counter((s, type(label), label) for s, label in episodes)
    except (TypeError, ValueError):
        universe = None
        for s, label in episodes:
            universe = episode_universe(s, label, universe)
        raise
    universe = None
    classes = (Counter(), Counter())  # [lose, win]: each sequence's count
    for (s, _, label), c in pairs.items():
        universe = episode_universe(s, label, universe)
        classes[label][s] += c
    n_lose, n_win = (cls.total() for cls in classes)
    if n_win == 0 or n_lose == 0:
        raise MissingClass("need at least one episode of each class")
    table = _analysis_table(universe.labels)
    m = len(table)
    counts = ([[0] * m for _ in range(m)], [[0] * m for _ in range(m)])  # [lose, win]
    for cls, target in zip(classes, counts):
        for rows, c in _encode(cls, table).items():
            for i, row in enumerate(rows):
                for j in _bit_indices(row):
                    target[i][j] += c
    lose_counts, win_counts = (tuple(map(tuple, target)) for target in counts)
    return RelevanceTable(universe, n_win, n_lose, win_counts, lose_counts)


def relevance_rows_ranked(table):
    """RelevanceTable.rows as it was before it sorted on the rank alone:
    each row keyed by (rank, i, j), with the label positions breaking
    ties."""
    entries = []
    labs = table.labels.labels
    for i in range(len(labs)):
        for j in range(len(labs)):
            if i == j:
                continue
            score = table.score(labs[i], labs[j])
            rank = (0, Fraction(0)) if score == math.inf else (1, -score)
            entries.append(
                (
                    (rank, i, j),
                    (labs[i], labs[j], score, table.win_counts[i][j], table.lose_counts[i][j]),
                )
            )
    entries.sort(key=lambda kv: kv[0])
    return [kv[1] for kv in entries]


def is_consistent_spans(s, w: Digraph) -> bool:
    """is_consistent as it was before it read `_order_key`: for each path
    u -> v of w between labels that both occur in s, the last occurrence
    of u must come before the first occurrence of v."""
    for lab in w.labels:
        if lab not in s.universe:
            raise LabelNotInUniverse(f"label {lab!r} not in sequence universe")
    pos = s.positions()
    closed = _closure_rows(w.rows)
    labs = w.labels.labels
    for u, row in enumerate(closed):
        pu = pos.get(labs[u])
        if pu is None:
            continue
        for v in _bit_indices(row):
            pv = pos.get(labs[v])
            if pv is not None and max(pu) >= min(pv):
                return False
    return True


def _relation_pairs(g: Digraph) -> frozenset[tuple[str, str]]:
    return r_set(g).pairs()


def check_consistency_equivalences(s: EventSequence, w: Digraph) -> bool:
    """Evaluate five characterizations of consistency; True iff they all
    agree (all True or all False).

    The five: (i) the direct definition; (ii) relation inclusion after
    restricting the sequence to w's labels; (iii) a morphism between the two
    graphs restricted to the shared occurring labels; (iv) a morphism from
    the sequence's full graph onto w restricted; (v) existence of a
    flattening of restricted w that the sequence's graph maps onto.
    Conditions (iv)/(v) compare relations as label-pair sets because their
    graphs live on nested, not equal, vertex sets.
    """
    if not s.is_simple:
        raise NotSimple("the equivalence harness needs a simple sequence")
    direct = is_consistent(s, w)

    occurring = set(s.events)
    shared = [lab for lab in w.labels if lab in occurring]

    if s.events:
        s_graph = stg(s)
        s_pairs = _relation_pairs(s_graph)
    else:
        s_graph = None
        s_pairs = frozenset()

    restricted_seq = restrict_sequence(s, w.labels.labels) if len(w.labels) else s
    if restricted_seq.events:
        rs_pairs = _relation_pairs(stg(restricted_seq))
    else:
        rs_pairs = frozenset()
    w_pairs = _relation_pairs(w)
    shared_set = set(shared)
    via_restriction = {
        (a, b) for a, b in w_pairs if a in shared_set and b in shared_set
    } <= rs_pairs

    if shared and s_graph is not None:
        s_shared_pairs = _relation_pairs(restrict(s_graph, shared))
        w_shared = restrict(w, shared)
        w_shared_pairs = _relation_pairs(w_shared)
        via_shared_morphism = w_shared_pairs <= s_shared_pairs
        via_nested_morphism = w_shared_pairs <= s_pairs
        via_flattening = any(
            _relation_pairs(z) <= s_pairs for z in flattenings(w_shared)
        )
    else:
        via_shared_morphism = via_nested_morphism = via_flattening = True

    votes = {direct, via_restriction, via_shared_morphism, via_nested_morphism, via_flattening}
    return len(votes) == 1


def parse_sequences_per_line(text: str, universe=None) -> SequenceRecords:
    """parse_sequences as it was before it read each distinct line once:
    every line is decoded and checked, and builds its own sequence. Lines
    end at "\n", "\r\n" and "\r", and a line of spaces and tabs is blank,
    as in the parser."""
    header_table = None
    rows = []
    numbers = []
    for number, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        if not line.strip(" \t"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"line {number}: invalid JSON at column {exc.colno}: {exc.msg}"
            ) from None
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: expected a JSON object")
        if "universe" in record and "events" not in record:
            if header_table is not None:
                raise ValueError(f"line {number}: duplicate universe header")
            labels = record["universe"]
            if type(labels) is not list or not all(type(x) is str for x in labels):
                raise ValueError(f"line {number}: universe must be a list of strings")
            try:
                header_table = LabelTable(tuple(labels))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            continue
        if "events" not in record:
            raise ValueError(f"line {number}: sequence record lacks events")
        if type(record["events"]) is not list:
            raise ValueError(f"line {number}: events must be a list of strings")
        label = record.get("label")
        if label is not None and (type(label) is not int or label not in (0, 1)):
            raise ValueError(f"line {number}: label must be 0 or 1, got {label!r}")
        rows.append(record)
        numbers.append(number)
    if universe is not None:
        universe = tuple(universe)
        if not all(type(x) is str for x in universe):
            raise ValueError("universe must be a list of strings")
        table = LabelTable(universe)
    elif header_table is not None:
        table = header_table
    else:
        raise ValueError("no universe: add a header record or pass one explicitly")
    sequences = []
    for number, row in zip(numbers, rows):
        try:
            sequences.append(EventSequence(table, tuple(row["events"])))
        except LabelNotInUniverse as exc:
            raise LabelNotInUniverse(f"line {number}: {exc}") from None
        except TypeError:
            raise ValueError(f"line {number}: events must be a list of strings") from None
    records = SequenceRecords(table, tuple(rows))
    object.__setattr__(records, "sequences", tuple(sequences))
    return records
