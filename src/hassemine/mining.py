"""Order mining over label sequences.

Two operations: Hasse clustering (undominated small sets of quasi-skeleton
graphs covering a required share of the sequences) and win/lose relevance
scoring of ordered label pairs. Both read the corpus encoding of
`sequences`, which also holds the per-sequence order matrix and the common
matrix; `seq_to_matrix` and `common_matrix` stay importable from here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    EmptyInput,
    InvalidMode,
    InvalidThreshold,
    LabelMismatch,
    MissingClass,
)
from .exact import exact_fraction, is_class_label, is_count
from .graphs import (
    BoolMatrix,
    Digraph,
    LabelTable,
    _bit_indices,
    _check_label_count,
    _closure_rows,
    _pack_rows,
    _transpose,
    _unpack_rows,
)
from .sequences import AnySequence, _analysis_table, _encode, flattenings
from .sequences import common_matrix, seq_to_matrix  # re-exported


@dataclass(frozen=True)
class ClusterOutput:
    """Undominated candidate graph sets, with per-set coverage counts.

    clusters[i] holds the path matrices of the i-th output set in canonical
    order; covered[i] counts the input sequences whose graph maps into at
    least one member.
    """

    clusters: tuple[tuple[BoolMatrix, ...], ...]
    covered: tuple[int, ...]
    total: int
    threshold: Fraction
    r: int
    mode: str

    def coverage_fraction(self, i: int) -> Fraction:
        return Fraction(self.covered[i], self.total)


def _threshold_fraction(t) -> Fraction:
    try:
        frac = exact_fraction(t)
    except (ValueError, TypeError) as exc:
        raise InvalidThreshold(f"threshold {t!r} is not a number") from exc
    if frac < 0 or frac > 100:
        raise InvalidThreshold(f"threshold must lie in [0, 100], got {t!r}")
    return frac


def _union(masks) -> int:
    union = 0
    for msk in masks:
        union |= msk
    return union


def _swap_meets(combo: tuple[int, ...], r: int, columns, need: int, covered_count) -> bool:
    """Whether another candidate dominates the minimal combination combo:
    the swap test in hasse_cluster's docstring. columns holds the column
    masks; a union meets the threshold iff covered_count gives it at
    least need. When no single sub-mask meets with the other members and
    k > 1, whether at most k of them do is asked of the minimal-combination
    search, on the bits that the sub-masks add to the other members'
    union."""
    k = r - len(combo) + 1
    for i, msk in enumerate(combo):
        rest = _union(combo[:i] + combo[i + 1 :])
        subs = {msk & col for col in columns} - {msk}
        if covered_count(rest | _union(subs)) < need:
            continue
        if any(covered_count(rest | sub) >= need for sub in subs):
            return True
        if k > 1:
            gains = {sub & ~rest for sub in subs} - {0}
            short = need - covered_count(rest)
            if next(_minimal_combinations(gains, k, short, covered_count), None):
                return True
    return False


def _coverage_counter(mult: list[int]):
    """covered_count(mask): the sum of mult[j] over the bits j of mask.

    One table per 8 bits answers a byte at a time: entry b of table c sums
    mult[8c + j] over the bits j of b. A table doubles once per bit, the
    new half adding that bit's multiplicity to the old half; the top one
    stops at the last bit, as no mask reaches past it.
    """
    tables = []
    for lo in range(0, len(mult), 8):
        tab = [0]
        for c in mult[lo : lo + 8]:
            tab += [got + c for got in tab]
        tables.append(tab)

    def covered_count(mask: int) -> int:
        got = 0
        for tab in tables:
            got += tab[mask & 255]
            mask >>= 8
        return got

    return covered_count


def _minimal_combinations(masks, r: int, need: int, covered_count):
    """Yield (combo, covered) for every minimal combination of at most r of
    the distinct masks, given in any order: its union covers at least
    need, and the union of any of its proper sub-combinations covers less.
    combo ascends. The critical-extension search with the gain bound in
    hasse_cluster's docstring."""
    if need <= 0:  # the empty combination already meets
        return
    masks = sorted(masks, key=covered_count, reverse=True)
    r = min(r, _union(masks).bit_count())  # each member holds a private bit

    def minus_own(msk: int) -> int:  # ascends along masks
        return -covered_count(msk)

    # combo, its union and coverage, each member's private bits, next index
    stack = [((), 0, 0, (), 0)]
    while stack:
        combo, union, cov, private, start = stack.pop()
        more = r - len(combo) - 1  # members a child may still take
        short = need - cov
        end = len(masks)
        if not more:  # a last member's gain, at most its own coverage, covers short
            end = bisect_left(masks, 1 - short, start, key=minus_own)
        largest, held = [], 0  # the `more` largest gains after k, ascending
        for k in range(end - 1, start - 1, -1):
            msk = masks[k]
            gain = msk & ~union
            if not gain:
                continue
            got = covered_count(gain)
            if got + held >= short:  # else no combination through this child meets
                for p in private:
                    if not p & ~msk:  # a member would lose its last private bit
                        break
                else:
                    if got < short:
                        kept = tuple(p & ~msk for p in private) + (gain,)
                        stack.append((combo + (msk,), union | msk, cov + got, kept, k + 1))
                    elif all(got - covered_count(p & ~msk) < short for p in private):
                        yield tuple(sorted(combo + (msk,))), cov + got
            if len(largest) < more:
                insort(largest, got)
                held += got
            elif more and got > largest[0]:
                held += got - largest.pop(0)
                insort(largest, got)


def hasse_cluster(
    seqs: Iterable[AnySequence],
    j_labels: Iterable[str],
    t,
    r: int,
    mode: str = "minimal",
) -> ClusterOutput:
    """Cluster sequences by undominated sets of at most r order graphs.

    Each sequence's order matrix is read as a graph G_i; a candidate is a
    set of at most r quasi-skeleton graphs such that the sequences whose G_i
    maps into some member make up at least t percent of the input. In
    minimal mode (default) only candidates with no threshold-meeting proper
    subset are kept; literal mode keeps every candidate. A candidate is
    output iff no other candidate dominates it, where C' dominates C'' when
    every member of C' has a generalization in C''. At t = 0 minimal mode
    yields no sets (the CLI exits 3): the empty set already meets the
    threshold, so every candidate has a threshold-meeting proper subset.

    In literal mode, candidates that dominate each other all drop, so the
    output can be empty where minimal mode returns a set. When the arrowless
    graph is the only one under any sequence, every candidate holds it,
    and {arrowless} and {arrowless, H} dominate each other for every H: at
    r >= 2 literal mode outputs nothing, minimal mode {arrowless}
    (test_hasse_cluster_mode_divergence pins this).

    Graphs are grouped by the mask of distinct sequence matrices they lie
    under, and candidates come from combinations of group masks. The mask
    of a graph h is the AND of column[e] over the entry bits e of h, where
    column[e] is the mask of the matrices holding e (every matrix when h
    is arrowless). A combination is minimal when its union meets the
    threshold and the union of no proper sub-combination does. The empty
    combination meets only at t = 0, which is how t = 0 yields no sets.

    The minimal combinations are found by critical extension, as in the
    MMCS minimal-transversal search (Murakami & Uno 2014): a depth-first
    search over the group masks in one fixed order, descending coverage
    (see below). The private bits of a member are the bits of its mask
    that no other member covers. A combination is extended, by a mask
    after its last, only while its union fails t, and an extension is
    dropped if the new mask brings no new bit or leaves an old member
    without a private bit. Every prefix P of a minimal combination C, in
    the search order, is reached, whatever that fixed order is: P fails,
    being a proper sub-combination of C; each member of C has a private
    bit in C, or dropping it would leave C's union and coverage
    unchanged; and a member's private bits in C lie among its private
    bits in P, which has fewer other members. Extensions only add
    members, so a member that has lost its private bits never gets one
    back, and the dropped branches hold no minimal combination. Dropping
    a member from a combination removes exactly its private bits from the
    union. So a meeting combination is minimal iff, for each old member,
    its coverage less that of the member's private bits fails t; dropping
    the new member gives back the parent's union, which fails by
    construction. The members' private bits are nonempty and disjoint, so
    no combination holds more members than its masks cover bits, at most
    the distinct matrices, and the search caps r there, whatever r is.

    Coverage is an integer: the sum of the multiplicities of the matrices
    in a union, read a byte at a time from tables, and it meets t iff it
    reaches need = ceil(t * total / 100). A child's coverage is its
    parent's plus that of the bits it gains. Coverage is a weighted set
    union, so it is submodular: a mask's gain over a union never grows as
    the union grows. A child at depth s + 1, by mask k, may take at most
    r - s - 1 more masks after k, so every combination below it covers at
    most its parent's coverage plus the gain of k plus the sum of the
    r - s - 1 largest gains after k, all over the parent's union: the
    greedy bound of Nemhauser, Wolsey & Fisher (1978). A child whose bound
    is below need holds no minimal combination and is dropped, which is
    branch and bound (Land & Doig 1960). Each node reads the gain of
    every later mask and sums the largest from the right, keeping a short
    ascending list of them. The bound bites when the large gains come
    first, so the masks are visited in descending order of their own
    coverage, and each combination is sorted before it is yielded. A
    last member must cover the shortfall with its gain alone, and a gain
    is at most its mask's own coverage, so at the last level only the
    masks before the first whose own coverage falls short are read; a
    bisection finds it. The search keeps no state but its stack, whose
    depth is bounded as above.

    Both modes find the groups without a catalog. If h has mask M != 0,
    then h lies inside the AND of M, and every matrix holding that AND
    holds h, so the AND has mask M too: a nonempty group is closed, and
    its top is the AND of its mask: the entries whose column holds M.
    Every group mask is the AND of the columns of a set of entries, those
    of any member. Conversely, let the AND M of the columns of a set E of
    entries be nonzero, and let b be the AND of the matrices in M, a
    strict order. b holds E, so its mask lies inside M; every matrix in M
    holds b, so M lies inside its mask: M is the mask of b. So the
    nonempty groups are the nonzero ANDs of sets of columns, the empty set
    giving every matrix: the closure system of the column extents, as in
    formal concept analysis (Ganter & Wille 1999). One fold over the
    columns finds them: from {every}, each column in turn is ANDed with
    every mask found so far and the nonzero results join them. After a
    column, the masks are the nonzero ANDs of sets of the columns so far,
    as a zero AND stays zero under any later column. That is at most
    (number of entries) x (number of groups) ANDs, however many matrices
    there are. At m <= 6 there are at most 130023 groups. A top costs
    m(m-1) column tests, so it is read only for the members of a
    combination that (c) below tests or that is output.

    Minimal mode emits one candidate per minimal combination: its groups'
    tops. Every other member of a group M is a proper subset of its top.
    The mask-0 group never enters a minimal combination, as dropping it
    leaves the union unchanged. So the tops dominate every other pick of
    one member per group, and every candidate that such a pick dominates.
    No other pick dominates its tops: a generalization of a member of
    group M lies in a group whose mask holds M, and a minimal combination
    holds no mask inside another. The output is thus the one that taking
    every pick would give.

    One local swap test decides dominance in both modes: minimal mode runs
    it on every minimal combination, literal mode on those of r members
    ((d) below). Take a minimal combination C = {M_1..M_s} with tops b_i,
    and let k = r - s + 1. C is dominated iff, for some i, the union of
    the other members' masks, ORed with at most k sub-masks of M_i, meets
    t. A sub-mask is any M_i & column[e] other than M_i: every matrix in
    M_i holds the entries of b_i, and b_i holds every entry that they all
    hold, so M_i & column[e] differs from M_i exactly when e lies outside
    b_i. As the matrices are transitive, M_i & column[e] is the mask of
    the closure of b_i plus e, so it is closed (and 0 if e closes a
    cycle).
    Only if: let C' dominate C. Map each member of C' to a member of C
    that it specializes. The image is all of C: if it were a proper
    subset, that subset would meet, against C's minimality. Some b_i is
    not in C', or else C' strictly holds C, and then C' is not minimal
    (minimal mode) or has more than r members (literal mode, where
    s = r). So the preimage of b_i holds at most |C'| - (s - 1) <= k
    proper specializations of b_i, and each lies inside some
    M_i & column[e] with e outside b_i. The rest of C' lies inside the
    other M_j, so putting M_j back for every j != i keeps the threshold.
    If: shrink a meeting swap to a minimal combination. It has at most r
    members, each a closed mask. It is not inside C minus M_i, which
    fails by C's minimality, so it holds a proper specialization of b_i:
    it differs from C and dominates it.
    The checks run cheapest first, at O(m^2) mask operations each:
    member i is passed over when the other masks with all of its
    sub-masks fail; then each sub-mask is tried on its own. Only then,
    when k > 1, is the question put to the minimal-combination search:
    over the bits the sub-masks add to the others' union, with need less
    the others' coverage, some combination of at most k meets iff a
    minimal one does, so the first one found settles it. The gain bound
    drops a pick of k sub-masks that cannot cover the shortfall without
    trying it.

    Literal mode's candidates are the sets C of 1..r strict orders whose
    coverage meets t, and C is output iff no other candidate C' lies in
    the up-set of C, each member of C' specializing some member of C.
    Write M_i for the mask of member b_i of C.
    (a) Every member is a group top. A member that is not its group's top
        is dominated: swap in the top, or drop the member if the top is
        already in C; coverage does not change. At t > 0 a member under
        no sequence (mask 0) drops the same way, as C then has another.
    (b) C is a minimal combination: a proper subset of C that meets
        dominates C. So no member of C specializes another, either.
    (c) If |C| < r, adding a proper specialization of a member keeps the
        threshold, so C survives iff every top is a linear order (it has
        m(m-1)/2 entries). Then a dominating C' is a subset of C, which
        fails by (b).
    (d) If |C| = r, the swap test above decides, with k = 1: C survives
        iff for each i and each entry e outside b_i, the other masks with
        M_i & column[e] fail.
    (e) At t = 0 every set meets. A set of two or more is dominated by
        any one of its members, and a single non-linear order by a proper
        specialization, so the output is every linear order, each as its
        own set with its own coverage, for any r.
    """
    seqs = list(seqs)
    if not seqs:
        raise EmptyInput("clustering needs at least one sequence")
    if mode not in ("minimal", "literal"):
        raise InvalidMode(f"unknown mode {mode!r}")
    if not is_count(r):
        raise InvalidThreshold(f"candidate size cap must be a positive integer, got {r!r}")
    frac = _threshold_fraction(t)
    table = _analysis_table(j_labels)
    m = len(table)
    _check_label_count(m)

    counts = _encode(Counter(seqs), table)
    mult = list(counts.values())
    d_flats = [_pack_rows(rows, m) for rows in counts]

    # column[e]: the distinct matrices that hold entry bit e
    every = (1 << len(d_flats)) - 1
    column = _transpose(d_flats, m * m)
    columns = set(column) - {0}

    def top_of(mask: int) -> int:
        """The top of the group with this nonzero mask."""
        return sum(1 << e for e, col in enumerate(column) if mask & ~col == 0)

    # the group masks: the nonzero ANDs of sets of columns, one column at a time
    groups = {every}
    for col in columns:
        groups |= {msk & col for msk in groups} - {0}

    total = len(seqs)
    # coverage meets t iff covered * 100 >= t * total
    need = -(-frac.numerator * total // (100 * frac.denominator))
    covered_count = _coverage_counter(mult)

    def keeps(combo: tuple[int, ...]) -> bool:
        """(c) above in literal mode below r members, else the swap test."""
        if mode == "literal" and len(combo) < r:
            return all(top_of(msk).bit_count() == m * (m - 1) // 2 for msk in combo)
        return not _swap_meets(combo, r, columns, need, covered_count)

    candidates: list[tuple[tuple[int, ...], int]] = []  # (member flats, covered)
    if mode == "literal" and frac == 0:  # (e) above
        for path in flattenings(Digraph.arrowless(table)):
            rows = _closure_rows(path.rows)
            # only a sequence with this very matrix lies over a linear order
            candidates.append(((_pack_rows(rows, m),), counts[rows]))
    else:
        for combo, cov in _minimal_combinations(sorted(groups), r, need, covered_count):
            if keeps(combo):
                candidates.append((tuple(sorted(top_of(msk) for msk in combo)), cov))
    # Flats ascend with the canonical order, so this is the canonical order.
    candidates.sort(key=lambda cand: (len(cand[0]), cand[0]))
    clusters = tuple(
        tuple(BoolMatrix(table, _unpack_rows(h, m)) for h in members)
        for members, _ in candidates
    )
    covered = tuple(cov for _, cov in candidates)
    return ClusterOutput(clusters, covered, total, frac, r, mode)


@dataclass(frozen=True)
class RelevanceTable:
    """Win/lose relevance ratios for ordered label pairs, with audit counts.

    win_counts[i][j] counts winning sequences where labels i and j both
    occur and i comes entirely first; lose_counts is the losing-side
    analogue. The score of a pair is the ratio of its per-class rates and is
    infinite exactly when the losing-side count is zero.
    """

    labels: LabelTable
    n_win: int
    n_lose: int
    win_counts: tuple[tuple[int, ...], ...]
    lose_counts: tuple[tuple[int, ...], ...]

    def score(self, a: str, b: str):
        """Relevance of 'a entirely before b': Fraction, or math.inf."""
        i = self.labels.position(a)
        j = self.labels.position(b)
        if i == j:
            raise ValueError("relevance is only defined for distinct labels")
        w = self.win_counts[i][j]
        lose = self.lose_counts[i][j]
        if lose == 0:
            return math.inf
        return Fraction(w * self.n_lose, lose * self.n_win)

    def rows(self) -> list[tuple[str, str, object, int, int]]:
        """(a, b, score, win_count, lose_count) rows, most relevant first.

        Infinite scores come first, then descending finite scores; ties fall
        back to label-table position order.
        """
        labs = self.labels.labels
        rows = [
            (a, b, self.score(a, b), self.win_counts[i][j], self.lose_counts[i][j])
            for i, a in enumerate(labs) for j, b in enumerate(labs) if i != j
        ]
        # built in position order; the sort is stable, so ties keep it
        rows.sort(key=lambda row: (0, 0) if row[2] == math.inf else (1, -row[2]))
        return rows


def relevance_scores(episodes: Iterable[tuple[AnySequence, int]]) -> RelevanceTable:
    """Score ordered label pairs by how exclusively winners exhibit them.

    episodes pairs each sequence with a class label, the int 1 (win) or
    0 (lose); both classes must be present. The score of (i, j) is the
    winners' rate of 'both occur, i entirely first' divided by the losers'
    rate. The episodes are checked in order, each against the first
    one's universe; each class is counted once from the list of its
    sequences and read as its distinct order matrices, each weighted by
    its multiplicity.
    """
    universe = None
    members = ([], [])  # [lose, win]: each class's sequences
    for s, label in episodes:
        if not is_class_label(label):
            raise ValueError(f"class label must be 0 or 1, got {label!r}")
        if universe is None:
            universe = s.universe
        elif s.universe is not universe and s.universe != universe:
            raise LabelMismatch("all episodes must share one universe")
        members[label].append(s)
    n_lose, n_win = map(len, members)
    if n_win == 0 or n_lose == 0:
        raise MissingClass("need at least one episode of each class")
    table = _analysis_table(universe.labels)
    m = len(table)
    counts = ([[0] * m for _ in range(m)], [[0] * m for _ in range(m)])  # [lose, win]
    for seqs, target in zip(members, counts):
        for rows, c in _encode(Counter(seqs), table).items():
            for i, row in enumerate(rows):
                for j in _bit_indices(row):
                    target[i][j] += c
    lose_counts, win_counts = (tuple(map(tuple, target)) for target in counts)
    return RelevanceTable(universe, n_win, n_lose, win_counts, lose_counts)
