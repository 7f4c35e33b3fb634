"""Brute-force checks of the program's answers, written without the package.

Each check returns a list of problems; an empty list means the answer holds.
Matrices arrive as 0/1 entry lists, as the CLI prints them, and are packed
here into one int per row (bit j of row i is entry (i, j)).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def order_rows(events: tuple, labels: tuple) -> tuple[int, ...]:
    """Order matrix of one sequence over `labels`: entry (i, j) is 1 when both
    labels occur and every labels[i] comes before every labels[j]."""
    first: dict = {}
    last: dict = {}
    for pos, event in enumerate(events):
        first.setdefault(event, pos)
        last[event] = pos
    rows = []
    for a in labels:
        row = 0
        if a in last:
            for j, b in enumerate(labels):
                if b != a and b in first and last[a] < first[b]:
                    row |= 1 << j
        rows.append(row)
    return tuple(rows)


def pack(entries) -> tuple[int, ...]:
    return tuple(sum(cell << j for j, cell in enumerate(row)) for row in entries)


def _within(small, big) -> bool:
    return all(s & ~b == 0 for s, b in zip(small, big))


def _is_strict_order(rows) -> bool:
    for i, row in enumerate(rows):
        if row >> i & 1:
            return False
        for j in range(len(rows)):
            if row >> j & 1 and rows[j] & ~row:
                return False
    return True


def l1(a, b) -> int:
    return sum((x ^ y).bit_count() for x, y in zip(a, b))


def check_mine(payload, corpus, labels, t, r) -> list[str]:
    """A minimal-mode mining payload against its corpus of event tuples."""
    problems = []
    labels = tuple(labels)
    total = len(corpus)
    if payload["labels"] != list(labels) or payload["total"] != total:
        problems.append("payload labels or total differ from the input")
    if payload["r"] != r or Fraction(payload["t"]) != Fraction(t):
        problems.append("payload t or r differ from the request")
    if not payload["clusters"]:
        problems.append("no covering set")
    counts: dict = {}
    for events in corpus:
        rows = order_rows(events, labels)
        counts[rows] = counts.get(rows, 0) + 1
    threshold = Fraction(t)

    def covered(members) -> int:
        return sum(n for rows, n in counts.items() if any(_within(m, rows) for m in members))

    sets = []
    for k, cluster in enumerate(payload["clusters"]):
        members = [pack(entries) for entries in cluster["matrices"]]
        sets.append(members)
        if not 1 <= len(members) <= r or len(set(members)) != len(members):
            problems.append(f"set {k}: size {len(members)} outside 1..{r} or repeated")
        if not all(_is_strict_order(m) for m in members):
            problems.append(f"set {k}: a member is not a strict partial order")
        got = covered(members)
        cov = cluster["coverage"]
        if (cov["covered"], cov["total"]) != (got, total):
            problems.append(f"set {k}: covers {got}/{total}, reported {cov['covered']}/{cov['total']}")
        if Fraction(cov["fraction"]) != Fraction(got, total):
            problems.append(f"set {k}: coverage fraction {cov['fraction']} is wrong")
        if got * 100 < threshold * total:
            problems.append(f"set {k}: covers {got}/{total}, below t={t}")
        for size in range(1, len(members)):
            for sub in combinations(members, size):
                if covered(sub) * 100 >= threshold * total:
                    problems.append(f"set {k}: a proper subset already meets t")
    for a, b in combinations(range(len(sets)), 2):
        for x, y in ((a, b), (b, a)):
            if all(any(_within(yb, xa) for yb in sets[y]) for xa in sets[x]):
                problems.append(f"set {x} dominates output set {y}")
    return problems


def check_relevance(n_win, n_lose, rows, labeled, universe) -> list[str]:
    """Relevance rows (a, b, W, L, R) against (events, label) pairs."""
    problems = []
    universe = tuple(universe)
    wins = sum(1 for _, label in labeled if label == 1)
    losses = sum(1 for _, label in labeled if label == 0)
    if (n_win, n_lose) != (wins, losses) or wins + losses != len(labeled):
        problems.append(f"class sizes {n_win}/{n_lose}, expected {wins}/{losses}")
    m = len(universe)
    tally = {1: [[0] * m for _ in range(m)], 0: [[0] * m for _ in range(m)]}
    for (events, label), times in Counter((tuple(e), lab) for e, lab in labeled).items():
        target = tally[label]
        for i, row in enumerate(order_rows(events, universe)):
            for j in range(m):
                if row >> j & 1:
                    target[i][j] += times
    seen = set()
    keys = []
    for a, b, w, lose, rendered in rows:
        i, j = universe.index(a), universe.index(b)
        seen.add((i, j))
        if (w, lose) != (tally[1][i][j], tally[0][i][j]):
            problems.append(f"pair {a}<{b}: counts {w}/{lose}, expected {tally[1][i][j]}/{tally[0][i][j]}")
        if not (0 <= w <= wins and 0 <= lose <= losses):
            problems.append(f"pair {a}<{b}: counts exceed the class sizes")
        score = math.inf if lose == 0 else Fraction(w * losses, lose * wins)
        if rendered != ("inf" if score == math.inf else str(score)):
            problems.append(f"pair {a}<{b}: score {rendered}, expected {score}")
        keys.append((0, Fraction(0), i, j) if score == math.inf else (1, -score, i, j))
    if len(rows) != m * (m - 1) or len(seen) != m * (m - 1):
        problems.append("relevance rows do not list every ordered pair once")
    if keys != sorted(keys):
        problems.append("relevance rows are not in ranking order")
    return problems


def common_rows(member_events, labels) -> tuple[int, ...]:
    """Pairs witnessed in some member and violated in none, by definition."""
    labels = tuple(labels)
    m = len(labels)
    witnessed = [0] * m
    violated = [0] * m
    for events in set(map(tuple, member_events)):
        rows = order_rows(events, labels)
        present = [lab in events for lab in labels]
        for i in range(m):
            for j in range(m):
                if i != j and present[i] and present[j]:
                    if rows[i] >> j & 1:
                        witnessed[i] |= 1 << j
                    else:
                        violated[i] |= 1 << j
    return tuple(w & ~v for w, v in zip(witnessed, violated))


def check_partition(clusters, n) -> list[str]:
    flat = sorted(i for cluster in clusters for i in cluster)
    if flat != list(range(n)):
        return [f"clusters do not partition the {n} points"]
    return []


def check_dendrogram(merges, points, threshold, cut_clusters) -> list[str]:
    """Merge list validity, exact average-linkage heights, and the cut."""
    n = len(points)
    problems = []
    if len(merges) != n - 1:
        return [f"{len(merges)} merges for {n} leaves"]
    members = {i: [i] for i in range(n)}
    previous = None
    for k, (a, b, height) in enumerate(merges):
        if a == b or a not in members or b not in members:
            return [f"merge {k} joins invalid or consumed ids {a}, {b}"]
        height = Fraction(height)
        if previous is not None and height < previous:
            problems.append(f"merge {k}: height decreases")
        previous = height
        left, right = members.pop(a), members.pop(b)
        pair_sum = sum(l1(points[x], points[y]) for x in left for y in right)
        if height != Fraction(pair_sum, len(left) * len(right)):
            problems.append(f"merge {k}: height {height} is not the average linkage")
        members[n + k] = left + right
    expected = {i: [i] for i in range(n)}
    for k, (a, b, height) in enumerate(merges):
        if Fraction(height) > threshold:
            break
        expected[n + k] = expected.pop(a) + expected.pop(b)
    expected = sorted((sorted(v) for v in expected.values()), key=lambda c: c[0])
    if [list(c) for c in cut_clusters] != expected:
        problems.append("cut clusters differ from the merges below the threshold")
    return problems + check_partition(cut_clusters, n)


def check_dbscan(clusters, noise, points, eps) -> list[str]:
    """min_samples=1: clusters are the components of the eps graph."""
    n = len(points)
    problems = check_partition(clusters, n)
    if noise:
        problems.append("noise points with min_samples=1")
    owner = {i: k for k, cluster in enumerate(clusters) for i in cluster}
    near = [[j for j in range(n) if l1(points[i], points[j]) <= eps] for i in range(n)]
    if any(owner.get(i) != owner.get(j) for i in range(n) for j in near[i]):
        problems.append("two points within eps fall in different clusters")
    for k, cluster in enumerate(clusters):
        reached = {cluster[0]}
        stack = [cluster[0]]
        while stack:
            for j in near[stack.pop()]:
                if j not in reached:
                    reached.add(j)
                    stack.append(j)
        if reached != set(cluster):
            problems.append(f"cluster {k} is not one eps-connected component")
    return problems
