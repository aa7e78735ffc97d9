"""Walk counts and distance matrices.

Four routes to the distance matrix: adjacency-matrix powers (walk counting
with exact big integers), per-source BFS (the engineering baseline used as a
cross-check), per-source Dial bucket queue for positive integer weights
(unweighted graphs included), and Floyd-Warshall for any exact weights,
including negative ones as long as no directed circuit has negative total
weight. distance_matrix picks Dial when it applies and Floyd-Warshall
otherwise.

Unreachable pairs are marked with UNREACHABLE (float infinity): it compares
exactly against ints and Fractions and never collides with a real distance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graph import Graph, Weight

UNREACHABLE = math.inf


class NegativeCycleError(ValueError):
    """A directed circuit of negative total weight was detected."""

    def __init__(self, vertex: int):
        super().__init__(f"negative directed circuit through vertex {vertex}")
        self.vertex = vertex


class UnreachableError(ValueError):
    """An operation required a finite distance for an unreachable pair."""


class WeightError(ValueError):
    """Arc weights outside {1, 2, ...}, which Dial and the level recursion need."""


class DistanceMatrix:
    """n x n matrix of exact shortest-path weights, 1-based access.

    rows[u][v] is dist(u, v) or UNREACHABLE; row 0 and column 0 are unused
    padding so vertex ids index directly.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list[list]):
        self.n = n
        self.rows = rows

    def dist(self, s: int, t: int):
        return self.rows[s][t]

    def is_reachable(self, s: int, t: int) -> bool:
        return self.rows[s][t] != UNREACHABLE

    def max_finite(self):
        """Largest finite entry (0 for an edgeless graph)."""
        best = 0
        for u in range(1, self.n + 1):
            row = self.rows[u]
            for v in range(1, self.n + 1):
                d = row[v]
                if d != UNREACHABLE and d > best:
                    best = d
        return best

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        if self.n != other.n:
            return False
        return all(self.rows[u][1:self.n + 1] == other.rows[u][1:self.n + 1]
                   for u in range(1, self.n + 1))

    def __repr__(self):
        return f"<DistanceMatrix n={self.n}>"


class CountMatrix:
    """Number of x-y walks of one fixed length, exact big integers."""

    __slots__ = ("n", "k", "rows")

    def __init__(self, n: int, k: int, rows: list[list[int]]):
        self.n = n
        self.k = k
        self.rows = rows

    def entry(self, x: int, y: int) -> int:
        return self.rows[x][y]


@dataclass
class PowerMethodResult:
    distances: DistanceMatrix
    delta: int  # largest finite off-diagonal distance found


def _adjacency_rows(g: Graph) -> list[list[int]]:
    rows = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for u, v, _ in g.arcs():
        rows[u][v] = 1
    return rows


def _multiply_counts(b: list[list[int]], g: Graph) -> list[list[int]]:
    # One application of the walk-splitting recurrence: C = B * A, done
    # sparsely over the arcs leaving each intermediate vertex.
    n = g.n
    c = [[0] * (n + 1) for _ in range(n + 1)]
    for x in range(1, n + 1):
        brow = b[x]
        crow = c[x]
        for z in range(1, n + 1):
            bxz = brow[z]
            if bxz:
                for y, _ in g.neighbors(z):
                    crow[y] += bxz
    return c


def walk_counts(g: Graph, k: int) -> CountMatrix:
    """Count x-y walks of length exactly k, for every ordered pair.

    Weights are ignored; counts are exact (they grow exponentially in k).
    """
    if k < 1:
        raise ValueError(f"walk length must be >= 1, got {k}")
    rows = _adjacency_rows(g)
    for _ in range(k - 1):
        rows = _multiply_counts(rows, g)
    return CountMatrix(g.n, k, rows)


def distance_matrix_power(g: Graph) -> PowerMethodResult:
    """Unweighted distances by iterating adjacency-matrix powers.

    For each pair, the distance is the first power with a nonzero walk count.
    Iteration stops when every pair is resolved or after n powers; pairs still
    unresolved are unreachable.
    """
    n = g.n
    dist = [[UNREACHABLE] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        dist[v][v] = 0
    unresolved = {(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y}
    rows = _adjacency_rows(g)
    delta = 0
    k = 1
    while unresolved and k <= n:
        if k > 1:
            rows = _multiply_counts(rows, g)
        resolved = [p for p in unresolved if rows[p[0]][p[1]]]
        for x, y in resolved:
            dist[x][y] = k
            unresolved.discard((x, y))
        if resolved:
            delta = k
        k += 1
    return PowerMethodResult(DistanceMatrix(n, dist), delta)


def distance_matrix_bfs(g: Graph) -> DistanceMatrix:
    """Unweighted distances by breadth-first search from every source."""
    n = g.n
    adj = [[]] + [[v for v, _ in g.neighbors(u)] for u in range(1, n + 1)]
    out = [[UNREACHABLE] * (n + 1)]
    for s in range(1, n + 1):
        row = [UNREACHABLE] * (n + 1)
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = row[u] + 1
            for v in adj[u]:
                if row[v] == UNREACHABLE:
                    row[v] = du
                    queue.append(v)
        out.append(row)
    return DistanceMatrix(n, out)


def floyd_warshall(g: Graph) -> DistanceMatrix:
    """Weighted distances by vertex elimination in ascending id order.

    Accepts negative arc weights; raises NegativeCycleError as soon as a
    diagonal entry goes negative after an elimination sweep.
    """
    n = g.n
    dist = [[UNREACHABLE] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        dist[v][v] = 0
    for u, v, w in g.arcs():
        dist[u][v] = w
    for k in range(1, n + 1):
        rowk = dist[k]
        for s in range(1, n + 1):
            rows = dist[s]
            dsk = rows[k]
            if dsk == UNREACHABLE:
                continue
            for t in range(1, n + 1):
                via = dsk + rowk[t]
                if via < rows[t]:
                    rows[t] = via
        for v in range(1, n + 1):
            if dist[v][v] < 0:
                raise NegativeCycleError(v)
    return DistanceMatrix(n, dist)


def _positive_int_max_weight(g: Graph) -> int | None:
    """Largest arc weight (1 with no arcs) if every weight is a positive int,
    else None."""
    if not g.weighted:
        return 1
    mu = 1
    for u in range(1, g.n + 1):
        for _, w in g.neighbors(u):
            if not isinstance(w, int) or w < 1:
                return None
            if w > mu:
                mu = w
    return mu


def distance_matrix_dial(g: Graph) -> DistanceMatrix:
    """Positive-integer distances by Dial's bucket queue from every source.

    R. Dial, "Algorithm 360: Shortest-path forest with topological
    ordering", CACM 12(11), 1969. Tentative distances d..d+mu fit a cyclic
    window of mu+1 buckets (mu the largest arc weight), so bucket d is
    complete when it is reached; an entry whose vertex has since moved to a
    smaller bucket is stale and skipped. A source is done after mu
    consecutive empty buckets. With mu = 1 this is breadth-first search.
    Time is O(m + largest distance) per source, so large mu is slow.
    Raises WeightError unless every weight is a positive int.
    """
    mu = _positive_int_max_weight(g)
    if mu is None:
        raise WeightError("Dial needs positive integer arc weights")
    n = g.n
    # per vertex, its out-neighbors grouped as (weight, ascending ids), so one
    # bucket lookup serves a whole group
    groups: list[list[tuple[int, list[int]]]] = [[]]
    for u in range(1, n + 1):
        by_w: dict[int, list[int]] = {}
        for v, w in g.neighbors(u):
            by_w.setdefault(w, []).append(v)
        groups.append(list(by_w.items()))
    size = mu + 1
    # Larger than any distance ((n-1)*mu at most) and, for moderate n*mu, a
    # small int, which compares faster than UNREACHABLE in the inner loop.
    far = n * mu
    out = [[UNREACHABLE] * (n + 1)]
    for s in range(1, n + 1):
        row = [far] * (n + 1)
        row[s] = 0
        buckets: list[list[int]] = [[] for _ in range(size)]
        buckets[0].append(s)
        d = 0
        empty_run = 0
        while empty_run < mu:
            slot = d % size
            bucket = buckets[slot]
            if bucket:
                empty_run = 0
                buckets[slot] = []
                for u in bucket:
                    if row[u] != d:
                        continue  # stale: u was settled in an earlier bucket
                    for w, vs in groups[u]:
                        nd = d + w
                        target = buckets[nd % size]
                        for v in vs:
                            if nd < row[v]:
                                row[v] = nd
                                target.append(v)
            else:
                empty_run += 1
            d += 1
        # every entry still at far is unreachable (index 0 is padding)
        i = -1
        for _ in range(row.count(far)):
            i = row.index(far, i + 1)
            row[i] = UNREACHABLE
        out.append(row)
    return DistanceMatrix(n, out)


def distance_matrix(g: Graph) -> DistanceMatrix:
    """Distance matrix by the cheapest applicable method.

    Dial's bucket queue when every arc weight is a positive int (unweighted
    graphs included) and the largest weight mu is at most n; Floyd-Warshall
    otherwise: for rational, zero or negative weights, where it raises
    NegativeCycleError on a negative directed circuit, and for mu > n, where
    Dial's O(n*m + n*n*mu) is no longer below Floyd-Warshall's O(n**3).
    """
    mu = _positive_int_max_weight(g)
    if mu is not None and mu <= g.n:
        return distance_matrix_dial(g)
    return floyd_warshall(g)
