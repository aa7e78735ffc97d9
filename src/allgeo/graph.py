"""Graph representation, parsing and structural queries.

Vertices are integers 1..n in all external I/O. Undirected graphs are stored
as digraphs with mirror arc pairs, so every algorithm downstream only has to
deal with directed arcs. Weights are exact (int or Fraction) -- geodesic
membership is an equality test, so floats are never used.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Weight = Union[int, Fraction]


class GraphFormatError(ValueError):
    """Malformed graph text or a violated structural invariant."""


class PathError(ValueError):
    """A vertex sequence that is not a valid simple path of the graph."""


def _parse_weight(token: str) -> Weight:
    if "/" in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(f"bad weight {token!r}") from exc
    try:
        return int(token)
    except ValueError as exc:
        raise GraphFormatError(f"bad weight {token!r}") from exc


class Graph:
    """Immutable simple (di)graph with exact arc weights.

    No self-loops, no parallel arcs. An undirected edge is represented by the
    two mirror arcs (u,v) and (v,u) with equal weight.
    """

    __slots__ = ("n", "directed", "weighted", "_weights", "_adj")

    def __init__(self, n: int, directed: bool, weighted: bool,
                 arcs: Iterable[tuple[int, int, Weight]]):
        if n < 1:
            raise GraphFormatError("vertex count must be >= 1")
        self.n = n
        self.directed = directed
        self.weighted = weighted
        weights: dict[tuple[int, int], Weight] = {}
        for u, v, w in arcs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex id out of range in arc ({u},{v})")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if (u, v) in weights:
                raise GraphFormatError(f"duplicate arc ({u},{v})")
            if not weighted and w != 1:
                raise GraphFormatError("unweighted graph with non-unit weight")
            weights[(u, v)] = w
            if not directed:
                if (v, u) in weights and weights[(v, u)] != w:
                    raise GraphFormatError(f"conflicting weights for edge {{{u},{v}}}")
                weights[(v, u)] = w
        self._weights = weights
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(n + 1)]
        for (u, v), w in weights.items():
            adj[u].append((v, w))
        for row in adj:
            row.sort()
        self._adj = adj

    # -- queries ----------------------------------------------------------

    def check_vertex(self, v: int) -> None:
        """Raise GraphFormatError unless v is a vertex id (1..n)."""
        if not (1 <= v <= self.n):
            raise GraphFormatError(f"vertex id {v} out of range")

    def neighbors(self, v: int) -> list[tuple[int, Weight]]:
        """Out-neighbors of v with arc weights, ascending by vertex id."""
        if not (1 <= v <= self.n):
            raise GraphFormatError(f"vertex id {v} out of range")
        return self._adj[v]

    def arc_weight(self, u: int, v: int) -> Weight:
        try:
            return self._weights[(u, v)]
        except KeyError:
            raise GraphFormatError(f"no arc ({u},{v})") from None

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._weights

    def arcs(self) -> Iterator[tuple[int, int, Weight]]:
        """All arcs in ascending (u, v) order (mirror pairs included)."""
        for (u, v) in sorted(self._weights):
            yield u, v, self._weights[(u, v)]

    @property
    def arc_count(self) -> int:
        return len(self._weights)

    def max_arc_weight(self) -> Weight:
        if not self._weights:
            raise GraphFormatError("graph has no arcs")
        return max(self._weights.values())

    def _reachable(self, start: int, adj: Sequence[Sequence[tuple[int, Weight]]]) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def is_connected(self) -> bool:
        """Connectivity ignoring arc directions."""
        undirected: list[list[tuple[int, Weight]]] = [[] for _ in range(self.n + 1)]
        for (u, v), w in self._weights.items():
            undirected[u].append((v, w))
            undirected[v].append((u, w))
        return len(self._reachable(1, undirected)) == self.n

    def is_strongly_connected(self) -> bool:
        if len(self._reachable(1, self._adj)) != self.n:
            return False
        rev: list[list[tuple[int, Weight]]] = [[] for _ in range(self.n + 1)]
        for (u, v), w in self._weights.items():
            rev[v].append((u, w))
        return len(self._reachable(1, rev)) == self.n

    # -- equality (used by round-trip tests) ------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.directed == other.directed
                and self.weighted == other.weighted
                and self._weights == other._weights)

    def __hash__(self):
        return hash((self.n, self.directed, self.weighted,
                     frozenset(self._weights.items())))

    def __repr__(self):
        kind = "digraph" if self.directed else "graph"
        return f"<{kind} n={self.n} arcs={len(self._weights)}>"


class Path:
    """A simple path: vertex sequence plus its total weight.

    Hot loops build Path values directly from trusted data; use
    Path.checked() to validate a vertex sequence against a graph.
    """

    __slots__ = ("vertices", "weight")

    def __init__(self, vertices: tuple[int, ...], weight: Weight):
        self.vertices = vertices
        self.weight = weight

    @classmethod
    def checked(cls, g: Graph, vertices: Sequence[int]) -> "Path":
        verts = tuple(vertices)
        if len(verts) < 1:
            raise PathError("empty vertex sequence")
        if len(set(verts)) != len(verts):
            raise PathError(f"repeated vertex in {verts}")
        weight: Weight = 0
        for u, v in zip(verts, verts[1:]):
            if not g.has_arc(u, v):
                raise PathError(f"no arc ({u},{v}) in graph")
            weight += g.arc_weight(u, v)
        return cls(verts, weight)

    @property
    def length(self) -> int:
        """Number of arcs."""
        return len(self.vertices) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.vertices == other.vertices

    def __lt__(self, other: "Path") -> bool:
        return self.vertices < other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __repr__(self):
        return f"Path({self.vertices}, w={self.weight})"


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Header: ``n m {undirected|directed} {unweighted|weighted}``, then m lines
    ``u v`` or ``u v w`` (w an integer or p/q rational). Lines starting with
    ``#`` are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph text")
    header = lines[0].split()
    if len(header) != 4:
        raise GraphFormatError(f"bad header {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    if header[2] not in ("undirected", "directed"):
        raise GraphFormatError(f"bad direction flag {header[2]!r}")
    if header[3] not in ("unweighted", "weighted"):
        raise GraphFormatError(f"bad weight flag {header[3]!r}")
    directed = header[2] == "directed"
    weighted = header[3] == "weighted"
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(f"expected {m} arc lines, got {len(body)}")
    arcs = []
    for ln in body:
        tokens = ln.split()
        if weighted:
            if len(tokens) != 3:
                raise GraphFormatError(f"expected 'u v w': {ln!r}")
            u, v = _parse_int(tokens[0]), _parse_int(tokens[1])
            w: Weight = _parse_weight(tokens[2])
        else:
            if len(tokens) != 2:
                raise GraphFormatError(f"expected 'u v': {ln!r}")
            u, v = _parse_int(tokens[0]), _parse_int(tokens[1])
            w = 1
        arcs.append((u, v, w))
    return Graph(n, directed, weighted, arcs)


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex id {token!r}") from exc


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph: parse(serialize(g)) == g."""
    seen = set()
    lines = []
    for u, v, w in g.arcs():
        if not g.directed:
            if (v, u) in seen:
                continue
            seen.add((u, v))
        lines.append(f"{u} {v} {w}" if g.weighted else f"{u} {v}")
    direction = "directed" if g.directed else "undirected"
    mode = "weighted" if g.weighted else "unweighted"
    header = f"{g.n} {len(lines)} {direction} {mode}"
    return "\n".join([header] + lines) + "\n"
