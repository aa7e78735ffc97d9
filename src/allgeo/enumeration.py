"""Per-pair path and geodesic enumeration by stack-driven depth-first search.

Partial paths live on an explicit LIFO stack. Extensions are pushed in
decreasing lexicographic order so that pops, and therefore emitted complete
paths, come out in increasing lexicographic order. Finished paths are emitted
immediately instead of being kept on the stack.

Geodesic enumeration prunes duds with the distance matrix: a partial path
from s with accumulated weight W is extended along arc (u,x) only when
W + w(u,x) + D(x,t) equals D(s,t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .distances import DistanceMatrix, UNREACHABLE
from .graph import Graph, Path


@dataclass(frozen=True)
class EnumerationBound:
    """Cap on path length (arc count) or total weight; equal at unit weights."""

    kind: str  # "length" or "weight"
    limit: Union[int, Fraction]

    def __post_init__(self):
        if self.kind not in ("length", "weight"):
            raise ValueError(f"bound kind must be length or weight, got {self.kind!r}")
        if self.limit < 0:
            raise ValueError(f"bound limit must be >= 0, got {self.limit}")

    @classmethod
    def length(cls, k: int) -> "EnumerationBound":
        return cls("length", k)

    @classmethod
    def weight(cls, w) -> "EnumerationBound":
        return cls("weight", w)


def enumerate_paths_upto(g: Graph, s: int, t: int,
                         bound: EnumerationBound) -> list[Path]:
    """All simple s-t paths within the bound, lexicographically increasing.

    An empty result is a valid answer (e.g. the bound is below the distance).
    """
    g.check_vertex(s)
    g.check_vertex(t)
    if s == t:
        raise ValueError("source and sink must differ")
    by_length = bound.kind == "length"
    limit = bound.limit
    out: list[Path] = []
    # stack entries: (vertices, accumulated weight); an entry ending at t is
    # a finished path and is emitted when popped, which keeps the emission
    # order lexicographic.
    stack: list[tuple[tuple[int, ...], object]] = [((s,), 0)]
    while stack:
        verts, acc = stack.pop()
        u = verts[-1]
        if u == t:
            out.append(Path(verts, acc))
            continue
        children = []
        for x, w in g.neighbors(u):
            cost = (len(verts) if by_length else acc + w)
            if cost > limit:
                continue
            if x == t or x not in verts:
                children.append((verts + (x,), acc + w))
        stack.extend(reversed(children))
    return out


def _geodesics_stream(g: Graph, D: DistanceMatrix, s: int, t: int) -> Iterator[Path]:
    total = D.rows[s][t]
    if total == UNREACHABLE:
        return
    if s == t:
        yield Path((s,), 0)
        return
    rows = D.rows
    stack: list[tuple[tuple[int, ...], object]] = [((s,), 0)]
    while stack:
        verts, acc = stack.pop()
        u = verts[-1]
        if u == t and len(verts) > 1:
            yield Path(verts, total)
            continue
        children = []
        for x, w in g.neighbors(u):
            if acc + w + rows[x][t] != total:
                continue  # dud
            if x == t or x not in verts:
                children.append((verts + (x,), acc + w))
        stack.extend(reversed(children))


def enumerate_geodesics_st(g: Graph, D: DistanceMatrix, s: int, t: int) -> list[Path]:
    """Exactly the s-t geodesics, lexicographically increasing.

    Returns [(s)] for s = t and [] when t is unreachable from s.
    """
    g.check_vertex(s)
    g.check_vertex(t)
    return list(_geodesics_stream(g, D, s, t))


def iterate_all_pairs(g: Graph, D: DistanceMatrix) -> Iterator[Path]:
    """Stream every geodesic of the graph, pair by pair in ascending (s, t).

    This is the "run the per-pair enumeration n(n-1) times" baseline the
    level-building algorithm is benchmarked against.
    """
    n = g.n
    rows = D.rows
    for s in range(1, n + 1):
        row = rows[s]
        for t in range(1, n + 1):
            if t != s and row[t] != UNREACHABLE:
                yield from _geodesics_stream(g, D, s, t)
