"""Extract one geodesic by depth-first descent on the distance matrix.

An arc (u,x) is tight when w(u,x) + D(x,t) = D(u,t). Every s-t walk made of
tight arcs weighs exactly D(s,t), and every vertex that reaches t has a
tight out-arc, so a depth-first search over tight arcs from s finds a
geodesic. Tight arcs are tried in ascending vertex id order so output is
deterministic. A visited set keeps the search finite when zero or negative
weights close a cycle of tight arcs; with positive weights the remaining
distance strictly decreases and the search never backtracks.
"""

from __future__ import annotations

from .distances import DistanceMatrix, UNREACHABLE, UnreachableError
from .graph import Graph, Path


def one_geodesic(g: Graph, D: DistanceMatrix, s: int, t: int) -> Path:
    """One minimum-weight s-t path; raises UnreachableError if none exists."""
    g.check_vertex(s)
    g.check_vertex(t)
    total = D.dist(s, t)
    if total == UNREACHABLE:
        raise UnreachableError(f"no path from {s} to {t}")
    rows = D.rows
    verts = [s]
    # per vertex on the path: iterator over its remaining out-arcs
    pending = [iter(g.neighbors(s))]
    visited = {s}
    while verts[-1] != t:
        u = verts[-1]
        remaining = rows[u][t]
        for x, w in pending[-1]:
            if x not in visited and w + rows[x][t] == remaining:
                visited.add(x)
                verts.append(x)
                pending.append(iter(g.neighbors(x)))
                break
        else:
            verts.pop()
            pending.pop()
            if not verts:
                raise ValueError(f"distance matrix inconsistent with graph: "
                                 f"no tight path from {s} to {t}")
    return Path(tuple(verts), total)
