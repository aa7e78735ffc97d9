"""Seeded benchmark instances, generated without importing the program.

This is the procedure the README documents for ``allgeo bench``, written out
here so that a later edit to the program's own generator cannot silently
change a workload: Python's ``random.Random(seed)`` rejection-samples ordered
(directed) or unordered (undirected, stored as u < v) vertex pairs until m
distinct ones exist; the pairs are sorted; when wmax > 1 each pair then draws
``randint(1, wmax)`` in that sorted order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """A simple (di)graph on vertices 1..n with positive integer weights.

    ``edges`` holds each undirected edge once, as in the file format;
    ``out`` is the out-adjacency over arcs (undirected edges both ways),
    as ``out[u] = [(v, w), ...]`` ascending by v.
    """

    n: int
    directed: bool
    wmax: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def weighted(self) -> bool:
        return self.wmax > 1

    def out(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            if not self.directed:
                adj[v].append((u, w))
        for row in adj:
            row.sort()
        return adj

    def graph_text(self) -> str:
        """The instance in the program's line-oriented graph format."""
        direction = "directed" if self.directed else "undirected"
        mode = "weighted" if self.weighted else "unweighted"
        lines = [f"{self.n} {len(self.edges)} {direction} {mode}"]
        for u, v, w in self.edges:
            lines.append(f"{u} {v} {w}" if self.weighted else f"{u} {v}")
        return "\n".join(lines) + "\n"


def generate(n: int, m: int, seed: int, directed: bool = False,
             wmax: int = 1) -> Instance:
    cap = n * (n - 1) if directed else n * (n - 1) // 2
    if not (n >= 1 and 0 <= m <= cap and wmax >= 1):
        raise ValueError(f"bad instance parameters n={n} m={m} wmax={wmax}")
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        if not directed and u > v:
            u, v = v, u
        pairs.add((u, v))
    edges = tuple((u, v, rng.randint(1, wmax) if wmax > 1 else 1)
                  for u, v in sorted(pairs))
    return Instance(n, directed, wmax, edges)
