"""Independent geodesic counts: Brandes-style sigma(s, t) path counting.

U. Brandes, "A faster algorithm for betweenness centrality", J. Math.
Sociol. 25(2), 2001. From each source, vertices are settled in order of
distance with a bucket queue (R. Dial, CACM 12(11), 1969; with unit weights
the buckets are BFS layers), and sigma(s, c) is the sum of sigma(s, b) over
the tight arcs (b, c), those with D(s, b) + w = D(s, c). Positive integer
weights guarantee that every b is settled before any c it is tight for.

Shares no code with the program: it checks the program's output.
"""

from __future__ import annotations

from dataclasses import dataclass

from instances import Instance


@dataclass
class Reference:
    """Exact distances and geodesic counts of one instance.

    ``dist[s]`` and ``sigma[s]`` map each vertex reachable from s (s itself
    included, at distance 0 with one empty path) to D(s, t) and sigma(s, t).
    """

    dist: list[dict[int, int]]
    sigma: list[dict[int, int]]

    @property
    def total(self) -> int:
        """Number of geodesics: sigma summed over ordered pairs s != t."""
        return sum(sum(row.values()) - 1 for row in self.sigma[1:])

    @property
    def pairs(self) -> int:
        """Ordered pairs s != t with t reachable from s."""
        return sum(len(row) - 1 for row in self.dist[1:])

    @property
    def max_dist(self) -> int:
        return max((max(row.values()) for row in self.dist[1:]), default=0)


def count_geodesics(inst: Instance) -> Reference:
    out = inst.out()
    dist: list[dict[int, int]] = [{}]
    sigma: list[dict[int, int]] = [{}]
    for s in range(1, inst.n + 1):
        d = {s: 0}
        sg = {s: 1}
        buckets: list[list[int]] = [[s]]
        k = 0
        while k < len(buckets):
            for b in buckets[k]:
                if d[b] != k:
                    continue  # stale entry: b was later found closer
                sb = sg[b]
                for c, w in out[b]:
                    nd = k + w
                    dc = d.get(c)
                    if dc is None or nd < dc:
                        d[c] = nd
                        sg[c] = sb
                        while len(buckets) <= nd:
                            buckets.append([])
                        buckets[nd].append(c)
                    elif nd == dc:
                        sg[c] += sb
            k += 1
        dist.append(d)
        sigma.append(sg)
    return Reference(dist, sigma)


def extensions_tried(inst: Instance, ref: Reference) -> int:
    """Candidate tests the level recursion makes on this instance.

    Every arc is tested once as a seed, and every geodesic (s, ..., b) is
    tested against each out-arc of b: levels run up to D_max + mu, so the
    level D(s, b) + w of every such extension is built. The geodesics ending
    at b from s number sigma(s, b), so the count needs no enumeration.
    """
    out = inst.out()
    arcs = sum(len(row) for row in out)
    tried = arcs
    for s in range(1, inst.n + 1):
        for b, sb in ref.sigma[s].items():
            if b != s:
                tried += sb * len(out[b])
    return tried
