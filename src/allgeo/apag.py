"""All-pairs all-geodesics enumeration by weight levels.

Geo[k] is the set of geodesics of total weight exactly k. Every geodesic
with at least two arcs is the unique right-extension of a geodesic one arc
shorter, so Geo[k] is built from the previous levels:

  * extension: for h = k-1 down to max(k-mu, 1), each Q = (s, ..., b) in
    Geo[h] is extended along every out-arc (b, c) of weight k-h; the result
    is accepted iff Dw(s, c) = k;
  * seeding (the h = 0 case, only when k <= mu): every arc (s, t) of weight
    k with Dw(s, t) = k enters the level as a one-arc geodesic.

Here mu is the maximum arc weight. Only the last mu levels are retained (the
recursion never looks further back); accepted geodesics stream to a sink.
The run halts after mu consecutive empty levels, which certifies that every
later level is empty too. Requires positive integer weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .distances import DistanceMatrix, WeightError
from .graph import Graph, Path

# A sink receives each accepted geodesic exactly once, as its vertex tuple
# plus total weight.
Sink = Callable[[tuple[int, ...], int], None]


@dataclass
class GeoLevel:
    """All geodesics of one exact total weight."""

    k: int
    geodesics: list[Path]

    def __len__(self):
        return len(self.geodesics)


@dataclass
class ApagReport:
    total_count: int
    per_pair_counts: Counter  # (s, t) -> number of s-t geodesics
    levels_built: int
    max_level_nonempty: int

    def __post_init__(self):
        assert self.total_count == sum(self.per_pair_counts.values())


@dataclass
class _Collector:
    by_weight: dict[int, list[Path]] = field(default_factory=dict)

    def __call__(self, verts: tuple[int, ...], weight: int) -> None:
        self.by_weight.setdefault(weight, []).append(Path(verts, weight))


def _check_weights(g: Graph) -> None:
    for _, _, w in g.arcs():
        if not isinstance(w, int):
            raise WeightError(f"non-integer arc weight {w!r}")
        if w < 1:
            raise WeightError(f"non-positive arc weight {w}")


def fast_apag(g: Graph, Dw: DistanceMatrix, sink: Optional[Sink] = None, *,
              window_hook: Optional[Callable[[int, list[int]], None]] = None,
              keep_all_levels: bool = False,
              check_simplicity: bool = False) -> ApagReport:
    """Enumerate every geodesic of g by building weight levels.

    Dw must be the correct weighted distance matrix of g. Each geodesic is
    forwarded to the sink exactly once. window_hook, if given, is called
    after each level with (k, retained level indices) so tests can verify
    the sliding-window memory contract; keep_all_levels disables eviction
    for debug comparisons.

    With positive weights an accepted extension can never revisit a vertex
    (a repeat would contradict Dw(s, c) = k), so simplicity is not re-checked
    unless check_simplicity is set.
    """
    _check_weights(g)
    n = g.n
    rows = Dw.rows
    per_pair: Counter = Counter()
    total = 0

    if g.arc_count == 0:
        return ApagReport(0, per_pair, 0, 0)

    mu = g.max_arc_weight()
    # Arcs bucketed by weight, both as seeds and as per-vertex extension
    # tables; neighbor order is ascending so levels come out deterministic.
    seeds: dict[int, list[tuple[int, int]]] = {}
    out_by_weight: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    for u, v, w in g.arcs():
        seeds.setdefault(w, []).append((u, v))
        out_by_weight[u].setdefault(w, []).append(v)

    max_finite = Dw.max_finite()
    levels: dict[int, list[tuple[int, ...]]] = {}
    empty_run = 0
    k = 0
    max_nonempty = 0
    while empty_run < mu:
        k += 1
        level: list[tuple[int, ...]] = []
        for h in range(k - 1, max(k - mu, 0) - 1, -1):
            w_need = k - h
            if h == 0:
                for s, t in seeds.get(k, ()):
                    if rows[s][t] == k:
                        level.append((s, t))
                continue
            for q in levels.get(h, ()):
                s = q[0]
                row_s = rows[s]
                by_w = out_by_weight[q[-1]]
                for c in by_w.get(w_need, ()):
                    if row_s[c] == k:
                        if check_simplicity:
                            assert c not in q, (q, c)
                        level.append(q + (c,))
        for verts in level:
            per_pair[(verts[0], verts[-1])] += 1
            if sink is not None:
                sink(verts, k)
        total += len(level)
        if level:
            max_nonempty = k
            empty_run = 0
            assert k <= max_finite, "nonempty level beyond the largest distance"
        else:
            empty_run += 1
        levels[k] = level
        if not keep_all_levels and k - mu in levels:
            del levels[k - mu]
        if window_hook is not None:
            window_hook(k, sorted(levels))
        # The empty-run rule and the distance bound must agree.
        assert k <= max_finite + mu

    return ApagReport(total, per_pair, k, max_nonempty)


def collect_levels(g: Graph, Dw: DistanceMatrix, **kwargs) -> list[GeoLevel]:
    """Run the level recursion and return every level as Path lists."""
    collector = _Collector()
    report = fast_apag(g, Dw, collector, **kwargs)
    return [GeoLevel(k, collector.by_weight.get(k, []))
            for k in range(1, report.levels_built + 1)]


def partition_by_endpoints(level: GeoLevel) -> dict[tuple[int, int], list[Path]]:
    """Group a level's geodesics by their ordered endpoint pair.

    The blocks are disjoint and their union is the level; an empty level
    yields an empty partition.
    """
    blocks: dict[tuple[int, int], list[Path]] = {}
    for p in level.geodesics:
        blocks.setdefault((p.vertices[0], p.vertices[-1]), []).append(p)
    return blocks
