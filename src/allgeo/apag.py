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

from array import array
from collections.abc import Iterator, Mapping, ValuesView
from dataclasses import dataclass, field
from functools import partial
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


class PairCounts(Mapping):
    """Read-only (s, t) -> geodesic count view over a flat table.

    Entry s*(n+1) + t of the table holds the count of (s, t); pairs with no
    geodesic, and pairs outside 1..n, read 0 and are not keys. Iteration is
    in (s, t) order.
    """

    __slots__ = ("n", "_flat")

    def __init__(self, n: int, flat: list[int]):
        self.n = n
        self._flat = flat

    def __getitem__(self, pair: tuple[int, int]) -> int:
        s, t = pair
        n = self.n
        if 1 <= s <= n and 1 <= t <= n:
            return self._flat[s * (n + 1) + t]
        return 0

    def __contains__(self, pair) -> bool:
        return self[pair] > 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for s, row in self.rows():
            for t, c in enumerate(row):
                if c:
                    yield (s, t)

    def __len__(self) -> int:
        return len(self._flat) - self._flat.count(0)

    def values(self) -> ValuesView:
        return _NonzeroValues(self)

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (s, row) for s = 1..n, where row[t] is the count of (s, t)."""
        stride = self.n + 1
        flat = self._flat
        for s in range(1, stride):
            yield s, flat[s * stride:(s + 1) * stride]


class _NonzeroValues(ValuesView):
    # The generic view looks up every key; the table can be read directly.
    def __iter__(self):
        return (c for c in self._mapping._flat if c)


@dataclass
class ApagReport:
    total_count: int
    per_pair_counts: Mapping[tuple[int, int], int]  # (s, t) -> s-t geodesics
    levels_built: int
    max_level_nonempty: int

    def __post_init__(self):
        pair_sum = sum(self.per_pair_counts.values())
        if self.total_count != pair_sum:
            raise ValueError(f"total_count {self.total_count} differs from the "
                             f"sum of per-pair counts {pair_sum}")


@dataclass
class _Collector:
    by_weight: dict[int, list[Path]] = field(default_factory=dict)

    def __call__(self, verts: tuple[int, ...], weight: int) -> None:
        self.by_weight.setdefault(weight, []).append(Path(verts, weight))


def check_weights(g: Graph) -> None:
    """Raise WeightError unless every arc weight is a positive int."""
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
    forwarded to the sink exactly once. Without a sink (and without
    check_simplicity) only counts are wanted, so a level keeps just the
    source and last vertex of each geodesic, the two things an extension
    reads, and no vertex tuple is built. window_hook, if given, is called
    after each level with (k, retained level indices) so tests can verify
    the sliding-window memory contract; keep_all_levels disables eviction
    for debug comparisons.

    With positive weights an accepted extension can never revisit a vertex
    (a repeat would contradict Dw(s, c) = k), so simplicity is not re-checked
    unless check_simplicity is set.
    """
    check_weights(g)
    n = g.n
    stride = n + 1
    per_pair = [0] * (stride * stride)
    counts = PairCounts(n, per_pair)
    total = 0

    if g.arc_count == 0:
        return ApagReport(0, counts, 0, 0)

    mu = g.max_arc_weight()
    # Arcs bucketed by weight, both as seeds and as per-vertex extension
    # tables; neighbor order is ascending so levels come out deterministic.
    seeds: dict[int, list[tuple[int, int]]] = {}
    out_by_weight: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    for u, v, w in g.arcs():
        seeds.setdefault(w, []).append((u, v))
        out_by_weight[u].setdefault(w, []).append(v)

    if sink is None and not check_simplicity:
        build = _pair_level
    else:
        build = partial(_tuple_level, check_simplicity=check_simplicity)
    max_finite = Dw.max_finite()
    levels: dict = {}
    empty_run = 0
    k = 0
    max_nonempty = 0
    while empty_run < mu:
        k += 1
        level, size = build(k, mu, levels, seeds.get(k, ()), out_by_weight,
                            Dw.rows, per_pair, stride)
        if sink is not None:
            for verts in level:
                sink(verts, k)
        total += size
        if size:
            max_nonempty = k
            empty_run = 0
            if k > max_finite:
                raise ValueError(f"nonempty level {k} beyond the largest "
                                 f"distance {max_finite}: Dw is not g's")
        else:
            empty_run += 1
        levels[k] = level
        if not keep_all_levels and k - mu in levels:
            del levels[k - mu]
        if window_hook is not None:
            window_hook(k, sorted(levels))
        # The empty-run rule and the distance bound must agree.
        if k > max_finite + mu:
            raise ValueError(f"level {k} built past the largest distance "
                             f"{max_finite} plus mu {mu}")

    return ApagReport(total, counts, k, max_nonempty)


# One function per level representation. Both extend every retained level
# h = k-1 down to max(k-mu, 1) along the out-arcs of weight k-h, then add the
# arcs of weight k as one-arc geodesics (seeds is empty once k > mu), and
# count each accepted geodesic into per_pair[s*stride + t]. They return the
# new level and its size.

def _tuple_level(k, mu, levels, seeds, out_by_weight, rows, per_pair, stride,
                 check_simplicity):
    """Level as a list of vertex tuples."""
    level: list[tuple[int, ...]] = []
    add = level.append
    for h in range(k - 1, max(k - mu, 1) - 1, -1):
        w_need = k - h
        for q in levels.get(h, ()):
            cs = out_by_weight[q[-1]].get(w_need)
            if cs is None:
                continue
            s = q[0]
            row_s = rows[s]
            base = s * stride
            for c in cs:
                if row_s[c] == k:
                    if check_simplicity and c in q:
                        raise ValueError(f"geodesic {q} revisits {c}")
                    add(q + (c,))
                    per_pair[base + c] += 1
    for s, t in seeds:
        if rows[s][t] == k:
            add((s, t))
            per_pair[s * stride + t] += 1
    return level, len(level)


def _pair_level(k, mu, levels, seeds, out_by_weight, rows, per_pair, stride):
    """Level as two int arrays: sources and last vertices."""
    sources = array("i")
    lasts = array("i")
    add_s = sources.append
    add_t = lasts.append
    for h in range(k - 1, max(k - mu, 1) - 1, -1):
        prev = levels.get(h)
        if prev is None:
            continue
        w_need = k - h
        for s, b in zip(*prev):
            cs = out_by_weight[b].get(w_need)
            if cs is None:
                continue
            row_s = rows[s]
            base = s * stride
            for c in cs:
                if row_s[c] == k:
                    add_s(s)
                    add_t(c)
                    per_pair[base + c] += 1
    for s, t in seeds:
        if rows[s][t] == k:
            add_s(s)
            add_t(t)
            per_pair[s * stride + t] += 1
    return (sources, lasts), len(sources)


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
