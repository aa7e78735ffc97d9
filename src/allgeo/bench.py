"""Random graph generation and the two-method benchmark harness.

The harness pits the level-building enumerator against the per-pair DFS
baseline on the same seeded random instance, with counting sinks so that
path volume never accumulates in memory. Timings are wall clock; counts and
the generated graph are deterministic for a fixed seed.

RNG: Python's random.Random (Mersenne Twister) seeded with the config seed.
Arcs are drawn by rejection sampling of ordered (or unordered) vertex pairs
until m distinct ones exist; the arc set is then sorted and weights, when
wmax > 1, are drawn per arc in that sorted order via randint(1, wmax).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from .apag import fast_apag
from .distances import distance_matrix
from .enumeration import iterate_all_pairs
from .graph import Graph


class RetriesExhausted(RuntimeError):
    """No connected instance found within the retry budget."""


@dataclass(frozen=True)
class BenchConfig:
    n: int
    m: int
    seed: int
    directed: bool = False
    wmax: int = 1
    methods: tuple[str, ...] = ("apag", "pairs")
    require_connected: bool = False
    max_retries: int = 50

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        cap = self.n * (self.n - 1) if self.directed else self.n * (self.n - 1) // 2
        if not (0 <= self.m <= cap):
            raise ValueError(f"m must be in 0..{cap} for n={self.n}")
        if self.wmax < 1:
            raise ValueError("wmax must be >= 1")
        for method in self.methods:
            if method not in ("apag", "pairs"):
                raise ValueError(f"unknown method {method!r}")


@dataclass
class BenchRow:
    n: int
    m: int
    maxdist: int
    geodesics: int
    t_apag_s: Optional[float] = None
    t_pairs_s: Optional[float] = None
    agree: Optional[bool] = None

    CSV_HEADER = "n,m,maxdist,geodesics,t_apag_s,t_pairs_s,agree"

    def csv_line(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return f"{x:.3f}"
            return str(x)
        return ",".join(fmt(x) for x in (self.n, self.m, self.maxdist,
                                         self.geodesics, self.t_apag_s,
                                         self.t_pairs_s, self.agree))


def _sample_arcs(rng: random.Random, n: int, m: int, directed: bool) -> list[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        if not directed and u > v:
            u, v = v, u
        pairs.add((u, v))
    return sorted(pairs)


def random_graph(cfg: BenchConfig) -> Graph:
    """Seeded uniform simple (di)graph with exactly m arcs/edges."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.max_retries):
        pairs = _sample_arcs(rng, cfg.n, cfg.m, cfg.directed)
        weighted = cfg.wmax > 1
        arcs = [(u, v, rng.randint(1, cfg.wmax) if weighted else 1)
                for u, v in pairs]
        g = Graph(cfg.n, cfg.directed, weighted, arcs)
        if not cfg.require_connected:
            return g
        ok = g.is_strongly_connected() if cfg.directed else g.is_connected()
        if ok:
            return g
    raise RetriesExhausted(
        f"no connected instance in {cfg.max_retries} tries (n={cfg.n}, m={cfg.m})")


def run_benchmark(cfg: BenchConfig, graph: Optional[Graph] = None) -> BenchRow:
    """Time each selected method on one instance with a counting sink.

    A pre-built graph may be passed to benchmark a fixture instead of a
    random instance. When both methods run their counts must agree.
    """
    g = graph if graph is not None else random_graph(cfg)
    dw = distance_matrix(g)
    row = BenchRow(n=g.n, m=cfg.m if graph is None else g.arc_count,
                   maxdist=dw.max_finite(), geodesics=0)
    counts = {}
    if "apag" in cfg.methods:
        hits = [0]

        def counting_sink(verts, weight, _hits=hits):
            _hits[0] += 1

        start = time.perf_counter()
        report = fast_apag(g, dw, counting_sink)
        row.t_apag_s = time.perf_counter() - start
        assert hits[0] == report.total_count
        counts["apag"] = report.total_count
    if "pairs" in cfg.methods:
        start = time.perf_counter()
        total = sum(1 for _ in iterate_all_pairs(g, dw))
        row.t_pairs_s = time.perf_counter() - start
        counts["pairs"] = total
    if len(counts) == 2:
        row.agree = counts["apag"] == counts["pairs"]
        assert row.agree, f"method disagreement: {counts}"
    row.geodesics = next(iter(counts.values())) if counts else 0
    return row
