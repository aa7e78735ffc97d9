import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import allgeo
from allgeo import (BenchConfig, Graph, WeightError, check_weights,
                    collect_levels, distance_matrix, fast_apag,
                    iterate_all_pairs, parse_graph, partition_by_endpoints,
                    random_graph, walk_counts)
from allgeo.distances import UNREACHABLE
from allgeo.oracle import brute_force_geodesics
from conftest import random_test_graph, vertex_names

G2_LEVELS = {
    1: ["bc", "db", "ed", "fc"],
    2: ["dbc", "edb", "ba", "de", "ec", "ef"],
    3: ["dba", "ad", "be", "da"],
    4: ["adb", "bed", "edba", "def", "eda"],
    5: ["adbc", "ade", "bef"],
    6: [],
    7: ["adef"],
}


def test_g2_levels_exact(g2):
    d = distance_matrix(g2)
    levels = collect_levels(g2, d, check_simplicity=True)
    assert len(levels) == 10  # 7 plus the three empty levels 8..10
    for lv in levels:
        want = G2_LEVELS.get(lv.k, [])
        assert sorted(vertex_names(p) for p in lv.geodesics) == sorted(want)
    assert all(len(levels[k - 1]) == 0 for k in (8, 9, 10))


def test_g2_report(g2):
    d = distance_matrix(g2)
    report = fast_apag(g2, d)
    assert report.total_count == 23
    assert report.levels_built == 10
    assert report.max_level_nonempty == 7
    assert sum(report.per_pair_counts.values()) == 23
    assert report.per_pair_counts[(4, 1)] == 2  # da, dba
    assert report.per_pair_counts[(5, 1)] == 2  # eda, edba


def test_p3_levels(p3):
    d = distance_matrix(p3)
    levels = collect_levels(p3, d)
    assert sorted(p.vertices for p in levels[0].geodesics) == \
        [(1, 2), (2, 1), (2, 3), (3, 2)]
    assert sorted(p.vertices for p in levels[1].geodesics) == \
        [(1, 2, 3), (3, 2, 1)]
    assert fast_apag(p3, d).total_count == 6


def test_disconnected_two_edges():
    g = parse_graph("4 2 undirected unweighted\n1 2\n3 4")
    d = distance_matrix(g)
    report = fast_apag(g, d)
    assert report.total_count == 4
    assert report.max_level_nonempty == 1


def test_edgeless_graph():
    g = Graph(3, False, False, [])
    report = fast_apag(g, distance_matrix(g))
    assert report.total_count == 0 and report.levels_built == 0


def test_rejects_bad_weights():
    g = parse_graph("2 1 directed weighted\n1 2 3/2")
    with pytest.raises(WeightError):
        fast_apag(g, distance_matrix(g))
    g = parse_graph("2 1 directed weighted\n1 2 -1")
    with pytest.raises(WeightError):
        fast_apag(g, distance_matrix(g))
    with pytest.raises(WeightError, match="non-positive arc weight 0"):
        check_weights(parse_graph("2 1 directed weighted\n1 2 0"))


def test_partition_g2_level4(g2):
    d = distance_matrix(g2)
    levels = collect_levels(g2, d)
    blocks = partition_by_endpoints(levels[3])
    named = {k: [vertex_names(p) for p in ps] for k, ps in blocks.items()}
    assert named == {(1, 2): ["adb"], (2, 4): ["bed"],
                     (5, 1): ["edba", "eda"], (4, 6): ["def"]}
    assert partition_by_endpoints(levels[5]) == {}  # Geo[6] empty


def test_partition_p3_level2(p3):
    levels = collect_levels(p3, distance_matrix(p3))
    blocks = partition_by_endpoints(levels[1])
    assert {k: [p.vertices for p in ps] for k, ps in blocks.items()} == \
        {(1, 3): [(1, 2, 3)], (3, 1): [(3, 2, 1)]}


def test_partition_blocks_cover_level():
    rng = random.Random(51)
    g = random_test_graph(rng, 9, 16, directed=True, wmax=3)
    d = distance_matrix(g)
    for lv in collect_levels(g, d):
        blocks = partition_by_endpoints(lv)
        members = [p for ps in blocks.values() for p in ps]
        assert sorted(p.vertices for p in members) == \
            sorted(p.vertices for p in lv.geodesics)
        for (s, t), ps in blocks.items():
            assert ps
            assert all(p.vertices[0] == s and p.vertices[-1] == t for p in ps)


def geodesic_set(paths):
    return {tuple(p) if not hasattr(p, "vertices") else p.vertices for p in paths}


def test_matches_oracle_and_baseline():
    rng = random.Random(61)
    for _ in range(30):
        directed = rng.random() < 0.5
        wmax = rng.choice([1, 1, 3])
        n = rng.randint(4, 9)
        g = random_test_graph(rng, n, rng.randint(n, 2 * n), directed, wmax)
        d = distance_matrix(g)
        emitted = []
        fast_apag(g, d, lambda v, w: emitted.append(v), check_simplicity=True)
        assert set(emitted) == geodesic_set(brute_force_geodesics(g))
        assert set(emitted) == geodesic_set(iterate_all_pairs(g, d))
        assert len(emitted) == len(set(emitted))  # no duplicates


def test_geodesic_certificate_and_prefix_closure():
    rng = random.Random(71)
    g = random_test_graph(rng, 9, 18, directed=True, wmax=3)
    d = distance_matrix(g)
    seen_by_level: dict[int, set] = {}
    for lv in collect_levels(g, d):
        seen_by_level[lv.k] = {p.vertices for p in lv.geodesics}
        for p in lv.geodesics:
            assert p.weight == d.rows[p.vertices[0]][p.vertices[-1]] == lv.k
            if p.length >= 2:
                prefix = p.vertices[:-1]
                assert any(prefix in seen for k, seen in seen_by_level.items()
                           if k < lv.k)


def test_count_identity_unweighted():
    rng = random.Random(81)
    for _ in range(10):
        g = random_test_graph(rng, 8, 14, directed=rng.random() < 0.5)
        d = distance_matrix(g)
        report = fast_apag(g, d)
        for s in range(1, 9):
            for t in range(1, 9):
                dist = d.rows[s][t]
                if s == t or dist == UNREACHABLE:
                    continue
                assert report.per_pair_counts[(s, t)] == \
                    walk_counts(g, dist).entry(s, t)


def test_sliding_window_and_full_retention_agree():
    rng = random.Random(91)
    for _ in range(10):
        g = random_test_graph(rng, 8, 14, directed=True, wmax=3)
        d = distance_matrix(g)
        windowed, full = [], []
        retained = []
        mu = g.max_arc_weight() if g.arc_count else 1
        fast_apag(g, d, lambda v, w: windowed.append((w, v)),
                  window_hook=lambda k, kept: retained.append(list(kept)))
        fast_apag(g, d, lambda v, w: full.append((w, v)), keep_all_levels=True)
        assert windowed == full
        assert all(len(kept) <= mu for kept in retained)


def test_termination_unweighted_first_empty_level():
    rng = random.Random(101)
    g = random_test_graph(rng, 8, 14, directed=False)
    d = distance_matrix(g)
    report = fast_apag(g, d)
    # mu = 1: exactly one trailing empty level is built
    assert report.levels_built == report.max_level_nonempty + 1
    assert report.max_level_nonempty == d.max_finite()


def emitted_pair_counts(g, d):
    """Tuple-path report plus a Counter of the emitted endpoint pairs."""
    emitted = Counter()
    report = fast_apag(g, d, lambda v, w: emitted.update([(v[0], v[-1])]))
    return report, emitted


def assert_same_report(a, b):
    assert (a.total_count, a.levels_built, a.max_level_nonempty) == \
        (b.total_count, b.levels_built, b.max_level_nonempty)
    assert dict(a.per_pair_counts) == dict(b.per_pair_counts)


def test_count_path_equals_tuple_path():
    rng = random.Random(111)
    for i in range(60):
        directed = i % 2 == 1
        wmax = 1 + i % 5
        n = rng.randint(2, 12)
        # m < n - 1 guarantees a disconnected graph; some runs have no arcs
        m = rng.randint(0, n - 2) if i % 4 == 0 else rng.randint(n, 3 * n)
        g = random_test_graph(rng, n, m, directed, wmax)
        d = distance_matrix(g)
        counted = fast_apag(g, d)
        emitted_report, emitted = emitted_pair_counts(g, d)
        assert_same_report(counted, emitted_report)
        assert dict(counted.per_pair_counts) == emitted
        mu = g.max_arc_weight() if g.arc_count else 1
        retained = []
        windowed = fast_apag(g, d, window_hook=lambda k, kept:
                             retained.append(list(kept)))
        assert_same_report(windowed, counted)
        assert all(len(kept) <= mu for kept in retained)
        assert_same_report(fast_apag(g, d, keep_all_levels=True), counted)


def sigma_counts(g, d):
    """Number of geodesics per ordered pair by path counting over Dw.

    sigma(s, v) sums sigma(s, u) over the tight in-arcs (u, v), taking
    vertices in order of distance from s (Brandes 2001).
    """
    ins = [[] for _ in range(g.n + 1)]
    for u, v, w in g.arcs():
        ins[v].append((u, w))
    counts = {}
    for s in range(1, g.n + 1):
        row = d.rows[s]
        sigma = [0] * (g.n + 1)
        sigma[s] = 1
        order = sorted((row[v], v) for v in range(1, g.n + 1)
                       if v != s and row[v] != UNREACHABLE)
        for dist, v in order:
            sigma[v] = sum(sigma[u] for u, w in ins[v] if row[u] + w == dist)
            counts[(s, v)] = sigma[v]
    return counts


def test_count_path_at_scale_weighted_directed():
    # The seed-2026 weighted-directed benchmark instance, far beyond the
    # n <= 12 oracle.
    g = random_graph(BenchConfig(n=600, m=2400, seed=2026, directed=True,
                                 wmax=5))
    d = distance_matrix(g)
    counted = fast_apag(g, d)
    emitted_report, emitted = emitted_pair_counts(g, d)
    assert counted.total_count == 473435
    assert_same_report(counted, emitted_report)
    pairs = dict(counted.per_pair_counts)
    assert pairs == emitted
    assert pairs == sigma_counts(g, d)


def test_per_pair_counts_is_a_read_only_mapping(g2):
    counts = fast_apag(g2, distance_matrix(g2)).per_pair_counts
    assert counts[(4, 1)] == 2
    assert counts[(3, 1)] == 0 and (3, 1) not in counts  # unreachable
    assert counts[(0, 1)] == 0 and counts[(1, 7)] == 0  # not vertices
    assert (4, 1) in counts
    keys = list(counts)
    assert keys == sorted(keys) and len(keys) == len(counts)
    assert sum(counts.values()) == 23
    assert counts == dict(counts)
    with pytest.raises(TypeError):
        counts[(4, 1)] = 5


def test_report_total_check_survives_optimize():
    code = """if 1:
        import sys
        from collections import Counter
        from allgeo import ApagReport
        if not sys.flags.optimize:
            sys.exit(3)
        try:
            ApagReport(5, Counter({(1, 2): 4}), 1, 1)
        except ValueError:
            sys.exit(0)
        sys.exit(1)
    """
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(allgeo.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=30, env=env)
    assert res.returncode == 0, res.stderr
