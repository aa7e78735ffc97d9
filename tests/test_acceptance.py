"""Acceptance gate: one test per criterion, exact tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion; every check is exact unless noted in the test.
"""

import random
import time

import pytest

from allgeo import (BenchConfig, NegativeCycleError, collect_levels,
                    distance_matrix, distance_matrix_bfs, distance_matrix_dial,
                    distance_matrix_power, fast_apag, floyd_warshall,
                    iterate_all_pairs, parse_graph, partition_by_endpoints,
                    random_graph, walk_counts)
from allgeo.cli import main as cli_main
from allgeo.distances import UNREACHABLE
from allgeo.oracle import brute_force_geodesics
from click.testing import CliRunner
from conftest import random_test_graph, vertex_names

G2_LEVELS = {
    1: {"bc", "db", "ed", "fc"},
    2: {"dbc", "edb", "ba", "de", "ec", "ef"},
    3: {"dba", "ad", "be", "da"},
    4: {"adb", "bed", "edba", "def", "eda"},
    5: {"adbc", "ade", "bef"},
    6: set(),
    7: {"adef"},
}


def ok(name):
    print(f"PASS {name}")


def test_criterion_1_g2_golden_levels(g2):
    start = time.perf_counter()
    d = distance_matrix(g2)
    levels = collect_levels(g2, d, check_simplicity=True)
    assert [len(lv) for lv in levels[:7]] == [4, 6, 4, 5, 3, 0, 1]
    for lv in levels[:7]:
        assert {vertex_names(p) for p in lv.geodesics} == G2_LEVELS[lv.k]
    assert vertex_names(levels[6].geodesics[0]) == "adef"
    # halts after exactly the three empty levels 8, 9, 10
    assert len(levels) == 10 and all(len(lv) == 0 for lv in levels[7:])
    assert sum(len(lv) for lv in levels) == 23
    assert time.perf_counter() - start < 1.0
    ok("criterion 1: G2 golden levels (exact, <1s)")


def test_criterion_2_g2_partitions(g2):
    d = distance_matrix(g2)
    levels = collect_levels(g2, d)
    blocks = {}
    for lv in levels:
        blocks.update(partition_by_endpoints(lv))
    named = {k: sorted(vertex_names(p) for p in ps) for k, ps in blocks.items()}
    assert named[(4, 1)] == ["da", "dba"]
    assert named[(5, 1)] == ["eda", "edba"]
    c, f = 3, 6
    assert all((c, x) not in blocks for x in range(1, 7) if x != c)
    assert all((f, x) not in blocks for x in range(1, 7) if x not in (f, c))
    for pair, ps in blocks.items():
        if pair not in ((4, 1), (5, 1)):
            assert len(ps) == 1
    ok("criterion 2: G2 endpoint partitions (exact)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260823)
    regimes = [(False, 1), (True, 1), (True, 3)]
    instances = 0
    while instances < 210:
        directed, wmax = regimes[instances % 3]
        n = rng.randint(4, 10)
        g = random_test_graph(rng, n, rng.randint(n - 1, 2 * n), directed, wmax)
        d = distance_matrix(g)
        emitted = set()
        fast_apag(g, d, lambda v, w: emitted.add(v), check_simplicity=True)
        assert emitted == {p.vertices for p in brute_force_geodesics(g)}
        assert emitted == {p.vertices for p in iterate_all_pairs(g, d)}
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    ok(f"criterion 3: oracle equivalence on {instances} instances "
       f"(exact, {elapsed:.1f}s < 60s)")


def test_criterion_4_distance_method_agreement():
    start = time.perf_counter()
    rng = random.Random(4)
    done = 0
    while done < 50:
        n = rng.randint(5, 50)
        g = random_test_graph(rng, n, rng.randint(n, 3 * n), directed=False)
        if not g.is_connected():
            continue
        power = distance_matrix_power(g).distances
        bfs = distance_matrix_bfs(g)
        fw = floyd_warshall(g)
        dial = distance_matrix_dial(g)
        assert power == bfs == fw == dial
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    ok(f"criterion 4: power = BFS = Floyd-Warshall = Dial on {done} connected "
       f"graphs (exact, {elapsed:.1f}s < 30s)")


def test_criterion_5_geodesic_count_identity(p3, k3, c5):
    rng = random.Random(5)
    graphs = [p3, k3, c5]
    graphs += [random_test_graph(rng, rng.randint(4, 10), rng.randint(5, 16),
                                 directed=rng.random() < 0.5)
               for _ in range(20)]
    for g in graphs:
        d = distance_matrix(g)
        report = fast_apag(g, d)
        for s in range(1, g.n + 1):
            for t in range(1, g.n + 1):
                dist = d.rows[s][t]
                if s == t or dist == UNREACHABLE:
                    continue
                assert report.per_pair_counts[(s, t)] == \
                    walk_counts(g, dist).entry(s, t)
    ok(f"criterion 5: per-pair counts equal walk counts at the distance "
       f"on {len(graphs)} unweighted graphs (exact)")


def test_criterion_6_negative_weights():
    g = parse_graph("3 3 directed weighted\n1 2 2\n2 3 -1\n1 3 3")
    assert floyd_warshall(g).dist(1, 3) == 1
    cyc = parse_graph("3 3 directed weighted\n1 2 1\n2 3 1\n3 1 -3")
    with pytest.raises(NegativeCycleError):
        floyd_warshall(cyc)
    ok("criterion 6: negative-weight distances and negative-cycle error (exact)")


def test_criterion_7_lexicographic_ordering(g2):
    from allgeo import EnumerationBound, enumerate_geodesics_st, enumerate_paths_upto
    rng = random.Random(7)
    graphs = [g2] + [random_test_graph(rng, 8, 16, rng.random() < 0.5,
                                       rng.choice([1, 3])) for _ in range(15)]
    checked = 0
    for g in graphs:
        d = distance_matrix(g)
        for s in range(1, g.n + 1):
            for t in range(1, g.n + 1):
                if s == t:
                    continue
                geo = [p.vertices for p in enumerate_geodesics_st(g, d, s, t)]
                assert geo == sorted(geo) and len(set(geo)) == len(geo)
                bounded = [p.vertices for p in enumerate_paths_upto(
                    g, s, t, EnumerationBound.length(4))]
                assert bounded == sorted(bounded)
                checked += 1
    ok(f"criterion 7: strict lexicographic output on {checked} pairs (exact)")


# Shared desk-scale instance for criteria 8 and 9.
DESK_CFG = BenchConfig(n=1000, m=4000, seed=2026)


def test_criterion_8_desk_scale_benchmark(tmp_path):
    csv = tmp_path / "bench.csv"
    start = time.perf_counter()
    res = CliRunner().invoke(cli_main, [
        "bench", "--n", str(DESK_CFG.n), "--m", str(DESK_CFG.m),
        "--seed", str(DESK_CFG.seed), "--csv", str(csv)])
    elapsed = time.perf_counter() - start
    assert res.exit_code == 0, res.output
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,m,maxdist,geodesics,t_apag_s,t_pairs_s,agree"
    fields = lines[1].split(",")
    assert fields[:2] == ["1000", "4000"]
    assert int(fields[3]) > 0 and fields[6] == "True"
    t_apag, t_pairs = float(fields[4]), float(fields[5])
    # the sparse-graph speed advantage is reported, not asserted
    ok(f"criterion 8: desk-scale benchmark n=1000 m=4000, "
       f"{fields[3]} geodesics, counts agree; apag {t_apag:.1f}s vs "
       f"pairs {t_pairs:.1f}s (total {elapsed:.0f}s)")


def test_criterion_9_streaming_memory_contract():
    # instrumented window on the large run
    g = random_graph(DESK_CFG)
    d = distance_matrix(g)
    mu = g.max_arc_weight()
    retained = []
    fast_apag(g, d, window_hook=lambda k, kept: retained.append(len(kept)))
    assert retained and max(retained) <= mu
    # exact output comparison against full retention on small instances
    rng = random.Random(9)
    for _ in range(10):
        small = random_test_graph(rng, rng.randint(4, 10), 14,
                                  directed=rng.random() < 0.5,
                                  wmax=rng.choice([1, 3]))
        ds = distance_matrix(small)
        windowed, full = [], []
        fast_apag(small, ds, lambda v, w: windowed.append((w, v)))
        fast_apag(small, ds, lambda v, w: full.append((w, v)),
                  keep_all_levels=True)
        assert windowed == full
    ok(f"criterion 9: at most mu={mu} levels retained on the large run; "
       f"windowed output identical to full retention (exact)")
