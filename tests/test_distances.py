import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allgeo import (BenchConfig, Graph, NegativeCycleError, UNREACHABLE,
                    WeightError, distance_matrix, distance_matrix_bfs,
                    distance_matrix_dial, distance_matrix_power,
                    floyd_warshall, parse_graph, random_graph, walk_counts)
from allgeo import distances
from allgeo.oracle import brute_force_distance
from conftest import random_test_graph


def exhaustive_walk_count(g, x, y, k):
    """Independent oracle: enumerate all length-k walks by brute force."""
    frontier = [(x,)]
    for _ in range(k):
        frontier = [walk + (v,) for walk in frontier
                    for v, _ in g.neighbors(walk[-1])]
    return sum(1 for walk in frontier if walk[-1] == y)


def test_walk_counts_p3(p3):
    c = walk_counts(p3, 2)
    assert c.entry(1, 3) == 1
    assert c.entry(1, 1) == 1
    assert c.entry(1, 2) == 0


def test_walk_counts_k3(k3):
    assert walk_counts(k3, 2).entry(1, 1) == 2


def test_walk_counts_k1_is_adjacency(k3, p3, g2):
    for g in (k3, p3, g2):
        c = walk_counts(g, 1)
        for x in range(1, g.n + 1):
            for y in range(1, g.n + 1):
                assert c.entry(x, y) == (1 if g.has_arc(x, y) else 0)


def test_walk_counts_against_exhaustive():
    rng = random.Random(11)
    for _ in range(5):
        g = random_test_graph(rng, 6, 8, directed=rng.random() < 0.5)
        for k in (1, 2, 3, 4):
            c = walk_counts(g, k)
            for x in range(1, 7):
                for y in range(1, 7):
                    assert c.entry(x, y) == exhaustive_walk_count(g, x, y, k)


def test_walk_counts_recurrence(k3):
    # counts at k+1 follow from counts at k via one adjacency application
    a = walk_counts(k3, 1)
    b = walk_counts(k3, 3)
    c = walk_counts(k3, 4)
    n = k3.n
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            assert c.entry(x, y) == sum(
                b.entry(x, z) * a.entry(z, y) for z in range(1, n + 1))


def test_walk_counts_rejects_k0(p3):
    with pytest.raises(ValueError):
        walk_counts(p3, 0)


def test_power_p3(p3):
    res = distance_matrix_power(p3)
    assert [res.distances.rows[u][1:4] for u in (1, 2, 3)] == \
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert res.delta == 2


def test_power_c5(c5):
    res = distance_matrix_power(c5)
    off = [res.distances.rows[u][v] for u in range(1, 6) for v in range(1, 6)
           if u != v]
    assert set(off) == {1, 2}
    assert res.delta == 2


def test_power_disconnected():
    g = parse_graph("4 2 undirected unweighted\n1 2\n3 4")
    res = distance_matrix_power(g)
    assert res.distances.dist(1, 3) == UNREACHABLE
    assert res.distances.dist(1, 2) == 1


def test_bfs_matches_power_small(p3, c5):
    for g in (p3, c5):
        assert distance_matrix_bfs(g) == distance_matrix_power(g).distances


def test_bfs_matches_power_random():
    rng = random.Random(42)
    g = random_test_graph(rng, 50, 120, directed=False)
    assert distance_matrix_bfs(g) == distance_matrix_power(g).distances


def test_fw_g2(g2):
    d = floyd_warshall(g2)
    assert d.dist(1, 3) == 5  # a -> c
    assert d.dist(5, 1) == 4  # e -> a
    assert d.dist(4, 5) == 2  # d -> e
    for x in (1, 2, 4, 5, 6):
        assert d.dist(3, x) == UNREACHABLE  # c has no out-arcs


def test_fw_negative_acyclic():
    g = parse_graph("3 3 directed weighted\n1 2 2\n2 3 -1\n1 3 3")
    assert floyd_warshall(g).dist(1, 3) == 1


def test_fw_negative_cycle():
    g = parse_graph("3 3 directed weighted\n1 2 1\n2 3 1\n3 1 -3")
    with pytest.raises(NegativeCycleError):
        floyd_warshall(g)


def test_fw_negative_weights_match_oracle():
    # DAG arcs (u < v) with weights in -2..5: no circuits at all
    rng = random.Random(5)
    for _ in range(10):
        n = 7
        arcs = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.4:
                    arcs.append((u, v, rng.randint(-2, 5)))
        from allgeo import Graph
        g = Graph(n, True, True, arcs)
        d = floyd_warshall(g)
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                if s != t:
                    assert d.dist(s, t) == brute_force_distance(g, s, t)


def matrix_invariants(g, d):
    n = g.n
    for v in range(1, n + 1):
        assert d.rows[v][v] == 0
    finite_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for i, j in finite_pairs:
        for k in range(1, n + 1):
            if d.rows[i][k] != UNREACHABLE and d.rows[k][j] != UNREACHABLE:
                assert d.rows[i][j] <= d.rows[i][k] + d.rows[k][j]
    if not g.directed:
        for i, j in finite_pairs:
            assert d.rows[i][j] == d.rows[j][i]


def test_matrix_invariants():
    rng = random.Random(9)
    for directed in (False, True):
        for wmax in (1, 3):
            g = random_test_graph(rng, 10, 18, directed, wmax)
            d = floyd_warshall(g)
            matrix_invariants(g, d)
            if wmax == 1:
                matrix_invariants(g, distance_matrix_bfs(g))


def test_distance_before_first_nonzero_walk_count():
    rng = random.Random(13)
    g = random_test_graph(rng, 7, 10, directed=False)
    d = distance_matrix_bfs(g)
    for x in range(1, 8):
        for y in range(1, 8):
            dist = d.rows[x][y]
            if x == y or dist == UNREACHABLE:
                continue
            assert walk_counts(g, dist).entry(x, y) >= 1
            for j in range(1, dist):
                assert walk_counts(g, j).entry(x, y) == 0


def test_dial_matches_fw_random():
    rng = random.Random(2)
    unreachable_seen = 0
    for directed in (False, True):
        for wmax in (2, 5):
            for _ in range(10):
                n = rng.randint(2, 30)
                # m from well below n-1 (never connected) up to about 3n
                g = random_test_graph(rng, n, rng.randint(0, 3 * n),
                                      directed, wmax)
                dial = distance_matrix_dial(g)
                assert dial == floyd_warshall(g)
                unreachable_seen += sum(row[1:].count(UNREACHABLE)
                                        for row in dial.rows[1:])
    assert unreachable_seen > 0


def test_dial_unweighted_matches_bfs():
    rng = random.Random(3)
    for directed in (False, True):
        for _ in range(10):
            n = rng.randint(2, 40)
            g = random_test_graph(rng, n, rng.randint(0, 3 * n), directed)
            assert distance_matrix_dial(g) == distance_matrix_bfs(g)


@st.composite
def positive_int_graphs(draw):
    n = draw(st.integers(1, 8))
    directed = draw(st.booleans())
    # v is drawn from the n-1 ids other than u, so there are no self-loops
    pairs = set() if n == 1 else draw(st.sets(
        st.tuples(st.integers(1, n), st.integers(1, n - 1))
        .map(lambda p: (p[0], p[1] + (p[1] >= p[0]))), max_size=20))
    if not directed:
        pairs = {(min(u, v), max(u, v)) for u, v in pairs}
    arcs = [(u, v, draw(st.integers(1, 6))) for u, v in sorted(pairs)]
    return Graph(n, directed, True, arcs)


@settings(max_examples=200, deadline=None)
@given(positive_int_graphs())
def test_dial_equals_fw_property(g):
    assert distance_matrix_dial(g) == floyd_warshall(g)


def test_dial_benchmark_instances():
    desk = random_graph(BenchConfig(n=1000, m=4000, seed=2026))
    assert distance_matrix_dial(desk) == distance_matrix_bfs(desk)
    weighted = random_graph(BenchConfig(n=150, m=600, seed=2026,
                                        directed=True, wmax=5))
    dial = distance_matrix_dial(weighted)
    assert dial == floyd_warshall(weighted)
    # exact: ints everywhere except the UNREACHABLE marker
    assert all(type(x) is int or x == UNREACHABLE
               for row in dial.rows for x in row)


@pytest.mark.parametrize("text", [
    "3 2 directed weighted\n1 2 3/2\n2 3 1",
    "3 2 undirected weighted\n1 2 0\n2 3 1",
    "3 2 directed weighted\n1 2 2\n2 3 -1",
])
def test_dial_rejects_non_positive_int_weights(text):
    with pytest.raises(WeightError):
        distance_matrix_dial(parse_graph(text))


def test_dispatcher_rational_weights_use_fw():
    g = parse_graph("3 3 directed weighted\n1 2 3/2\n2 3 3/2\n1 3 4")
    d = distance_matrix(g)
    assert d == floyd_warshall(g)
    assert d.dist(1, 3) == Fraction(3)


def test_dispatcher_zero_weights_use_fw():
    g = parse_graph("4 3 undirected weighted\n1 2 0\n2 3 1\n3 4 0")
    d = distance_matrix(g)
    assert d == floyd_warshall(g)
    assert d.dist(1, 4) == 1 and d.dist(1, 2) == 0


def test_dispatcher_negative_cycle_raises():
    g = parse_graph("3 3 directed weighted\n1 2 1\n2 3 1\n3 1 -3")
    with pytest.raises(NegativeCycleError):
        distance_matrix(g)


def forbid(monkeypatch, name):
    def fail(_):
        raise AssertionError(f"distance_matrix should not call {name}")

    monkeypatch.setattr(distances, name, fail)


def test_dispatcher_positive_int_weights_use_dial(g2, monkeypatch):
    expected = floyd_warshall(g2)
    forbid(monkeypatch, "floyd_warshall")
    assert distance_matrix(g2) == expected


def test_dispatcher_weights_above_n_use_fw(monkeypatch):
    # mu = 50 > n = 3: Dial would scan a window of 51 buckets per source
    g = parse_graph("3 3 directed weighted\n1 2 40\n2 3 50\n1 3 100")
    assert distance_matrix_dial(g) == floyd_warshall(g)
    forbid(monkeypatch, "distance_matrix_dial")
    assert distance_matrix(g).dist(1, 3) == 90
