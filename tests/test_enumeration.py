import itertools
import random

import pytest

from allgeo import (EnumerationBound, GraphFormatError, distance_matrix,
                    enumerate_geodesics_st, enumerate_paths_upto,
                    iterate_all_pairs)
from allgeo.oracle import brute_force_all_paths
from conftest import random_test_graph, vertex_names


def verts(paths):
    return [p.vertices for p in paths]


def test_paths_upto_k3(k3):
    out = enumerate_paths_upto(k3, 1, 2, EnumerationBound.length(2))
    assert verts(out) == [(1, 2), (1, 3, 2)]


def test_paths_upto_below_distance(p3):
    assert enumerate_paths_upto(p3, 1, 3, EnumerationBound.length(1)) == []


def test_paths_upto_g2_weight_bound(g2):
    out = enumerate_paths_upto(g2, 4, 1, EnumerationBound.weight(3))
    assert [vertex_names(p) for p in out] == ["da", "dba"]


def test_bound_validation():
    with pytest.raises(ValueError):
        EnumerationBound("hops", 3)
    with pytest.raises(ValueError):
        EnumerationBound.length(-1)


def test_paths_upto_matches_oracle():
    rng = random.Random(17)
    for _ in range(15):
        g = random_test_graph(rng, 7, 11, directed=rng.random() < 0.5)
        d = distance_matrix(g)
        s, t = rng.sample(range(1, 8), 2)
        limit = rng.randint(0, 6)
        got = enumerate_paths_upto(g, s, t, EnumerationBound.length(limit))
        want = [p for p in brute_force_all_paths(g, s, t) if p.length <= limit]
        assert verts(got) == verts(want)  # same set and same order


def test_geodesics_st_g2(g2):
    d = distance_matrix(g2)
    assert [vertex_names(p) for p in enumerate_geodesics_st(g2, d, 4, 1)] == \
        ["da", "dba"]
    assert [vertex_names(p) for p in enumerate_geodesics_st(g2, d, 5, 1)] == \
        ["eda", "edba"]
    assert enumerate_geodesics_st(g2, d, 3, 1) == []  # c reaches nothing


def test_geodesics_self_pair(p3):
    d = distance_matrix(p3)
    out = enumerate_geodesics_st(p3, d, 2, 2)
    assert verts(out) == [(2,)] and out[0].weight == 0


def test_geodesic_weights_exact():
    rng = random.Random(29)
    for _ in range(10):
        g = random_test_graph(rng, 8, 14, rng.random() < 0.5, rng.choice([1, 3]))
        d = distance_matrix(g)
        for s, t in itertools.permutations(range(1, 9), 2):
            for p in enumerate_geodesics_st(g, d, s, t):
                assert p.weight == d.rows[s][t]


def test_prune_filter_equivalence():
    # filtering the bounded enumeration by total weight must give the same
    # geodesic set the pruned search produces
    rng = random.Random(31)
    for _ in range(10):
        g = random_test_graph(rng, 7, 12, rng.random() < 0.5, rng.choice([1, 2]))
        d = distance_matrix(g)
        for s, t in itertools.permutations(range(1, 8), 2):
            total = d.rows[s][t]
            if total == float("inf"):
                assert enumerate_geodesics_st(g, d, s, t) == []
                continue
            unpruned = enumerate_paths_upto(g, s, t,
                                            EnumerationBound.weight(total))
            filtered = [p for p in unpruned if p.weight == total]
            assert verts(filtered) == verts(enumerate_geodesics_st(g, d, s, t))


def test_lexicographic_order():
    rng = random.Random(37)
    for _ in range(10):
        g = random_test_graph(rng, 8, 16, rng.random() < 0.5)
        d = distance_matrix(g)
        for s, t in itertools.permutations(range(1, 9), 2):
            out = verts(enumerate_geodesics_st(g, d, s, t))
            assert out == sorted(out) and len(set(out)) == len(out)


def test_unweighted_geodesics_distinct_vertex_sets():
    # two distinct unweighted geodesics never share a vertex set
    rng = random.Random(41)
    for _ in range(10):
        g = random_test_graph(rng, 8, 15, rng.random() < 0.5)
        d = distance_matrix(g)
        for s, t in itertools.permutations(range(1, 9), 2):
            out = enumerate_geodesics_st(g, d, s, t)
            assert len({frozenset(p.vertices) for p in out}) == len(out)


def test_iterate_all_pairs_p3(p3):
    d = distance_matrix(p3)
    out = verts(iterate_all_pairs(p3, d))
    assert sorted(out) == [(1, 2), (1, 2, 3), (2, 1), (2, 3), (3, 2), (3, 2, 1)]
    # pairs visited in ascending (s, t) order
    keys = [(v[0], v[-1]) for v in out]
    assert keys == sorted(keys)


def test_iterate_all_pairs_k3(k3):
    d = distance_matrix(k3)
    out = verts(iterate_all_pairs(k3, d))
    assert len(out) == 6 and all(len(v) == 2 for v in out)


def test_iterate_all_pairs_g2(g2):
    d = distance_matrix(g2)
    assert sum(1 for _ in iterate_all_pairs(g2, d)) == 23


@pytest.mark.parametrize("s,t,bad", [(0, 2, 0), (2, 0, 0), (1, 4, 4)])
def test_vertex_ids_validated(p3, s, t, bad):
    message = f"vertex id {bad} out of range"
    with pytest.raises(GraphFormatError, match=message):
        enumerate_geodesics_st(p3, distance_matrix(p3), s, t)
    with pytest.raises(GraphFormatError, match=message):
        enumerate_paths_upto(p3, s, t, EnumerationBound.length(3))
