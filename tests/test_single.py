import random

import pytest

from allgeo import (GraphFormatError, UNREACHABLE, UnreachableError,
                    distance_matrix, enumerate_geodesics_st, one_geodesic,
                    parse_graph)
from conftest import random_test_graph


def test_g2_a_to_c(g2):
    d = distance_matrix(g2)
    p = one_geodesic(g2, d, 1, 3)
    assert p.vertices == (1, 4, 2, 3)  # a d b c, the unique a-c geodesic
    assert p.weight == 5


def test_trivial_self_pair(p3):
    d = distance_matrix(p3)
    p = one_geodesic(p3, d, 2, 2)
    assert p.vertices == (2,) and p.weight == 0


def test_p3_endpoints(p3):
    d = distance_matrix(p3)
    assert one_geodesic(p3, d, 1, 3).vertices == (1, 2, 3)


def test_unreachable(g2):
    d = distance_matrix(g2)
    with pytest.raises(UnreachableError):
        one_geodesic(g2, d, 3, 1)  # c reaches nothing


def test_weight_matches_matrix_and_membership():
    rng = random.Random(21)
    for _ in range(20):
        directed = rng.random() < 0.5
        wmax = rng.choice([1, 3])
        g = random_test_graph(rng, 8, 14, directed, wmax)
        d = distance_matrix(g)
        for s in range(1, 9):
            for t in range(1, 9):
                if s == t or d.rows[s][t] == UNREACHABLE:
                    continue
                p = one_geodesic(g, d, s, t)
                assert p.weight == d.rows[s][t]
                # descent: remaining distance drops by each step weight
                rem = p.weight
                for u, v in zip(p.vertices, p.vertices[1:]):
                    w = g.arc_weight(u, v)
                    assert d.rows[v][t] == rem - w
                    rem -= w
                assert p in enumerate_geodesics_st(g, d, s, t)


def test_zero_weight_tight_cycle_backtracks():
    # 2 -> 1 is tight (0 + D(1,3) = D(2,3)) but leads back to 2 only
    g = parse_graph("3 2 undirected weighted\n1 2 0\n2 3 1")
    p = one_geodesic(g, distance_matrix(g), 2, 3)
    assert p.vertices == (2, 3) and p.weight == 1


def test_negative_arc_tight_cycle():
    g = parse_graph("3 3 directed weighted\n1 2 -1\n2 1 1\n2 3 1")
    p = one_geodesic(g, distance_matrix(g), 1, 3)
    assert p.vertices == (1, 2, 3) and p.weight == 0


@pytest.mark.parametrize("s,t", [(0, 2), (2, 0), (1, 4)])
def test_vertex_ids_validated(p3, s, t):
    with pytest.raises(GraphFormatError, match="out of range"):
        one_geodesic(p3, distance_matrix(p3), s, t)
