"""Enumeration of all geodesics in unweighted and integer-weighted (di)graphs.

Core pieces: exact graph parsing (allgeo.graph), four distance-matrix
routes (allgeo.distances), single-geodesic extraction (allgeo.single),
per-pair DFS enumeration (allgeo.enumeration), the all-pairs level-building
enumerator (allgeo.apag), a brute-force oracle (allgeo.oracle) and a seeded
benchmark harness (allgeo.bench).
"""

from .apag import (ApagReport, GeoLevel, collect_levels, fast_apag,
                   partition_by_endpoints)
from .bench import BenchConfig, BenchRow, random_graph, run_benchmark
from .distances import (CountMatrix, DistanceMatrix, NegativeCycleError,
                        PowerMethodResult, UNREACHABLE, UnreachableError,
                        WeightError, distance_matrix, distance_matrix_bfs,
                        distance_matrix_dial, distance_matrix_power,
                        floyd_warshall, walk_counts)
from .enumeration import (EnumerationBound, enumerate_geodesics_st,
                          enumerate_paths_upto, iterate_all_pairs)
from .graph import (Graph, GraphFormatError, Path, PathError, parse_graph,
                    serialize_graph)
from .oracle import (SizeCapExceeded, brute_force_all_paths,
                     brute_force_distance, brute_force_geodesics)
from .single import one_geodesic

__all__ = [
    "ApagReport", "BenchConfig", "BenchRow", "CountMatrix", "DistanceMatrix",
    "EnumerationBound", "GeoLevel", "Graph", "GraphFormatError",
    "NegativeCycleError", "Path", "PathError", "PowerMethodResult",
    "SizeCapExceeded", "UNREACHABLE", "UnreachableError", "WeightError",
    "brute_force_all_paths", "brute_force_distance", "brute_force_geodesics",
    "collect_levels", "distance_matrix", "distance_matrix_bfs",
    "distance_matrix_dial", "distance_matrix_power", "enumerate_geodesics_st", "enumerate_paths_upto",
    "fast_apag", "floyd_warshall", "iterate_all_pairs", "one_geodesic",
    "parse_graph", "partition_by_endpoints", "random_graph", "run_benchmark",
    "serialize_graph", "walk_counts",
]
