"""Command-line interface.

Exit codes: 0 ok, 1 input error, 2 negative cycle, 3 size-cap or retry
failure.
"""

from __future__ import annotations

import json
import sys

import click

from .apag import ApagReport, fast_apag
from .bench import BenchConfig, BenchRow, RetriesExhausted, run_benchmark
from .distances import (NegativeCycleError, UNREACHABLE, UnreachableError,
                        WeightError, distance_matrix, distance_matrix_bfs,
                        distance_matrix_power, floyd_warshall)
from .enumeration import (EnumerationBound, enumerate_geodesics_st,
                          enumerate_paths_upto, iterate_all_pairs)
from .graph import Graph, GraphFormatError, parse_graph
from .oracle import SizeCapExceeded, brute_force_all_paths, brute_force_geodesics
from .single import one_geodesic

EXIT_INPUT = 1
EXIT_NEGATIVE_CYCLE = 2
EXIT_CAP = 3


def _load(path: str) -> Graph:
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_INPUT))
    except GraphFormatError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_INPUT))


def _fail(message: str, code: int) -> int:
    click.echo(f"error: {message}", err=True)
    return code


def _print_path(path, jsonl: bool) -> None:
    if jsonl:
        record = {"s": path.vertices[0], "t": path.vertices[-1],
                  "w": _json_weight(path.weight), "path": list(path.vertices)}
        click.echo(json.dumps(record))
    else:
        click.echo(" ".join(str(v) for v in path.vertices))


def _json_weight(w):
    return w if isinstance(w, (int, float)) else str(w)


@click.group()
def main():
    """Geodesic enumeration for unweighted and integer-weighted (di)graphs."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["power", "bfs", "fw"]), default="bfs",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv",
              show_default=True)
def dist(file, method, fmt):
    """Print the distance matrix (inf marks unreachable pairs)."""
    g = _load(file)
    try:
        if method == "fw":
            d = floyd_warshall(g)
        elif method == "power":
            if g.weighted:
                raise click.exceptions.Exit(
                    _fail("power method needs an unweighted graph", EXIT_INPUT))
            d = distance_matrix_power(g).distances
        else:
            if g.weighted:
                raise click.exceptions.Exit(
                    _fail("bfs needs an unweighted graph", EXIT_INPUT))
            d = distance_matrix_bfs(g)
    except NegativeCycleError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_NEGATIVE_CYCLE))
    entries = [[d.rows[u][v] for v in range(1, g.n + 1)] for u in range(1, g.n + 1)]
    if fmt == "json":
        click.echo(json.dumps([["inf" if e == UNREACHABLE else _json_weight(e)
                                for e in row] for row in entries]))
    else:
        for row in entries:
            click.echo("\t".join("inf" if e == UNREACHABLE else str(e)
                                 for e in row))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("s", type=int)
@click.argument("t", type=int)
def one(file, s, t):
    """Print one s-t geodesic and its weight."""
    g = _load(file)
    try:
        d = distance_matrix(g)
        path = one_geodesic(g, d, s, t)
    except NegativeCycleError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_NEGATIVE_CYCLE))
    except (UnreachableError, GraphFormatError) as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_INPUT))
    click.echo(" ".join(str(v) for v in path.vertices))
    click.echo(f"weight {path.weight}")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("s", type=int)
@click.argument("t", type=int)
@click.option("--maxlen", type=int, default=None, help="Length bound for --all-paths.")
@click.option("--maxweight", type=str, default=None, help="Weight bound for --all-paths.")
@click.option("--all-paths", is_flag=True,
              help="All simple paths within the bound, not just geodesics.")
@click.option("--jsonl", is_flag=True, help="Emit JSON-lines records.")
def st(file, s, t, maxlen, maxweight, all_paths, jsonl):
    """Enumerate s-t geodesics (default) or all bounded s-t paths."""
    g = _load(file)
    if maxlen is not None and maxweight is not None:
        raise click.exceptions.Exit(
            _fail("--maxlen and --maxweight are mutually exclusive", EXIT_INPUT))
    try:
        if all_paths:
            if maxlen is not None:
                bound = EnumerationBound.length(maxlen)
            elif maxweight is not None:
                from fractions import Fraction
                bound = EnumerationBound.weight(Fraction(maxweight))
            else:
                raise click.exceptions.Exit(
                    _fail("--all-paths needs --maxlen or --maxweight", EXIT_INPUT))
            paths = enumerate_paths_upto(g, s, t, bound)
        else:
            d = distance_matrix(g)
            paths = enumerate_geodesics_st(g, d, s, t)
    except NegativeCycleError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_NEGATIVE_CYCLE))
    except ValueError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_INPUT))
    for path in paths:
        _print_path(path, jsonl)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--jsonl", is_flag=True, help="Emit JSON-lines records.")
def pairs(file, jsonl):
    """Enumerate every geodesic, pair by pair (per-pair DFS baseline)."""
    g = _load(file)
    try:
        d = distance_matrix(g)
        for path in iterate_all_pairs(g, d):
            _print_path(path, jsonl)
    except NegativeCycleError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_NEGATIVE_CYCLE))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write geodesics as JSON lines to this file.")
@click.option("--levels", "show_levels", is_flag=True,
              help="Print each weight level with a header.")
@click.option("--counts-only", is_flag=True, help="Print only the report as JSON.")
def apag(file, out, show_levels, counts_only):
    """Enumerate every geodesic by weight levels."""
    g = _load(file)
    try:
        dw = distance_matrix(g)
    except NegativeCycleError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_NEGATIVE_CYCLE))

    out_fh = open(out, "w") if out else None
    by_level: dict[int, list[tuple[int, ...]]] = {}

    def sink(verts, weight):
        if out_fh is not None:
            record = {"s": verts[0], "t": verts[-1], "w": weight,
                      "path": list(verts)}
            out_fh.write(json.dumps(record) + "\n")
        if show_levels:
            by_level.setdefault(weight, []).append(verts)
        elif not counts_only and out_fh is None:
            click.echo(" ".join(str(v) for v in verts))

    try:
        report = fast_apag(g, dw, sink)
    except WeightError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_INPUT))
    finally:
        if out_fh is not None:
            out_fh.close()

    if show_levels:
        for k in range(1, report.levels_built + 1):
            paths = by_level.get(k, [])
            click.echo(f"k={k} size={len(paths)}")
            for verts in paths:
                click.echo(" ".join(str(v) for v in verts))
    if counts_only or out or show_levels:
        click.echo(json.dumps(_report_json(report)))


def _report_json(report: ApagReport) -> dict:
    return {
        "total": report.total_count,
        "levels_built": report.levels_built,
        "max_level_nonempty": report.max_level_nonempty,
        "pairs": {f"{s},{t}": c for (s, t), c in sorted(report.per_pair_counts.items())},
    }


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--pair", nargs=2, type=int, default=None,
              help="Only this ordered pair; prints all simple paths.")
def oracle(file, pair):
    """Brute-force reference output (small graphs only; for debugging)."""
    g = _load(file)
    try:
        if pair:
            paths = brute_force_all_paths(g, pair[0], pair[1])
        else:
            paths = brute_force_geodesics(g)
    except SizeCapExceeded as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_CAP))
    except ValueError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_INPUT))
    for path in paths:
        click.echo(" ".join(str(v) for v in path.vertices) + f"  w={path.weight}")


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--m", "m", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--directed", is_flag=True)
@click.option("--wmax", type=int, default=1, show_default=True)
@click.option("--methods", default="apag,pairs", show_default=True,
              help="Comma-separated subset of {apag,pairs}.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Append the result row (with header if new) to this file.")
def bench(n, m, seed, directed, wmax, methods, csv_path):
    """Benchmark the level enumerator against the per-pair DFS baseline."""
    try:
        cfg = BenchConfig(n=n, m=m, seed=seed, directed=directed, wmax=wmax,
                          methods=tuple(x for x in methods.split(",") if x))
    except ValueError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_INPUT))
    try:
        row = run_benchmark(cfg)
    except NegativeCycleError as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_NEGATIVE_CYCLE))
    except RetriesExhausted as exc:
        raise click.exceptions.Exit(_fail(str(exc), EXIT_CAP))
    click.echo(BenchRow.CSV_HEADER)
    click.echo(row.csv_line())
    if csv_path:
        import os
        new = not os.path.exists(csv_path)
        with open(csv_path, "a") as fh:
            if new:
                fh.write(BenchRow.CSV_HEADER + "\n")
            fh.write(row.csv_line() + "\n")


if __name__ == "__main__":
    sys.exit(main())
