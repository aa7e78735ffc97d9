"""Tests of the benchmark's own generator, reference counts and checks.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from allgeo import (BenchConfig, brute_force_geodesics, collect_levels,
                    distance_matrix, parse_graph, random_graph)
from check import CheckError, check_jsonl, check_report
from instances import generate
from reference import count_geodesics, extensions_tried

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]


def small_instances(directed: bool, wmax: int, count: int = 12):
    rng = random.Random(2026 + 7 * directed + wmax)
    for seed in range(count):
        n = rng.randint(2, 8)
        cap = n * (n - 1) if directed else n * (n - 1) // 2
        yield generate(n, rng.randint(0, cap), seed, directed, wmax)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_matches_program_at_anchor_seed(name):
    spec = WORKLOADS[name]
    inst = generate(spec["n"], spec["m"], 2026, spec["directed"], spec["wmax"])
    cfg = BenchConfig(n=spec["n"], m=spec["m"], seed=2026,
                      directed=spec["directed"], wmax=spec["wmax"])
    assert parse_graph(inst.graph_text()) == random_graph(cfg)


@pytest.mark.parametrize("directed,wmax", [(False, 1), (True, 1), (True, 4),
                                           (False, 3)])
def test_sigma_matches_brute_force(directed, wmax):
    for inst in small_instances(directed, wmax):
        g = parse_graph(inst.graph_text())
        paths = brute_force_geodesics(g)
        sigma = Counter((p.vertices[0], p.vertices[-1]) for p in paths)
        ref = count_geodesics(inst)
        assert ref.total == len(paths)
        assert ref.pairs == len(sigma)
        for (s, t), count in sigma.items():
            assert ref.sigma[s][t] == count
        for p in paths:
            assert ref.dist[p.vertices[0]][p.vertices[-1]] == p.weight


@pytest.mark.parametrize("directed,wmax", [(False, 1), (True, 4)])
def test_extensions_tried_counts_the_level_recursion(directed, wmax):
    # Direct count over the levels: seeds are the arcs of each built level's
    # weight, and each geodesic is tested against every out-arc of its end
    # whose weight lands on a built level.
    for inst in small_instances(directed, wmax):
        g = parse_graph(inst.graph_text())
        levels = collect_levels(g, distance_matrix(g))
        built = len(levels)
        arcs = list(g.arcs())
        tried = sum(1 for _, _, w in arcs if w <= built)
        for level in levels:
            for p in level.geodesics:
                tried += sum(1 for _, w in g.neighbors(p.vertices[-1])
                             if level.k + w <= built)
        assert extensions_tried(inst, count_geodesics(inst)) == tried


@pytest.fixture
def geodesic_file(tmp_path):
    """A weighted digraph, its reference and a correct JSONL file."""
    inst = generate(9, 30, 5, directed=True, wmax=3)
    paths = brute_force_geodesics(parse_graph(inst.graph_text()))
    lines = [json.dumps({"s": p.vertices[0], "t": p.vertices[-1],
                         "w": p.weight, "path": list(p.vertices)}) + "\n"
             for p in paths]
    return inst, count_geodesics(inst), lines, tmp_path / "geo.jsonl"


def write_and_check(path, lines, inst, ref):
    path.write_text("".join(lines))
    return check_jsonl(str(path), inst, ref)


def test_check_jsonl_accepts_the_geodesics(geodesic_file):
    inst, ref, lines, path = geodesic_file
    random.Random(1).shuffle(lines)  # order is free
    assert write_and_check(path, lines, inst, ref) == ref.total


def test_check_jsonl_rejects_a_dropped_line(geodesic_file):
    inst, ref, lines, path = geodesic_file
    with pytest.raises(CheckError):
        write_and_check(path, lines[1:], inst, ref)


def test_check_jsonl_rejects_a_duplicated_line(geodesic_file):
    inst, ref, lines, path = geodesic_file
    with pytest.raises(CheckError):
        write_and_check(path, lines + lines[:1], inst, ref)


def test_check_jsonl_rejects_a_duplicate_in_place_of_a_geodesic(geodesic_file):
    # Per-pair counts still match; only the repeat gives it away.
    inst, ref, lines, path = geodesic_file
    by_pair: dict = {}
    for i, line in enumerate(lines):
        rec = json.loads(line)
        by_pair.setdefault((rec["s"], rec["t"]), []).append(i)
    i, j = next(ix for ix in by_pair.values() if len(ix) >= 2)[:2]
    lines[j] = lines[i]
    with pytest.raises(CheckError, match="twice"):
        write_and_check(path, lines, inst, ref)


def test_check_jsonl_rejects_a_non_geodesic(geodesic_file):
    inst, ref, lines, path = geodesic_file
    g = parse_graph(inst.graph_text())
    records = [json.loads(line) for line in lines]
    geodesics = {tuple(rec["path"]) for rec in records}
    for i, rec in enumerate(records):
        s, t, w = rec["s"], rec["t"], rec["w"]
        longer = [p for p in _simple_paths(g, s, t) if p not in geodesics]
        if longer and not g.has_arc(s, t):
            break
    bad = longer[0]
    bad_w = sum(g.arc_weight(u, v) for u, v in zip(bad, bad[1:]))
    alias = s - len(ref.sigma)  # a negative index reaching the row of s
    wrong = [(bad, bad_w),  # a longer simple path with its own weight
             (bad, w),  # the same, claiming D(s, t)
             ((s, t), w),  # a hop along a missing arc
             ((alias,) + tuple(rec["path"][1:]), w)]  # a vertex id out of range
    for verts, weight in wrong:
        lines[i] = json.dumps({"s": verts[0], "t": t, "w": weight,
                               "path": list(verts)}) + "\n"
        with pytest.raises(CheckError, match="not a geodesic"):
            write_and_check(path, lines, inst, ref)


def _simple_paths(g, s, t):
    stack = [(s,)]
    while stack:
        p = stack.pop()
        if p[-1] == t:
            yield p
            continue
        stack.extend(p + (c,) for c, _ in g.neighbors(p[-1]) if c not in p)


def test_check_jsonl_rejects_a_line_that_is_not_json(geodesic_file):
    inst, ref, lines, path = geodesic_file
    lines[0] = lines[0].replace("}", "")
    with pytest.raises(CheckError, match="not JSON"):
        write_and_check(path, lines, inst, ref)


def report_text(ref, **changes):
    pairs = {f"{s},{t}": c for s, row in enumerate(ref.sigma)
             for t, c in row.items() if s != t}
    report = {"total": ref.total, "levels_built": ref.max_dist + 3,
              "max_level_nonempty": ref.max_dist, "pairs": pairs}
    report.update(changes)
    return json.dumps(report) + "\n"


def test_check_report():
    inst = generate(9, 30, 5, directed=True, wmax=3)
    ref = count_geodesics(inst)
    assert check_report(report_text(ref), ref)["total"] == ref.total
    for bad in (report_text(ref, total=ref.total + 1),
                report_text(ref, max_level_nonempty=ref.max_dist + 1),
                report_text(ref) * 2):
        with pytest.raises(CheckError):
            check_report(bad, ref)


def test_check_report_rejects_wrong_pairs():
    inst = generate(9, 30, 5, directed=True, wmax=3)
    ref = count_geodesics(inst)
    pairs = json.loads(report_text(ref))["pairs"]
    (key, count), (other, other_count) = list(pairs.items())[:2]
    s, t = other.split(",")
    # A wrong count, a dropped pair, and a dropped pair replaced by another
    # pair written a second way (leading zero; negative index into rows).
    wrong = [{**pairs, key: count + 1}, {k: c for k, c in pairs.items() if k != key}]
    for alias in (f"0{s},{t}", f"{int(s) - len(ref.sigma)},{t}"):
        wrong.append({**wrong[1], alias: other_count})
    for bad in wrong:
        with pytest.raises(CheckError):
            check_report(report_text(ref, pairs=bad), ref)


def run_traced(tmp_path, code_before=""):
    graph = tmp_path / "g.txt"
    graph.write_text(generate(8, 16, 3, directed=True, wmax=2).graph_text())
    spans = tmp_path / "spans.json"
    script = (f"import sys, runpy; {code_before}"
              f"sys.argv = ['traced_cli.py', {str(spans)!r}, 'apag', {str(graph)!r},"
              " '--counts-only']; runpy.run_path(sys.argv[0], run_name='__main__')")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=60)
    return proc, spans


def test_traced_run_records_every_layer(tmp_path):
    proc, spans = run_traced(tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = Counter(s["name"] for s in json.loads(spans.read_text())["spans"])
    assert names["cli.main"] == names["graph.parse_graph"] == 1
    assert names["distances.distance_matrix"] == names["apag.fast_apag"] == 1
    assert names["cli.sink"] >= 1
    assert json.loads(proc.stdout)["total"] > 0


def test_traced_run_fails_when_a_layer_name_is_missing(tmp_path):
    proc, spans = run_traced(tmp_path, "import allgeo.cli; del allgeo.cli.fast_apag; ")
    assert proc.returncode != 0
    assert "allgeo.cli.fast_apag is missing" in proc.stderr
    assert not spans.exists()
