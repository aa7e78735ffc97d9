import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

import allgeo
import allgeo.cli
from allgeo import distance_matrix, fast_apag, floyd_warshall, parse_graph
from allgeo.cli import main
from conftest import random_test_graph

DATA = pathlib.Path(__file__).parent / "data"
G2 = str(DATA / "g2.txt")


def run(*args):
    return CliRunner().invoke(main, list(args))


def write_p3(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("3 2 undirected unweighted\n1 2\n2 3\n")
    return str(f)


def test_dist_tsv(tmp_path):
    res = run("dist", write_p3(tmp_path))
    assert res.exit_code == 0
    assert res.output.splitlines() == ["0\t1\t2", "1\t0\t1", "2\t1\t0"]


def test_dist_methods_agree(tmp_path):
    p3 = write_p3(tmp_path)
    outs = {m: run("dist", p3, "--method", m).output for m in ("power", "bfs", "fw")}
    assert outs["power"] == outs["bfs"] == outs["fw"]


def test_dist_default_weighted_g2():
    fw = floyd_warshall(parse_graph(pathlib.Path(G2).read_text()))
    want = ["\t".join("inf" if e == float("inf") else str(e)
                       for e in fw.rows[u][1:]) for u in range(1, fw.n + 1)]
    for args in ((), ("--method", "auto"), ("--method", "dial")):
        res = run("dist", G2, *args)
        assert res.exit_code == 0, res.output
        assert res.output.splitlines() == want


@pytest.mark.parametrize("method,name", [("bfs", "bfs"),
                                         ("power", "power method")])
def test_dist_unweighted_methods_reject_weighted(method, name):
    res = run("dist", G2, "--method", method)
    assert res.exit_code == 1
    assert res.output == f"error: {name} needs an unweighted graph\n"


def test_dist_dial_rejects_rational_weights(tmp_path):
    f = tmp_path / "half.txt"
    f.write_text("2 1 directed weighted\n1 2 3/2\n")
    res = run("dist", str(f), "--method", "dial")
    assert res.exit_code == 1
    assert res.output == "error: Dial needs positive integer arc weights\n"


def test_dist_fw_g2_inf_row():
    res = run("dist", G2, "--method", "fw")
    assert res.exit_code == 0
    assert res.output.splitlines()[2] == "inf\tinf\t0\tinf\tinf\tinf"


def test_dist_negative_cycle_exit_code(tmp_path):
    f = tmp_path / "neg.txt"
    f.write_text("3 3 directed weighted\n1 2 1\n2 3 1\n3 1 -3\n")
    res = run("dist", str(f), "--method", "fw")
    assert res.exit_code == 2


def test_one_g2():
    res = run("one", G2, "1", "3")
    assert res.exit_code == 0
    assert res.output.splitlines() == ["1 4 2 3", "weight 5"]


def test_one_unreachable():
    res = run("one", G2, "3", "1")
    assert res.exit_code == 1


def run_subprocess(*args):
    """Run the CLI in a child process that is killed after 10 s."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(allgeo.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "allgeo.cli", *args],
                          capture_output=True, text=True, timeout=10, env=env)


def test_one_zero_weight_cycle_terminates(tmp_path):
    f = tmp_path / "zero.txt"
    f.write_text("3 2 undirected weighted\n1 2 0\n2 3 1\n")
    res = run_subprocess("one", str(f), "2", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["2 3", "weight 1"]


def test_one_negative_arc_cycle_terminates(tmp_path):
    f = tmp_path / "neg.txt"
    f.write_text("3 3 directed weighted\n1 2 -1\n2 1 1\n2 3 1\n")
    res = run_subprocess("one", str(f), "1", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["1 2 3", "weight 0"]


def write_p4(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4 3 undirected unweighted\n1 2\n2 3\n3 4\n")
    return str(f)


@pytest.mark.parametrize("cmd,s,t,bad", [
    ("st", "4", "0", "0"),
    ("st", "0", "4", "0"),
    ("st", "1", "5", "5"),
    ("one", "2", "0", "0"),
])
def test_vertex_id_out_of_range(tmp_path, cmd, s, t, bad):
    res = run(cmd, write_p4(tmp_path), s, t)
    assert res.exit_code == 1
    assert res.output == f"error: vertex id {bad} out of range\n"


def test_st_geodesics():
    res = run("st", G2, "4", "1")
    assert res.exit_code == 0
    assert res.output.splitlines() == ["4 1", "4 2 1"]


def test_st_all_paths_weight_bound():
    res = run("st", G2, "4", "1", "--all-paths", "--maxweight", "3")
    assert res.output.splitlines() == ["4 1", "4 2 1"]


def test_st_jsonl():
    res = run("st", G2, "5", "1", "--jsonl")
    records = [json.loads(ln) for ln in res.output.splitlines()]
    assert records == [
        {"s": 5, "t": 1, "w": 4, "path": [5, 4, 1]},
        {"s": 5, "t": 1, "w": 4, "path": [5, 4, 2, 1]},
    ]


def test_st_requires_bound_for_all_paths():
    res = run("st", G2, "4", "1", "--all-paths")
    assert res.exit_code == 1


def test_pairs(tmp_path):
    res = run("pairs", write_p3(tmp_path))
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 6


def test_apag_default_prints_paths():
    res = run("apag", G2)
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 23


def test_apag_counts_only():
    res = run("apag", G2, "--counts-only")
    report = json.loads(res.output)
    assert report["total"] == 23
    assert report["max_level_nonempty"] == 7
    assert report["pairs"]["4,1"] == 2


def test_apag_levels():
    res = run("apag", G2, "--levels")
    lines = res.output.splitlines()
    assert "k=1 size=4" in lines
    assert "k=6 size=0" in lines
    assert "k=7 size=1" in lines


def test_apag_out_file(tmp_path):
    out = tmp_path / "geo.jsonl"
    res = run("apag", G2, "--out", str(out))
    assert res.exit_code == 0
    records = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert len(records) == 23
    assert {"s": 1, "t": 6, "w": 7, "path": [1, 4, 5, 6]} in records


@pytest.mark.parametrize("weight,message", [
    ("5/2", "non-integer arc weight Fraction(5, 2)"),
    ("0", "non-positive arc weight 0"),
    ("-1", "non-positive arc weight -1"),
])
def test_apag_checks_weights_before_distances(tmp_path, monkeypatch,
                                              weight, message):
    f = tmp_path / "bad.txt"
    f.write_text(f"3 2 directed weighted\n1 2 {weight}\n2 3 1\n")
    called = []
    monkeypatch.setattr(allgeo.cli, "distance_matrix",
                        lambda g: called.append(g) or distance_matrix(g))
    res = run("apag", str(f), "--counts-only")
    assert res.exit_code == 1
    assert res.output == f"error: {message}\n"
    assert called == []


def legacy_report_line(g):
    """The report line as json.dumps of its dict form, from emitted paths."""
    d = distance_matrix(g)
    pairs = Counter()
    report = fast_apag(g, d, lambda v, w: pairs.update([(v[0], v[-1])]))
    return json.dumps({
        "total": report.total_count,
        "levels_built": report.levels_built,
        "max_level_nonempty": report.max_level_nonempty,
        "pairs": {f"{s},{t}": c for (s, t), c in sorted(pairs.items())},
    }) + "\n"


def test_apag_report_bytes(tmp_path):
    rng = random.Random(121)
    graphs = [parse_graph(pathlib.Path(G2).read_text()),
              parse_graph("4 0 undirected unweighted\n")]
    for directed, wmax, n, m in [(False, 1, 12, 20), (True, 3, 10, 25),
                                 (True, 5, 14, 8), (False, 2, 9, 4)]:
        graphs.append(random_test_graph(rng, n, m, directed, wmax))
    for i, g in enumerate(graphs):
        f = tmp_path / f"g{i}.txt"
        f.write_text(allgeo.serialize_graph(g))
        want = legacy_report_line(g)
        counts = run("apag", str(f), "--counts-only")
        assert counts.exit_code == 0
        assert counts.output == want
        out = run("apag", str(f), "--out", str(tmp_path / "geo.jsonl"))
        assert out.output == want


def test_oracle_pair():
    res = run("oracle", G2, "--pair", "5", "1")
    assert res.output.splitlines() == ["5 4 1  w=4", "5 4 2 1  w=4"]


def test_bench_csv(tmp_path):
    csv = tmp_path / "rows.csv"
    res = run("bench", "--n", "30", "--m", "60", "--seed", "5",
              "--csv", str(csv))
    assert res.exit_code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,m,maxdist,geodesics,t_apag_s,t_pairs_s,agree"
    assert lines[1].endswith("True")


def test_bench_bad_params():
    res = run("bench", "--n", "3", "--m", "9", "--seed", "1")
    assert res.exit_code == 1


def test_malformed_file(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("2 1 undirected unweighted\n1 1\n")
    res = run("dist", str(f))
    assert res.exit_code == 1
