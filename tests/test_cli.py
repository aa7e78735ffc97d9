import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import allgeo
from allgeo.cli import main

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
