"""Benchmark of the allgeo CLI: end-to-end metrics, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-count [--seed 2026]
        [--seconds 45] [--trace 0|1]

The workload (see workloads.json) fixes the instance parameters and the
output mode of ``allgeo apag``. Graphs are made by the benchmark's own
generator and written to a temporary directory in the checkout, which is
removed at the end. The program is run from ``src/`` as
``python3 -m allgeo.cli``, one process at a time, until the measured
processes have taken --seconds in total (at least one). With --trace 0 the
k-th CLI run gets the graph of seed ``--seed + k * 1000000``, so the first
is the --seed graph; with --trace 1 every CLI run gets the --seed graph.
Every run's output is checked exactly against reference geodesic counts,
outside the timed region.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(CLI runs), ``failed`` (runs that exited non-zero or failed the check) and
``metrics``. With --trace 0 the metrics are end to end:

    wall_s           median process launch to exit
    geodesics_per_s  median of geodesics / wall time
    peak_rss_mb      median peak RSS of the CLI process (wait4 rusage)
    setup_s          median, over separate launches, of the time from launch
                     until allgeo.cli is imported

With --trace 1 each round runs the CLI untraced and then through
traced_cli.py, and the metrics are per layer, medians over the traced runs
(see the layer map in workloads.json).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import astuple, dataclass
from pathlib import Path

from check import CheckError, check_jsonl, check_report
from instances import generate
from reference import count_geodesics, extensions_tried

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]
ANCHOR_SEED = 2026
# Set-up launches come in groups around every CLI run, so that their median
# samples the host's speed over the whole run rather than over one second.
SETUP_LAUNCHES = 3
# With --trace 0 every CLI run of a run gets an instance of its own, so that a
# run's medians do not hang on one graph: the per-pair dict of the program
# resizes at 349,525 keys, which puts the peak RSS of about 7% of
# weighted-directed graphs 27 MB higher than the rest.
INSTANCE_SEED_STRIDE = 1_000_000
RUN_LIMIT_S = 160  # a stuck CLI process is killed so that a run ends in time

clock = time.monotonic  # CLOCK_MONOTONIC: the clock traced_cli.py stamps spans with


@dataclass
class Proc:
    launch: float
    exit: float
    code: int
    rss_mb: float

    @property
    def wall(self) -> float:
        return self.exit - self.launch


def spawn(argv: list[str], stdout: str, stderr: str, env: dict,
          deadline: float) -> Proc:
    """Run one child to completion; kill it if it outlives the deadline."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    launch = clock()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    killer = threading.Timer(max(deadline - launch, 0.0), os.kill,
                             (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
    end = clock()
    return Proc(launch, end, os.waitstatus_to_exitcode(status),
                usage.ru_maxrss / 1024)


class Spawner:
    """Starts the measured processes from a small helper process.

    Linux charges a child's ru_maxrss with the resident size of the address
    space it was exec'd from. This process grows to hundreds of MB holding
    the reference counts and checking outputs, so children spawned from it
    would report that as their own peak. The helper is forked before any of
    that is built and stays small.
    """

    def __init__(self, env: dict, deadline: float):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            code = 0
            try:
                with open(req_r) as requests, open(rep_w, "w") as replies:
                    for line in requests:
                        argv, stdout, stderr = json.loads(line)
                        proc = spawn(argv, stdout, stderr, env, deadline)
                        replies.write(json.dumps(astuple(proc)) + "\n")
                        replies.flush()
            except BaseException:
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self.requests = open(req_w, "w")
        self.replies = open(rep_r)

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> Proc:
        self.requests.write(json.dumps([argv, str(stdout), str(stderr)]) + "\n")
        self.requests.flush()
        reply = self.replies.readline()
        if not reply:
            raise SystemExit("perfbench: the spawning helper process died")
        return Proc(*json.loads(reply))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.requests.close()
        self.replies.close()
        os.waitpid(self.pid, 0)


def instance_seed(seed: int, k: int) -> int:
    """Generator seed of the k-th instance of a run; the first is --seed."""
    return seed + k * INSTANCE_SEED_STRIDE


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, spawner: Spawner,
                 deadline: float):
        self.spec = WORKLOADS[workload]
        self.jsonl = self.spec["output"] == "jsonl"
        self.seed = seed
        self.k = None
        self.inst = self.ref = None
        self.work = work
        self.spawner = spawner
        self.deadline = deadline
        self.graph = work / "graph.txt"
        self.attempted = 0
        self.failed = 0

    def load(self, k: int) -> None:
        """Generate the k-th instance of the run and its reference counts."""
        if k == self.k:
            return
        spec = self.spec
        seed = instance_seed(self.seed, k)
        self.inst = self.ref = None  # free the previous instance first
        self.inst = generate(spec["n"], spec["m"], seed, spec["directed"],
                             spec["wmax"])
        self.ref = count_geodesics(self.inst)
        if seed == ANCHOR_SEED and self.ref.total != spec["geodesics_at_seed_2026"]:
            raise SystemExit(f"perfbench: reference total {self.ref.total} at seed "
                             f"{seed}, expected {spec['geodesics_at_seed_2026']}")
        self.graph.write_text(self.inst.graph_text())
        self.k = k

    def setup_times(self) -> list[float]:
        """Times from launch until allgeo.cli is imported, one per launch."""
        code = "import time, allgeo.cli; print(repr(time.monotonic()))"
        out, err = self.work / "setup.out", self.work / "setup.err"
        times = []
        for _ in range(SETUP_LAUNCHES):
            proc = self.spawner.run(["-c", code], out, err)
            if proc.code != 0:
                raise SystemExit("perfbench: cannot import allgeo.cli:\n"
                                 + err.read_text()[-2000:])
            times.append(float(out.read_text()) - proc.launch)
        return times

    def run_cli(self, traced: bool) -> tuple[Proc, dict | None, dict | None]:
        """One CLI run, checked; returns the process, the report and spans."""
        out, err = self.work / "stdout", self.work / "stderr"
        jsonl = self.work / "geodesics.jsonl"
        spans_file = self.work / "spans.json"
        args = ["apag", str(self.graph)]
        args += ["--out", str(jsonl)] if self.jsonl else ["--counts-only"]
        prefix = ([str(HERE / "traced_cli.py"), str(spans_file)] if traced
                  else ["-m", "allgeo.cli"])
        proc = self.spawner.run(prefix + args, out, err)
        self.attempted += 1
        report = spans = None
        try:
            if proc.code != 0:
                raise CheckError(f"exit code {proc.code}: "
                                 + err.read_text()[-2000:])
            stdout = out.read_text()
            report = check_report(stdout, self.ref)
            emit = {"bytes": len(stdout.encode()), "lines": len(stdout.splitlines())}
            if self.jsonl:
                emit["bytes"] += jsonl.stat().st_size
                emit["lines"] += check_jsonl(str(jsonl), self.inst, self.ref)
            report["emit"] = emit
            if traced:
                spans = json.loads(spans_file.read_text())
        except (CheckError, OSError) as exc:
            self.failed += 1
            report = None
            print(f"perfbench: run {self.attempted} failed: {exc}", file=sys.stderr)
        finally:
            for f in (jsonl, spans_file):
                f.unlink(missing_ok=True)
        return proc, report, spans


def repeat(bench: Bench, seconds: float, step) -> None:
    """Call step() (it returns the seconds it measured) until another call
    would take the total past `seconds`; at least once."""
    spent = 0.0
    calls = 0
    while calls == 0 or (spent + spent / calls <= seconds
                         and clock() < bench.deadline):
        spent += step()
        calls += 1


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup: list[float] = []
    procs: list[Proc] = []
    rates: list[float] = []

    def step() -> float:
        bench.load(len(procs))
        setup.extend(bench.setup_times())
        proc, _, _ = bench.run_cli(traced=False)
        procs.append(proc)
        rates.append(bench.ref.total / proc.wall)
        return proc.wall

    repeat(bench, seconds, step)
    setup.extend(bench.setup_times())
    return {
        "wall_s": (statistics.median(p.wall for p in procs), "s"),
        "geodesics_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in procs), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def layer_times(proc: Proc, spans: dict) -> dict:
    """Per-layer seconds and memory of one traced run."""
    by_name: dict[str, list[dict]] = {}
    for span in spans["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    for name in ("cli.main", "graph.parse_graph", "distances.distance_matrix",
                 "apag.fast_apag"):
        if len(by_name.get(name, ())) != 1:
            raise SystemExit(f"perfbench: traced run has no single {name} span")
    [main] = by_name["cli.main"]
    [parse] = by_name["graph.parse_graph"]
    [dist] = by_name["distances.distance_matrix"]
    [apag] = by_name["apag.fast_apag"]
    sink = sum(s["busy"] for s in by_name.get("cli.sink", ()))
    layers = {
        "cli.import_s": spans["ready"] - proc.launch,
        "graph.parse_s": parse["end"] - parse["start"],
        "distances.dist_s": dist["end"] - dist["start"],
        "apag.self_s": apag["end"] - apag["start"] - sink,
        "cli.emit_s": sink + main["end"] - apag["end"],
        "cli.exit_s": proc.exit - main["end"],
    }
    layers["trace.unaccounted_s"] = proc.wall - sum(layers.values())
    layers["trace.wall_s"] = proc.wall
    layers["distances.rss_hwm_mb"] = dist["rss_hwm_mb"]
    layers["apag.rss_hwm_mb"] = apag["rss_hwm_mb"]
    return layers


def per_layer(bench: Bench, seconds: float) -> dict:
    bench.load(0)
    plain: list[Proc] = []
    traced: list[Proc] = []
    layers: list[dict] = []
    report = None

    def step() -> float:
        nonlocal report
        proc, _, _ = bench.run_cli(traced=False)
        plain.append(proc)
        proc_t, rep, spans = bench.run_cli(traced=True)
        traced.append(proc_t)
        if rep is not None:
            report = rep
            layers.append(layer_times(proc_t, spans))
        return proc.wall + proc_t.wall

    repeat(bench, seconds, step)
    if not layers:
        raise SystemExit("perfbench: no traced run passed its check")
    metrics = {name: (statistics.median(run[name] for run in layers),
                      "MB" if name.endswith("_mb") else "s")
               for name in layers[0]}
    tried = extensions_tried(bench.inst, bench.ref)
    metrics.update({
        "apag.levels": (report["levels_built"], "count"),
        "apag.accepted": (report["total"], "count"),
        "apag.pairs": (len(report["pairs"]), "count"),
        "apag.tried": (tried, "count"),
        "apag.accept_ratio": (report["total"] / tried, "ratio"),
        "cli.emit_bytes": (report["emit"]["bytes"], "bytes"),
        "cli.emit_lines": (report["emit"]["lines"], "count"),
        "trace.overhead_s": (statistics.median(p.wall for p in traced)
                             - statistics.median(p.wall for p in plain), "s"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ANCHOR_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "allgeo" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'allgeo'}; run from a checkout"
              " of the repository", file=sys.stderr)
        return 2
    deadline = clock() + RUN_LIMIT_S
    # The checks build millions of small containers and no cycles; the
    # cyclic collector would only rescan them.
    gc.disable()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with Spawner(env, deadline) as spawner, \
            tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        bench = Bench(args.workload, args.seed, Path(work), spawner, deadline)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(bench, args.seconds)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
