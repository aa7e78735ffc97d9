"""Run the allgeo CLI with spans around the calls into each layer.

Usage: python3 traced_cli.py SPANS_FILE ARGS...

ARGS are passed to the ``allgeo`` command group unchanged. Before it runs,
the names through which ``allgeo.cli`` calls its layers are replaced by
timing wrappers: ``parse_graph`` (graph), ``distance_matrix`` (distances),
``fast_apag`` (apag), and the sink the CLI hands to ``fast_apag`` (cli
emit). A missing name stops the run with an error instead of yielding zero
times. Spans are kept in memory and written to SPANS_FILE as JSON when the
CLI returns. Sink calls are folded into one span per weight level.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), the clock
the benchmark reads around the process, so both sides share one time line.
"""

import json
import resource
import sys
import time

clock = time.monotonic

import allgeo.cli as cli  # noqa: E402  (the import is part of set-up time)

READY = clock()
# allgeo.cli name -> span name (module.function of the layer)
WRAPPED = {"parse_graph": "graph.parse_graph",
           "distance_matrix": "distances.distance_matrix",
           "fast_apag": "apag.fast_apag"}


def _rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # (parent span id, {weight: [first start, last end, busy, calls]})
        self.sink_tallies: list[tuple[int, dict]] = []

    def open(self, name: str, parent) -> dict:
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "start": clock(), "end": None}
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = clock()
        span["rss_hwm_mb"] = _rss_hwm_mb()

    def wrap(self, name: str, fn, parent: int):
        def traced(*args, **kwargs):
            span = self.open(name, parent)
            if name == "apag.fast_apag":
                args, kwargs = self._wrap_sink(args, kwargs, span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _wrap_sink(self, args, kwargs, parent: int):
        if len(args) >= 3 and args[2] is not None:
            args = args[:2] + (self._traced_sink(args[2], parent),) + args[3:]
        elif kwargs.get("sink") is not None:
            kwargs["sink"] = self._traced_sink(kwargs["sink"], parent)
        return args, kwargs

    def _traced_sink(self, sink, parent: int):
        levels: dict = {}
        self.sink_tallies.append((parent, levels))

        def traced_sink(verts, weight):
            t0 = clock()
            sink(verts, weight)
            t1 = clock()
            rec = levels.get(weight)
            if rec is None:
                levels[weight] = [t0, t1, t1 - t0, 1]
            else:
                rec[1] = t1
                rec[2] += t1 - t0
                rec[3] += 1

        return traced_sink

    def sink_spans(self) -> None:
        """Add one span per sink and weight level to the recorded spans."""
        for parent, levels in self.sink_tallies:
            for weight, (start, end, busy, calls) in sorted(levels.items()):
                self.spans.append({"id": len(self.spans), "name": "cli.sink",
                                   "parent": parent, "start": start, "end": end,
                                   "level": weight, "busy": busy, "calls": calls})


def main(spans_file: str, args: list[str]) -> int:
    tracer = Tracer()
    root = tracer.open("cli.main", None)
    for attr, name in WRAPPED.items():
        fn = getattr(cli, attr, None)
        if not callable(fn):
            raise SystemExit(f"traced run: allgeo.cli.{attr} is missing")
        setattr(cli, attr, tracer.wrap(name, fn, root["id"]))
    code = 0
    try:
        cli.main(args=args, prog_name="allgeo")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.close(root)
        tracer.sink_spans()
        with open(spans_file, "w") as fh:
            json.dump({"ready": READY, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
