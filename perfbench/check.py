"""Exact checks of the CLI's ``apag`` output against the reference counts.

The report (``--counts-only``, or the summary line printed with ``--out``)
must give the reference total, the largest finite distance as its last
nonempty level, and exactly sigma(s, t) for every reachable ordered pair.
A JSONL file must hold every geodesic exactly once: each line a simple path
of the graph from s to t whose weight is D(s, t), per-pair line counts equal
to sigma(s, t), and no line repeated.
"""

from __future__ import annotations

import json

from instances import Instance
from reference import Reference


class CheckError(Exception):
    """The program's output differs from the reference."""


def check_report(stdout: str, ref: Reference) -> dict:
    """Check the one-line JSON report; return it parsed."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise CheckError(f"expected one report line on stdout, got {len(lines)}")
    try:
        report = json.loads(lines[0])
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    if report.get("total") != ref.total:
        raise CheckError(f"total {report.get('total')} != reference {ref.total}")
    if report.get("max_level_nonempty") != ref.max_dist:
        raise CheckError(f"max_level_nonempty {report.get('max_level_nonempty')}"
                         f" != largest distance {ref.max_dist}")
    pairs = report.get("pairs")
    if not isinstance(pairs, dict) or len(pairs) != ref.pairs:
        raise CheckError(f"report lists {len(pairs or ())} pairs,"
                         f" reference has {ref.pairs}")
    sigma = ref.sigma
    for key, count in pairs.items():
        s, _, t = key.partition(",")
        try:
            s, t = int(s), int(t)
            # Canonical keys, so that no pair can be listed twice.
            expected = sigma[s][t] if 0 < s != t and key == f"{s},{t}" else None
        except (ValueError, IndexError, KeyError):
            expected = None
        if expected is None:
            raise CheckError(f"pair {key!r} is not a reachable ordered pair")
        if count != expected:
            raise CheckError(f"pair {key}: {count} geodesics, reference {expected}")
    return report


def _records(fh, block_bytes: int = 1 << 24):
    """Yield each JSONL record; decode a block of lines per json call."""
    while True:
        block = fh.readlines(block_bytes)
        if not block:
            return
        try:
            records = json.loads("[" + ",".join(block) + "]")
        except ValueError:
            records = None
        if records is None or len(records) != len(block):
            for line in block:  # locate the offending line
                try:
                    json.loads(line)
                except ValueError:
                    raise CheckError(f"line is not JSON: {line[:80]!r}") from None
            raise CheckError("a line holds more than one JSON value")
        yield from records


def check_jsonl(path: str, inst: Instance, ref: Reference) -> int:
    """Check a geodesic JSONL file; return its line count."""
    weight = [dict(row) for row in inst.out()]
    dist = ref.dist
    counts: list[dict[int, int]] = [{} for _ in range(inst.n + 1)]
    seen: set[int] = set()
    repeated: set[int] = set()
    lines = 0
    with open(path) as fh:
        for rec in _records(fh):
            lines += 1
            try:
                verts = rec["path"]
                s = verts[0]
                t = verts[-1]
                w = 0
                prev = s
                for c in verts[1:]:
                    w += weight[prev][c]
                    prev = c
                # With positive weights a walk of weight D(s, t) cannot
                # repeat a vertex, so this also makes the path simple.
                ok = (len(rec) == 4 and rec["s"] == s and rec["t"] == t
                      and rec["w"] == w and 0 < s != t and dist[s].get(t) == w)
            except (KeyError, IndexError, TypeError):
                ok = False
            if not ok:
                raise CheckError(f"line {lines} is not a geodesic record: {rec!r}")
            row = counts[s]
            row[t] = row.get(t, 0) + 1
            h = hash(tuple(verts))
            if h in seen:
                repeated.add(h)
            else:
                seen.add(h)
    for s in range(1, inst.n + 1):
        expected = dict(ref.sigma[s])
        del expected[s]
        if counts[s] != expected:
            t = min(t for t in expected.keys() | counts[s].keys()
                    if counts[s].get(t) != expected.get(t))
            raise CheckError(f"pair {s},{t}: {counts[s].get(t, 0)} lines,"
                             f" reference {expected.get(t, 0)}")
    if repeated:
        _check_distinct(path, repeated)
    return lines


def _check_distinct(path: str, hashes: set[int]) -> None:
    # Equal hashes were seen; compare those paths exactly.
    found: set[tuple[int, ...]] = set()
    with open(path) as fh:
        for rec in _records(fh):
            verts = tuple(rec["path"])
            if hash(verts) in hashes:
                if verts in found:
                    raise CheckError(f"geodesic {list(verts)} listed twice")
                found.add(verts)
