#!/usr/bin/env python3
"""Summarise the span dumps of traced benchmark runs.

    python3 perfbench/spans.py                      # every .bench_build/out/spans-*.jsonl
    python3 perfbench/spans.py path/to/spans-soc_day.jsonl

Each dump line is one span: {"workload", "id", "name", "start_ns", "end_ns",
"parent", "request"}. Per workload this prints, for every layer (span name),
its call count, inclusive time, self time (inclusive minus the spans nested
directly inside it) and self time's share of the workload's traced wall time,
then the share of wall time the named layers account for together. Wall time
runs from the first span's start to the last span's end.
"""

import glob
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_GLOB = os.path.join(os.path.dirname(HERE), ".bench_build", "out", "spans-*.jsonl")


def load(paths):
    spans = defaultdict(list)
    for path in paths:
        with open(path) as f:
            for line in f:
                span = json.loads(line)
                spans[span["workload"]].append(span)
    return spans


def summarise(spans):
    """Returns (wall_ns, {name: [calls, inclusive_ns, self_ns]}) for one workload."""
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    layers = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        layer = layers[s["name"]]
        layer[0] += 1
        layer[1] += duration
        layer[2] += duration - child_ns[s["id"]]
    wall = max(s["end_ns"] for s in spans) - min(s["start_ns"] for s in spans)
    return wall, layers


def main(argv):
    paths = argv[1:] or sorted(glob.glob(DEFAULT_GLOB))
    if not paths:
        print("no span dumps found; run the benchmark with --trace 1 first", file=sys.stderr)
        return 1
    for workload, spans in sorted(load(paths).items()):
        wall, layers = summarise(spans)
        print("== %s: %d spans, %.3f s traced wall time" % (workload, len(spans), wall / 1e9))
        print("  %-28s %10s %12s %12s %12s %7s" %
              ("layer", "calls", "incl_ms", "self_ms", "self_ns/call", "share"))
        named = 0
        for name, (calls, incl, self_ns) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
            named += self_ns
            print("  %-28s %10d %12.3f %12.3f %12.1f %6.1f%%" %
                  (name, calls, incl / 1e6, self_ns / 1e6, self_ns / calls, 100.0 * self_ns / wall))
        print("  named layers account for %.1f%% of wall time" % (100.0 * named / wall))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
