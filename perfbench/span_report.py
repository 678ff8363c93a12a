#!/usr/bin/env python3
"""Per-layer self time from a traced run's span dump.

    python3 perfbench/span_report.py .bench_build/run/spans-<workload>.tsv

The dump holds the spans of the last traced trial, one per line: id, parent,
request, name, role, start_ns, end_ns, child_ns. A span's self time is its
duration minus the time its direct children covered. For each operation type
(the name of a request's root span) the report lists every layer that ran
under it, with its self time and its share of the operation's wall time.
The self times of one request add up to its root span's duration exactly,
so the last row of each table (the sum of the parts) reads 100%. Env ops on
engine threads have no request; they are listed apart, by name. A large
trial's dump keeps whole requests 1 in N (the run prints N).
"""

import collections
import csv
import sys


Span = collections.namedtuple("Span", "id parent request name role wall self")


def load(path):
    spans = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f, delimiter="\t"):
            start, end = int(row["start_ns"]), int(row["end_ns"])
            wall = end - start
            spans.append(Span(int(row["id"]), int(row["parent"]),
                              int(row["request"]), row["name"], row["role"],
                              wall, wall - int(row["child_ns"])))
    return spans


def report(spans, out=sys.stdout):
    roots = {s.id: s for s in spans if s.parent == 0 and s.request == s.id}
    wall = collections.Counter()
    count = collections.Counter()
    for root in roots.values():
        wall[root.name] += root.wall
        count[root.name] += 1
    layers = collections.defaultdict(collections.Counter)
    background = collections.Counter()
    calls = collections.Counter()
    for s in spans:
        root = roots.get(s.request)
        if root is not None:
            layers[root.name][s.name] += s.self
        elif s.request == 0:
            background[s.name] += s.wall
            calls[s.name] += 1

    for op in sorted(wall, key=lambda name: -wall[name]):
        print("\n%s: %d requests, %.3f ms wall, %.2f us each"
              % (op, count[op], wall[op] / 1e6, wall[op] / 1e3 / count[op]),
              file=out)
        print("  %-24s %12s %8s" % ("layer (self time)", "ms", "share"),
              file=out)
        total = 0
        for name, ns in layers[op].most_common():
            total += ns
            print("  %-24s %12.3f %7.1f%%"
                  % (name, ns / 1e6, 100.0 * ns / max(wall[op], 1)), file=out)
        print("  %-24s %12.3f %7.1f%%"
              % ("sum of parts", total / 1e6, 100.0 * total / max(wall[op], 1)),
              file=out)

    if background:
        print("\nengine threads (root spans, by file kind and op)", file=out)
        print("  %-24s %10s %12s" % ("span", "calls", "ms"), file=out)
        for name, ns in background.most_common():
            print("  %-24s %10d %12.3f" % (name, calls[name], ns / 1e6),
                  file=out)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    report(load(sys.argv[1]))


if __name__ == "__main__":
    main()
