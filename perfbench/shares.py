"""Stage shares of a traced run, from its spans file.

    python3 perfbench/shares.py .perfbench/spans-rational_large.jsonl.gz

Prints, per span name, the self time and the inclusive time (the span's
whole duration, children included) as shares of the summed root spans,
which is the traced time spent inside ``youngbasis.cli.main``.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict


def shares(path):
    spans = {}
    with gzip.open(path, "rt") as fh:
        for line in fh:
            s = json.loads(line)
            spans[s["id"]] = s
    covered = defaultdict(float)
    for s in spans.values():
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    total = 0.0
    for s in spans.values():
        dur = s["end"] - s["start"]
        self_s[s["name"]] += dur - covered[s["id"]]
        incl_s[s["name"]] += dur
        if s["parent"] is None:
            total += dur
    return total, self_s, incl_s


def main(path):
    total, self_s, incl_s = shares(path)
    print(f"traced time in cli.main: {total:.3f} s")
    print(f"{'span':32s} {'self':>7s} {'incl':>7s}")
    for name in sorted(incl_s, key=incl_s.get, reverse=True):
        print(f"{name:32s} {self_s[name] / total:7.1%} "
              f"{incl_s[name] / total:7.1%}")


if __name__ == "__main__":
    main(sys.argv[1])
