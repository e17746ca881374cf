#!/usr/bin/env python3
"""Compare the output fingerprints of two benchmark records.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Each record lists, per instance, the sha256 of every lift file and
certificate and the exact counts (BuildStats fields, routing calls and
failures when traced, Hajos search states).  Runs are time-bounded, so two
records may hold different numbers of instances; the instances both hold
must match exactly.  Exit code 0 when they do, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def compare(a: dict, b: dict) -> tuple[int, list[str]]:
    """(instances compared, mismatch descriptions) for two records."""
    if (a["workload"], a["seed"], a["scale"]) != (b["workload"], b["seed"], b["scale"]):
        return 0, ["records differ in workload, seed or scale"]
    left = {fp["instance"]: fp for fp in a["fingerprints"]}
    right = {fp["instance"]: fp for fp in b["fingerprints"]}
    common = sorted(left.keys() & right.keys())
    mismatches = []
    for k in common:
        x, y = left[k], right[k]
        # routing counts exist only in traced records
        for key in sorted((x.keys() | y.keys()) - {"route_calls", "route_failures"}):
            if x.get(key) != y.get(key):
                mismatches.append(f"instance {k}: {key} {x.get(key)!r} != {y.get(key)!r}")
        for key in ("route_calls", "route_failures"):
            if key in x and key in y and x[key] != y[key]:
                mismatches.append(f"instance {k}: {key} {x[key]} != {y[key]}")
    return len(common), mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    compared, mismatches = compare(a, b)
    for m in mismatches:
        print(m)
    print(f"{compared} instances compared, {len(mismatches)} mismatches")
    return 0 if compared and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
