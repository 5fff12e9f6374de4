#!/usr/bin/env python3
"""Compare two benchmark results written by run.py --json.

    python3 benchmark/compare.py base.json new.json

Prints one row per workload found in both files, with the change of
every end-to-end metric from base to new. A metric regresses when the
new value is worse, in the metric's direction, by more than its bound
(BENCHMARK.json, a share of the base value) and by more than its
absolute floor below. A workload whose new run is not correct fails
too. Exit status: 0 no regression, 1 a regression, 2 bad input.
"""

import json
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Changes smaller than these are noise whatever their share: set-up of
# the sim workloads takes microseconds, and RSS moves by allocator pages.
FLOORS = {"setup_s": 0.005, "peak_rss_mb": 4.0}


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        print(f"compare.py: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    spec = load(SPEC_FILE)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    try:
        base_w, new_w = base["workloads"], new["workloads"]
    except (KeyError, TypeError):
        print("compare.py: not a run.py --json document", file=sys.stderr)
        sys.exit(2)
    metrics = spec["end_to_end"]
    shared = [w for w in base_w if w in new_w]
    if not shared:
        print("compare.py: no workload in common", file=sys.stderr)
        sys.exit(2)

    print(f"{'workload':<15}" +
          "".join(f"{m['name']:>22}" for m in metrics) + "  verdict")
    violations = []
    for workload in shared:
        row = f"{workload:<15}"
        failed = not new_w[workload]["correct"]
        if failed:
            violations.append(f"{workload}: new run is not correct")
        for m in metrics:
            name = m["name"]
            a = base_w[workload]["metrics"][name]
            b = new_w[workload]["metrics"][name]
            worse = b - a if m["better"] == "lower" else a - b
            bad = worse > m["bound"] * abs(a) and \
                worse > FLOORS.get(name, 0.0)
            change = (b - a) / a if a else 0.0
            row += f"{change:>+20.1%}{'!' if bad else ' ':>2}"
            if bad:
                failed = True
                violations.append(
                    f"{workload}: {name} {a:.6g} -> {b:.6g} {m['unit']} "
                    f"({change:+.1%}; bound {m['bound']:.0%}, "
                    f"{m['better']} is better)")
        print(row + ("  REGRESSED" if failed else "  ok"))
    for v in violations:
        print(f"  {v}")
    sys.exit(1 if violations else 0)


if __name__ == "__main__":
    main()
