#!/usr/bin/env python3
"""Print every benchmark metric's trajectory across bench/history/.

    python3 bench/history/trajectory.py [DIR]

DIR (default: this script's directory) holds pairs of run.py --json
documents, <date>-<parent rev>-parent.json and <date>-<parent
rev>-change.json, each pair run back to back on one machine. For each
workload, every end-to-end and per-layer metric gets one row: per pair,
its parent -> change values and the change in percent. Pairs are in
date order; within a date, in the commit order of their parent
revisions when git knows them (a full clone), else by name. Rows that
read 0 in every document (a layer the workload does not run) are left
out. Pairs come from different machines and days, so compare
within a pair and read across pairs as a trend.

Exit status: 0, or 2 when a document is unreadable or lacks its pair.
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent.parent / "BENCHMARK.json"
COLUMN = 30


def fail(message):
    print(f"trajectory.py: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def pairs(directory):
    """[(label, parent document, change document)], oldest first."""
    found = {}
    for path in sorted(directory.glob("*-parent.json")) + sorted(
            directory.glob("*-change.json")):
        stem, side = path.stem.rsplit("-", 1)
        found.setdefault(stem, {})[side] = load(path)
    result = []
    for stem in found:
        if len(found[stem]) != 2:
            fail(f"{stem}: needs both -parent.json and -change.json")
        date, rev = stem[:10], stem[11:]
        result.append(((date, commit_time(rev), stem), f"{rev} ({date[5:]})",
                       found[stem]["parent"], found[stem]["change"]))
    return [entry[1:] for entry in sorted(result)]


def commit_time(rev):
    """Commit time of rev, or 0 when git cannot resolve it."""
    try:
        out = subprocess.run(["git", "-C", str(HERE), "log", "-1",
                              "--format=%ct", rev, "--"],
                             capture_output=True, text=True)
        return int(out.stdout.strip()) if out.returncode == 0 else 0
    except (OSError, ValueError):
        return 0


def value(document, workload, name):
    entry = document["workloads"].get(workload, {})
    return entry.get("metrics", {}).get(name,
                                        entry.get("layers", {}).get(name))


def short(x):
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(x) >= scale:
            return f"{x / scale:.3g}{suffix}"
    return f"{x:.3g}"


def cell(a, b):
    if a is None or b is None:
        return "-"
    text = f"{short(a)} -> {short(b)}"
    return text + (f" {100 * (b - a) / a:+.1f}%" if a else "")


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    if len(sys.argv) > 2:
        fail("usage: trajectory.py [DIR]")
    directory = Path(sys.argv[1]) if len(sys.argv) == 2 else HERE
    history = pairs(directory)
    if not history:
        fail(f"no parent/change pairs in {directory}")
    spec = load(SPEC_FILE)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    workloads = []
    for _, parent, change in history:
        for w in list(parent["workloads"]) + list(change["workloads"]):
            if w not in workloads:
                workloads.append(w)

    for workload in workloads:
        print(f"== {workload}")
        print(f"{'metric':<36}" +
              "".join(f"{label:<{COLUMN}}" for label, _, _ in history))
        for name in names:
            values = [(value(p, workload, name), value(c, workload, name))
                      for _, p, c in history]
            if not any(v for pair in values for v in pair):
                continue
            print(f"{name:<36}" +
                  "".join(f"{cell(a, b):<{COLUMN}}" for a, b in values))
        print()


if __name__ == "__main__":
    main()
