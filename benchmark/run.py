#!/usr/bin/env python3
"""Host-throughput benchmark of the MorphCtr simulator.

Builds morphperf (benchmark/morphperf.cc, RelWithDebInfo, the
repository's own flags) into benchmark/build/, runs each workload in
separate morphperf processes, checks the pinned unit of every workload
against benchmark/expected.json, and prints every metric with its name
and unit. Host times are the median of the units pooled over the
processes; the 90th percentile of wall_s and the unit count are printed
beside them and reported as the per-layer run.* metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

    python3 benchmark/run.py                      # every workload
    python3 benchmark/run.py --workload mcf-timed --seed 3 --seconds 15
    python3 benchmark/run.py --trace 1            # per-layer metrics
    python3 benchmark/run.py --json run1.json     # input for compare.py
    python3 benchmark/run.py --bless              # rewrite expected.json

Exit status: 0 when every workload ran (whether or not its checks
passed: see "correct"), 1 when morphperf failed, 2 on a build or usage
error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE / "build"
MORPHPERF = BUILD / "morphperf"
EXPECTED = HERE / "expected.json"
SPEC_FILE = HERE.parent / "BENCHMARK.json"
# Per-layer metrics run.py computes from the pooled units; morphperf
# emits the rest.
RUN_LAYERS = ("run.units", "run.wall_s_p90")

# Per-process wall-clock cap; a run must end within three minutes.
PROCESS_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as e:
        log(f"run.py: cannot read {SPEC_FILE}: {e}")
        sys.exit(2)


def build():
    """Configure once, then build morphperf incrementally."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree for the next run to trust.
            shutil.rmtree(BUILD, ignore_errors=True)
            log("run.py: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                            "morphperf", "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        log("run.py: build failed")
        sys.exit(2)


def morphperf(args):
    """Run morphperf and return its JSON document."""
    try:
        done = subprocess.run([str(MORPHPERF)] + args, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: morphperf {' '.join(args)} timed out")
        sys.exit(1)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"run.py: morphperf {' '.join(args)} exited "
            f"{done.returncode}")
        sys.exit(1)
    try:
        return json.loads(done.stdout)
    except ValueError:
        log("run.py: morphperf printed no JSON document")
        sys.exit(1)


def drift(workload, stats, expected):
    """Deterministic statistics that differ from expected.json."""
    want = expected.get(workload)
    if want is None:
        return [f"{workload}: not in expected.json (run --bless)"]
    keys = sorted(set(want) | set(stats))
    return [f"{workload}: {k} = {stats.get(k)}, expected {want.get(k)}"
            for k in keys if stats.get(k) != want.get(k)]


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def run_workload(spec, workload, seed, seconds, repeat, trace, expected):
    """Run up to `repeat` processes, each measuring seconds/repeat, and
    pool their units.

    A process always completes at least one unit, and a fig15-sweep
    unit is a whole grid, so processes start only while the budget has
    room for half of the last one: a run measures about `seconds`
    whatever the unit size. The first process also reports the pinned
    unit's statistics for the drift check.
    """
    per_process = []
    start = time.monotonic()
    for r in range(repeat):
        t0 = time.monotonic()
        args = ["--workload", workload,
                "--seed", str((seed * 1000 + r) % 2**64),
                "--seconds", repr(seconds / repeat)]
        per_process.append(morphperf(args + (["--pin"] if r == 0 else [])
                                     + (["--trace"] if trace else [])))
        last = time.monotonic() - t0
        if time.monotonic() - start + last / 2 >= seconds:
            break

    failures = [f for p in per_process for f in p["check_failures"]]
    drifted = drift(workload, per_process[0]["stats"], expected)

    walls = [w for p in per_process for w in p["wall_s"]]
    wall_s = statistics.median(walls)
    end_to_end = {
        "setup_s": statistics.median(
            s for p in per_process for s in p["setup_s"]),
        "wall_s": wall_s,
        "host_accesses_per_s": per_process[0]["accesses_per_unit"] / wall_s,
        "peak_rss_mb": statistics.median(
            p["peak_rss_mb"] for p in per_process),
    }
    layers = {"run.units": len(walls), "run.wall_s_p90": p90(walls)}
    if trace:
        names = [m["name"] for m in spec["per_layer"]
                 if m["name"] not in RUN_LAYERS]
        emitted = set(per_process[0]["layers"])
        if emitted != set(names):
            log(f"run.py: morphperf layers {sorted(emitted ^ set(names))} "
                "do not match BENCHMARK.json")
            sys.exit(1)
        for name in names:
            layers[name] = statistics.median(
                p["layers"][name] for p in per_process)

    attempted = sum(p["attempted"] for p in per_process)
    failed = sum(p["failed"] for p in per_process)
    return {
        "correct": not failures and not drifted,
        "attempted": attempted,
        "failed": failed,
        "failed_op_frac": failed / attempted,
        "sim_result_drift": len(drifted),
        "check_failures": failures + drifted,
        "metrics": end_to_end,
        "layers": layers,
    }


def bless(workloads):
    """Pin each workload's unit at one worker and write expected.json."""
    expected = load_expected()
    for workload in workloads:
        pin = morphperf(["--workload", workload, "--pin", "--jobs", "1",
                         "--seconds", "0.001"])
        if pin["check_failures"]:
            for f in pin["check_failures"]:
                log(f"run.py: {f}")
            log(f"run.py: not blessing {workload}: self-checks failed")
            sys.exit(1)
        expected[workload] = pin["stats"]
        print(f"{workload}: blessed {len(pin['stats'])} statistics")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def load_expected():
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text())


def report(spec, workload, result, trace):
    units = {m["name"]: m for m in spec["end_to_end"]}
    print(f"== {workload}: "
          f"correct={str(result['correct']).lower()}, "
          f"sim_result_drift={result['sim_result_drift']}, "
          f"failed_op_frac={result['failed_op_frac']:.3g}")
    for f in result["check_failures"][:20]:
        print(f"   check failed: {f}")
    for name in RUN_LAYERS:
        print(f"   {name:<24} {result['layers'][name]:>14.6g} "
              f"{'count' if name == 'run.units' else 's':<6} "
              "(no bound: the sample count and tail of wall_s)")
    for name, value in result["metrics"].items():
        m = units[name]
        print(f"   {name:<24} {value:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better, bound {m['bound']:.0%})")
    for m in spec["per_layer"] if trace else []:
        if m["name"] in RUN_LAYERS:
            continue
        print(f"   {m['name']:<36} {result['layers'][m['name']]:>14.6g} "
              f"{m['unit']}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--repeat", type=int, default=3,
                        help="most processes per workload; each measures "
                             "seconds/repeat")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="also write every result to OUT")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite expected.json from the pinned units")
    args = parser.parse_args()
    if args.seconds <= 0 or args.repeat < 1 or args.seed < 0:
        parser.error("--seconds, --repeat and --seed must be positive")
    workloads = args.workload or names

    build()
    if args.bless:
        bless(workloads)
        return

    expected = load_expected()
    results = {}
    for workload in workloads:
        results[workload] = run_workload(spec, workload, args.seed,
                                         args.seconds, args.repeat,
                                         args.trace, expected)
        report(spec, workload, results[workload], args.trace)

    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "repeat": args.repeat, "trace": args.trace,
             "workloads": results}, indent=1) + "\n")

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for workload, result in results.items():
        values = result["layers"] if args.trace else result["metrics"]
        for m in spec[group]:
            key = m["name"] if len(results) == 1 else \
                f"{workload}/{m['name']}"
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
