#!/usr/bin/env python3
"""Suite runner behind run.sh and aa.sh.

Runs the built benchmark binary one workload at a time, reads the JSON
object it prints as its last line, and judges sets of runs against the
bounds fixed in BENCHMARK.json. Nothing here measures anything: every
number comes from the binary.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(ROOT, target, "release", "benchmark")


def run_one(workload, seed, trace):
    """One invocation; returns the result object or exits with its stderr."""
    argv = [binary(), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["stderr"] = done.stderr
    return result


def check(workload, result):
    """A wrong answer or a failed operation fails the whole suite."""
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: correct={result['correct']} "
                 f"failed={result['failed']} of {result['attempted']}\n"
                 f"{result['stderr']}")


def worse_by(metric, base, value):
    """Share of `base` by which `value` is worse (negative = better)."""
    delta = (value - base) / base
    return delta if metric["better"] == "lower" else -delta


def suite(seed, order):
    """Untraced then traced run of every workload, in the given order."""
    results = {}
    for trace in (0, 1):
        for workload in order:
            result = run_one(workload, seed, trace)
            check(workload, result)
            entry = results.setdefault(workload, {"ops_attempted": 0, "ops_failed": 0, "metrics": {}})
            entry["ops_attempted"] += result["attempted"]
            entry["ops_failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
    return results


def cmd_run(seed):
    """Everything once: the numbers of one commit on this host."""
    started = time.time()
    results = suite(seed, WORKLOADS)
    for workload in WORKLOADS:
        entry = results[workload]
        print(f"\n== {workload}: ops_attempted {entry['ops_attempted']} "
              f"ops_failed {entry['ops_failed']}")
        for name in list(END_TO_END) + list(PER_LAYER):
            m = entry["metrics"][name]
            bound = END_TO_END.get(name, {}).get("bound")
            tail = f"  bound {bound:.0%}" if bound is not None else ""
            print(f"  {name:<36} {m['value']:>14.4f} {m['unit']:<6}{tail}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w") as f:
        json.dump({"seed": seed, "run_seconds": SPEC["run_seconds"],
                   "host": host(), "workloads": results}, f, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)} and "
          f"{len(WORKLOADS)} trace files in {time.time() - started:.0f} s")


def host():
    model = "unknown"
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"nproc": os.cpu_count(), "cpu": model}


def quartile_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_aa(first_seed):
    """The same code measured as two sets of runs, the way a change is
    judged against its parent: each set runs every workload ten times,
    with seeds N..N+9. Workload by workload, the sets take turns seed
    by seed, so a shift in the host's speed falls on both. Per
    end-to-end metric: the quartile spread of each set and how far the
    worse median is from the other, each against the metric's bound. A
    metric outside its bound is unresolved on that workload: a
    difference of that size between two commits says nothing."""
    sets = ({w: [] for w in WORKLOADS}, {w: [] for w in WORKLOADS})
    for workload in WORKLOADS:
        for seed in range(first_seed, first_seed + 10):
            for runs in sets:
                result = run_one(workload, seed, 0)
                check(workload, result)
                runs[workload].append(result["metrics"])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "aa.json"), "w") as f:
        json.dump({"first_seed": first_seed, "host": host(), "sets": sets}, f, indent=1)
    unresolved = 0
    for workload in WORKLOADS:
        print(f"\n== {workload}")
        for name, metric in END_TO_END.items():
            a, b = ([m[name]["value"] for m in runs[workload]] for runs in sets)
            spread = max(quartile_spread(a), quartile_spread(b))
            a, b = statistics.median(a), statistics.median(b)
            differ = max(worse_by(metric, a, b), worse_by(metric, b, a))
            verdict = ("ok" if max(spread, differ) <= metric["bound"] / 3
                       else "over a third" if max(spread, differ) <= metric["bound"]
                       else "UNRESOLVED")
            unresolved += verdict == "UNRESOLVED"
            print(f"  {name:<16} {a:>12.4f} {b:>12.4f} {metric['unit']:<4} "
                  f"spread {spread:>6.1%}  medians differ {differ:>6.1%}  "
                  f"bound {metric['bound']:.0%}  {verdict}")
    sys.exit(1 if unresolved else 0)


if __name__ == "__main__":
    command = sys.argv[1] if len(sys.argv) > 1 else ""
    seed = int(sys.argv[sys.argv.index("--seed") + 1]) if "--seed" in sys.argv else 1
    if command == "run":
        cmd_run(seed)
    elif command == "aa":
        cmd_aa(seed)
    else:
        sys.exit("usage: report.py run|aa [--seed N]")
