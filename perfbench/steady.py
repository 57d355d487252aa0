#!/usr/bin/env python3
"""Repeat one workload over several seeds and report run-to-run spread.

Usage (from the repository root):

    python3 perfbench/steady.py --workload serve-mixed --runs 10
    python3 perfbench/steady.py --workload run-paper --runs 5 --with-trace

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json. A spread
at or above the bound is FAIL, at or above a third of the bound WARN.
With --with-trace each seed also gets a traced run; the relative
difference between its "traced-e2e" metrics and the untraced medians
is the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("steady: %s exited with %d" % (" ".join(cmd),
                                                 proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    extra = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag in ("provenance", "traced-e2e"):
            extra[tag] = json.loads(rest)
    return json.loads(lines[-1]), extra


def spread_table(values_by_metric, bounds):
    rows = []
    worst = "OK"
    for name, values in values_by_metric.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        status = ("FAIL" if spread >= bound else
                  "WARN" if spread >= bound / 3 else "OK")
        if status != "OK" and worst != "FAIL":
            worst = status
        rows.append("%-18s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" %
                    (name, med, q1, q3, spread, bound, status))
    return rows, worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--with-trace", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    traced = {name: [] for name in bounds}
    for seed in range(1, args.runs + 1):
        result, extra = run_once(args.workload, seed, seconds, 0)
        if not result["correct"]:
            print("seed %d: correct=false (%d of %d failed)" %
                  (seed, result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        if seed == 1:
            print("provenance", json.dumps(extra.get("provenance")))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
        if args.with_trace:
            _, textra = run_once(args.workload, seed, seconds, 1)
            for name in traced:
                traced[name].append(textra["traced-e2e"][name]["value"])

    rows, worst = spread_table(values, bounds)
    print("\n%-18s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    print("\n".join(rows))
    if args.with_trace:
        print("\ntracing overhead (traced median vs untraced median):")
        for name in traced:
            base = statistics.median(values[name])
            if base:
                print("%-18s %+8.3f%%" % (
                    name, 100.0 * (statistics.median(traced[name]) - base)
                    / base))
    print("\nsteadiness: %s" % worst)


if __name__ == "__main__":
    main()
