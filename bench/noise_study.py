#!/usr/bin/env python3
"""The acceptance check the driver applies, runnable by hand.

``python3 bench/noise_study.py [--runs 10] [--sets 2] [--trace 0]`` runs
every workload ``runs`` times per set, each run with another seed, and
prints per metric: each set's median and quartile spread (Q3-Q1 as a
share of the median, ``statistics.quantiles(values, n=4)``) and how much
worse the second set's median is than the first, beside the metric's
bound.  Raw values go to ``bench/out/noise_study.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import metrics as M  # noqa: E402


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s%s" % (
            workload, seed, proc.stdout[-3000:], proc.stderr[-3000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    table = declared["per_layer" if args.trace else "end_to_end"]

    values = {w: [[] for _ in range(args.sets)] for w in workloads}
    for index in range(args.sets):
        for workload in workloads:
            for run in range(args.runs):
                seed = 1 + index * args.runs + run
                values[workload][index].append(
                    one_run(workload, seed, args.trace))
                print("set %d %s seed %d done" % (index + 1, workload, seed),
                      file=sys.stderr, flush=True)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "noise_study.json"), "w") as fh:
        json.dump(values, fh, indent=1)

    print("%-14s %-36s %7s | %s | %8s" % (
        "workload", "metric", "bound",
        " | ".join("set %d median   spread" % (i + 1)
                   for i in range(args.sets)), "gap"))
    worst = 0.0
    for workload in workloads:
        for metric in table:
            name, bound = metric["name"], metric.get("bound")
            cells, medians = [], []
            for runs in values[workload]:
                series = [r[name] for r in runs]
                median = statistics.median(series)
                q1, _q2, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median if median else 0.0
                medians.append(median)
                cells.append("%14.6g %7.4f" % (median, spread))
                if bound and name != "setup_s":
                    worst = max(worst, spread / bound)
            gap = 0.0
            if len(medians) > 1 and medians[0]:
                gap = (medians[-1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    gap = -gap
                if bound:
                    worst = max(worst, gap / bound)
            exact = name in M.EXACT_LAYER or bound == M.EXACT
            flag = "  EXACT-MOVED" if exact and (
                gap or any(not c.endswith(" 0.0000") for c in cells)) else ""
            print("%-14s %-36s %7s | %s | %+8.4f%s" % (
                workload, name, "%.3g" % bound if bound else "-",
                " | ".join(cells), gap, flag))
    print("worst spread-or-gap as a share of its bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
